//! Microbenchmark of the sharded versioned heap: for each measured
//! workload, runs the paper's best configuration with the heap split into
//! 1 and 16 object-id shards and reports the deterministic work counters
//! side by side — trace hash, legacy `validate_words`, and the words the
//! exact conflict scans actually compared under each layout.
//!
//! Sharding is a pure perf knob: per-shard fingerprints prune whole shards
//! before any exact scan runs, and the word-block scans that remain touch
//! only the surviving shard's ranges. The trace hash therefore must be
//! byte-identical at every shard count, and this bench hard-asserts it.
//!
//! Everything asserted and emitted here is deterministic (counters, not
//! wall-clock), so the JSON summary written by `--json <path>` is stable
//! across machines and can be checked in (`scripts/bench.sh` merges it
//! into `BENCH_runtime.json` as the `"sharding"` section).
//!
//! The run doubles as an acceptance check: it fails if any shard count
//! changes a trace hash, or if sharding does not at least halve exact-scan
//! words on Genome at 16 shards.
//!
//! Set `ALTER_BENCH_WALL_SCALING=1` to instead print a Table-3-shaped
//! wall-clock speedup table (genome / k-means / labyrinth, threaded runs
//! at 1/2/4/8 workers). Wall-clock numbers are informational only: they
//! are machine-dependent and never enter the JSON or any drift check.

use alter_bench::json_output;
use alter_infer::Probe;
use alter_runtime::RunStats;
use alter_trace::{format_hash, json_obj, trace_hash, Json, Recorder, RingRecorder};
use alter_workloads::{
    find_benchmark, genome::Genome, kmeans::KMeans, labyrinth::Labyrinth, Benchmark, Scale,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Worker count for the measured runs: wide rounds mean each validation
/// scans up to N−1 earlier write sets, which is the work per-shard
/// fingerprint pruning cuts down.
const WORKERS: usize = 8;

/// The sharded layout under test, compared against the unsharded heap.
const SHARDS_HI: usize = 16;

/// One measured workload: the same run at 1 shard and at `SHARDS_HI`.
struct Measured {
    name: &'static str,
    annotation: String,
    chunk: usize,
    trace_hash: u64,
    unsharded: RunStats,
    sharded: RunStats,
}

/// Runs `bench` under `probe` at `shards` heap shards with a fresh
/// recorder; returns run stats and the trace hash.
fn recorded_run(bench: &dyn Benchmark, probe: &Probe, shards: usize) -> (RunStats, u64) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.shards = shards;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (run.stats, trace_hash(&rec.events()))
}

/// Measures one workload under its best annotation at `chunk` iterations
/// per transaction (pinned at 4, matching the validation bench: genome's
/// tuned cf of 16 drowns no-conflict validations in retry attribution).
fn measure(name: &'static str, chunk: usize) -> Measured {
    let bench = find_benchmark(name).expect("workload is registered");
    let mut probe = bench.best_probe(WORKERS);
    probe.chunk = chunk;
    let (unsharded, hash_1) = recorded_run(bench.as_ref(), &probe, 1);
    let (sharded, hash_16) = recorded_run(bench.as_ref(), &probe, SHARDS_HI);

    assert_eq!(
        hash_1, hash_16,
        "{name}: sharding changed the trace — the optimization is not allowed to be visible"
    );
    // Every drive-invariant verdict must match field for field; only the
    // fast-path accounting (which scans ran) may move across shard counts.
    assert_eq!(unsharded.validate_words, sharded.validate_words);
    assert_eq!(unsharded.committed, sharded.committed);
    assert_eq!(unsharded.retries(), sharded.retries());
    assert_eq!(unsharded.rounds, sharded.rounds);
    assert_eq!(unsharded.cost_units(), sharded.cost_units());
    assert_eq!(unsharded.shard_validate_words, 0);
    assert!(sharded.shard_imbalance_max <= sharded.shard_validate_words.max(1));

    println!(
        "{name:<10} [{}] cf={} N={WORKERS}: exact-scan words {} -> {} at {SHARDS_HI} shards \
         (shard scans {}, commit batches {} -> {}, imbalance max {})",
        probe.describe(),
        probe.chunk,
        unsharded.exact_scan_words,
        sharded.exact_scan_words,
        sharded.shard_validate_words,
        unsharded.shard_commit_batches,
        sharded.shard_commit_batches,
        sharded.shard_imbalance_max,
    );

    Measured {
        name,
        annotation: probe.describe(),
        chunk: probe.chunk,
        trace_hash: hash_1,
        unsharded,
        sharded,
    }
}

/// The summary `--json` writes: deterministic counters only, no wall-clock.
fn summary(rows: &[Measured]) -> Json {
    let row = |m: &Measured| {
        let (u, s) = (&m.unsharded, &m.sharded);
        let reduction = u.exact_scan_words as f64 / s.exact_scan_words.max(1) as f64;
        json_obj! {
            "name" => m.name,
            "annotation" => m.annotation.as_str(),
            "chunk" => m.chunk,
            "validate_words" => s.validate_words,
            "exact_scan_words_unsharded" => u.exact_scan_words,
            "exact_scan_words_sharded" => s.exact_scan_words,
            "scan_reduction_x" => Json::fixed2(reduction),
            "shard_validate_words" => s.shard_validate_words,
            "shard_commit_batches" => s.shard_commit_batches,
            "shard_imbalance_max" => s.shard_imbalance_max,
            "trace_hash" => format_hash(m.trace_hash),
        }
    };
    json_obj! {
        "workers" => WORKERS,
        "shards" => SHARDS_HI,
        "workloads" => Json::Arr(rows.iter().map(row).collect()),
    }
}

/// Best-of-3 wall time of one recorder-free threaded probe run, in
/// milliseconds, at `workers` workers and `SHARDS_HI` heap shards.
fn time_threaded(bench: &dyn Benchmark, workers: usize) -> f64 {
    let mut probe = bench.best_probe(workers);
    probe.threaded = true;
    probe.shards = SHARDS_HI;
    black_box(bench.run_probe(&probe).expect("warm-up must complete"));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        black_box(bench.run_probe(&probe).expect("probe must complete"));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The opt-in wall-clock mode: a Table-3-shaped speedup table over real
/// threads at the paper-scale inputs (the bold column of Table 2; the
/// inference-scale inputs used everywhere else finish in single-digit
/// milliseconds, where thread coordination dwarfs the loop body). Purely
/// informational — nothing here is asserted or written to JSON, because
/// wall-clock is machine noise by definition.
fn wall_scaling_table() {
    const COUNTS: [usize; 4] = [1, 2, 4, 8];
    let benches: [Box<dyn Benchmark>; 3] = [
        Box::new(Genome::new(Scale::Paper)),
        Box::new(KMeans::new(Scale::Paper)),
        Box::new(Labyrinth::new(Scale::Paper)),
    ];
    println!(
        "wall-clock scaling, paper-scale threaded runs at {SHARDS_HI} heap shards \
         (best of 3, informational):"
    );
    println!(
        "  {:<12} {:>9} {:>17} {:>17} {:>17}",
        "Benchmark", "1w (ms)", "2w", "4w", "8w"
    );
    for bench in &benches {
        let ms: Vec<f64> = COUNTS
            .iter()
            .map(|&w| time_threaded(bench.as_ref(), w))
            .collect();
        println!(
            "  {:<12} {:>9.1} {:>10.1} ({:>4.2}x) {:>10.1} ({:>4.2}x) {:>10.1} ({:>4.2}x)",
            bench.name(),
            ms[0],
            ms[1],
            ms[0] / ms[1].max(1e-9),
            ms[2],
            ms[0] / ms[2].max(1e-9),
            ms[3],
            ms[0] / ms[3].max(1e-9),
        );
    }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    if std::env::var("ALTER_BENCH_WALL_SCALING").is_ok_and(|v| v == "1") {
        wall_scaling_table();
        return;
    }
    let emit = json_output();

    let rows = vec![measure("genome", 4), measure("k-means", 4)];

    // The headline claim, checked on every run: at 16 shards the per-shard
    // fingerprints and word-block scans must at least halve the words the
    // exact scans compare on Genome.
    let g = &rows[0];
    assert!(
        g.sharded.exact_scan_words * 2 <= g.unsharded.exact_scan_words,
        "genome exact-scan words not halved by sharding: {} (sharded) vs {} (unsharded)",
        g.sharded.exact_scan_words,
        g.unsharded.exact_scan_words
    );
    println!(
        "genome exact-scan reduction at {SHARDS_HI} shards: {:.1}x",
        g.unsharded.exact_scan_words as f64 / g.sharded.exact_scan_words.max(1) as f64
    );

    emit(&summary(&rows));
}
