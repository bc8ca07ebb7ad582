//! Microbenchmark of the per-round overhead machinery: for each measured
//! workload, runs the paper's best configuration at 8 workers on the
//! persistent worker pool and reports the deterministic snapshot-economics
//! counters. The slots a full rebuild would copy every round are the
//! phase ledger's snapshot charge ([`alter_runtime::PhaseCosts::snapshot`],
//! one per slot per round), so the `snapshot_slots_copied_full` column is
//! derived from the same run as the incremental figure.
//!
//! Everything asserted and emitted here is deterministic (counters, not
//! wall-clock), so the JSON summary written by `--json <path>` is stable
//! across machines and can be checked in (`scripts/bench.sh` merges it
//! into `BENCH_runtime.json`). Wall-clock timings are printed for
//! orientation but never enter the JSON.
//!
//! The run doubles as an acceptance check: it fails if the pool does not
//! drive every round, or if incremental snapshots do not cut the slots
//! copied at least 5× on Genome and K-means.

use alter_infer::Probe;
use alter_runtime::RunStats;
use alter_trace::{format_hash, trace_hash, Recorder, RingRecorder};
use alter_workloads::{genome::Genome, kmeans::KMeans, Benchmark, Scale};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Worker count for the measured runs: wide rounds snapshot once per round
/// regardless of width, so 8 workers maximizes useful work per snapshot
/// and matches the validation bench's geometry.
const WORKERS: usize = 8;

/// One measured workload.
struct Measured {
    name: &'static str,
    annotation: String,
    chunk: usize,
    rounds: u64,
    trace_hash: u64,
    stats: RunStats,
}

impl Measured {
    /// Slots a full page-table rebuild would copy over the run.
    fn full_slots(&self) -> u64 {
        self.stats.phase_costs.snapshot
    }

    fn reduction(&self) -> f64 {
        self.full_slots() as f64 / self.stats.snapshot_slots_copied.max(1) as f64
    }
}

/// Runs `bench` under `probe` on the worker pool with a fresh recorder;
/// returns run stats and the trace hash.
fn recorded_run(bench: &dyn Benchmark, probe: &Probe) -> (RunStats, u64) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.threaded = true;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (run.stats, trace_hash(&rec.events()))
}

/// Best-of-5 wall time of one recorder-free probe run, in milliseconds.
fn time_run(bench: &dyn Benchmark, probe: &Probe) -> f64 {
    let mut probe = probe.clone();
    probe.threaded = true;
    black_box(bench.run_probe(&probe).expect("warm-up must complete"));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        black_box(bench.run_probe(&probe).expect("probe must complete"));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures one workload under its best annotation.
fn measure(name: &'static str, bench: &dyn Benchmark) -> Measured {
    let probe = bench.best_probe(WORKERS);
    let (stats, trace_hash) = recorded_run(bench, &probe);
    assert_eq!(
        stats.pool_round_handoffs, stats.rounds,
        "{name}: one pool handoff per round"
    );

    let ms = time_run(bench, &probe);
    println!(
        "{name:<10} [{}] cf={} N={WORKERS}: snapshot slots {} (full rebuild) -> {} over {} \
         rounds (pages reused {}); {ms:.1} ms",
        probe.describe(),
        probe.chunk,
        stats.phase_costs.snapshot,
        stats.snapshot_slots_copied,
        stats.rounds,
        stats.snapshot_pages_reused,
    );

    Measured {
        name,
        annotation: probe.describe(),
        chunk: probe.chunk,
        rounds: stats.rounds,
        trace_hash,
        stats,
    }
}

/// Renders the deterministic summary as pretty-printed JSON (hand-rolled;
/// the workspace builds without `serde`).
fn to_json(rows: &[Measured]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"annotation\": \"{}\",", m.annotation);
        let _ = writeln!(out, "      \"chunk\": {},", m.chunk);
        let _ = writeln!(out, "      \"rounds\": {},", m.rounds);
        let _ = writeln!(
            out,
            "      \"snapshot_slots_copied_full\": {},",
            m.full_slots()
        );
        let _ = writeln!(
            out,
            "      \"snapshot_slots_copied_incremental\": {},",
            m.stats.snapshot_slots_copied
        );
        let _ = writeln!(
            out,
            "      \"snapshot_pages_reused\": {},",
            m.stats.snapshot_pages_reused
        );
        let _ = writeln!(out, "      \"snapshot_reduction_x\": {:.2},", m.reduction());
        let _ = writeln!(
            out,
            "      \"pool_round_handoffs\": {},",
            m.stats.pool_round_handoffs
        );
        let _ = writeln!(
            out,
            "      \"trace_hash\": \"{}\"",
            format_hash(m.trace_hash)
        );
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut json_path = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next().cloned();
            if json_path.is_none() {
                eprintln!("error: --json needs a path");
                std::process::exit(1);
            }
        }
    }

    let genome = Genome::new(Scale::Inference);
    let kmeans = KMeans::new(Scale::Inference);
    let rows = vec![measure("genome", &genome), measure("k-means", &kmeans)];

    // The headline claim, checked on every run: incremental snapshots must
    // cut the slots copied per run at least 5× on both workloads.
    for m in &rows {
        let reduction = m.reduction();
        assert!(
            reduction >= 5.0,
            "{}: snapshot_slots_copied only cut {reduction:.2}x: {} (full) vs {} (incremental)",
            m.name,
            m.full_slots(),
            m.stats.snapshot_slots_copied
        );
        println!("{} snapshot-copy reduction: {reduction:.1}x", m.name);
    }

    let json = to_json(&rows);
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write JSON summary");
        println!("wrote {path}");
    } else {
        print!("{json}");
    }
}
