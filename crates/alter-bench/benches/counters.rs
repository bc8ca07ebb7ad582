//! The deterministic counter bench: one run renders the whole of
//! `BENCH_runtime.json`. Every number in it is a counter of recorded engine
//! runs (cost units, scan words, snapshot slots, stall units, schedule and
//! probe counts, trace hashes), never wall-clock, so the file is stable
//! across machines and is checked in; `scripts/bench.sh` regenerates it and
//! a diff means the runtime's work profile actually changed. Wall-clock
//! numbers live in the `runtime_micro` bench and in `perfbench`.
//!
//! The sections, in file order:
//!
//! * `validation` — words the exact merge-scans compare behind the
//!   fingerprint pre-check and the cumulative round write-set, against
//!   `validate_words`, which is what a scan of every earlier committed
//!   writer compares (hence also the `exact_scan_words_exact` column);
//! * `round_overhead` — slots the incremental round snapshots copy,
//!   against the phase ledger's snapshot charge (one per slot per round,
//!   what a full rebuild would copy);
//! * `phases` — per-phase cost units at 1, 2 and 8 workers, folded from
//!   the `phase_profile` trace events;
//! * `pipeline` — committer stall of the streaming in-order committer
//!   against the lock-step barrier, both priced by
//!   [`alter_sim::round_stall`] over the rounds of one run (the `*_pipelined`
//!   keys name the streaming committer);
//! * `sharding` — exact-scan words with the heap in 1 and 16 shards;
//! * `check` — DPOR schedules explored against naive enumeration;
//! * `absint` — probes the static analyzer's verdicts skip.
//!
//! Each section asserts its headline claim on every run, so the bench is
//! also an acceptance check. Runs are memoized by workload and probe: a
//! configuration two sections report runs once (validation's rows are
//! sharding's 1-shard arm; round_overhead's rows are the unprofiled
//! 8-worker phases runs, and its genome row is pipeline's; k-means' tuned
//! cf is 4, so its round_overhead row is also validation's). Runs use the
//! worker pool: its traces and semantic
//! counters equal the sequential driver's (`tests/round_modes.rs`), and it
//! adds the pool telemetry round_overhead checks.
//!
//! `cargo bench -p alter-bench --bench counters [-- --json <path>]` prints
//! the document, or writes it to `<path>`.

use alter_analyze::{check_events, CheckConfig};
use alter_bench::json_output;
use alter_heap::{Heap, ObjData};
use alter_infer::{infer, InferConfig, Probe};
use alter_runtime::{Driver, ExecParams, LoopBuilder, RunStats};
use alter_sim::{CostModel, SimObserver, StallModel};
use alter_trace::{
    format_hash, json_obj, trace_hash, Event, Json, Phase, Profile, Recorder, RingRecorder,
};
use alter_workloads::{all_benchmarks, find_benchmark, Benchmark, Scale};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Worker count of the validation, round-overhead, pipeline and sharding
/// runs: wide rounds make a scan of every earlier writer expensive (up to
/// N−1 set comparisons per validation) and snapshot once per round
/// whatever the width.
const WORKERS: usize = 8;
/// Chunk factor validation and sharding pin for both workloads: k-means'
/// tuned cf. Genome's tuned cf of 16 raises its retry rate to ~25%,
/// drowning the no-conflict validations these sections are about in
/// conflict attribution.
const SCAN_CHUNK: usize = 4;
/// The sharded heap layout, compared against the unsharded heap.
const SHARDS_HI: usize = 16;
/// Worker counts of the phase profile.
const PHASE_SWEEP: [usize; 3] = [1, 2, 8];
/// The phases a loop run charges, one entry each per round.
const ENGINE_PHASES: [Phase; 4] = [
    Phase::Snapshot,
    Phase::Execute,
    Phase::Validate,
    Phase::Commit,
];
/// Worker count of the model-checked runs: up to N! naive commit orders
/// per round, the space DPOR prunes.
const CHECK_WORKERS: usize = 4;
/// Per-lane write span of the synthetic skewed-chunk loop, in f64 words.
const SPAN: usize = 512;
/// Declared work units of the skewed-chunk loop's heavy lane.
const HEAVY_WORK: u64 = 4000;

/// The two workloads most sections measure, by their row names.
type Workloads = [(&'static str, Box<dyn Benchmark>); 2];

/// One recorded run.
struct Run {
    stats: RunStats,
    stall: StallModel,
    events: Vec<Event>,
    hash: u64,
}

/// Recorded runs, memoized by workload and probe.
#[derive(Default)]
struct Runs(HashMap<String, Rc<Run>>);

impl Runs {
    /// `bench` under `probe` with a fresh recorder, or the earlier run of
    /// the same configuration.
    fn get(&mut self, bench: &dyn Benchmark, mut probe: Probe) -> Rc<Run> {
        let key = format!("{} {probe:?}", bench.name());
        if let Some(run) = self.0.get(&key) {
            return run.clone();
        }
        let rec = Arc::new(RingRecorder::default());
        probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
        let run = bench.run_probe(&probe).expect("probe must complete");
        assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
        let events = rec.events();
        let run = Rc::new(Run {
            stats: run.stats,
            stall: run.clock.stall,
            hash: trace_hash(&events),
            events,
        });
        self.0.insert(key, run.clone());
        run
    }
}

/// `bench`'s best annotation at `workers`, on the worker pool.
fn best(bench: &dyn Benchmark, workers: usize) -> Probe {
    Probe {
        threaded: true,
        ..bench.best_probe(workers)
    }
}

/// The validation and sharding configuration at `shards` heap shards.
fn scan_probe(bench: &dyn Benchmark, shards: usize) -> Probe {
    Probe {
        chunk: SCAN_CHUNK,
        shards,
        ..best(bench, WORKERS)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn validation(runs: &mut Runs, workloads: &Workloads) -> Json {
    let mut rows = Vec::new();
    for (name, bench) in workloads {
        let probe = scan_probe(bench.as_ref(), 1);
        let run = runs.get(bench.as_ref(), probe.clone());
        let s = &run.stats;
        let reduction = ratio(s.validate_words, s.exact_scan_words);
        println!(
            "validation   {name:<10} exact-scan words {} (per-writer scan) -> {} ({reduction:.1}x)",
            s.validate_words, s.exact_scan_words
        );
        // The fingerprint pre-check and the cumulative write-set must at
        // least halve the words exact merge-scans compare on Genome.
        assert!(
            *name != "genome" || s.exact_scan_words * 2 <= s.validate_words,
            "genome exact-scan words not halved: {} (fingerprinted) vs {} (per-writer)",
            s.exact_scan_words,
            s.validate_words
        );
        rows.push(json_obj! {
            "name" => *name,
            "annotation" => probe.describe(),
            "chunk" => probe.chunk,
            "cost_units" => s.cost_units(),
            "validate_words" => s.validate_words,
            "exact_scan_words_exact" => s.validate_words,
            "exact_scan_words_fast" => s.exact_scan_words,
            "scan_reduction_x" => Json::fixed2(reduction),
            "fingerprint_hits" => s.fingerprint_hits,
            "fingerprint_rejects" => s.fingerprint_rejects,
            "pool_reuses" => s.pool_reuses,
            "trace_hash" => format_hash(run.hash),
        });
    }
    json_obj! { "workers" => WORKERS, "workloads" => Json::Arr(rows) }
}

fn round_overhead(runs: &mut Runs, workloads: &Workloads) -> Json {
    let mut rows = Vec::new();
    for (name, bench) in workloads {
        let probe = best(bench.as_ref(), WORKERS);
        let run = runs.get(bench.as_ref(), probe.clone());
        let s = &run.stats;
        let full = s.phase_costs.snapshot;
        let reduction = ratio(full, s.snapshot_slots_copied);
        println!(
            "round_overhd {name:<10} snapshot slots {full} (full rebuild) -> {} over {} rounds \
             ({reduction:.1}x)",
            s.snapshot_slots_copied, s.rounds
        );
        assert_eq!(
            s.pool_round_handoffs, s.rounds,
            "{name}: one pool handoff per round"
        );
        assert!(
            reduction >= 5.0,
            "{name}: snapshot_slots_copied only cut {reduction:.2}x: {full} (full) vs {} \
             (incremental)",
            s.snapshot_slots_copied
        );
        rows.push(json_obj! {
            "name" => *name,
            "annotation" => probe.describe(),
            "chunk" => probe.chunk,
            "rounds" => s.rounds,
            "snapshot_slots_copied_full" => full,
            "snapshot_slots_copied_incremental" => s.snapshot_slots_copied,
            "snapshot_pages_reused" => s.snapshot_pages_reused,
            "snapshot_reduction_x" => Json::fixed2(reduction),
            "pool_round_handoffs" => s.pool_round_handoffs,
            "trace_hash" => format_hash(run.hash),
        });
    }
    json_obj! { "workers" => WORKERS, "workloads" => Json::Arr(rows) }
}

/// One phase-profile row. Asserts that the trace-folded [`Profile`] equals
/// the engine's `RunStats::phase_costs` ledger, that both drivers charge
/// the same ledger, and that profiling changes the trace only by its own
/// `phase_profile` events.
fn phase_config(runs: &mut Runs, name: &str, bench: &dyn Benchmark, workers: usize) -> Json {
    let plain_probe = best(bench, workers);
    let profiled = Probe {
        profile_phases: true,
        ..plain_probe.clone()
    };
    let threaded = runs.get(bench, profiled.clone());
    let run = runs.get(
        bench,
        Probe {
            threaded: false,
            ..profiled
        },
    );
    let plain = runs.get(bench, plain_probe);
    let (ledger, rounds) = (run.stats.phase_costs, run.stats.rounds);
    let profile = Profile::from_events(&run.events);
    let tag = format!("{name} N={workers}");

    for phase in ENGINE_PHASES {
        assert_eq!(
            profile.cost(phase),
            ledger.cost(phase),
            "{tag}: trace profile and RunStats ledger disagree on {phase}"
        );
    }
    assert_eq!(profile.total(), ledger.total());
    // One entry per engine phase per round. (`Profile::rounds()` can be
    // smaller than `stats.rounds` for workloads that drive the loop once
    // per outer iteration: round numbering restarts each segment.)
    assert_eq!(
        profile.entries(),
        4 * rounds,
        "{tag}: one entry set per round"
    );
    assert_eq!(
        ledger, threaded.stats.phase_costs,
        "{tag}: drive mode changed phase costs"
    );
    assert_eq!(run.hash, threaded.hash);
    let stripped: Vec<Event> = run
        .events
        .iter()
        .filter(|ev| !matches!(ev, Event::PhaseProfile { .. }))
        .cloned()
        .collect();
    assert_eq!(
        trace_hash(&stripped),
        plain.hash,
        "{tag}: profiler perturbed the underlying trace"
    );
    // The ledger is always folded, profiled or not.
    assert_eq!(ledger, plain.stats.phase_costs);

    println!(
        "phases       {tag:<10} {rounds} rounds, {} cost units (snapshot {:.1}%, execute {:.1}%, \
         validate {:.1}%, commit {:.1}%)",
        profile.total(),
        profile.share(Phase::Snapshot) * 100.0,
        profile.share(Phase::Execute) * 100.0,
        profile.share(Phase::Validate) * 100.0,
        profile.share(Phase::Commit) * 100.0,
    );
    let mut members = vec![
        ("workers".to_owned(), workers.into()),
        ("rounds".to_owned(), rounds.into()),
        ("total_cost".to_owned(), profile.total().into()),
    ];
    members.extend(ENGINE_PHASES.map(|p| (p.as_str().to_owned(), profile.cost(p).into())));
    Json::Obj(members)
}

fn phases(runs: &mut Runs, workloads: &Workloads) -> Json {
    let rows = workloads.iter().map(|(name, bench)| {
        let configs = PHASE_SWEEP.map(|w| phase_config(runs, name, bench.as_ref(), w));
        json_obj! {
            "name" => *name,
            "annotation" => bench.best_probe(1).describe(),
            "configs" => Json::Arr(configs.into()),
        }
    });
    json_obj! { "workloads" => Json::Arr(rows.collect()) }
}

/// The synthetic skewed-chunk loop: 8 single-iteration chunks in one round.
/// Lanes 0..=6 each write a private 512-word span; lane 7 also declares
/// 4000 work units, the straggler the barrier waits for.
fn skewed_run() -> Run {
    let rec = Arc::new(RingRecorder::default());
    let params = ExecParams::from_annotation(
        &"[StaleReads]".parse().expect("static annotation"),
        WORKERS,
        1,
    )
    .with_recorder(rec.clone());
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_f64(WORKERS * SPAN));
    let model = CostModel::default();
    let mut obs = SimObserver::new(&model, WORKERS);
    let stats = LoopBuilder::new(&params)
        .range(0, WORKERS as u64)
        .observer(&mut obs)
        .run(&mut heap, Driver::threaded(), |ctx, i| {
            if i as usize == WORKERS - 1 {
                ctx.tx.work(HEAVY_WORK);
            }
            for w in 0..SPAN {
                ctx.tx
                    .write_f64(xs, i as usize * SPAN + w, (i as usize * SPAN + w) as f64);
            }
        })
        .expect("skewed-chunk loop must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    let events = rec.events();
    Run {
        stats,
        stall: obs.into_clock().stall,
        hash: trace_hash(&events),
        events,
    }
}

fn pipeline(runs: &mut Runs) -> Json {
    let mut scenarios = vec![(
        "skewed-chunk",
        format!("[StaleReads] synthetic, heavy lane {HEAVY_WORK} work units"),
        Rc::new(skewed_run()),
    )];
    for name in ["genome", "labyrinth"] {
        let bench = find_benchmark(name).expect("workload is registered");
        let probe = best(bench.as_ref(), WORKERS);
        let config = format!("[{}] cf={}", probe.describe(), probe.chunk);
        scenarios.push((name, config, runs.get(bench.as_ref(), probe)));
    }
    let mut rows = Vec::new();
    for (name, config, run) in scenarios {
        let (s, b, p) = (&run.stats, run.stall.barrier, run.stall.streaming);
        let reduction = ratio(b.committer_stall_units, p.committer_stall_units);
        println!(
            "pipeline     {name:<12} committer stall {} -> {} units ({reduction:.1}x) over {} \
             round(s), worker idle {} -> {}",
            b.committer_stall_units,
            p.committer_stall_units,
            s.rounds,
            b.worker_idle_units,
            p.worker_idle_units
        );
        assert_eq!(
            s.tickets_issued + s.tickets_requeued,
            s.attempts,
            "{name}: every attempt is an issued or re-queued ticket"
        );
        assert_eq!(
            s.pool_round_handoffs, s.rounds,
            "{name}: the pool drives every round"
        );
        assert!(
            p.committer_stall_units <= b.committer_stall_units
                && p.worker_idle_units <= b.worker_idle_units,
            "{name}: in-order streaming can never wait longer than the barrier ({p:?} vs {b:?})"
        );
        // Streaming must shed at least 2x the stall the barrier pays for
        // the skewed loop's straggler lane.
        assert!(
            name != "skewed-chunk" || reduction >= 2.0,
            "skewed-chunk: committer stall only cut {reduction:.2}x: {} (barrier) vs {} \
             (streaming)",
            b.committer_stall_units,
            p.committer_stall_units
        );
        rows.push(json_obj! {
            "name" => name,
            "config" => config,
            "rounds" => s.rounds,
            "committer_stall_units_barrier" => b.committer_stall_units,
            "committer_stall_units_pipelined" => p.committer_stall_units,
            "stall_reduction_x" => Json::fixed2(reduction),
            "worker_idle_units_barrier" => b.worker_idle_units,
            "worker_idle_units_pipelined" => p.worker_idle_units,
            "tickets_issued" => s.tickets_issued,
            "tickets_requeued" => s.tickets_requeued,
            "trace_hash" => format_hash(run.hash),
        });
    }
    json_obj! { "workers" => WORKERS, "scenarios" => Json::Arr(rows) }
}

fn sharding(runs: &mut Runs, workloads: &Workloads) -> Json {
    let mut rows = Vec::new();
    for (name, bench) in workloads {
        let probe = scan_probe(bench.as_ref(), 1);
        let unsharded = runs.get(bench.as_ref(), probe.clone());
        let sharded = runs.get(bench.as_ref(), scan_probe(bench.as_ref(), SHARDS_HI));
        let (u, s) = (&unsharded.stats, &sharded.stats);
        let reduction = ratio(u.exact_scan_words, s.exact_scan_words);
        println!(
            "sharding     {name:<10} exact-scan words {} -> {} at {SHARDS_HI} shards ({reduction:.1}x)",
            u.exact_scan_words, s.exact_scan_words
        );
        assert_eq!(
            unsharded.hash, sharded.hash,
            "{name}: sharding changed the trace; the optimization must stay invisible"
        );
        // Every verdict matches field for field; only the fast-path
        // accounting (which scans ran) may move across shard counts.
        assert_eq!(u.validate_words, s.validate_words);
        assert_eq!(u.committed, s.committed);
        assert_eq!(u.retries(), s.retries());
        assert_eq!(u.rounds, s.rounds);
        assert_eq!(u.cost_units(), s.cost_units());
        assert_eq!(u.shard_validate_words, 0);
        assert!(s.shard_imbalance_max <= s.shard_validate_words.max(1));
        // Per-shard fingerprints and word-block scans must at least halve
        // the words the exact scans compare on Genome.
        assert!(
            *name != "genome" || s.exact_scan_words * 2 <= u.exact_scan_words,
            "genome exact-scan words not halved by sharding: {} (sharded) vs {} (unsharded)",
            s.exact_scan_words,
            u.exact_scan_words
        );
        rows.push(json_obj! {
            "name" => *name,
            "annotation" => probe.describe(),
            "chunk" => probe.chunk,
            "validate_words" => s.validate_words,
            "exact_scan_words_unsharded" => u.exact_scan_words,
            "exact_scan_words_sharded" => s.exact_scan_words,
            "scan_reduction_x" => Json::fixed2(reduction),
            "shard_validate_words" => s.shard_validate_words,
            "shard_commit_batches" => s.shard_commit_batches,
            "shard_imbalance_max" => s.shard_imbalance_max,
            "trace_hash" => format_hash(unsharded.hash),
        });
    }
    json_obj! {
        "workers" => WORKERS,
        "shards" => SHARDS_HI,
        "workloads" => Json::Arr(rows),
    }
}

fn check(runs: &mut Runs, workloads: &Workloads) -> Json {
    let mut rows = Vec::new();
    for (name, bench) in workloads {
        let probe = Probe {
            record_sets: true,
            ..best(bench.as_ref(), CHECK_WORKERS)
        };
        let params = probe.model.exec_params(CHECK_WORKERS, probe.chunk);
        let run = runs.get(bench.as_ref(), probe.clone());
        let cfg = CheckConfig::new(params.conflict, params.order);
        let r = check_events(&run.events, &cfg).expect("recorded stream must extract");
        let pruning = ratio(r.naive_schedules, r.explored);
        println!(
            "check        {name:<10} {} naive schedules -> {} explored ({pruning:.1}x pruning), \
             {} reorderings flagged",
            r.naive_schedules, r.explored, r.flagged
        );
        assert!(
            r.sound(),
            "{name}: best annotation unsound under an explored schedule: {:?}",
            r.unsound.first().map(|u| u.divergence.render())
        );
        assert_eq!(r.budget_hits, 0, "{name}: schedule budget must not bite");
        assert!(
            r.explored * 5 <= r.naive_schedules,
            "{name}: DPOR pruning below 5x: {} explored vs {} naive",
            r.explored,
            r.naive_schedules
        );
        rows.push(json_obj! {
            "name" => *name,
            "annotation" => probe.describe(),
            "rounds" => r.rounds,
            "tasks" => r.tasks,
            "naive_schedules" => r.naive_schedules,
            "explored" => r.explored,
            "pruned" => r.pruned(),
            "pruning_ratio_x" => Json::fixed2(pruning),
            "flagged" => r.flagged,
            "scan_words" => r.scan_words,
            "sound" => r.sound(),
        });
    }
    json_obj! { "workers" => CHECK_WORKERS, "workloads" => Json::Arr(rows) }
}

/// Runs the inference suite with dynamic-only pruning and with the
/// combined static + dynamic tiers.
fn absint() -> Json {
    let dynamic_cfg = InferConfig {
        static_prune: false,
        ..InferConfig::default()
    };
    let (mut dynamic_total, mut combined_total, mut skips_total) = (0, 0, 0);
    let mut rows = Vec::new();
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name();
        let combined = infer(b.as_ref(), &InferConfig::default());
        let dynamic = infer(b.as_ref(), &dynamic_cfg);
        let skips = combined.static_pruned.len();
        assert_eq!(
            combined.valid_annotations, dynamic.valid_annotations,
            "{name}: static pruning changed the inferred annotations"
        );
        assert_eq!(
            dynamic.probes_run - combined.probes_run,
            skips as u64,
            "{name}: every static skip saves exactly one probe"
        );
        let skipped = combined
            .static_pruned
            .iter()
            .map(|pc| format!("{}: {}", pc.annotation, pc.reason).into());
        dynamic_total += dynamic.probes_run;
        combined_total += combined.probes_run;
        skips_total += skips;
        rows.push(json_obj! {
            "name" => name,
            "probes_dynamic_only" => dynamic.probes_run,
            "probes_combined" => combined.probes_run,
            "static_skips" => skips,
            "skipped" => Json::Arr(skipped.collect()),
        });
    }
    println!(
        "absint       suite {dynamic_total} probes -> {combined_total} ({skips_total} \
         statically skipped)"
    );
    assert!(
        skips_total >= 10,
        "static tier skipped only {skips_total} probes suite-wide (need >= 10)"
    );
    json_obj! {
        "probes_dynamic_only" => dynamic_total,
        "probes_combined" => combined_total,
        "static_skips" => skips_total,
        "workloads" => Json::Arr(rows),
    }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let emit = json_output();
    let workloads: Workloads =
        ["genome", "k-means"].map(|name| (name, find_benchmark(name).expect("registered")));
    let mut runs = Runs::default();
    emit(&json_obj! {
        "validation" => validation(&mut runs, &workloads),
        "round_overhead" => round_overhead(&mut runs, &workloads),
        "phases" => phases(&mut runs, &workloads),
        "pipeline" => pipeline(&mut runs),
        "sharding" => sharding(&mut runs, &workloads),
        "check" => check(&mut runs, &workloads),
        "absint" => absint(),
    });
}
