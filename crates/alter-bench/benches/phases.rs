//! Phase-profile benchmark: per-phase cost-unit totals for Genome and
//! K-means under their best annotations at 1, 2, and 8 workers — the
//! numbers behind the EXPERIMENTS.md cost-share table.
//!
//! Everything emitted is deterministic (cost units folded from the
//! `phase_profile` trace events, never wall-clock), so the JSON summary
//! written by `--json <path>` is stable across machines and is merged into
//! `BENCH_runtime.json` by `scripts/bench.sh`.
//!
//! The run doubles as an acceptance check: for every configuration it
//! asserts that the trace-folded [`Profile`] agrees with the engine's own
//! `RunStats::phase_costs` ledger, that the sequential and threaded
//! drivers charge identical phase costs, and that enabling the profiler
//! changes the trace *only* by the `phase_profile` events themselves (the
//! hash with profiling stripped matches the unprofiled run).

use alter_bench::json_output;
use alter_infer::Probe;
use alter_runtime::PhaseCosts;
use alter_trace::{json_obj, trace_hash, Event, Json, Phase, Profile, Recorder, RingRecorder};
use alter_workloads::{genome::Genome, kmeans::KMeans, Benchmark, Scale};
use std::sync::Arc;

const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// One (workload, workers) measurement.
struct Measured {
    workers: usize,
    rounds: u64,
    profile: Profile,
}

/// Runs `bench`'s best probe at `workers` with phase profiling on and
/// returns the recorded events plus the engine's own phase ledger.
fn profiled_run(
    bench: &dyn Benchmark,
    workers: usize,
    threaded: bool,
    profile_phases: bool,
) -> (Vec<Event>, PhaseCosts, u64) {
    let mut probe = bench.best_probe(workers);
    probe.threaded = threaded;
    probe.profile_phases = profile_phases;
    let rec = Arc::new(RingRecorder::default());
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (rec.events(), run.stats.phase_costs, run.stats.rounds)
}

fn measure(name: &str, bench: &dyn Benchmark, workers: usize) -> Measured {
    let (events, ledger, rounds) = profiled_run(bench, workers, false, true);
    let profile = Profile::from_events(&events);

    // The trace-folded profile and the engine's in-stats ledger are two
    // paths to the same numbers; they must agree exactly.
    for phase in [
        Phase::Snapshot,
        Phase::Execute,
        Phase::Validate,
        Phase::Commit,
    ] {
        assert_eq!(
            profile.cost(phase),
            ledger.cost(phase),
            "{name} N={workers}: trace profile and RunStats ledger disagree on {phase}"
        );
    }
    assert_eq!(profile.total(), ledger.total());
    // One entry per engine phase per round. (`Profile::rounds()` can be
    // smaller than `stats.rounds` for workloads that drive the loop once
    // per outer iteration — round numbering restarts each segment.)
    assert_eq!(
        profile.entries(),
        4 * rounds,
        "{name}: one entry set per round"
    );

    // Phase costs are trace-stable: the threaded driver must charge the
    // exact same units as the sequential simulation.
    let (threaded_events, threaded_ledger, _) = profiled_run(bench, workers, true, true);
    assert_eq!(
        ledger, threaded_ledger,
        "{name} N={workers}: drive mode changed phase costs"
    );
    assert_eq!(trace_hash(&events), trace_hash(&threaded_events));

    // Profiling must be observationally pure: stripping the phase_profile
    // events recovers the unprofiled trace byte for byte.
    let (plain_events, plain_ledger, _) = profiled_run(bench, workers, false, false);
    let stripped: Vec<Event> = events
        .iter()
        .filter(|ev| !matches!(ev, Event::PhaseProfile { .. }))
        .cloned()
        .collect();
    assert_eq!(
        trace_hash(&stripped),
        trace_hash(&plain_events),
        "{name} N={workers}: profiler perturbed the underlying trace"
    );
    // The ledger is always folded, profiled or not.
    assert_eq!(ledger, plain_ledger);

    Measured {
        workers,
        rounds,
        profile,
    }
}

/// The summary `--json` writes: deterministic counters only, no wall-clock.
fn summary(rows: &[(String, String, Vec<Measured>)]) -> Json {
    let config = |m: &Measured| {
        let mut members = vec![
            ("workers".to_owned(), m.workers.into()),
            ("rounds".to_owned(), m.rounds.into()),
            ("total_cost".to_owned(), m.profile.total().into()),
        ];
        let phases = [
            Phase::Snapshot,
            Phase::Execute,
            Phase::Validate,
            Phase::Commit,
        ];
        members.extend(phases.map(|p| (p.as_str().to_owned(), m.profile.cost(p).into())));
        Json::Obj(members)
    };
    let workload = |(name, annotation, runs): &(String, String, Vec<Measured>)| {
        json_obj! {
            "name" => name.as_str(),
            "annotation" => annotation.as_str(),
            "configs" => Json::Arr(runs.iter().map(config).collect()),
        }
    };
    json_obj! { "workloads" => Json::Arr(rows.iter().map(workload).collect()) }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let emit = json_output();

    let genome = Genome::new(Scale::Inference);
    let kmeans = KMeans::new(Scale::Inference);
    let mut rows = Vec::new();
    for (name, bench) in [
        ("genome", &genome as &dyn Benchmark),
        ("k-means", &kmeans as &dyn Benchmark),
    ] {
        let probe: Probe = bench.best_probe(1);
        let mut runs = Vec::new();
        for workers in WORKER_SWEEP {
            let m = measure(name, bench, workers);
            println!(
                "{name:<8} [{}] N={workers}: {} rounds, {} cost units \
                 (snapshot {:.1}%, execute {:.1}%, validate {:.1}%, commit {:.1}%)",
                probe.describe(),
                m.rounds,
                m.profile.total(),
                m.profile.share(Phase::Snapshot) * 100.0,
                m.profile.share(Phase::Execute) * 100.0,
                m.profile.share(Phase::Validate) * 100.0,
                m.profile.share(Phase::Commit) * 100.0,
            );
            runs.push(m);
        }
        rows.push((name.to_owned(), probe.describe(), runs));
    }

    emit(&summary(&rows));
}
