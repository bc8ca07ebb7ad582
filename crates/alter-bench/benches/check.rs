//! Microbenchmark of the DPOR schedule-space checker: model-checks the
//! recorded best-annotation runs of Genome and K-means and reports the
//! deterministic pruning economics — naive schedule count (`Σ n!` over
//! rounds), DPOR representatives actually explored, reorderings the
//! oracle flagged, and the words the commutativity block scans compared.
//!
//! Everything asserted and emitted here is deterministic (counters, not
//! wall-clock), so the JSON summary written by `--json <path>` is stable
//! across machines and can be checked in (`scripts/bench.sh` merges it
//! into `BENCH_runtime.json` as the `"check"` section).
//!
//! The run doubles as an acceptance check: it fails if either workload's
//! best annotation stops being schedule-sound, or if DPOR stops pruning
//! at least 5× below naive enumeration on both workloads.

use alter_analyze::{check_events, CheckConfig, CheckReport};
use alter_bench::json_output;
use alter_infer::Probe;
use alter_trace::{json_obj, Event, Json, Recorder, RingRecorder};
use alter_workloads::{find_benchmark, Benchmark};
use std::sync::Arc;

/// Worker count for the measured runs: wide rounds mean up to N! naive
/// commit orders per round, which is the space DPOR prunes.
const WORKERS: usize = 4;

/// One measured workload: the best-annotation run's schedule-space audit.
struct Measured {
    name: &'static str,
    annotation: String,
    report: CheckReport,
}

/// Runs `bench` under `probe` with task-set recording and returns the
/// captured events.
fn recorded_run(bench: &dyn Benchmark, probe: &Probe) -> Vec<Event> {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = probe.clone();
    probe.record_sets = true;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    rec.events()
}

/// Model-checks one workload under its best annotation.
fn measure(name: &'static str) -> Measured {
    let bench = find_benchmark(name).expect("workload is registered");
    let probe = bench.best_probe(WORKERS);
    let params = probe.model.exec_params(WORKERS, probe.chunk);
    let events = recorded_run(bench.as_ref(), &probe);
    let cfg = CheckConfig::new(params.conflict, params.order);
    let report = check_events(&events, &cfg).expect("recorded stream must extract");

    assert!(
        report.sound(),
        "{name}: best annotation unsound under an explored schedule: {:?}",
        report.unsound.first().map(|u| u.divergence.render())
    );
    assert_eq!(
        report.budget_hits, 0,
        "{name}: schedule budget must not bite"
    );
    // The headline claim, checked on every run: DPOR must explore at
    // least 5x fewer schedules than naive enumeration.
    assert!(
        report.explored * 5 <= report.naive_schedules,
        "{name}: DPOR pruning below 5x: {} explored vs {} naive",
        report.explored,
        report.naive_schedules
    );

    println!(
        "{name:<10} [{}] N={WORKERS}: {} rounds, {} naive schedules -> {} explored \
         ({:.1}x pruning), {} reorderings flagged, {} scan words",
        probe.describe(),
        report.rounds,
        report.naive_schedules,
        report.explored,
        report.naive_schedules as f64 / report.explored.max(1) as f64,
        report.flagged,
        report.scan_words,
    );

    Measured {
        name,
        annotation: probe.describe(),
        report,
    }
}

/// The summary `--json` writes: deterministic counters only, no wall-clock.
fn summary(rows: &[Measured]) -> Json {
    let row = |m: &Measured| {
        let r = &m.report;
        let ratio = r.naive_schedules as f64 / r.explored.max(1) as f64;
        json_obj! {
            "name" => m.name,
            "annotation" => m.annotation.as_str(),
            "rounds" => r.rounds,
            "tasks" => r.tasks,
            "naive_schedules" => r.naive_schedules,
            "explored" => r.explored,
            "pruned" => r.pruned(),
            "pruning_ratio_x" => Json::fixed2(ratio),
            "flagged" => r.flagged,
            "scan_words" => r.scan_words,
            "sound" => r.sound(),
        }
    };
    json_obj! {
        "workers" => WORKERS,
        "workloads" => Json::Arr(rows.iter().map(row).collect()),
    }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let emit = json_output();

    let rows = vec![measure("genome"), measure("k-means")];

    emit(&summary(&rows));
}
