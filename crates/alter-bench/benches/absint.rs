//! Microbenchmark of the static analyzer's probe economics: runs the full
//! inference suite twice — dynamic-only pruning (PR 5's predictor) versus
//! the combined static + dynamic tiers — and reports how many probes the
//! abstract interpreter's two-sided verdicts eliminate per workload.
//!
//! Everything asserted and emitted here is deterministic (probe counters,
//! not wall-clock), so the JSON summary written by `--json <path>` is
//! stable across machines and can be checked in (`scripts/bench.sh`
//! merges it into `BENCH_runtime.json` as the `"absint"` section).
//!
//! The run doubles as an acceptance check: it fails if the static tier
//! stops skipping at least 10 probes suite-wide, or if static pruning
//! changes any workload's inferred annotations.

use alter_bench::json_output;
use alter_infer::{infer, InferConfig};
use alter_trace::{json_obj, Json};
use alter_workloads::{all_benchmarks, Scale};

/// One workload's probe economics under the two pruning configurations.
struct Measured {
    name: String,
    probes_dynamic: u64,
    probes_combined: u64,
    static_skips: usize,
    /// `class` of each statically decided candidate, e.g.
    /// `"TLS: proved unsound: o.o.m."`.
    skipped: Vec<String>,
}

fn measure_all() -> Vec<Measured> {
    let combined_cfg = InferConfig::default();
    let dynamic_cfg = InferConfig {
        static_prune: false,
        ..InferConfig::default()
    };
    let mut rows = Vec::new();
    for b in all_benchmarks(Scale::Inference) {
        let name = b.name().to_owned();
        let combined = infer(b.as_ref(), &combined_cfg);
        let dynamic = infer(b.as_ref(), &dynamic_cfg);

        assert_eq!(
            combined.valid_annotations, dynamic.valid_annotations,
            "{name}: static pruning changed the inferred annotations"
        );
        assert_eq!(
            dynamic.probes_run - combined.probes_run,
            combined.static_pruned.len() as u64,
            "{name}: every static skip saves exactly one probe"
        );

        println!(
            "{name:<12} {:>2} probes -> {:>2} ({} statically skipped)",
            dynamic.probes_run,
            combined.probes_run,
            combined.static_pruned.len()
        );
        rows.push(Measured {
            name,
            probes_dynamic: dynamic.probes_run,
            probes_combined: combined.probes_run,
            static_skips: combined.static_pruned.len(),
            skipped: combined
                .static_pruned
                .iter()
                .map(|pc| format!("{}: {}", pc.annotation, pc.reason))
                .collect(),
        });
    }
    rows
}

/// The deterministic summary: suite totals, then one row per workload.
fn summary(rows: &[Measured]) -> Json {
    let row = |m: &Measured| {
        json_obj! {
            "name" => m.name.as_str(),
            "probes_dynamic_only" => m.probes_dynamic,
            "probes_combined" => m.probes_combined,
            "static_skips" => m.static_skips,
            "skipped" => Json::Arr(m.skipped.iter().map(|s| s.as_str().into()).collect()),
        }
    };
    json_obj! {
        "probes_dynamic_only" => rows.iter().map(|m| m.probes_dynamic).sum::<u64>(),
        "probes_combined" => rows.iter().map(|m| m.probes_combined).sum::<u64>(),
        "static_skips" => rows.iter().map(|m| m.static_skips).sum::<usize>(),
        "workloads" => Json::Arr(rows.iter().map(row).collect()),
    }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; nothing to test here.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let emit = json_output();

    let rows = measure_all();

    // The headline claim, checked on every run: the static tier must
    // eliminate at least 10 probes across the suite.
    let total_skips: usize = rows.iter().map(|m| m.static_skips).sum();
    assert!(
        total_skips >= 10,
        "static tier skipped only {total_skips} probes suite-wide (need >= 10)"
    );
    println!(
        "suite: {} probes -> {} ({} statically skipped)",
        rows.iter().map(|m| m.probes_dynamic).sum::<u64>(),
        rows.iter().map(|m| m.probes_combined).sum::<u64>(),
        total_skips
    );

    emit(&summary(&rows));
}
