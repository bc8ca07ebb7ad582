//! Round-mode invisibility sweep: the persistent worker pool with its
//! streaming in-order committer and the sharded versioned heap are pure
//! throughput optimizations, so every workload must produce a
//! byte-identical event transcript — and therefore the same trace hash,
//! the same program output (the heap digest each workload extracts), and
//! the same semantic `RunStats` — under the sequential driver, the threaded
//! driver, and the threaded driver over 4- and 16-shard heaps, at 1, 2, and
//! 8 workers.
//!
//! Drive-mode bookkeeping (`pool_round_handoffs` and the ticket counters —
//! everything `RunStats::modulo_drive_mode` masks) is the *only* thing
//! allowed to differ between drivers; everything else in `RunStats`,
//! snapshot economics included, is compared exactly. Shard counts above 1
//! additionally move the fast-path accounting — which fingerprint probes
//! ran and how many words the exact scans compared (`fingerprint_hits` /
//! `rejects`, `exact_scan_words`, and the `shard_*` trio) — but never any
//! verdict, so sharded runs compare with those counters masked on top.
//! Direct final-heap equality across drivers is asserted at the engine
//! level (`alter-runtime`'s `threaded_and_sequential_drivers_are_identical`);
//! here each workload's output is the heap projection being compared.

use alter::infer::ProgramOutput;
use alter::runtime::RunStats;
use alter::trace::{to_jsonl, trace_hash, Recorder, RingRecorder};
use alter::workloads::{all_benchmarks, Benchmark, Scale};
use std::sync::Arc;

/// One drive-mode configuration of the sweep.
#[derive(Clone, Copy, Debug)]
struct Mode {
    threaded: bool,
    shards: usize,
}

/// One traced run of `bench` under its best annotation.
fn traced(
    bench: &dyn Benchmark,
    workers: usize,
    mode: Mode,
) -> (String, u64, ProgramOutput, RunStats) {
    let rec = Arc::new(RingRecorder::default());
    let mut probe = bench.best_probe(workers);
    probe.threaded = mode.threaded;
    probe.shards = mode.shards;
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    let events = rec.events();
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    (
        to_jsonl(&events),
        trace_hash(&events),
        run.output,
        run.stats,
    )
}

/// Additionally masks the fast-path accounting a shard count is allowed to
/// move: which fingerprint probes ran, how many words the exact scans
/// compared, and the shard counters themselves. Everything that remains —
/// verdicts, retries, commits, cost units, `validate_words` — must be
/// bit-for-bit equal across shard counts.
fn shard_semantic(stats: &RunStats) -> RunStats {
    RunStats {
        fingerprint_hits: 0,
        fingerprint_rejects: 0,
        exact_scan_words: 0,
        shard_validate_words: 0,
        shard_commit_batches: 0,
        shard_imbalance_max: 0,
        ..stats.modulo_drive_mode()
    }
}

#[test]
fn round_modes_are_invisible_across_the_suite() {
    // The first entry is the baseline every other mode must match.
    let modes = [
        Mode {
            threaded: false,
            shards: 1,
        },
        Mode {
            threaded: true,
            shards: 1,
        },
        Mode {
            threaded: true,
            shards: 4,
        },
        Mode {
            threaded: true,
            shards: 16,
        },
    ];
    for bench in all_benchmarks(Scale::Inference) {
        for workers in [1usize, 2, 8] {
            let (jsonl0, hash0, out0, stats0) = traced(bench.as_ref(), workers, modes[0]);
            assert_eq!(
                stats0.pool_round_handoffs,
                0,
                "{}/{workers}w: sequential driver must not touch the pool",
                bench.name()
            );
            for mode in &modes[1..] {
                let tag = format!("{}/{workers}w {mode:?}", bench.name());
                let (jsonl, hash, out, stats) = traced(bench.as_ref(), workers, *mode);
                assert_eq!(jsonl0, jsonl, "{tag}: transcripts must be byte-identical");
                assert_eq!(hash0, hash, "{tag}: trace hashes must agree");
                assert_eq!(out0, out, "{tag}: program outputs must agree");
                if mode.shards == 1 {
                    assert_eq!(
                        stats0.modulo_drive_mode(),
                        stats.modulo_drive_mode(),
                        "{tag}: semantic RunStats must agree"
                    );
                } else {
                    // A sharded heap may re-shape the fast-path accounting
                    // (per-shard probes replace the global one) but nothing
                    // else.
                    assert_eq!(
                        shard_semantic(&stats0),
                        shard_semantic(&stats),
                        "{tag}: shard-masked RunStats must agree"
                    );
                    assert!(
                        stats.shard_commit_batches >= stats0.shard_commit_batches,
                        "{tag}: splitting the heap can only grow the number \
                         of per-shard commit batches"
                    );
                }
                assert_eq!(
                    stats.tickets_issued + stats.tickets_requeued,
                    stats.attempts,
                    "{tag}: every attempt is an issued or re-queued ticket"
                );
                if workers > 1 {
                    assert_eq!(
                        stats.pool_round_handoffs, stats.rounds,
                        "{tag}: the pool must drive every round"
                    );
                }
            }
        }
    }
}
