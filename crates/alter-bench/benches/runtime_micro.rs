//! Microbenchmarks of the runtime primitives: snapshot establishment,
//! instrumented access, conflict validation and full loop execution. These
//! are the per-round costs the virtual-time model charges; measuring them
//! grounds the cost-model coefficients.
//!
//! Plain `Instant`-based timing (the workspace builds offline, without
//! `criterion`): each benchmark reports the best-of-runs per-iteration
//! time. Alongside wall-clock numbers — which vary by machine — the DOALL
//! benchmark checks the runtime's *deterministic cost-units counter*: it
//! must be bit-identical with no recorder and with a `NopRecorder`
//! attached, making the recorder's zero-overhead contract checkable
//! without timing noise.
//!
//! Last comes a Table-3-shaped wall-clock speedup table: genome, k-means
//! and labyrinth at paper scale, threaded runs at 1/2/4/8 workers over a
//! 16-shard heap, best of 3. Informational only, like every number here.

use alter_heap::{AccessSet, Heap, IdReservation, ObjData, TrackMode, Tx};
use alter_runtime::{run_loop, ConflictPolicy, Driver, ExecParams, RedVars};
use alter_trace::NopRecorder;
use alter_workloads::{genome::Genome, kmeans::KMeans, labyrinth::Labyrinth, Benchmark, Scale};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over several timed runs of `iters` calls each and reports the
/// best per-call nanoseconds (best-of-N rejects scheduler noise).
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // Warm up caches and allocator.
    for _ in 0..iters.div_ceil(4).max(1) {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_call = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
        best = best.min(per_call);
    }
    println!("{name:<32} {best:>12.1} ns/iter");
}

fn bench_snapshot() {
    let mut heap = Heap::new();
    for _ in 0..10_000 {
        heap.alloc(ObjData::scalar_i64(1));
    }
    bench("snapshot_10k_slots", 1000, || heap.snapshot());
}

fn bench_instrumented_access() {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_f64(4096));
    let snap = heap.snapshot();
    bench("tracked_element_reads_4k", 200, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
        let mut acc = 0.0;
        for i in 0..4096 {
            acc += tx.read_f64(xs, i);
        }
        acc
    });
    bench("untracked_element_reads_4k", 200, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::WritesOnly, ids, u64::MAX);
        let mut acc = 0.0;
        for i in 0..4096 {
            acc += tx.read_f64(xs, i);
        }
        acc
    });
    bench("range_read_4k", 500, || {
        let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
        let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
        tx.with_f64s(xs, 0, 4096, |s| s.iter().sum::<f64>())
    });
}

fn bench_conflict_validation() {
    let mut a = AccessSet::new();
    let mut b_set = AccessSet::new();
    for i in 0..1000u32 {
        a.insert(alter_heap::ObjId::from_index(i), 0, 8);
        b_set.insert(alter_heap::ObjId::from_index(i + 1000), 0, 8);
    }
    bench("disjoint_setcmp_1k_objects", 2000, || a.overlaps(&b_set));
}

/// One DOALL run over 4k iterations; returns `(heap digest, cost units)`.
fn doall_run(params: &ExecParams) -> (u64, u64) {
    let mut heap = Heap::new();
    let xs = heap.alloc(ObjData::zeros_f64(4096));
    let mut reds = RedVars::new();
    let stats = run_loop(
        &mut heap,
        &mut reds,
        &mut alter_runtime::RangeSpace::new(0, 4096),
        params,
        Driver::sequential(),
        |ctx, i| ctx.tx.write_f64(xs, i as usize, 1.0),
    )
    .unwrap();
    (heap.digest(), stats.cost_units())
}

fn bench_doall_loop() {
    let mut plain = ExecParams::new(4, 64);
    plain.conflict = ConflictPolicy::None;
    let nop = plain.clone().with_recorder(Arc::new(NopRecorder));

    // The zero-overhead contract, checked deterministically: a NopRecorder
    // must not change what the engine does, only (at most) how long it
    // takes — so the cost-units counter and the heap digest are identical.
    let (digest_plain, cost_plain) = doall_run(&plain);
    let (digest_nop, cost_nop) = doall_run(&nop);
    assert_eq!(
        cost_plain, cost_nop,
        "NopRecorder changed the deterministic cost-units counter"
    );
    assert_eq!(digest_plain, digest_nop, "NopRecorder changed the heap");
    println!("doall_4k cost units: {cost_plain} (identical with NopRecorder)");

    bench("doall_loop_4k_iters", 50, || doall_run(&plain));
    bench("doall_loop_4k_iters_nop_rec", 50, || doall_run(&nop));
}

/// Heap shard count of the wall-clock scaling runs.
const SHARDS_HI: usize = 16;

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

/// A Table-3-shaped speedup table over real threads at the paper-scale
/// inputs (the bold column of Table 2; the inference-scale inputs used
/// everywhere else finish in single-digit milliseconds, where thread
/// coordination dwarfs the loop body). Purely informational — nothing here
/// is asserted or written to JSON, because wall-clock is machine noise by
/// definition.
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
    // `cargo test` runs bench targets with `--test`; there is nothing to
    // test here, so just exit quickly.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    bench_snapshot();
    bench_instrumented_access();
    bench_conflict_validation();
    bench_doall_loop();
    wall_scaling_table();
}
