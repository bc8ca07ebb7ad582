//! Committer-stall bench: quantifies, in deterministic virtual-time cost
//! units, how much committer stall the engine's streaming in-order
//! committer removes versus the lock-step round barrier. Both figures come
//! from the alter-sim stall model ([`alter_sim::round_stall`]) over the
//! rounds of one run: the barrier is the depth-1 case of the same in-order
//! commit, so one trace prices both disciplines.
//!
//! Three scenarios at N=8 workers, each run on the persistent worker pool:
//!
//! * **skewed-chunk** — a synthetic one-round loop whose last lane carries
//!   almost all the execute cost. Under the barrier the committer idles for
//!   the slowest lane before retiring anything; streaming, it retires the
//!   seven cheap tickets while the heavy lane is still running. The bench
//!   *asserts* a ≥ 2× stall reduction here (the ratio is ~8× in practice).
//! * **genome** and **labyrinth** — the two Table 2 workloads with the most
//!   uneven per-chunk work, under their best annotations.
//!
//! For every scenario the bench also asserts that streaming never stalls
//! the committer or idles a lane longer than the barrier, and that
//! `tickets_issued + tickets_requeued == attempts`.
//!
//! Everything in the `--json` summary is a deterministic counter, so
//! `scripts/bench.sh` merges it into the checked-in `BENCH_runtime.json`.
//! Set `ALTER_BENCH_WALL=1` for an informational wall-clock column
//! (best-of-3 ms, printed only — never part of the JSON or any assert).

use alter_heap::{Heap, ObjData};
use alter_runtime::{Driver, ExecParams, LoopBuilder, RunStats};
use alter_sim::{CostModel, SimObserver, StallModel};
use alter_trace::{format_hash, trace_hash, Recorder, RingRecorder};
use alter_workloads::{find_benchmark, Benchmark};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 8;

/// Per-lane write span of the synthetic scenario, in f64 words.
const SPAN: usize = 512;
/// Declared work units of the synthetic heavy lane.
const HEAVY_WORK: u64 = 4000;

/// One measured scenario: a single run, priced under both disciplines.
struct Measured {
    name: &'static str,
    config: String,
    trace_hash: u64,
    stats: RunStats,
    stall: StallModel,
    /// Informational wall-clock (ms, best of 3) when ALTER_BENCH_WALL=1.
    wall_ms: Option<f64>,
}

impl Measured {
    fn stall_reduction(&self) -> f64 {
        self.stall.barrier.committer_stall_units as f64
            / self.stall.streaming.committer_stall_units.max(1) as f64
    }
}

fn wall_requested() -> bool {
    std::env::var("ALTER_BENCH_WALL").is_ok_and(|v| v == "1")
}

/// The synthetic skewed-chunk loop: 8 single-iteration chunks in one round,
/// lanes 0..=6 each write a private 512-word span, lane 7 additionally
/// declares 4000 work units — the straggler the barrier waits for.
fn run_skewed(recorder: Option<Arc<dyn Recorder>>) -> (RunStats, StallModel) {
    let mut params = ExecParams::from_annotation(
        &"[StaleReads]".parse().expect("static annotation"),
        WORKERS,
        1,
    );
    if let Some(rec) = recorder {
        params = params.with_recorder(rec);
    }
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
    (stats, obs.into_clock().stall)
}

/// Best-of-3 wall time of `run`, in ms.
fn best_of_3(mut run: impl FnMut()) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure_skewed() -> Measured {
    let rec = Arc::new(RingRecorder::default());
    let (stats, stall) = run_skewed(Some(rec.clone() as Arc<dyn Recorder>));
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    let wall_ms = wall_requested().then(|| {
        best_of_3(|| {
            black_box(run_skewed(None));
        })
    });
    Measured {
        name: "skewed-chunk",
        config: format!("[StaleReads] synthetic, heavy lane {HEAVY_WORK} work units"),
        trace_hash: trace_hash(&rec.events()),
        stats,
        stall,
        wall_ms,
    }
}

fn measure_workload(name: &'static str, bench: &dyn Benchmark) -> Measured {
    let mut probe = bench.best_probe(WORKERS);
    probe.threaded = true;
    let config = format!("[{}] cf={}", probe.describe(), probe.chunk);
    let wall_ms = wall_requested().then(|| {
        best_of_3(|| {
            black_box(bench.run_probe(&probe).expect("probe must complete"));
        })
    });
    let rec = Arc::new(RingRecorder::default());
    probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
    let run = bench.run_probe(&probe).expect("probe must complete");
    assert_eq!(rec.dropped(), 0, "ring must hold the whole trace");
    Measured {
        name,
        config,
        trace_hash: trace_hash(&rec.events()),
        stats: run.stats,
        stall: run.clock.stall,
        wall_ms,
    }
}

/// The invariants every scenario must satisfy.
fn check(m: &Measured) {
    let (name, s) = (m.name, &m.stats);
    assert_eq!(
        s.tickets_issued + s.tickets_requeued,
        s.attempts,
        "{name}: every attempt is an issued or re-queued ticket"
    );
    assert_eq!(
        s.pool_round_handoffs, s.rounds,
        "{name}: the pool drives every round"
    );
    let (b, p) = (m.stall.barrier, m.stall.streaming);
    assert!(
        p.committer_stall_units <= b.committer_stall_units
            && p.worker_idle_units <= b.worker_idle_units,
        "{name}: in-order streaming can never wait longer than the barrier ({p:?} vs {b:?})"
    );
}

fn print_row(m: &Measured) {
    let wall = match m.wall_ms {
        Some(ms) => format!("; wall {ms:.1} ms"),
        None => String::new(),
    };
    println!(
        "{:<12} {} N={WORKERS}: committer stall {} -> {} units ({:.1}x) over {} round(s), \
         worker idle {} -> {}; trace hash {}{wall}",
        m.name,
        m.config,
        m.stall.barrier.committer_stall_units,
        m.stall.streaming.committer_stall_units,
        m.stall_reduction(),
        m.stats.rounds,
        m.stall.barrier.worker_idle_units,
        m.stall.streaming.worker_idle_units,
        format_hash(m.trace_hash),
    );
}

/// Renders the deterministic summary as pretty-printed JSON (hand-rolled;
/// the workspace builds without `serde`). Counters only — wall-clock never
/// appears here, which is what makes the merged file drift-checkable. The
/// `*_pipelined` keys name the streaming committer.
fn to_json(rows: &[Measured]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(out, "  \"scenarios\": [");
    for (i, m) in rows.iter().enumerate() {
        let (b, p) = (m.stall.barrier, m.stall.streaming);
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(out, "      \"config\": \"{}\",", m.config);
        let _ = writeln!(out, "      \"rounds\": {},", m.stats.rounds);
        let _ = writeln!(
            out,
            "      \"committer_stall_units_barrier\": {},",
            b.committer_stall_units
        );
        let _ = writeln!(
            out,
            "      \"committer_stall_units_pipelined\": {},",
            p.committer_stall_units
        );
        let _ = writeln!(
            out,
            "      \"stall_reduction_x\": {:.2},",
            m.stall_reduction()
        );
        let _ = writeln!(
            out,
            "      \"worker_idle_units_barrier\": {},",
            b.worker_idle_units
        );
        let _ = writeln!(
            out,
            "      \"worker_idle_units_pipelined\": {},",
            p.worker_idle_units
        );
        let _ = writeln!(out, "      \"tickets_issued\": {},", m.stats.tickets_issued);
        let _ = writeln!(
            out,
            "      \"tickets_requeued\": {},",
            m.stats.tickets_requeued
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

    let genome = find_benchmark("genome").expect("genome is registered");
    let labyrinth = find_benchmark("labyrinth").expect("labyrinth is registered");
    let rows = vec![
        measure_skewed(),
        measure_workload("genome", genome.as_ref()),
        measure_workload("labyrinth", labyrinth.as_ref()),
    ];
    for m in &rows {
        check(m);
        print_row(m);
    }

    // The headline claim, checked on every run: on the skewed-chunk
    // scenario the streaming committer must shed at least 2× the stall the
    // barrier pays for its straggler lane.
    let skewed = &rows[0];
    assert!(
        skewed.stall_reduction() >= 2.0,
        "skewed-chunk: committer stall only cut {:.2}x: {} (barrier) vs {} (streaming)",
        skewed.stall_reduction(),
        skewed.stall.barrier.committer_stall_units,
        skewed.stall.streaming.committer_stall_units
    );
    println!(
        "skewed-chunk committer-stall reduction: {:.1}x",
        skewed.stall_reduction()
    );

    let json = to_json(&rows);
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write JSON summary");
        println!("wrote {path}");
    } else {
        print!("{json}");
    }
}
