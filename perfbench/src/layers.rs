//! The traced run: per-layer figures, all taken from outside the program.
//!
//! Each workload instruments its own operation and nothing else. `genome`
//! attaches the engine's public `WallProfile` to its 2-lane operation.
//! `infer-table3` runs its 1-lane pass over [`Spans`], which forwards every
//! call `infer` makes into a program and times the sequential reference,
//! the dependence replay and each probe's engine phases; the pass's probes
//! are serial there, so the spans add up. Whatever the spans do not cover
//! is reported as a residual, so that spans plus residual equal the traced
//! operation's time. The layer group an operation never enters (inference
//! on `genome`) reads 0. Micro-probes then time the worker pool, the hash
//! set, the abstract interpreter and the input generators.

use crate::{engine_op, infer_pass, metric, paper_probe, stats, Bench, Kind, Metric, Samples};
use crate::{Target, WORKERS};
use alter_analyze::{interpret, LoopSpec};
use alter_collections::AlterHashSet;
use alter_heap::Heap;
use alter_infer::{InferTarget, Probe, ProbeRun, ProgramOutput};
use alter_runtime::{DepReport, LoopSummary, RunError, RunStats, WorkerPool};
use alter_trace::{Phase, WallProfile};
use alter_workloads::Benchmark;
use alter_workloads::{genome::Genome, kmeans::KMeans, Scale};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine phases the wall profile covers, in report order.
const PHASES: [Phase; 4] = [
    Phase::Snapshot,
    Phase::Execute,
    Phase::Validate,
    Phase::Commit,
];
/// No-op rounds timed through the worker pool.
const HANDOFF_ROUNDS: usize = 2_000;
/// Worker-pool spawn-and-join cycles timed.
const SPAWN_REPS: usize = 50;
/// Repetitions of the hash-set, interpreter and input-generator timings.
const BUILD_REPS: usize = 5;
/// Genome's paper-scale hash-set geometry (buckets, keys per bucket).
const GENOME_SET: (usize, usize) = (131_072, 8);

/// Seconds `f` takes, excluding the drop of its result.
fn secs_of<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    let out = black_box(f());
    let secs = start.elapsed().as_secs_f64();
    drop(out);
    secs
}

fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| secs_of(&mut f)).collect();
    stats::median(&times)
}

/// What [`Spans`] measures inside one pass.
#[derive(Default)]
struct SpanSums {
    reference_s: f64,
    dep_summary_s: f64,
    /// Summed over the pass's probes; deterministic.
    stats: RunStats,
}

/// A program as the inference engine sees it, forwarding every trait call
/// to the program and timing the ones a pass spends its time in: the
/// sequential reference, the dependence replay (`probe_summary`, or
/// `probe_dependences` where a program has no summary) and each probe run,
/// with `wall` attached so the engine reports the probe's phases.
struct Spans<'a> {
    bench: &'a dyn Benchmark,
    wall: &'a Arc<WallProfile>,
    sums: Mutex<SpanSums>,
}

impl<'a> Spans<'a> {
    fn new(bench: &'a dyn Benchmark, wall: &'a Arc<WallProfile>) -> Self {
        Spans {
            bench,
            wall,
            sums: Mutex::default(),
        }
    }

    fn timed<R>(&self, span: fn(&mut SpanSums) -> &mut f64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *span(&mut self.sums.lock().expect("span sums")) += start.elapsed().as_secs_f64();
        out
    }
}

impl InferTarget for Spans<'_> {
    fn name(&self) -> &str {
        self.bench.name()
    }

    fn run_sequential(&self) -> ProgramOutput {
        self.timed(|s| &mut s.reference_s, || self.bench.run_sequential())
    }

    fn run_probe(&self, probe: &Probe) -> Result<ProbeRun, RunError> {
        let mut probe = probe.clone();
        probe.wall_profile = Some(Arc::clone(self.wall));
        let run = self.bench.run_probe(&probe);
        if let Ok(run) = &run {
            self.sums
                .lock()
                .expect("span sums")
                .stats
                .absorb(&run.stats);
        }
        run
    }

    fn probe_summary(&self) -> LoopSummary {
        self.timed(|s| &mut s.dep_summary_s, || self.bench.probe_summary())
    }

    fn probe_dependences(&self) -> DepReport {
        self.timed(|s| &mut s.dep_summary_s, || self.bench.probe_dependences())
    }

    fn reduction_candidates(&self) -> Vec<String> {
        self.bench.reduction_candidates()
    }

    fn validate(&self, reference: &ProgramOutput, candidate: &ProgramOutput) -> bool {
        self.bench.validate(reference, candidate)
    }

    fn tracked_budget_words(&self) -> Option<u64> {
        self.bench.tracked_budget_words()
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        self.bench.loop_spec()
    }
}

/// Sums over traced operations. The engine figures come from the
/// `WallProfile`; the inference figures stay 0 on an operation that runs
/// no inference pass.
#[derive(Default)]
struct Layers {
    ops: usize,
    op_s: f64,
    phase_s: [f64; 4],
    pass_s: f64,
    reference_s: f64,
    dep_summary_s: f64,
    /// Engine counters of the last operation; they are deterministic.
    stats: RunStats,
    /// Inference counts of the last pass; they are deterministic.
    probes_run: u64,
    static_pruned: usize,
    dynamic_pruned: usize,
    rows_matching: usize,
}

impl Layers {
    /// Runs one traced operation of `kind`; returns its time and whether
    /// its output was correct.
    fn traced_op(&mut self, kind: Kind, targets: &[Target]) -> (f64, bool) {
        let wall = Arc::new(WallProfile::new());
        let (secs, ok) = match kind {
            Kind::Genome => {
                let run = engine_op(targets, |b| paper_probe(b, WORKERS), Some(&wall));
                self.stats = run.stats;
                (run.secs, run.ok)
            }
            Kind::InferTable3 => {
                let spans: Vec<Spans> = targets
                    .iter()
                    .map(|t| Spans::new(t.bench.as_ref(), &wall))
                    .collect();
                let programs: Vec<&(dyn InferTarget + Sync)> = spans
                    .iter()
                    .map(|s| s as &(dyn InferTarget + Sync))
                    .collect();
                let (secs, ok, reports) = infer_pass(&programs, false);
                self.pass_s += secs;
                self.stats = RunStats::default();
                for s in spans {
                    let sums = s.sums.into_inner().expect("span sums");
                    self.reference_s += sums.reference_s;
                    self.dep_summary_s += sums.dep_summary_s;
                    self.stats.absorb(&sums.stats);
                }
                self.probes_run = reports.iter().map(|r| r.probes_run).sum();
                self.static_pruned = reports.iter().map(|r| r.static_pruned.len()).sum();
                self.dynamic_pruned = reports.iter().map(|r| r.pruned_candidates.len()).sum();
                self.rows_matching = reports
                    .iter()
                    .filter(|r| crate::table3::check(r).matches_paper)
                    .count();
                (secs, ok)
            }
        };
        let phases = wall.seconds();
        for (sum, phase) in self.phase_s.iter_mut().zip(PHASES) {
            *sum += phases[phase.index()];
        }
        self.ops += 1;
        self.op_s += secs;
        (secs, ok)
    }

    fn metrics(&self, out: &mut Vec<Metric>) {
        let n = self.ops as f64;
        let [snapshot, execute, validate, commit] = self.phase_s.map(|s| s / n);
        let op = self.op_s / n;
        let residual = op - (snapshot + execute + validate + commit);
        let st = &self.stats;
        out.extend([
            metric("runtime.traced_op_s", op, "s", "lower"),
            metric("heap.snapshot_s", snapshot, "s", "lower"),
            metric("runtime.execute_s", execute, "s", "lower"),
            metric("runtime.validate_s", validate, "s", "lower"),
            metric("heap.commit_s", commit, "s", "lower"),
            metric("runtime.residual_s", residual, "s", "lower"),
            metric(
                "runtime.unattributed_ratio",
                residual / op,
                "ratio",
                "lower",
            ),
            metric(
                "heap.snapshot_slots_copied",
                st.snapshot_slots_copied as f64,
                "count",
                "lower",
            ),
            metric(
                "heap.snapshot_pages_reused",
                st.snapshot_pages_reused as f64,
                "count",
                "higher",
            ),
            metric("runtime.rounds", st.rounds as f64, "count", "lower"),
            metric("runtime.attempts", st.attempts as f64, "count", "lower"),
            metric("runtime.committed", st.committed as f64, "count", "lower"),
            metric("runtime.retries", st.retries() as f64, "count", "lower"),
            metric(
                "runtime.commit_ratio",
                st.committed as f64 / st.attempts.max(1) as f64,
                "ratio",
                "higher",
            ),
            metric(
                "runtime.exact_scan_words",
                st.exact_scan_words as f64,
                "count",
                "lower",
            ),
            metric(
                "runtime.fingerprint_rejects",
                st.fingerprint_rejects as f64,
                "count",
                "higher",
            ),
            metric(
                "runtime.cost_units",
                st.cost_units() as f64,
                "count",
                "lower",
            ),
        ]);
        let [pass, reference, dep] =
            [self.pass_s, self.reference_s, self.dep_summary_s].map(|s| s / n);
        out.extend([
            metric("infer.traced_pass_s", pass, "s", "lower"),
            metric("infer.reference_s", reference, "s", "lower"),
            metric("infer.dep_summary_s", dep, "s", "lower"),
            metric(
                "infer.probe_residual_s",
                pass - reference - dep,
                "s",
                "lower",
            ),
            metric("infer.probes_run", self.probes_run as f64, "count", "lower"),
            metric(
                "infer.static_pruned",
                self.static_pruned as f64,
                "count",
                "higher",
            ),
            metric(
                "infer.dynamic_pruned",
                self.dynamic_pruned as f64,
                "count",
                "higher",
            ),
            metric(
                "infer.rows_matching_table3",
                self.rows_matching as f64,
                "count",
                "higher",
            ),
        ]);
    }
}

/// Median time of one no-op round handed through a `WORKERS`-lane pool, in
/// microseconds: the dispatch and join cost every threaded round pays.
fn handoff_us() -> f64 {
    let noop = |_worker: usize, job: u64| black_box(job);
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::new(scope, WORKERS, &noop);
        let jobs = || (0..WORKERS as u64).collect::<Vec<u64>>();
        for _ in 0..HANDOFF_ROUNDS / 10 {
            black_box(pool.run_round(jobs()));
        }
        1e6 * median_secs(HANDOFF_ROUNDS, || pool.run_round(jobs()))
    })
}

/// Median time to spawn a `WORKERS`-lane pool and join it again, in
/// microseconds.
fn pool_spawn_us() -> f64 {
    let noop = |_worker: usize, job: u64| black_box(job);
    1e6 * median_secs(SPAWN_REPS, || {
        std::thread::scope(|scope| drop(WorkerPool::<u64, u64>::new(scope, WORKERS, &noop)))
    })
}

/// Median time of `AlterHashSet::new` at Genome's paper geometry, on a
/// fresh heap each time.
fn hashset_build_s() -> f64 {
    let times: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let mut heap = Heap::new();
            secs_of(|| AlterHashSet::new(&mut heap, GENOME_SET.0, GENOME_SET.1))
        })
        .collect();
    stats::median(&times)
}

/// Σ over the workload's programs of the median time of
/// `absint::interpret` on the program's loop spec. `infer` calls it inside
/// the pass, where no forwarding target reaches, so it is timed beside it.
fn absint_s(targets: &[Target]) -> f64 {
    targets
        .iter()
        .filter_map(|t| t.bench.loop_spec())
        .map(|spec| median_secs(BUILD_REPS, || interpret(&spec)))
        .sum()
}

/// Median time of the public input generators of the workload's programs.
fn input_gen_s(kind: Kind) -> f64 {
    let genome = |scale| {
        let g = Genome::new(scale);
        median_secs(BUILD_REPS, || g.stream())
    };
    match kind {
        Kind::Genome => genome(Scale::Paper),
        Kind::InferTable3 => {
            let k = KMeans::new(Scale::Inference);
            genome(Scale::Inference) + median_secs(BUILD_REPS, || k.features())
        }
    }
}

/// The traced arm and the figures it accumulates.
pub struct Traced {
    kind: Kind,
    layers: Layers,
}

impl Traced {
    pub fn new(kind: Kind) -> Self {
        Traced {
            kind,
            layers: Layers::default(),
        }
    }

    /// One traced operation of the workload; returns its time and whether
    /// its output was correct.
    pub fn run(&mut self, bench: &Bench) -> (f64, bool) {
        self.layers.traced_op(self.kind, &bench.targets)
    }

    /// Runs the micro-probes and returns every per-layer metric.
    pub fn finish(self, bench: &Bench, s: &Samples) -> Vec<Metric> {
        let handoff = handoff_us();
        let run = stats::median(&s.par);
        let tail = stats::tail(&s.par);
        // The traced operation instruments the 2-lane arm of `genome` and
        // the 1-lane pass of `infer-table3`.
        let untraced = match self.kind {
            Kind::Genome => &s.par,
            Kind::InferTable3 => &s.one,
        };
        let mut out = vec![
            metric(
                "wall.speedup_vs_seq",
                stats::ratio_of_medians(&s.seq, &s.par),
                "x",
                "higher",
            ),
            metric(
                "wall.speedup_vs_1w",
                stats::ratio_of_medians(&s.one, &s.par),
                "x",
                "higher",
            ),
            metric("wall.run_s", run, "s", "lower"),
            metric("wall.run_1w_s", stats::median(&s.one), "s", "lower"),
            metric("wall.seq_s", stats::median(&s.seq), "s", "lower"),
            metric("wall.run_tail_s", tail.value, "s", "lower"),
            metric("wall.run_tail_ratio", tail.value / run, "ratio", "lower"),
            metric("wall.run_tail_pct", tail.pct, "pct", "higher"),
            metric("wall.samples", s.par.len() as f64, "count", "higher"),
            metric(
                "trace.overhead_ratio",
                stats::ratio_of_medians(&s.traced, untraced) - 1.0,
                "ratio",
                "lower",
            ),
            metric("runtime.handoff_us", handoff, "us", "lower"),
            metric("runtime.pool_spawn_us", pool_spawn_us(), "us", "lower"),
            metric(
                "runtime.handoff_est_s",
                handoff * 1e-6 * self.layers.stats.rounds as f64,
                "s",
                "lower",
            ),
            metric(
                "collections.hashset_build_s",
                hashset_build_s(),
                "s",
                "lower",
            ),
            metric(
                "workloads.input_gen_s",
                input_gen_s(self.kind),
                "s",
                "lower",
            ),
            metric("infer.absint_s", absint_s(&bench.targets), "s", "lower"),
        ];
        self.layers.metrics(&mut out);
        out
    }
}
