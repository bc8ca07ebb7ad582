//! Wall-clock benchmark of the ALTER workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <genome|infer-table3> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop: one client issues
//! operations back to back from a single thread, and every operation's
//! output is checked. Each sample interleaves, in an order drawn from
//! `--seed`, the unmodified sequential program (the reference), the 1-lane
//! configuration and a fresh set-up; `--trace 1` samples the 2-lane
//! configuration and a traced arm in place of the set-up, and prints the
//! per-layer decomposition instead. The gated
//! figure is a ratio of medians against the reference timed in the same
//! process, which cancels most of the machine drift that moves absolute
//! times between processes. See README.md for the workloads, why the
//! 2-lane figures are not gated, and the metric map.
//!
//! Human-readable lines go to stdout first; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod stats;
mod table3;

use alter_infer::{infer, InferConfig, InferReport, InferTarget, Probe, ProgramOutput};
use alter_runtime::RunStats;
use alter_trace::WallProfile;
use alter_workloads::common::SplitMix64;
use alter_workloads::{genome::Genome, Benchmark, Scale};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: alter-perfbench --workload <genome|infer-table3> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// Engine workers of the parallel arm: the paper's N, sized to the 2-core
/// machines the benchmark is calibrated on.
const WORKERS: usize = 2;
/// The sequential reference of one sample is repeated until it has run
/// about as long as one 1-lane operation, and at least this long, so that
/// sub-millisecond loops are timed steadily.
const SEQ_BATCH_SECS: f64 = 0.05;
/// Samples taken even when one sample outlasts `--seconds`.
const MIN_SAMPLES: usize = 3;

/// The workloads; see README.md for why each was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// Heap-bound: Genome's hash-set dedup under `[StaleReads]`, cf 16.
    Genome,
    /// Analysis-bound: one `infer` pass over the 12 Table 3 programs.
    InferTable3,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "genome" => Some(Kind::Genome),
            "infer-table3" => Some(Kind::InferTable3),
            _ => None,
        }
    }

    /// The programs the workload's operation runs.
    fn programs(self) -> Vec<Box<dyn Benchmark>> {
        match self {
            Kind::Genome => vec![Box::new(Genome::new(Scale::Paper))],
            Kind::InferTable3 => alter_workloads::all_benchmarks(Scale::Inference),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => match value.parse::<u64>() {
                    Ok(s @ 1..=600) => seconds = Some(s as f64),
                    _ => return Err(format!("--seconds: `{value}` is not in 1..=600")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                },
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A program with its reference output, computed once at set-up.
struct Target {
    bench: Box<dyn Benchmark>,
    reference: ProgramOutput,
}

fn targets(programs: Vec<Box<dyn Benchmark>>) -> Vec<Target> {
    programs
        .into_iter()
        .map(|bench| {
            let reference = bench.run_sequential();
            Target { bench, reference }
        })
        .collect()
}

/// Operations attempted and failed, plus reference re-runs that disagreed
/// with the set-up reference (the sequential programs are deterministic).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference_drift: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One engine operation: each target's best configuration run once.
#[derive(Default)]
struct EngineRun {
    secs: f64,
    ok: bool,
    stats: RunStats,
}

/// The paper configuration of `bench` at `workers`: the threaded engine
/// above one worker, the sequential driver at one.
fn paper_probe(bench: &dyn Benchmark, workers: usize) -> Probe {
    let mut probe = bench.best_probe(workers);
    probe.threaded = workers > 1;
    probe
}

/// Runs every target's loop once under `probe(target)`, with `wall`
/// attached to the engine when given.
fn engine_op(
    targets: &[Target],
    probe: impl Fn(&dyn Benchmark) -> Probe,
    wall: Option<&Arc<WallProfile>>,
) -> EngineRun {
    let mut out = EngineRun {
        ok: true,
        ..EngineRun::default()
    };
    for t in targets {
        let mut probe = probe(t.bench.as_ref());
        probe.wall_profile = wall.cloned();
        let workers = probe.workers;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| t.bench.run_probe(&probe)));
        out.secs += start.elapsed().as_secs_f64();
        let ok = match result {
            Ok(Ok(run)) => {
                out.stats.absorb(&run.stats);
                t.bench.validate(&t.reference, &run.output)
            }
            Ok(Err(e)) => {
                eprintln!("{} at {workers} workers: run error: {e}", t.bench.name());
                false
            }
            Err(_) => false,
        };
        if !ok {
            eprintln!("{} at {workers} workers: operation failed", t.bench.name());
        }
        out.ok &= ok;
    }
    out
}

/// One inference pass over `programs` with the default configuration
/// (`concurrent` = its probe pool; off runs the probes one at a time).
/// Returns the time spent inside `infer`, whether every row matches
/// Table 3 up to the documented divergences, and the reports.
fn infer_pass(
    programs: &[&(dyn InferTarget + Sync)],
    concurrent: bool,
) -> (f64, bool, Vec<InferReport>) {
    let cfg = InferConfig {
        concurrent_probes: concurrent,
        ..InferConfig::default()
    };
    let mut secs = 0.0;
    let mut ok = true;
    let mut reports = Vec::with_capacity(programs.len());
    for &program in programs {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| infer(program, &cfg)));
        secs += start.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let row = table3::check(&report);
                for p in &row.problems {
                    eprintln!("Table 3 mismatch: {p}");
                }
                ok &= row.ok();
                reports.push(report);
            }
            Err(_) => {
                eprintln!("{}: inference panicked", program.name());
                ok = false;
            }
        }
    }
    (secs, ok, reports)
}

/// The set-up workload: its programs, their references, and the size of a
/// steady sequential-reference batch.
struct Bench {
    kind: Kind,
    targets: Vec<Target>,
    seq_batch: usize,
}

impl Bench {
    /// One set-up: everything before the first operation, that is the
    /// construction of the programs and their reference outputs. The first
    /// operation is left out, so that work moved between it and the
    /// construction shows. Returns the workload and the set-up time.
    fn setup(kind: Kind) -> (Bench, f64) {
        let start = Instant::now();
        let bench = Bench {
            kind,
            targets: targets(kind.programs()),
            seq_batch: 1,
        };
        (bench, start.elapsed().as_secs_f64())
    }

    /// The first set-up of a run, whose workload the samples then measure,
    /// with its first (cold) operation of each arm checked: the 2-lane arm
    /// runs once even when it is not sampled, so that its output and memory
    /// are always covered. The cold 1-lane operation sizes the reference
    /// batch to about one operation, so that both arms are exposed to the
    /// same stretches of machine noise.
    fn first(kind: Kind, tally: &mut Tally) -> (Bench, f64) {
        let (mut bench, setup) = Bench::setup(kind);
        let (op, ok) = bench.run(Arm::OneLane);
        tally.op(ok);
        let (_, ok) = bench.run(Arm::Parallel);
        tally.op(ok);
        let one = bench.sequential().0;
        bench.seq_batch = ((op.max(SEQ_BATCH_SECS) / one).ceil() as usize).max(1);
        (bench, setup)
    }

    /// One pass of the sequential reference over every target; returns
    /// the time and whether every output equals its reference.
    fn sequential(&self) -> (f64, bool) {
        let start = Instant::now();
        let outputs: Vec<ProgramOutput> = self
            .targets
            .iter()
            .map(|t| t.bench.run_sequential())
            .collect();
        let secs = start.elapsed().as_secs_f64();
        let ok = outputs
            .iter()
            .zip(&self.targets)
            .all(|(o, t)| *o == t.reference);
        black_box(outputs);
        (secs, ok)
    }

    /// Runs one measured operation of the 1-lane or the 2-lane arm; returns
    /// its time and whether its output was correct.
    fn run(&self, arm: Arm) -> (f64, bool) {
        let concurrent = match arm {
            Arm::OneLane => false,
            Arm::Parallel => true,
            _ => unreachable!("not a plain operation"),
        };
        match self.kind {
            Kind::InferTable3 => {
                let programs: Vec<&(dyn InferTarget + Sync)> = self
                    .targets
                    .iter()
                    .map(|t| t.bench.as_ref() as &(dyn InferTarget + Sync))
                    .collect();
                let (secs, ok, _) = infer_pass(&programs, concurrent);
                (secs, ok)
            }
            Kind::Genome => {
                let workers = if concurrent { WORKERS } else { 1 };
                let run = engine_op(&self.targets, |b| paper_probe(b, workers), None);
                (run.secs, run.ok)
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    /// The unmodified sequential programs, batched (the reference).
    Sequential,
    /// Loops: the 1-worker engine on the sequential driver. Inference: the
    /// pass with its probes run one at a time.
    OneLane,
    /// A fresh set-up (see `Bench::setup`). Sampled without `--trace 1`.
    Setup,
    /// Loops: the threaded engine at `WORKERS`. Inference: the default
    /// pass, probes on its pool. Sampled with `--trace 1` only.
    Parallel,
    /// The workload's operation with tracing attached (see `layers`).
    /// Sampled with `--trace 1` only.
    Traced,
}

/// Per-arm samples: seconds per operation (per reference pass for the
/// sequential arm, per set-up for the set-up arm). Without `--trace 1`
/// `par` and `traced` stay empty; with it, `setup` holds the first set-up
/// only.
#[derive(Default)]
struct Samples {
    seq: Vec<f64>,
    one: Vec<f64>,
    setup: Vec<f64>,
    par: Vec<f64>,
    traced: Vec<f64>,
}

/// Takes samples for `seconds` (at least `MIN_SAMPLES`), each one
/// interleaving the arms in a seeded random order; `traced` swaps the
/// set-up arm for the parallel and traced arms, and accumulates the traced
/// arm's layer figures. Set-ups are spread over the whole run, so that
/// their median sees the same stretches of machine noise as the other arms.
fn sample(
    bench: &Bench,
    first_setup: f64,
    args: &Args,
    tally: &mut Tally,
    mut traced: Option<&mut layers::Traced>,
) -> Samples {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut arms = vec![Arm::Sequential, Arm::OneLane];
    if traced.is_some() {
        arms.extend([Arm::Parallel, Arm::Traced]);
    } else {
        arms.push(Arm::Setup);
    }
    let mut s = Samples {
        setup: vec![first_setup],
        ..Samples::default()
    };
    let start = Instant::now();
    while s.one.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        for i in (1..arms.len()).rev() {
            arms.swap(i, rng.gen_range(0..i + 1));
        }
        for &arm in &arms {
            match arm {
                Arm::Sequential => {
                    let mut total = 0.0;
                    for _ in 0..bench.seq_batch {
                        let (secs, ok) = bench.sequential();
                        total += secs;
                        tally.reference_drift += u64::from(!ok);
                    }
                    s.seq.push(total / bench.seq_batch as f64);
                }
                Arm::OneLane => {
                    let (secs, ok) = bench.run(arm);
                    tally.op(ok);
                    s.one.push(secs);
                }
                Arm::Parallel => {
                    let (secs, ok) = bench.run(arm);
                    tally.op(ok);
                    s.par.push(secs);
                }
                Arm::Setup => {
                    let (fresh, secs) = Bench::setup(bench.kind);
                    s.setup.push(secs);
                    let same = fresh
                        .targets
                        .iter()
                        .zip(&bench.targets)
                        .all(|(f, t)| f.reference == t.reference);
                    tally.reference_drift += u64::from(!same);
                }
                Arm::Traced => {
                    let t = traced.as_deref_mut().expect("traced arm without a sink");
                    let (secs, ok) = t.run(bench);
                    tally.op(ok);
                    s.traced.push(secs);
                }
            }
        }
    }
    s
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A named figure with its unit and the direction that is better.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

fn print_result(tally: &Tally, metrics: &[Metric], info: &[Metric]) -> Result<(), String> {
    for m in metrics.iter().chain(info) {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
    }
    for m in info {
        println!(
            "info   {:<34} {:>16} {:<6} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    for m in metrics {
        println!(
            "metric {:<34} {:>16} {:<6} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.reference_drift == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// Figures every run reports for context, never gated: the seed, the
/// machine, absolute medians and spreads, and the failure share.
fn context(args: &Args, tally: &Tally, s: &Samples) -> Vec<Metric> {
    vec![
        metric("seed", args.seed as f64, "count", "none"),
        metric("cores", cores() as f64, "count", "none"),
        metric("samples", s.one.len() as f64, "count", "higher"),
        metric("seq_s", stats::median(&s.seq), "s", "lower"),
        metric("run_1w_s", stats::median(&s.one), "s", "lower"),
        metric("seq_iqr_share", stats::iqr_share(&s.seq), "ratio", "lower"),
        metric(
            "run_1w_iqr_share",
            stats::iqr_share(&s.one),
            "ratio",
            "lower",
        ),
        metric(
            "failed_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            "lower",
        ),
        metric(
            "reference_drift",
            tally.reference_drift as f64,
            "count",
            "lower",
        ),
    ]
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let (bench, first_setup) = Bench::first(args.kind, &mut tally);
    if !args.trace {
        let s = sample(&bench, first_setup, args, &mut tally, None);
        let metrics = [
            metric(
                "speedup_1w_vs_seq",
                stats::ratio_of_medians(&s.seq, &s.one),
                "x",
                "higher",
            ),
            metric("setup_s", stats::median(&s.setup), "s", "lower"),
            metric("peak_rss_mib", peak_rss_mib()?, "MiB", "lower"),
        ];
        let mut info = context(args, &tally, &s);
        info.extend([
            metric("setups", s.setup.len() as f64, "count", "higher"),
            metric(
                "setup_iqr_share",
                stats::iqr_share(&s.setup),
                "ratio",
                "lower",
            ),
        ]);
        return print_result(&tally, &metrics, &info);
    }
    let mut traced = layers::Traced::new(args.kind);
    let s = sample(&bench, first_setup, args, &mut tally, Some(&mut traced));
    let metrics = traced.finish(&bench, &s);
    print_result(&tally, &metrics, &context(args, &tally, &s))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {:?}, seed {} (orders the arms; program inputs use their built-in \
         generator seeds), {} s, trace {}",
        args.kind, args.seed, args.seconds, args.trace
    );
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
