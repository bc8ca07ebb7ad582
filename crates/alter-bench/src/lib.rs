//! # alter-bench — the table & figure harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7) on
//! the simulated multicore:
//!
//! * [`table3`] — annotation-inference outcomes per benchmark;
//! * [`table4`] — chunk factor, transaction counts, RW-set sizes and retry
//!   rates;
//! * [`figure5`] — runtime vs chunk factor on K-means inputs;
//! * [`figures`] — the speedup curves of Figures 6–13;
//! * [`convergence_facts`] — the §7.2 convergence observations (GS sweep
//!   counts, SG3D max-vs-+ iterations, Floyd passes).
//!
//! Run `cargo bench` (or the `alter-tables` / `alter-figures` binaries)
//! to print them.

#![warn(missing_docs)]

use alter_infer::{infer, InferConfig, Model, Probe};
use alter_sim::SimClock;
use alter_trace::Json;
use alter_workloads::gauss_seidel::GaussSeidel;
use alter_workloads::kmeans::KMeans;
use alter_workloads::manual;
use alter_workloads::sg3d::Sg3d;
use alter_workloads::{all_benchmarks, Benchmark, Scale};
use std::fmt::Write as _;

/// Worker counts the speedup figures sweep (the paper's x-axis runs to 8).
pub const WORKER_SWEEP: [usize; 5] = [1, 2, 4, 6, 8];

/// The output step of a deterministic bench. Reads `--json <path>` from
/// the command line now, exiting 1 when the path is missing, and returns
/// the step: it writes the summary to that path, exiting 1 when the write
/// fails, or prints it when the flag is absent. A following flag is not a path: `cargo bench` appends
/// `--bench` to the bench's arguments.
pub fn json_output() -> impl FnOnce(&Json) {
    let args: Vec<String> = std::env::args().collect();
    let path = args.iter().position(|a| a == "--json").map(|i| {
        let path = args.get(i + 1).filter(|p| !p.starts_with("--"));
        path.cloned().unwrap_or_else(|| {
            eprintln!("error: --json needs a path");
            std::process::exit(1)
        })
    });
    move |doc| {
        let text = doc.render_pretty();
        match path {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote {path}");
            }
            None => print!("{text}"),
        }
    }
}

/// Dilutes a loop's simulated speedup by its loop weight (Table 2's
/// LOOP WGT column), Amdahl-style.
pub fn diluted_speedup(clock: &SimClock, weight: f64) -> f64 {
    let mut c = clock.clone();
    if weight < 1.0 && weight > 0.0 {
        c.add_sequential(c.seq_units * (1.0 / weight - 1.0));
    }
    c.speedup()
}

fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        let _ = write!(s, "{cell:<w$}  ");
    }
    s.trim_end().to_owned()
}

/// Renders Table 3: the inference outcome matrix.
///
/// Columns mirror the paper: loop-carried dependence, TLS, OutOfOrder,
/// StaleReads, and the reduction operators found. Inference runs on the
/// inference-scale inputs, exactly as in Table 2.
pub fn table3() -> String {
    let cfg = InferConfig::default();
    let widths = [11, 5, 9, 9, 9, 10];
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: results of annotation inference");
    let _ = writeln!(
        out,
        "{}",
        fmt_row(
            &["Benchmark", "Dep", "TLS", "OutOrd", "Stale", "Reduction"].map(str::to_owned),
            &widths
        )
    );
    for b in all_benchmarks(Scale::Inference) {
        let report = infer(b.as_ref(), &cfg);
        // The Stale column reports the best StaleReads result: the policy
        // alone, or combined with a successful reduction (the paper's
        // K-means/SG3D rows fold the reduction in).
        let stale_cell = if report.stale_reads.is_success()
            || report
                .successful_reductions()
                .iter()
                .any(|r| r.model == Model::StaleReads)
        {
            "success".to_owned()
        } else {
            report.stale_reads.short().to_owned()
        };
        // The paper's convention: the TLS and OutOrd columns report the
        // policy alone, while the Stale column folds in the best reduction
        // (its K-means row is `h.c. h.c. success +`).
        let ooo_cell = report.out_of_order.short().to_owned();
        let _ = writeln!(
            out,
            "{}",
            fmt_row(
                &[
                    report.name.clone(),
                    if report.dep.any() { "Yes" } else { "No" }.to_owned(),
                    report.tls.short().to_owned(),
                    ooo_cell,
                    stale_cell,
                    {
                        let mut ops: Vec<String> = Vec::new();
                        for r in report.successful_reductions() {
                            if r.model == Model::StaleReads {
                                let op = r.op.to_string();
                                if !ops.contains(&op) {
                                    ops.push(op);
                                }
                            }
                        }
                        if ops.is_empty() {
                            "N/A".into()
                        } else {
                            ops.join("/")
                        }
                    },
                ],
                &widths
            )
        );
    }
    out
}

/// Renders Table 4: instrumentation details of the chosen configuration
/// per benchmark (chunk factor, transactions executed, average RW-set
/// words per transaction, retry rate).
pub fn table4() -> String {
    let widths = [22, 5, 12, 14, 10];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: instrumentation details (best annotation, 4 workers)"
    );
    let _ = writeln!(
        out,
        "{}",
        fmt_row(
            &[
                "Benchmark",
                "cf",
                "Txn Count",
                "RW Set/Trans.",
                "Retry Rate"
            ]
            .map(str::to_owned),
            &widths
        )
    );
    let mut lines = Vec::new();
    {
        let mut push_line = |name: String, probe: &Probe, b: &dyn Benchmark| {
            if let Ok(run) = b.run_probe_public(probe) {
                lines.push(fmt_row(
                    &[
                        name,
                        probe.chunk.to_string(),
                        run.stats.attempts.to_string(),
                        format!("{:.0}", run.stats.avg_rw_words()),
                        format!("{:.1}%", run.stats.retry_rate() * 100.0),
                    ],
                    &widths,
                ));
            } else {
                lines.push(format!("{name:<22}  (aborts under this configuration)"));
            }
        };
        for b in all_benchmarks(Scale::Inference) {
            let name = b.name_public().to_owned();
            if name == "Labyrinth" {
                continue; // no valid annotation; skipped in the paper too
            }
            // Genome and SSCA2 get both Stale and OutOfOrder rows, as in
            // the paper's table.
            if name == "Genome" || name == "SSCA2" {
                for model in [Model::StaleReads, Model::OutOfOrder] {
                    let mut probe = b.best_probe(4);
                    probe.model = model;
                    push_line(format!("{name}-{model}"), &probe, b.as_ref());
                }
            } else {
                let probe = b.best_probe(4);
                push_line(name, &probe, b.as_ref());
            }
        }
    }
    for l in lines {
        let _ = writeln!(out, "{l}");
    }
    out
}

/// Helper trait so the harness can call `InferTarget` methods through
/// `Box<dyn Benchmark>` without naming the supertrait everywhere.
pub trait BenchmarkExt {
    /// The benchmark's name.
    fn name_public(&self) -> &str;
    /// Runs a probe (delegates to `InferTarget::run_probe`).
    fn run_probe_public(
        &self,
        probe: &Probe,
    ) -> Result<alter_infer::ProbeRun, alter_runtime::RunError>;
}

impl<T: Benchmark + ?Sized> BenchmarkExt for T {
    fn name_public(&self) -> &str {
        self.name()
    }
    fn run_probe_public(
        &self,
        probe: &Probe,
    ) -> Result<alter_infer::ProbeRun, alter_runtime::RunError> {
        self.run_probe(probe)
    }
}

/// Renders Figure 5: K-means runtime vs chunk factor across four inputs
/// (two point counts × two cluster counts). The paper's finding: the best
/// chunk factor is input-independent.
pub fn figure5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5: K-means simulated time vs chunk factor");
    let configs = [
        ("S-16", KMeans::with_clusters(Scale::Inference, 16)),
        ("S-32", KMeans::with_clusters(Scale::Inference, 32)),
        ("L-16", KMeans::with_clusters(Scale::Paper, 16)),
        ("L-32", KMeans::with_clusters(Scale::Paper, 32)),
    ];
    let cfs = [1usize, 2, 4, 8, 16];
    let _ = writeln!(
        out,
        "input     {}",
        cfs.iter()
            .map(|c| format!("cf={c:<10}"))
            .collect::<String>()
    );
    let mut bests = Vec::new();
    for (label, km) in &configs {
        let mut row = format!("{label:<9} ");
        let mut best = (0usize, f64::INFINITY);
        for &cf in &cfs {
            let mut probe = km.best_probe(4);
            probe.chunk = cf;
            let t = km.run(&probe).map(|r| r.3.par_units).unwrap_or(f64::NAN);
            if t < best.1 {
                best = (cf, t);
            }
            let _ = write!(row, "{t:<13.0}");
        }
        bests.push(best.0);
        let _ = writeln!(out, "{row}  (best cf={})", best.0);
    }
    // The paper's finding: the best chunk factor depends on the loop
    // structure, not the input size — compare small vs large at equal
    // cluster counts.
    let stable = bests[0] == bests[2] && bests[1] == bests[3];
    let _ = writeln!(
        out,
        "best cf (S-16, S-32, L-16, L-32) = {:?} -> {}",
        bests,
        if stable {
            "independent of input size (paper's finding)"
        } else {
            "varies with input size"
        }
    );
    out
}

fn speedup_series(b: &dyn Benchmark, mk_probe: impl Fn(usize) -> Probe) -> Vec<(usize, f64)> {
    WORKER_SWEEP
        .iter()
        .map(|&w| {
            let s = match b.run_probe_public(&mk_probe(w)) {
                Ok(run) => diluted_speedup(&run.clock, b.loop_weight()),
                Err(_) => f64::NAN,
            };
            (w, s)
        })
        .collect()
}

fn series_row(label: &str, series: &[(usize, f64)]) -> String {
    let mut s = format!("{label:<28}");
    for (_, v) in series {
        if v.is_nan() {
            let _ = write!(s, "{:>8}", "fail");
        } else {
            let _ = write!(s, "{v:>8.2}");
        }
    }
    s
}

/// Renders the speedup curves of Figures 6–13 (speedup over sequential vs
/// simulated processor count).
pub fn figures(scale: Scale) -> String {
    let mut out = String::new();
    let header = {
        let mut h = format!("{:<28}", "configuration");
        for w in WORKER_SWEEP {
            let _ = write!(h, "{w:>8}");
        }
        h
    };

    let by_name = |name: &str| -> Box<dyn Benchmark> {
        all_benchmarks(scale)
            .into_iter()
            .find(|b| b.name_public() == name)
            .expect("benchmark registered")
    };

    // Figure 6: Genome under all three models.
    let _ = writeln!(out, "Figure 6: Genome\n{header}");
    let g = by_name("Genome");
    for model in [Model::StaleReads, Model::OutOfOrder, Model::Tls] {
        let series = speedup_series(g.as_ref(), |w| {
            let mut p = g.best_probe(w);
            p.model = model;
            p
        });
        let _ = writeln!(out, "{}", series_row(&format!("Genome-{model}"), &series));
    }

    // Figure 7: SSCA2.
    let _ = writeln!(out, "\nFigure 7: SSCA2\n{header}");
    let s = by_name("SSCA2");
    for model in [Model::StaleReads, Model::OutOfOrder] {
        let series = speedup_series(s.as_ref(), |w| {
            let mut p = s.best_probe(w);
            p.model = model;
            p
        });
        let _ = writeln!(out, "{}", series_row(&format!("SSCA2-{model}"), &series));
    }

    // Figure 8: K-means at two cluster counts, plus the manual baseline.
    let _ = writeln!(
        out,
        "\nFigure 8: K-means (vs manual fine-grained locking)\n{header}"
    );
    for clusters in [32usize, 64] {
        let km = KMeans::with_clusters(scale, clusters);
        let series = speedup_series(&km, |w| km.best_probe(w));
        let _ = writeln!(
            out,
            "{}",
            series_row(&format!("K-means-{clusters}"), &series)
        );
        let manual_series: Vec<(usize, f64)> = WORKER_SWEEP
            .iter()
            .map(|&w| {
                let s = manual::manual_kmeans(&km, w)
                    .map(|c| diluted_speedup(&c, km.loop_weight()))
                    .unwrap_or(f64::NAN);
                (w, s)
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            series_row(&format!("K-means-{clusters}-manual"), &manual_series)
        );
    }

    // Figure 9: Gauss-Seidel dense & sparse vs the hand-synced baseline.
    let _ = writeln!(
        out,
        "\nFigure 9: Gauss-Seidel (vs manual multi-copy version)\n{header}"
    );
    for gs in [GaussSeidel::dense(scale), GaussSeidel::sparse(scale)] {
        let series = speedup_series(&gs, |w| gs.best_probe(w));
        let _ = writeln!(out, "{}", series_row(gs.name_public(), &series));
        let manual_series: Vec<(usize, f64)> = WORKER_SWEEP
            .iter()
            .map(|&w| {
                let s = manual::manual_gauss_seidel(&gs, w)
                    .map(|c| diluted_speedup(&c, gs.loop_weight()))
                    .unwrap_or(f64::NAN);
                (w, s)
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            series_row(&format!("{}-manual", gs.name_public()), &manual_series)
        );
    }

    // Figure 10: Floyd.
    let _ = writeln!(out, "\nFigure 10: Floyd-Warshall\n{header}");
    let f = by_name("Floyd");
    let series = speedup_series(f.as_ref(), |w| f.best_probe(w));
    let _ = writeln!(out, "{}", series_row("Floyd-StaleReads", &series));

    // Figure 11: SG3D with the two valid reductions. Both curves are
    // normalized to the *original* (max-reduction) program's sequential
    // time, so the extra sweeps the + annotation needs show up as lost
    // speedup — exactly how the paper plots it.
    let _ = writeln!(
        out,
        "\nFigure 11: SG3D (27-point stencil, alternate reductions)\n{header}"
    );
    let sg = Sg3d::new(scale);
    for op in [alter_runtime::RedOp::Max, alter_runtime::RedOp::Add] {
        let series: Vec<(usize, f64)> = WORKER_SWEEP
            .iter()
            .map(|&w| {
                let mut max_probe = sg.best_probe(w);
                max_probe.reduction = Some(("err".into(), alter_runtime::RedOp::Max));
                let mut op_probe = sg.best_probe(w);
                op_probe.reduction = Some(("err".into(), op));
                let s = match (
                    sg.run_probe_public(&max_probe),
                    sg.run_probe_public(&op_probe),
                ) {
                    (Ok(reference), Ok(run)) => {
                        let mut clock = run.clock.clone();
                        clock.seq_units = reference.clock.seq_units;
                        diluted_speedup(&clock, sg.loop_weight())
                    }
                    _ => f64::NAN,
                };
                (w, s)
            })
            .collect();
        let _ = writeln!(out, "{}", series_row(&format!("SG3D-Stale+{op}"), &series));
    }

    // Figure 12: AggloClust.
    let _ = writeln!(out, "\nFigure 12: Agglomerative Clustering\n{header}");
    let a = by_name("AggloClust");
    let series = speedup_series(a.as_ref(), |w| a.best_probe(w));
    let _ = writeln!(out, "{}", series_row("AggloClust-StaleReads", &series));

    // Figure 13: the three dependence-free benchmarks.
    let _ = writeln!(out, "\nFigure 13: BarnesHut, FFT, HMM\n{header}");
    for name in ["BarnesHut", "FFT", "HMM"] {
        let b = by_name(name);
        let series = speedup_series(b.as_ref(), |w| b.best_probe(w));
        let _ = writeln!(out, "{}", series_row(name, &series));
    }
    out
}

/// Renders the iterative-doubling chunk-factor search (§5) on three
/// representative benchmarks, under their best annotation.
pub fn chunk_tuning() -> String {
    use alter_infer::tune_chunk;
    let mut out = String::new();
    let _ = writeln!(out, "Chunk-factor tuning (iterative doubling, 4 workers)");
    for name in ["Genome", "K-means", "SG3D"] {
        let b = all_benchmarks(Scale::Inference)
            .into_iter()
            .find(|b| b.name_public() == name)
            .expect("registered");
        let (model, reduction) = b.best_config();
        let tuning = tune_chunk(b.as_ref(), model, reduction, 4);
        let curve: Vec<String> = tuning
            .curve
            .iter()
            .map(|(cf, t)| format!("cf{cf}:{t:.0}"))
            .collect();
        let _ = writeln!(
            out,
            "  {name:<10} chosen cf={:<4} curve: {}",
            tuning.best,
            curve.join("  ")
        );
    }
    out
}

/// Renders the §7.2 convergence observations: extra sweeps under
/// StaleReads for Gauss-Seidel, the SG3D max-vs-+ iteration blowup, and
/// Floyd's fixpoint pass count.
pub fn convergence_facts(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Convergence under broken dependences (§7.2)");
    for gs in [GaussSeidel::dense(scale), GaussSeidel::sparse(scale)] {
        let (_, seq_sweeps) = gs.solve_sequential();
        let (_, par_sweeps, _, _) = gs.run(&gs.best_probe(4)).expect("stale GS runs");
        let _ = writeln!(
            out,
            "{}: sweeps sequential {} -> StaleReads {} (paper: 16->17 dense, 20->21 sparse)",
            gs.name_public(),
            seq_sweeps,
            par_sweeps
        );
    }
    let sg = Sg3d::new(scale);
    let mut max_probe = sg.best_probe(4);
    max_probe.reduction = Some(("err".into(), alter_runtime::RedOp::Max));
    let mut add_probe = sg.best_probe(4);
    add_probe.reduction = Some(("err".into(), alter_runtime::RedOp::Add));
    let (_, max_sweeps, _, _) = sg.run(&max_probe).expect("sg3d max runs");
    let (_, add_sweeps, _, _) = sg.run(&add_probe).expect("sg3d + runs");
    let _ = writeln!(
        out,
        "SG3D: sweeps with max {max_sweeps} vs with + {add_sweeps} (paper: 1670 -> 2752 iterations)"
    );
    let fl = alter_workloads::floyd::Floyd::new(scale);
    let (_, passes, _, _) = fl.run(&fl.best_probe(4)).expect("floyd runs");
    let _ = writeln!(
        out,
        "Floyd: relaxation passes to fixpoint under StaleReads: {passes} (sequential: 1 + check)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diluted_speedup_applies_amdahl() {
        let clock = SimClock {
            seq_units: 100.0,
            par_units: 25.0, // 4x on the loop
            ..Default::default()
        };
        assert!((diluted_speedup(&clock, 1.0) - 4.0).abs() < 1e-9);
        // 50% loop weight: total seq = 200, total par = 125 -> 1.6x
        assert!((diluted_speedup(&clock, 0.5) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn figure5_reports_an_input_independent_best() {
        let f = figure5();
        assert!(f.contains("best cf="), "{f}");
    }
}
