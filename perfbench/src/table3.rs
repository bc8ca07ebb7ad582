//! Table 3 of the paper, transcribed by hand, and the check of an inference
//! report against it.
//!
//! The expected values come from the paper, never from this program's
//! output: a row is judged per column on success or failure (the paper's
//! `timeout`, `h.c.` and `crash` all mean "this model fails").

use alter_infer::{InferReport, Model};
use alter_runtime::RedOp;

/// One row of the paper's Table 3.
struct PaperRow {
    name: &'static str,
    dep: bool,
    tls: bool,
    out_of_order: bool,
    stale_reads: bool,
    /// Reduction operators the paper reports as valid (empty for `N/A`).
    reductions: &'static [RedOp],
}

const fn row(
    name: &'static str,
    dep: bool,
    [tls, out_of_order, stale_reads]: [bool; 3],
    reductions: &'static [RedOp],
) -> PaperRow {
    PaperRow {
        name,
        dep,
        tls,
        out_of_order,
        stale_reads,
        reductions,
    }
}

const OK: bool = true;
const FAIL: bool = false;

/// The paper's Table 3, row for row.
const PAPER: [PaperRow; 12] = [
    row("Genome", true, [OK, OK, OK], &[]),
    row("SSCA2", true, [FAIL, OK, OK], &[]), // TLS: timeout
    row("K-means", true, [FAIL, FAIL, OK], &[RedOp::Add]),
    row("Labyrinth", true, [FAIL, FAIL, FAIL], &[]),
    row("AggloClust", true, [FAIL, FAIL, OK], &[]),
    row("GSdense", true, [FAIL, FAIL, OK], &[]),
    row("GSsparse", true, [FAIL, FAIL, OK], &[]),
    row("Floyd", true, [FAIL, FAIL, OK], &[]),
    row("SG3D", true, [FAIL, FAIL, OK], &[RedOp::Max, RedOp::Add]),
    row("BarnesHut", false, [OK, OK, OK], &[]),
    row("FFT", false, [OK, OK, OK], &[]),
    row("HMM", false, [OK, OK, OK], &[]),
];

/// Cells where this reproduction is documented to differ from the paper,
/// with the outcome it reports instead. Such a cell may show the paper's
/// outcome or the documented one; the documented one still counts against
/// [`RowCheck::matches_paper`].
const DOCUMENTED_DIVERGENCES: [(&str, Model, bool); 1] = [
    // EXPERIMENTS.md, "Documented divergences" 1: the lock-step engine
    // cannot reach the >10x-sequential timeout, and SSCA2's TLS conflicts
    // stay under the high-conflict threshold, so TLS succeeds slowly.
    ("SSCA2", Model::Tls, OK),
];

/// The verdict on one inference report.
#[derive(Debug, Default)]
pub struct RowCheck {
    /// Every column equals the paper's.
    pub matches_paper: bool,
    /// Cells that differ from the paper and are not documented divergences.
    pub problems: Vec<String>,
}

impl RowCheck {
    /// Whether the row is correct: equal to the paper up to the documented
    /// divergences.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Checks `report` against its row of the paper's Table 3.
pub fn check(report: &InferReport) -> RowCheck {
    let Some(paper) = PAPER.iter().find(|r| r.name == report.name) else {
        return RowCheck {
            matches_paper: false,
            problems: vec![format!("{}: not a row of Table 3", report.name)],
        };
    };
    let mut out = RowCheck {
        matches_paper: true,
        problems: Vec::new(),
    };
    if report.dep.any() != paper.dep {
        out.matches_paper = false;
        out.problems.push(format!(
            "{}: Dep is {}, the paper has {}",
            paper.name,
            report.dep.any(),
            paper.dep
        ));
    }
    // The paper's TLS and OutOrd columns report the policy alone; its
    // Stale column and Reduction column fold in the reductions found with
    // StaleReads (its K-means row is `h.c. h.c. success +`).
    let stale_reductions: Vec<RedOp> = report
        .successful_reductions()
        .iter()
        .filter(|r| r.model == Model::StaleReads)
        .map(|r| r.op)
        .collect();
    let columns = [
        (Model::Tls, &report.tls, report.tls.is_success(), paper.tls),
        (
            Model::OutOfOrder,
            &report.out_of_order,
            report.out_of_order.is_success(),
            paper.out_of_order,
        ),
        (
            Model::StaleReads,
            &report.stale_reads,
            report.stale_reads.is_success() || !stale_reductions.is_empty(),
            paper.stale_reads,
        ),
    ];
    for (model, outcome, got, expected) in columns {
        if got == expected {
            continue;
        }
        out.matches_paper = false;
        let documented = DOCUMENTED_DIVERGENCES
            .iter()
            .any(|&(name, m, bit)| name == paper.name && m == model && bit == got);
        if !documented {
            out.problems.push(format!(
                "{}: {model} gave {outcome}, the paper has {}",
                paper.name,
                if expected { "success" } else { "a failure" }
            ));
        }
    }
    for op in paper.reductions {
        if !stale_reductions.contains(op) {
            out.matches_paper = false;
            out.problems.push(format!(
                "{}: reduction {op} not found valid, the paper reports it",
                paper.name
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_infer::{InferConfig, Outcome};
    use alter_workloads::{fft::Fft, ssca2::Ssca2, Scale};

    #[test]
    fn table_names_every_benchmark_once() {
        let names: Vec<String> = alter_workloads::all_benchmarks(Scale::Inference)
            .iter()
            .map(|b| b.name().to_owned())
            .collect();
        let paper: Vec<&str> = PAPER.iter().map(|r| r.name).collect();
        assert_eq!(names, paper);
    }

    #[test]
    fn undocumented_cell_flips_are_problems() {
        let mut report = alter_infer::infer(&Fft::new(Scale::Inference), &InferConfig::default());
        let good = check(&report);
        assert!(good.ok() && good.matches_paper, "{good:?}");
        report.tls = Outcome::HighConflicts;
        let bad = check(&report);
        assert!(!bad.ok() && !bad.matches_paper);
        assert_eq!(bad.problems.len(), 1, "{:?}", bad.problems);
    }

    #[test]
    fn documented_divergence_is_accepted_but_not_a_paper_match() {
        let mut report = alter_infer::infer(&Ssca2::new(Scale::Inference), &InferConfig::default());
        let div = check(&report);
        assert!(div.ok() && !div.matches_paper, "{div:?}");
        // Reproducing the paper's own value there is a full match.
        report.tls = Outcome::Timeout;
        let paper = check(&report);
        assert!(paper.ok() && paper.matches_paper, "{paper:?}");
    }
}
