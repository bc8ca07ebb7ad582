//! The human-readable flight recorder: a round-by-round timeline.
//!
//! Turns a raw event stream into the view a person debugging an annotation
//! actually wants: per round, which transactions committed, which
//! conflicted (and on exactly which word, against whom), and which were
//! squashed as collateral.

use crate::event::Event;
use std::fmt::Write as _;

/// Renders the flight-recorder timeline for an event stream.
///
/// Engine events are grouped under `round N` headers; inference probes and
/// terminal events appear at top level. Unknown orderings degrade
/// gracefully — every event renders *somewhere* — so a truncated ring
/// buffer still produces a readable (if headless) tail.
pub fn render_timeline(events: &[Event]) -> String {
    let mut out = String::new();
    let mut in_round = false;
    for ev in events {
        match ev {
            Event::RoundStart {
                round,
                tasks,
                snapshot_slots,
            } => {
                let _ = writeln!(
                    out,
                    "round {round}: {tasks} task(s), snapshot of {snapshot_slots} slot(s)"
                );
                in_round = true;
            }
            Event::TaskStart { seq, worker, iters } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: started on worker {worker} ({iters} iter(s))",
                    pad(in_round)
                );
            }
            Event::TaskSets { seq, reads, writes } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: sets reads=[{reads}] writes=[{writes}]",
                    pad(in_round)
                );
            }
            Event::ValidateOk {
                seq,
                validate_words,
            } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: validated ok ({validate_words} word(s) checked)",
                    pad(in_round)
                );
            }
            Event::ValidateConflict {
                seq,
                kind,
                obj,
                word,
                winner_seq,
            } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: CONFLICT ({kind}) at {obj} word {word} — lost to committed tx {winner_seq}",
                    pad(in_round)
                );
            }
            Event::Commit {
                seq,
                read_words,
                write_words,
                allocs,
                frees,
            } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: committed (reads={read_words}w writes={write_words}w allocs={allocs} frees={frees})",
                    pad(in_round)
                );
            }
            Event::Squash { seq, by_seq } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: SQUASHED by earlier failure of tx {by_seq}",
                    pad(in_round)
                );
            }
            Event::ReductionMerge { seq, var, op } => {
                let _ = writeln!(
                    out,
                    "{}tx {seq}: merged reduction var {var} with '{op}'",
                    pad(in_round)
                );
            }
            Event::Oom { words, budget } => {
                let _ = writeln!(
                    out,
                    "{}OOM: tracked {words} word(s), budget {budget}",
                    pad(in_round)
                );
            }
            Event::Crash { message } => {
                let _ = writeln!(out, "{}CRASH: {message}", pad(in_round));
            }
            Event::WorkBudgetExceeded { spent, budget } => {
                let _ = writeln!(
                    out,
                    "{}WORK BUDGET EXCEEDED: spent {spent} of {budget} cost unit(s)",
                    pad(in_round)
                );
            }
            Event::PhaseProfile { round, phase, cost } => {
                let _ = writeln!(
                    out,
                    "{}phase {phase}: {cost} cost unit(s) (round {round})",
                    pad(in_round)
                );
            }
            Event::ProbeStart { annotation } => {
                in_round = false;
                let _ = writeln!(out, "probe: {annotation}");
            }
            Event::ProbeOutcome {
                annotation,
                outcome,
            } => {
                in_round = false;
                let _ = writeln!(out, "probe: {annotation} -> {outcome}");
            }
            Event::RunEnd {
                rounds,
                attempts,
                committed,
            } => {
                in_round = false;
                let _ = writeln!(
                    out,
                    "run end: {rounds} round(s), {attempts} attempt(s), {committed} committed"
                );
            }
        }
    }
    out
}

fn pad(in_round: bool) -> &'static str {
    if in_round {
        "  "
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConflictKind;
    use alter_heap::ObjId;

    #[test]
    fn timeline_explains_a_conflict_and_squash() {
        let evs = vec![
            Event::RoundStart {
                round: 3,
                tasks: 3,
                snapshot_slots: 10,
            },
            Event::Commit {
                seq: 6,
                read_words: 8,
                write_words: 4,
                allocs: 1,
                frees: 0,
            },
            Event::ValidateConflict {
                seq: 7,
                kind: ConflictKind::Waw,
                obj: ObjId::from_index(5),
                word: 2,
                winner_seq: 6,
            },
            Event::Squash { seq: 8, by_seq: 7 },
            Event::RunEnd {
                rounds: 4,
                attempts: 9,
                committed: 7,
            },
        ];
        let t = render_timeline(&evs);
        assert!(t.contains("round 3: 3 task(s)"), "{t}");
        assert!(
            t.contains("tx 7: CONFLICT (WAW) at obj#5 word 2 — lost to committed tx 6"),
            "{t}"
        );
        assert!(
            t.contains("tx 8: SQUASHED by earlier failure of tx 7"),
            "{t}"
        );
        assert!(t.contains("run end: 4 round(s)"), "{t}");
    }

    #[test]
    fn probe_lines_render_at_top_level() {
        let evs = vec![
            Event::ProbeStart {
                annotation: "StaleReads cf=4".into(),
            },
            Event::ProbeOutcome {
                annotation: "StaleReads cf=4".into(),
                outcome: "success".into(),
            },
        ];
        let t = render_timeline(&evs);
        assert!(t.contains("probe: StaleReads cf=4\n"), "{t}");
        assert!(t.contains("probe: StaleReads cf=4 -> success"), "{t}");
    }
}
