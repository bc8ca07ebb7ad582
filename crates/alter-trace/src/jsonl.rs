//! JSONL export and import: one canonical JSON object per event, one
//! event per line.
//!
//! The encoding is *canonical*: field order is fixed per event type and
//! every payload is an integer or a string, so byte-identical traces ⇔
//! identical event streams. The trace hash is computed over exactly these
//! bytes (see [`crate::hash`]), so [`event_json`] writes each field
//! directly, escaping strings with [`crate::json`]'s escaper.
//! [`from_jsonl`] inverts [`to_jsonl`] through the strict [`json::parse`],
//! which is what lets the `alter-lint` sanitizer replay a recorded trace
//! offline.

use crate::event::{ConflictKind, Event, Phase};
use crate::json::{self, escape_into, Json};
use alter_heap::{AccessSet, ObjId};
use std::fmt::Write as _;

/// Renders an access set in canonical form: `obj:lo-hi` entries (half-open
/// word ranges) joined with `,`, ascending by object then range. The empty
/// set renders as the empty string. [`parse_set`] inverts this.
pub fn render_set(set: &AccessSet) -> String {
    let mut s = String::new();
    for (obj, ranges) in set.iter_sorted() {
        for (lo, hi) in ranges.iter() {
            if !s.is_empty() {
                s.push(',');
            }
            let _ = write!(s, "{}:{lo}-{hi}", obj.index());
        }
    }
    s
}

/// Parses the canonical `obj:lo-hi,…` form back into `(obj, lo, hi)`
/// triples (see [`render_set`]).
pub fn parse_set(s: &str) -> Result<Vec<(ObjId, u32, u32)>, String> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Ok(out);
    }
    for part in s.split(',') {
        let (obj, range) = part
            .split_once(':')
            .ok_or_else(|| format!("bad set entry `{part}`: missing `:`"))?;
        let (lo, hi) = range
            .split_once('-')
            .ok_or_else(|| format!("bad set entry `{part}`: missing `-`"))?;
        let obj: u32 = obj.parse().map_err(|_| format!("bad object in `{part}`"))?;
        let lo: u32 = lo.parse().map_err(|_| format!("bad lo in `{part}`"))?;
        let hi: u32 = hi.parse().map_err(|_| format!("bad hi in `{part}`"))?;
        if lo >= hi {
            return Err(format!("empty range in `{part}`"));
        }
        out.push((ObjId::from_index(obj), lo, hi));
    }
    Ok(out)
}

/// Renders one event as a single-line canonical JSON object.
pub fn event_json(ev: &Event) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ev\":\"{}\"", ev.kind_str());
    match ev {
        Event::RoundStart {
            round,
            tasks,
            snapshot_slots,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"tasks\":{tasks},\"snapshot_slots\":{snapshot_slots}"
            );
        }
        Event::TaskStart { seq, worker, iters } => {
            let _ = write!(s, ",\"seq\":{seq},\"worker\":{worker},\"iters\":{iters}");
        }
        Event::TaskSets { seq, reads, writes } => {
            let _ = write!(s, ",\"seq\":{seq},\"reads\":\"");
            escape_into(&mut s, reads);
            s.push_str("\",\"writes\":\"");
            escape_into(&mut s, writes);
            s.push('"');
        }
        Event::ValidateOk {
            seq,
            validate_words,
        } => {
            let _ = write!(s, ",\"seq\":{seq},\"validate_words\":{validate_words}");
        }
        Event::ValidateConflict {
            seq,
            kind,
            obj,
            word,
            winner_seq,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"kind\":\"{}\",\"obj\":{},\"word\":{word},\"winner_seq\":{winner_seq}",
                kind.as_str(),
                obj.index()
            );
        }
        Event::Commit {
            seq,
            read_words,
            write_words,
            allocs,
            frees,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"read_words\":{read_words},\"write_words\":{write_words},\"allocs\":{allocs},\"frees\":{frees}"
            );
        }
        Event::Squash { seq, by_seq } => {
            let _ = write!(s, ",\"seq\":{seq},\"by_seq\":{by_seq}");
        }
        Event::ReductionMerge { seq, var, op } => {
            s.push_str(",\"seq\":");
            let _ = write!(s, "{seq},\"var\":{var},\"op\":\"");
            escape_into(&mut s, op);
            s.push('"');
        }
        Event::Oom { words, budget } => {
            let _ = write!(s, ",\"words\":{words},\"budget\":{budget}");
        }
        Event::Crash { message } => {
            s.push_str(",\"message\":\"");
            escape_into(&mut s, message);
            s.push('"');
        }
        Event::WorkBudgetExceeded { spent, budget } => {
            let _ = write!(s, ",\"spent\":{spent},\"budget\":{budget}");
        }
        Event::PhaseProfile { round, phase, cost } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"phase\":\"{}\",\"cost\":{cost}",
                phase.as_str()
            );
        }
        Event::ProbeStart { annotation } => {
            s.push_str(",\"annotation\":\"");
            escape_into(&mut s, annotation);
            s.push('"');
        }
        Event::ProbeOutcome {
            annotation,
            outcome,
        } => {
            s.push_str(",\"annotation\":\"");
            escape_into(&mut s, annotation);
            s.push_str("\",\"outcome\":\"");
            escape_into(&mut s, outcome);
            s.push('"');
        }
        Event::RunEnd {
            rounds,
            attempts,
            committed,
        } => {
            let _ = write!(
                s,
                ",\"rounds\":{rounds},\"attempts\":{attempts},\"committed\":{committed}"
            );
        }
    }
    s.push('}');
    s
}

/// Renders an event stream as JSONL (one event per line, trailing newline
/// after each line).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

/// A [`from_jsonl`] failure: the offending 1-based line and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses a canonical JSONL trace back into events — the inverse of
/// [`to_jsonl`]. Unknown event kinds and malformed lines are errors (the
/// sanitizer must not silently skip evidence); blank lines are ignored.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, ParseTraceError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        events.push(parse_event_line(line).map_err(|msg| ParseTraceError { line: idx + 1, msg })?);
    }
    Ok(events)
}

/// Parses one line as a JSON value, reporting the column of a syntax
/// error (the caller knows the line).
pub(crate) fn parse_line(line: &str) -> Result<Json, String> {
    json::parse(line).map_err(|e| format!("column {}: {}", e.column, e.msg))
}

/// Parses one event line.
pub(crate) fn parse_event_line(line: &str) -> Result<Event, String> {
    let f = parse_line(line)?;
    Ok(match f.str_field("ev")? {
        "round_start" => Event::RoundStart {
            round: f.u64_field("round")?,
            tasks: f.u32_field("tasks")?,
            snapshot_slots: f.u64_field("snapshot_slots")?,
        },
        "task_start" => Event::TaskStart {
            seq: f.u64_field("seq")?,
            worker: f.u32_field("worker")?,
            iters: f.u32_field("iters")?,
        },
        "task_sets" => Event::TaskSets {
            seq: f.u64_field("seq")?,
            reads: f.str_field("reads")?.to_owned(),
            writes: f.str_field("writes")?.to_owned(),
        },
        "validate_ok" => Event::ValidateOk {
            seq: f.u64_field("seq")?,
            validate_words: f.u64_field("validate_words")?,
        },
        "validate_conflict" => Event::ValidateConflict {
            seq: f.u64_field("seq")?,
            kind: match f.str_field("kind")? {
                "RAW" => ConflictKind::Raw,
                "WAW" => ConflictKind::Waw,
                other => return Err(format!("unknown conflict kind `{other}`")),
            },
            obj: ObjId::from_index(f.u32_field("obj")?),
            word: f.u32_field("word")?,
            winner_seq: f.u64_field("winner_seq")?,
        },
        "commit" => Event::Commit {
            seq: f.u64_field("seq")?,
            read_words: f.u64_field("read_words")?,
            write_words: f.u64_field("write_words")?,
            allocs: f.u32_field("allocs")?,
            frees: f.u32_field("frees")?,
        },
        "squash" => Event::Squash {
            seq: f.u64_field("seq")?,
            by_seq: f.u64_field("by_seq")?,
        },
        "reduction_merge" => Event::ReductionMerge {
            seq: f.u64_field("seq")?,
            var: f.u32_field("var")?,
            op: match f.str_field("op")? {
                "+" => "+",
                "*" => "*",
                "max" => "max",
                "min" => "min",
                "and" => "and",
                "or" => "or",
                other => return Err(format!("unknown reduction op `{other}`")),
            },
        },
        "oom" => Event::Oom {
            words: f.u64_field("words")?,
            budget: f.u64_field("budget")?,
        },
        "crash" => Event::Crash {
            message: f.str_field("message")?.to_owned(),
        },
        "work_budget_exceeded" => Event::WorkBudgetExceeded {
            spent: f.u64_field("spent")?,
            budget: f.u64_field("budget")?,
        },
        "phase_profile" => Event::PhaseProfile {
            round: f.u64_field("round")?,
            phase: {
                let s = f.str_field("phase")?;
                Phase::parse(s).ok_or_else(|| format!("unknown phase `{s}`"))?
            },
            cost: f.u64_field("cost")?,
        },
        "probe_start" => Event::ProbeStart {
            annotation: f.str_field("annotation")?.to_owned(),
        },
        "probe_outcome" => Event::ProbeOutcome {
            annotation: f.str_field("annotation")?.to_owned(),
            outcome: f.str_field("outcome")?.to_owned(),
        },
        "run_end" => Event::RunEnd {
            rounds: f.u64_field("rounds")?,
            attempts: f.u64_field("attempts")?,
            committed: f.u64_field("committed")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConflictKind;
    use alter_heap::ObjId;

    #[test]
    fn conflict_event_round_trips_all_fields() {
        let ev = Event::ValidateConflict {
            seq: 7,
            kind: ConflictKind::Waw,
            obj: ObjId::from_index(42),
            word: 3,
            winner_seq: 5,
        };
        assert_eq!(
            event_json(&ev),
            "{\"ev\":\"validate_conflict\",\"seq\":7,\"kind\":\"WAW\",\"obj\":42,\"word\":3,\"winner_seq\":5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event::Crash {
            message: "line1\n\"quoted\"\\x\u{1}".to_owned(),
        };
        let json = event_json(&ev);
        assert!(
            json.contains("line1\\n\\\"quoted\\\"\\\\x\\u0001"),
            "{json}"
        );
    }

    #[test]
    fn from_jsonl_round_trips_every_variant() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 5,
            },
            Event::TaskStart {
                seq: 0,
                worker: 1,
                iters: 16,
            },
            Event::TaskSets {
                seq: 0,
                reads: "3:0-4,7:1-2".into(),
                writes: String::new(),
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 9,
            },
            Event::ValidateConflict {
                seq: 1,
                kind: ConflictKind::Raw,
                obj: ObjId::from_index(3),
                word: 2,
                winner_seq: 0,
            },
            Event::Commit {
                seq: 0,
                read_words: 4,
                write_words: 2,
                allocs: 1,
                frees: 0,
            },
            Event::Squash { seq: 2, by_seq: 1 },
            Event::ReductionMerge {
                seq: 0,
                var: 0,
                op: "max",
            },
            Event::Oom {
                words: 10,
                budget: 5,
            },
            Event::Crash {
                message: "boom\n\"quoted\"".into(),
            },
            Event::WorkBudgetExceeded {
                spent: 11,
                budget: 10,
            },
            Event::PhaseProfile {
                round: 3,
                phase: Phase::Validate,
                cost: 128,
            },
            Event::ProbeStart {
                annotation: "[StaleReads]".into(),
            },
            Event::ProbeOutcome {
                annotation: "[StaleReads]".into(),
                outcome: "success".into(),
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 3,
                committed: 2,
            },
        ];
        let parsed = from_jsonl(&to_jsonl(&evs)).expect("canonical trace parses");
        assert_eq!(parsed, evs);
    }

    #[test]
    fn phase_profile_event_is_canonical() {
        let ev = Event::PhaseProfile {
            round: 7,
            phase: Phase::InferProbe,
            cost: 42,
        };
        assert_eq!(
            event_json(&ev),
            "{\"ev\":\"phase_profile\",\"round\":7,\"phase\":\"infer_probe\",\"cost\":42}"
        );
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(from_jsonl("not json\n").is_err());
        assert!(from_jsonl("{\"ev\":\"no_such_event\"}\n").is_err());
        assert!(from_jsonl(
            "{\"ev\":\"phase_profile\",\"round\":0,\"phase\":\"warp\",\"cost\":1}\n"
        )
        .is_err());
        let err = from_jsonl("{\"ev\":\"run_end\",\"rounds\":1}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("attempts"), "{err}");
    }

    #[test]
    fn from_jsonl_rejects_non_canonical_integers() {
        let line = |rounds: &str| {
            format!("{{\"ev\":\"run_end\",\"rounds\":{rounds},\"attempts\":2,\"committed\":2}}\n")
        };
        assert!(from_jsonl(&line("1")).is_ok());
        for bad in ["01", "-1", "1.5", "1e3", "18446744073709551616"] {
            let err = from_jsonl(&line(bad)).expect_err(bad);
            assert_eq!(err.line, 1);
            if bad != "01" {
                assert!(err.msg.contains("`rounds`"), "{bad}: {err}");
            }
        }
        let err = from_jsonl(&line("18446744073709551616")).unwrap_err();
        assert!(err.msg.contains("overflow"), "{err}");
    }

    #[test]
    fn set_rendering_round_trips() {
        let mut set = AccessSet::new();
        set.insert(ObjId::from_index(7), 1, 3);
        set.insert(ObjId::from_index(2), 0, 16);
        let s = render_set(&set);
        assert_eq!(s, "2:0-16,7:1-3");
        assert_eq!(
            parse_set(&s).unwrap(),
            vec![(ObjId::from_index(2), 0, 16), (ObjId::from_index(7), 1, 3)]
        );
        assert_eq!(render_set(&AccessSet::new()), "");
        assert_eq!(parse_set("").unwrap(), vec![]);
        assert!(parse_set("7:3-3").is_err(), "empty range rejected");
        assert!(parse_set("7;3-4").is_err());
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 5,
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 2,
                committed: 2,
            },
        ];
        let jsonl = to_jsonl(&evs);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.ends_with('\n'));
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"ev\":\""));
            assert!(line.ends_with('}'));
        }
    }
}
