//! The trace event taxonomy.
//!
//! One [`Event`] is recorded per interesting point in the transaction
//! lifecycle (engine layer), per probe of the annotation-inference search
//! (inference layer), and per abnormal termination. Events carry only
//! deterministic payloads — sequence numbers, word indices, object ids —
//! never wall-clock times or addresses, so a trace is a pure function of
//! the program and its annotation. That is what makes the trace hash a
//! determinism oracle (DESIGN.md, Observability).

use alter_heap::ObjId;

/// Which conflict check failed for a [`Event::ValidateConflict`].
///
/// Under the `FULL` policy either can fire; the event names the specific
/// overlap that was found (reads are checked first, matching validation
/// order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// The transaction's *read* set overlapped an earlier committed write
    /// set (a broken flow dependence — what `OutOfOrder`/TLS forbid).
    Raw,
    /// The transaction's *write* set overlapped an earlier committed write
    /// set (a lost update — what `StaleReads` forbids).
    Waw,
}

impl ConflictKind {
    /// Short stable name used in JSONL and rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            ConflictKind::Raw => "RAW",
            ConflictKind::Waw => "WAW",
        }
    }
}

impl std::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One engine phase, as accounted by the deterministic phase profiler.
///
/// The first four phases partition a lock-step round: establish the
/// snapshot, execute the round's transactions, validate them against
/// earlier committers, and apply the committed effects. `InferProbe`
/// covers the annotation-inference search, one accounting entry per probe.
/// Phase costs are *cost units* (slots, words, declared work — the same
/// currency as the virtual-time cost model), never wall-clock, so
/// [`Event::PhaseProfile`] payloads inherit the trace determinism
/// contract; an env-gated wall-clock mirror lives outside the event stream
/// (see [`crate::WallProfile`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Establishing the round's memory snapshot (charged per visible slot).
    Snapshot,
    /// Running the round's transactions in isolation (charged in declared
    /// work plus instrumented words moved).
    Execute,
    /// Conflict validation against earlier committers of the round
    /// (charged in legacy `validate_words` — identical with the validation
    /// fast path on or off).
    Validate,
    /// Applying committed effects to the heap (charged per committed write
    /// and allocation word).
    Commit,
    /// One annotation-inference probe (charged the probe run's total cost
    /// units).
    InferProbe,
}

impl Phase {
    /// Every phase, in canonical (pipeline) order.
    pub const ALL: [Phase; 5] = [
        Phase::Snapshot,
        Phase::Execute,
        Phase::Validate,
        Phase::Commit,
        Phase::InferProbe,
    ];

    /// Short stable name used in JSONL, folded stacks and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Snapshot => "snapshot",
            Phase::Execute => "execute",
            Phase::Validate => "validate",
            Phase::Commit => "commit",
            Phase::InferProbe => "infer_probe",
        }
    }

    /// Index into [`Phase::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Snapshot => 0,
            Phase::Execute => 1,
            Phase::Validate => 2,
            Phase::Commit => 3,
            Phase::InferProbe => 4,
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured trace event.
///
/// Engine events are emitted from the sequential validate/commit phase of
/// each lock-step round — never from worker threads — so their order is
/// deterministic by construction (the same argument as the engine's own
/// determinism, paper §4.3).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A lock-step round began with `tasks` transactions over a snapshot
    /// exposing `snapshot_slots` allocation slots.
    RoundStart {
        /// Round index within the run (0-based).
        round: u64,
        /// Transactions assigned to the round.
        tasks: u32,
        /// Slots visible to the round's snapshot.
        snapshot_slots: u64,
    },
    /// A transaction of the round (identified by its program-order chunk
    /// sequence number) covering `iters` iterations ran on `worker`.
    TaskStart {
        /// Program-order chunk sequence number.
        seq: u64,
        /// Worker lane the task ran on.
        worker: u32,
        /// Iterations in the chunk.
        iters: u32,
    },
    /// The full tracked read and write sets of a task entering validation,
    /// in canonical `obj:lo-hi,…` form (half-open word ranges, ascending;
    /// see [`crate::jsonl::render_set`]). Emitted only when
    /// `ExecParams::record_sets` is on — it fattens traces considerably —
    /// and immediately precedes the task's verdict event, which lets the
    /// `alter-lint` sanitizer recompute every validation verdict from the
    /// recorded sets.
    TaskSets {
        /// The task about to be validated.
        seq: u64,
        /// Canonical rendering of the tracked read set (empty under
        /// write-only tracking).
        reads: String,
        /// Canonical rendering of the tracked write set.
        writes: String,
    },
    /// Validation passed: no overlap with any earlier committed write set
    /// of the round after comparing `validate_words` words.
    ValidateOk {
        /// The validated transaction.
        seq: u64,
        /// Words compared against earlier write sets.
        validate_words: u64,
    },
    /// Validation failed: the transaction overlapped the write set of an
    /// earlier-committed transaction of the same round. Names the *first*
    /// conflicting word in deterministic (ascending object, ascending
    /// word) order and the sequence number of the committed writer that
    /// owns it.
    ValidateConflict {
        /// The failing transaction.
        seq: u64,
        /// Which check failed (RAW vs WAW).
        kind: ConflictKind,
        /// Allocation holding the first conflicting word.
        obj: ObjId,
        /// Word index of the first conflicting word within `obj`.
        word: u32,
        /// Sequence number of the earlier transaction whose committed
        /// write set owns the word.
        winner_seq: u64,
    },
    /// The transaction committed its effects to the heap.
    Commit {
        /// The committing transaction.
        seq: u64,
        /// Tracked read-set words.
        read_words: u64,
        /// Tracked write-set words.
        write_words: u64,
        /// Objects allocated by the transaction.
        allocs: u32,
        /// Objects freed by the transaction.
        frees: u32,
    },
    /// The transaction was squashed by an earlier in-order failure (it
    /// never reached validation; `by_seq` is the failing transaction).
    Squash {
        /// The squashed transaction.
        seq: u64,
        /// The earlier transaction whose failure squashed it.
        by_seq: u64,
    },
    /// A reduction delta merged at commit time.
    ReductionMerge {
        /// The committing transaction.
        seq: u64,
        /// Reduction variable (registry index).
        var: u32,
        /// Merge operator (annotation operator, e.g. `+`, `max`).
        op: &'static str,
    },
    /// A transaction exceeded the tracked-memory budget (the paper's
    /// out-of-memory abort on huge read sets, §7.1).
    Oom {
        /// Words tracked when the budget tripped.
        words: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A loop body panicked. Panics suppressed by
    /// `alter_runtime::quiet` during inference probes still produce this
    /// event, so expected-crash probes remain visible in the flight
    /// recorder.
    Crash {
        /// The panic payload message.
        message: String,
    },
    /// The total work budget was exceeded (the 10×-sequential timeout
    /// analogue, §5).
    WorkBudgetExceeded {
        /// Cost units spent.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Deterministic cost-unit accounting for one engine phase of one
    /// round (or, for [`Phase::InferProbe`], one inference probe — `round`
    /// is then the probe index). Emitted only when
    /// `ExecParams::profile_phases` is on; the four round phases arrive in
    /// [`Phase::ALL`] order after the round's task events.
    PhaseProfile {
        /// Round index (probe index for `InferProbe` entries).
        round: u64,
        /// The phase being accounted.
        phase: Phase,
        /// Deterministic cost units charged to the phase.
        cost: u64,
    },
    /// The inference engine started probing one candidate annotation.
    ProbeStart {
        /// Annotation-style description, e.g.
        /// `StaleReads + Reduction(delta, +)`.
        annotation: String,
    },
    /// The inference engine classified the probe's outcome.
    ProbeOutcome {
        /// The probed annotation.
        annotation: String,
        /// Short outcome class: `success`, `crash`, `timeout`, `h.c.`,
        /// `mismatch`, `o.o.m.`.
        outcome: String,
    },
    /// The run finished normally.
    RunEnd {
        /// Rounds executed.
        rounds: u64,
        /// Transactions attempted (including retries and squashes).
        attempts: u64,
        /// Transactions committed.
        committed: u64,
    },
}

impl Event {
    /// Stable lowercase type tag used as the JSONL `"ev"` field.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::TaskStart { .. } => "task_start",
            Event::TaskSets { .. } => "task_sets",
            Event::ValidateOk { .. } => "validate_ok",
            Event::ValidateConflict { .. } => "validate_conflict",
            Event::Commit { .. } => "commit",
            Event::Squash { .. } => "squash",
            Event::ReductionMerge { .. } => "reduction_merge",
            Event::Oom { .. } => "oom",
            Event::Crash { .. } => "crash",
            Event::WorkBudgetExceeded { .. } => "work_budget_exceeded",
            Event::PhaseProfile { .. } => "phase_profile",
            Event::ProbeStart { .. } => "probe_start",
            Event::ProbeOutcome { .. } => "probe_outcome",
            Event::RunEnd { .. } => "run_end",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_are_distinct() {
        let evs = [
            Event::RoundStart {
                round: 0,
                tasks: 1,
                snapshot_slots: 0,
            },
            Event::TaskStart {
                seq: 0,
                worker: 0,
                iters: 1,
            },
            Event::TaskSets {
                seq: 0,
                reads: String::new(),
                writes: String::new(),
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 0,
            },
            Event::ValidateConflict {
                seq: 1,
                kind: ConflictKind::Waw,
                obj: ObjId::from_index(1),
                word: 0,
                winner_seq: 0,
            },
            Event::Commit {
                seq: 0,
                read_words: 0,
                write_words: 0,
                allocs: 0,
                frees: 0,
            },
            Event::Squash { seq: 2, by_seq: 1 },
            Event::ReductionMerge {
                seq: 0,
                var: 0,
                op: "+",
            },
            Event::Oom {
                words: 1,
                budget: 0,
            },
            Event::Crash {
                message: "m".into(),
            },
            Event::WorkBudgetExceeded {
                spent: 2,
                budget: 1,
            },
            Event::PhaseProfile {
                round: 0,
                phase: Phase::Snapshot,
                cost: 1,
            },
            Event::ProbeStart {
                annotation: "TLS".into(),
            },
            Event::ProbeOutcome {
                annotation: "TLS".into(),
                outcome: "success".into(),
            },
            Event::RunEnd {
                rounds: 1,
                attempts: 1,
                committed: 1,
            },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(Event::kind_str).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn conflict_kind_names() {
        assert_eq!(ConflictKind::Raw.to_string(), "RAW");
        assert_eq!(ConflictKind::Waw.as_str(), "WAW");
    }

    #[test]
    fn phase_names_round_trip_and_index_all() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::parse(p.as_str()), Some(p));
            assert_eq!(p.to_string(), p.as_str());
        }
        assert_eq!(Phase::parse("wall_clock"), None);
    }
}
