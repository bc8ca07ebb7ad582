//! The deterministic fork-join engine (paper §4.1, Figure 4; determinism
//! argument §4.3).
//!
//! Execution proceeds in lock-step rounds. Each round:
//!
//! 1. takes one snapshot of the committed memory state (the analogue of
//!    re-establishing N copy-on-write mappings);
//! 2. assigns up to N chunk-transactions — retries first, then fresh chunks
//!    from the iteration space — to workers in deterministic order;
//! 3. executes them in isolation (in parallel on the persistent worker pool
//!    under the threaded driver, inline otherwise — the results are
//!    identical by construction);
//! 4. validates and commits in ascending task order (the paper's "ascending
//!    order of child pids"): a task commits iff its sets do not conflict,
//!    under the active [`ConflictPolicy`], with the write sets of tasks that
//!    committed *earlier in the same round* (earlier rounds are already in
//!    the snapshot). Failed tasks re-execute next round; under
//!    [`CommitOrder::InOrder`] a failure also squashes every later task in
//!    the round, which is what makes `RAW + InOrder` equivalent to
//!    sequential execution (Theorem 4.3).
//!
//! Determinism follows exactly as in the paper: isolated executions against
//! one round snapshot, deterministic commit order, and conflict detection
//! that is a pure function of the (deterministic) sets. The committer takes
//! each ticket as soon as its lane delivers, strictly in ticket order — the
//! general form of the paper's barrier, which is its depth-1 case.

use crate::body::{LoopBody, TxCtx};
use crate::params::{CommitOrder, ConflictPolicy, ExecParams};
use crate::pool::WorkerPool;
use crate::reduction::{RedDelta, RedLocals, RedVars};
use crate::space::IterSpace;
use alter_heap::{
    AccessSet, CommitOps, Heap, IdReservation, MemoryExceeded, ObjId, Snapshot, TrackMode, Tx,
    TxBufferPool, TxBuffers, TxEffects, TxStats,
};
use alter_trace::{ConflictKind, Event, Phase, Recorder};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Why a loop execution was aborted.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A loop body panicked; the payload message is preserved.
    Crash(String),
    /// A transaction exceeded the tracked-memory budget — the analogue of
    /// the paper's out-of-memory crashes on very large read sets (§7.1).
    OutOfMemory {
        /// Words tracked when the budget tripped.
        words: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Total executed cost exceeded the work budget — the analogue of the
    /// paper's 10×-sequential timeout (§5).
    WorkBudgetExceeded {
        /// Cost units spent.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Crash(msg) => write!(f, "loop body crashed: {msg}"),
            RunError::OutOfMemory { words, budget } => write!(
                f,
                "transaction tracked {words} words, exceeding the {budget}-word budget"
            ),
            RunError::WorkBudgetExceeded { spent, budget } => {
                write!(f, "run spent {spent} cost units, exceeding budget {budget}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Deterministic cost units charged to each engine phase of a run — the
/// phase profiler's ledger. Every quantity is trace-stable (snapshot slot
/// counts, transaction cost units, the per-writer validate-words
/// accounting, committed write/alloc words), so phase costs are identical
/// across drivers and shard counts, and a run's `PhaseProfile` events are
/// a pure function of program + annotation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCosts {
    /// Snapshot establishment: one slot-table entry per round per slot
    /// (the trace's `RoundStart.snapshot_slots` figure — what a full
    /// rebuild would copy, not what the incremental snapshot did copy).
    pub snapshot: u64,
    /// Transaction execution: declared work plus instrumented words moved,
    /// summed over all attempts.
    pub execute: u64,
    /// Conflict validation under the per-earlier-writer accounting (the
    /// trace's `ValidateOk.validate_words` figure).
    pub validate: u64,
    /// Commit: words merged back into the heap plus words of fresh
    /// allocations published.
    pub commit: u64,
}

impl PhaseCosts {
    /// Total cost units across the four engine phases.
    pub fn total(&self) -> u64 {
        self.snapshot + self.execute + self.validate + self.commit
    }

    /// Accumulates another run's phase costs.
    pub fn add(&mut self, other: &PhaseCosts) {
        self.snapshot += other.snapshot;
        self.execute += other.execute;
        self.validate += other.validate;
        self.commit += other.commit;
    }

    /// The cost charged to one engine phase (`InferProbe` is the
    /// inference driver's phase, never charged by the engine itself).
    pub fn cost(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Snapshot => self.snapshot,
            Phase::Execute => self.execute,
            Phase::Validate => self.validate,
            Phase::Commit => self.commit,
            Phase::InferProbe => 0,
        }
    }
}

/// Aggregate statistics of one loop execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Lock-step rounds executed.
    pub rounds: u64,
    /// Transactions executed, including retried and squashed ones.
    pub attempts: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Loop iterations committed.
    pub iterations: u64,
    /// Operation counters summed over all attempts.
    pub tx_stats: TxStats,
    /// Sum over attempts of tracked read+write set words.
    pub tracked_words: u64,
    /// Largest tracked read+write set of any single attempt.
    pub max_tracked_words: u64,
    /// Words charged to conflict validation under the per-earlier-writer
    /// accounting (`min(earlier writer's words, tracked words)` per earlier
    /// committer probed, up to and including the one a conflict lost to).
    /// This is the quantity the trace's `ValidateOk` events and the
    /// virtual-time cost model consume, and exactly what a scan of every
    /// earlier writer would compare. The words the fingerprint-filtered
    /// scans *actually* compared live in [`RunStats::exact_scan_words`].
    pub validate_words: u64,
    /// Validations whose fingerprint pre-check could not prove
    /// disjointness and fell through to an exact merge-scan.
    pub fingerprint_hits: u64,
    /// Validations rejected in O(1) by the fingerprint pre-check — no
    /// exact scan ran.
    pub fingerprint_rejects: u64,
    /// Transaction buffers and round write-set containers served from the
    /// cross-round recycling pool instead of the allocator.
    pub pool_reuses: u64,
    /// Words actually compared by exact validation merge-scans. Fingerprint
    /// rejects and the cumulative round write-set shrink this far below
    /// [`RunStats::validate_words`].
    pub exact_scan_words: u64,
    /// Slot entries `Arc`-cloned while establishing round snapshots: only
    /// slots dirtied since the previous round are copied (plus the first
    /// round's full build). Trace-visible snapshot accounting
    /// (`RoundStart.snapshot_slots`, [`PhaseCosts::snapshot`], the
    /// simulator's per-slot charge) stays on the full-table figure.
    pub snapshot_slots_copied: u64,
    /// Snapshot pages carried over untouched from the previous round's
    /// snapshot — the structural-sharing win.
    pub snapshot_pages_reused: u64,
    /// Rounds whose tasks were handed to the persistent [`crate::WorkerPool`]
    /// (zero under the inline driver). Scheduling telemetry, masked by
    /// [`RunStats::modulo_drive_mode`].
    pub pool_round_handoffs: u64,
    /// Tickets handed out by the sequencer — fresh chunk-transactions only;
    /// a re-queued ticket keeps its sequence number and is counted in
    /// [`RunStats::tickets_requeued`] instead. On a clean run
    /// `tickets_issued + tickets_requeued == attempts`. The sequencer is
    /// shared by both drivers, but the counter is masked by
    /// [`RunStats::modulo_drive_mode`] with the rest of the scheduling
    /// telemetry: the determinism contract covers outputs and traces, not
    /// scheduling telemetry.
    pub tickets_issued: u64,
    /// Re-queue occurrences: tickets sent back to the sequencer for the
    /// next round's snapshot after failing validation or being squashed by
    /// an earlier in-order failure. Scheduling telemetry, masked by
    /// [`RunStats::modulo_drive_mode`].
    pub tickets_requeued: u64,
    /// Words compared by the shard-partitioned word-block validation scans
    /// (`ExecParams::shards > 1`; zero otherwise).
    /// Deterministic for a given shard count and drive-invariant, but — like
    /// the fingerprint counters — it legitimately varies *across* shard
    /// counts, so cross-shard comparisons mask it.
    pub shard_validate_words: u64,
    /// Per-shard commit batches retired: each commit contributes the number
    /// of distinct heap shards its write/alloc/free ops touched (at one
    /// shard this is simply the number of non-empty commits).
    pub shard_commit_batches: u64,
    /// Largest word-block scan any single shard absorbed in one validation —
    /// the load-imbalance ceiling a parallel per-shard validator would see.
    /// Combined with [`RunStats::absorb`] by `max`, not addition.
    pub shard_imbalance_max: u64,
    /// Deterministic cost units charged to each engine phase (the phase
    /// profiler's ledger; identical across drivers and shard counts).
    pub phase_costs: PhaseCosts,
}

impl RunStats {
    /// Attempts that failed validation (the paper's retry count).
    pub fn retries(&self) -> u64 {
        self.attempts - self.committed
    }

    /// Fraction of attempts that failed to commit (Table 4's "Retry Rate").
    pub fn retry_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.retries() as f64 / self.attempts as f64
        }
    }

    /// Average tracked read+write set size per transaction, in words
    /// (Table 4's "RW Set / Trans.").
    pub fn avg_rw_words(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.tracked_words as f64 / self.attempts as f64
        }
    }

    /// Total cost units: declared work plus instrumented words moved. This
    /// is the measure the work budget limits, and the basic currency of the
    /// virtual-time cost model.
    pub fn cost_units(&self) -> u64 {
        self.tx_stats.work + self.tx_stats.read_words + self.tx_stats.write_words
    }

    /// Accumulates another run's statistics (for multi-sweep convergence
    /// loops that call the engine repeatedly).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.attempts += other.attempts;
        self.committed += other.committed;
        self.iterations += other.iterations;
        self.tx_stats.add(&other.tx_stats);
        self.tracked_words += other.tracked_words;
        self.max_tracked_words = self.max_tracked_words.max(other.max_tracked_words);
        self.validate_words += other.validate_words;
        self.fingerprint_hits += other.fingerprint_hits;
        self.fingerprint_rejects += other.fingerprint_rejects;
        self.pool_reuses += other.pool_reuses;
        self.exact_scan_words += other.exact_scan_words;
        self.snapshot_slots_copied += other.snapshot_slots_copied;
        self.snapshot_pages_reused += other.snapshot_pages_reused;
        self.pool_round_handoffs += other.pool_round_handoffs;
        self.tickets_issued += other.tickets_issued;
        self.tickets_requeued += other.tickets_requeued;
        self.shard_validate_words += other.shard_validate_words;
        self.shard_commit_batches += other.shard_commit_batches;
        self.shard_imbalance_max = self.shard_imbalance_max.max(other.shard_imbalance_max);
        self.phase_costs.add(&other.phase_costs);
    }

    /// These statistics with every scheduling-telemetry counter masked to
    /// zero: [`RunStats::pool_round_handoffs`],
    /// [`RunStats::tickets_issued`] and [`RunStats::tickets_requeued`].
    /// What remains is the quantity the determinism guarantee promises
    /// identical across the inline and pooled drivers: semantic work, not
    /// how it was driven. Every counter the driver may legally change
    /// belongs in this mask; everything else must be byte-identical across
    /// drivers (the masking contract, unit-tested below).
    pub fn modulo_drive_mode(&self) -> RunStats {
        RunStats {
            pool_round_handoffs: 0,
            tickets_issued: 0,
            tickets_requeued: 0,
            ..*self
        }
    }
}

/// Exactly which dependence broke a transaction's validation: the first
/// conflicting word in deterministic (ascending allocation, ascending
/// word) order and the committed writer that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictDetail {
    /// Which check failed (RAW vs WAW overlap).
    pub kind: ConflictKind,
    /// Allocation holding the first conflicting word.
    pub obj: ObjId,
    /// Word index within `obj`.
    pub word: u32,
    /// Sequence number of the earlier transaction whose committed write
    /// set owns the word.
    pub winner_seq: u64,
}

/// Per-transaction record handed to [`RoundObserver`]s (the simulator's
/// input).
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Program-order chunk sequence number.
    pub seq: u64,
    /// Worker the task ran on.
    pub worker: usize,
    /// Iterations in the chunk.
    pub iters: u32,
    /// Whether the task committed this round.
    pub committed: bool,
    /// Whether the task was squashed by an earlier in-order failure (as
    /// opposed to failing validation itself).
    pub squashed: bool,
    /// Operation counters of the execution.
    pub stats: TxStats,
    /// Tracked read-set words.
    pub read_words: u64,
    /// Tracked write-set words.
    pub write_words: u64,
    /// Words this task's validation compared against earlier write sets.
    pub validate_words: u64,
    /// Read operations that actually executed instrumentation (0 when the
    /// conflict policy elides read tracking — the StaleReads fast path).
    pub instr_read_ops: u64,
    /// Write operations that executed instrumentation.
    pub instr_write_ops: u64,
    /// Words materialized in the private copy-on-write overlay (whole
    /// objects, even for one-word writes — the page-copy analogue).
    pub overlay_words: u64,
    /// Words in objects allocated by the task.
    pub alloc_words: u64,
    /// Maximal ranges in the write set (≈ pages dirtied, for the
    /// copy-on-write cost model).
    pub write_ranges: u64,
    /// Why validation failed, when it did. `None` for committed and
    /// squashed tasks (squashed tasks never reached validation).
    pub conflict: Option<ConflictDetail>,
}

/// One lock-step round, as seen by a [`RoundObserver`].
#[derive(Debug)]
pub struct RoundReport<'a> {
    /// Round index within the run (0-based).
    pub round: u64,
    /// The tasks of the round, in commit-validation order.
    pub tasks: &'a [TaskReport],
    /// Slots visible to the round's snapshot (snapshot establishment cost).
    pub snapshot_slots: usize,
}

/// Hook invoked after each round — the virtual-time simulator implements
/// this to charge costs without perturbing execution.
pub trait RoundObserver {
    /// Called once per completed round.
    fn on_round(&mut self, report: &RoundReport<'_>);
}

/// An observer that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn on_round(&mut self, _report: &RoundReport<'_>) {}
}

/// One chunk-transaction in flight: the unit the sequencer issues, a
/// worker lane executes, and the committer retires strictly in `seq`
/// order.
#[derive(Debug)]
struct Ticket {
    /// Program-order chunk sequence number — assigned once at issue time
    /// and kept across re-queues (validation order is `seq` order).
    seq: u64,
    /// Iterations in the chunk.
    iters: Vec<u64>,
}

/// The pipeline's ticket source: monotonic sequence numbers for fresh
/// chunks plus the retry queue for tickets whose validation failed. One
/// sequencer drives both the inline and the pooled driver, so ticket
/// accounting cannot depend on the driver.
#[derive(Debug, Default)]
struct Sequencer {
    next_seq: u64,
    retry: VecDeque<Ticket>,
}

impl Sequencer {
    /// Assembles the next round: re-queued tickets first (already in
    /// ascending `seq` order), then fresh chunks up to the worker count.
    /// Returns the round's tickets plus how many were freshly issued.
    fn next_round(
        &mut self,
        space: &mut dyn IterSpace,
        workers: usize,
        chunk: usize,
    ) -> (Vec<Ticket>, u64) {
        let mut tickets: Vec<Ticket> = self.retry.drain(..).collect();
        let mut fresh = 0;
        while tickets.len() < workers && !space.is_exhausted() {
            let iters = space.next_chunk(chunk);
            if iters.is_empty() {
                break;
            }
            tickets.push(Ticket {
                seq: self.next_seq,
                iters,
            });
            self.next_seq += 1;
            fresh += 1;
        }
        (tickets, fresh)
    }

    /// Hands a failed ticket back for the next round, where it will execute
    /// against that round's fresh snapshot.
    fn requeue(&mut self, ticket: Ticket) {
        self.retry.push_back(ticket);
    }
}

enum TaskPanic {
    Oom(MemoryExceeded),
    Crash(String),
}

type TaskOutcome = Result<(TxEffects, Vec<RedDelta>), TaskPanic>;

#[allow(clippy::too_many_arguments)]
fn run_one_task<B: LoopBody + ?Sized>(
    snap: &Snapshot,
    task: &Ticket,
    bufs: TxBuffers,
    worker: usize,
    base: u32,
    params: &ExecParams,
    reds: &RedVars,
    mode: TrackMode,
    body: &B,
) -> TaskOutcome {
    let ids = IdReservation::new(base, worker, params.workers, params.alloc_block);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let tx = Tx::with_buffers(snap, mode, ids, params.budget_words, bufs);
        let locals = RedLocals::for_policy(&params.reductions, reds);
        let mut ctx = TxCtx::new(tx, locals);
        for &i in &task.iters {
            body.run_iter(&mut ctx, i);
        }
        let (tx, locals) = ctx.into_parts();
        (tx.finish(), locals.into_deltas())
    }));
    result.map_err(|payload| {
        if let Some(me) = payload.downcast_ref::<MemoryExceeded>() {
            TaskPanic::Oom(*me)
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            TaskPanic::Crash((*s).to_owned())
        } else if let Some(s) = payload.downcast_ref::<String>() {
            TaskPanic::Crash(s.clone())
        } else {
            TaskPanic::Crash("non-string panic payload".to_owned())
        }
    })
}

/// One ticket's worth of work shipped to a persistent pool worker. The
/// snapshot and reduction registry ride along as cheap shared handles;
/// everything else is owned by exactly one worker for the round.
struct PoolJob {
    snap: Snapshot,
    ticket: Ticket,
    bufs: TxBuffers,
    base: u32,
    reds: Arc<RedVars>,
}

fn conflicts_with(policy: ConflictPolicy, effects: &TxEffects, earlier_writes: &AccessSet) -> bool {
    match policy {
        ConflictPolicy::Full => {
            effects.reads.overlaps(earlier_writes) || effects.writes.overlaps(earlier_writes)
        }
        ConflictPolicy::Waw => effects.writes.overlaps(earlier_writes),
        ConflictPolicy::Raw => effects.reads.overlaps(earlier_writes),
        ConflictPolicy::None => false,
    }
}

/// O(1) fingerprint pre-check mirroring [`conflicts_with`]: `false` proves
/// the exact check is `false`; `true` means "cannot rule it out".
fn may_conflict(policy: ConflictPolicy, effects: &TxEffects, earlier_writes: &AccessSet) -> bool {
    match policy {
        ConflictPolicy::Full => {
            effects.reads.may_overlap(earlier_writes) || effects.writes.may_overlap(earlier_writes)
        }
        ConflictPolicy::Waw => effects.writes.may_overlap(earlier_writes),
        ConflictPolicy::Raw => effects.reads.may_overlap(earlier_writes),
        ConflictPolicy::None => false,
    }
}

/// Per-shard slice of [`may_conflict`]: probes only the fingerprint lanes
/// routing to `shard` of `shards`. ORing the result over all shards equals
/// the global pre-check, since a shard's fingerprint is exactly the OR of
/// its lanes.
fn may_conflict_shard(
    policy: ConflictPolicy,
    effects: &TxEffects,
    earlier_writes: &AccessSet,
    shard: usize,
    shards: usize,
) -> bool {
    let merged = earlier_writes.shard_fingerprint(shard, shards);
    match policy {
        ConflictPolicy::Full => {
            effects
                .reads
                .shard_fingerprint(shard, shards)
                .may_intersect(merged)
                || effects
                    .writes
                    .shard_fingerprint(shard, shards)
                    .may_intersect(merged)
        }
        ConflictPolicy::Waw => effects
            .writes
            .shard_fingerprint(shard, shards)
            .may_intersect(merged),
        ConflictPolicy::Raw => effects
            .reads
            .shard_fingerprint(shard, shards)
            .may_intersect(merged),
        ConflictPolicy::None => false,
    }
}

/// Per-shard slice of [`conflicts_with`], run as a word-block scan: exact
/// verdict for the accesses routing to `shard` of `shards`, plus the words
/// the block scan compared (the shard counters' currency). Reads before
/// writes under `FULL`, mirroring validation order.
fn shard_block_conflicts(
    policy: ConflictPolicy,
    effects: &TxEffects,
    earlier_writes: &AccessSet,
    shard: usize,
    shards: usize,
) -> (bool, u64) {
    match policy {
        ConflictPolicy::Full => {
            let (raw, raw_words) =
                effects
                    .reads
                    .shard_block_overlaps(earlier_writes, shard, shards);
            if raw {
                return (true, raw_words);
            }
            let (waw, waw_words) =
                effects
                    .writes
                    .shard_block_overlaps(earlier_writes, shard, shards);
            (waw, raw_words + waw_words)
        }
        ConflictPolicy::Waw => effects
            .writes
            .shard_block_overlaps(earlier_writes, shard, shards),
        ConflictPolicy::Raw => effects
            .reads
            .shard_block_overlaps(earlier_writes, shard, shards),
        ConflictPolicy::None => (false, 0),
    }
}

/// Pinpoints the first conflicting word once [`conflicts_with`] has already
/// said "yes". Reads are checked before writes, matching validation order
/// under `FULL`; within a set the search is deterministic (ascending
/// allocation, then lowest word). Only runs on the conflict path, so the
/// extra scan never taxes a conflict-free round.
fn locate_conflict(
    policy: ConflictPolicy,
    effects: &TxEffects,
    earlier_writes: &AccessSet,
) -> Option<(ConflictKind, ObjId, u32)> {
    let raw = || {
        effects
            .reads
            .first_overlap(earlier_writes)
            .map(|(obj, word)| (ConflictKind::Raw, obj, word))
    };
    let waw = || {
        effects
            .writes
            .first_overlap(earlier_writes)
            .map(|(obj, word)| (ConflictKind::Waw, obj, word))
    };
    match policy {
        ConflictPolicy::Full => raw().or_else(waw),
        ConflictPolicy::Waw => waw(),
        ConflictPolicy::Raw => raw(),
        ConflictPolicy::None => None,
    }
}

/// Drains `effects` into commit operations, leaving its containers empty
/// (but with capacity intact) so they can be recycled through the buffer
/// pool.
pub(crate) fn build_commit_ops(effects: &mut TxEffects, mode: TrackMode) -> CommitOps {
    let mut ops = CommitOps::default();
    if mode == TrackMode::None {
        // No per-range tracking: commit whole private objects, in id order.
        let mut ids: Vec<_> = effects.overlay.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let data = effects.overlay.remove(&id).expect("key just listed");
            let hi = data.len() as u32;
            ops.writes.push((id, 0, hi, Arc::new(data)));
        }
    } else {
        for (id, ranges) in effects.writes.iter_sorted() {
            // Freed objects appear in the write set (a free conflicts like a
            // whole-object write) but have no overlay payload to merge.
            let Some(data) = effects.overlay.remove(&id) else {
                continue;
            };
            let arc = Arc::new(data);
            for (lo, hi) in ranges.iter() {
                ops.writes.push((id, lo, hi, Arc::clone(&arc)));
            }
        }
    }
    ops.allocs = effects
        .allocs
        .drain(..)
        .map(|(id, data)| (id, Arc::new(data)))
        .collect();
    ops.frees = std::mem::take(&mut effects.frees);
    ops.frees.sort_unstable();
    ops
}

/// Runs an annotated loop to completion. This is the engine entry point;
/// prefer the [`crate::run_loop`] / [`crate::LoopBuilder`] wrappers.
///
/// This function only picks the driver; the round loop itself lives in
/// [`run_rounds`], parameterized by a round-execution callback so the same
/// (deterministic) scheduling, validation and commit code runs whether a
/// round's tickets execute inline on this thread or on the persistent
/// [`WorkerPool`] spanning the whole run.
pub(crate) fn run_loop_engine<B: LoopBody>(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &ExecParams,
    threaded: bool,
    body: &B,
    observer: &mut dyn RoundObserver,
) -> Result<RunStats, RunError> {
    assert!(params.workers >= 1, "need at least one worker");
    let mode = params.conflict.track_mode();
    if !threaded || params.workers == 1 {
        // Inline driver: each ticket executes on this thread and goes
        // straight to the committer, in ticket order.
        let mut exec = |snap: &Snapshot,
                        tickets: Vec<Ticket>,
                        bufs: Vec<TxBuffers>,
                        base: u32,
                        reds: Arc<RedVars>,
                        sink: &mut TaskSink<'_>|
         -> Result<(), RunError> {
            for (worker, (ticket, bufs)) in tickets.into_iter().zip(bufs).enumerate() {
                let outcome =
                    run_one_task(snap, &ticket, bufs, worker, base, params, &reds, mode, body);
                sink(worker, ticket, outcome)?;
            }
            Ok(())
        };
        return run_rounds(heap, reds, space, params, &mut exec, observer);
    }
    // Persistent pool: one thread::scope for the whole run; workers outlive
    // every round and receive per-round jobs over channels. The per-round
    // reduction registry rides along as a shared handle (workers only read
    // it; merges happen on this thread, in the committer).
    let worker_fn = |worker: usize, job: PoolJob| {
        let outcome = run_one_task(
            &job.snap,
            &job.ticket,
            job.bufs,
            worker,
            job.base,
            params,
            &job.reds,
            mode,
            body,
        );
        (job.ticket, outcome)
    };
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::new(scope, params.workers, &worker_fn);
        // Inner block: `exec` mutably borrows the pool and must die before
        // the handoff counter can be read back.
        let mut result = {
            let mut exec = |snap: &Snapshot,
                            tickets: Vec<Ticket>,
                            bufs: Vec<TxBuffers>,
                            base: u32,
                            reds: Arc<RedVars>,
                            sink: &mut TaskSink<'_>|
             -> Result<(), RunError> {
                let jobs: Vec<PoolJob> = tickets
                    .into_iter()
                    .zip(bufs)
                    .map(|(ticket, bufs)| PoolJob {
                        snap: snap.clone(),
                        ticket,
                        bufs,
                        base,
                        reds: Arc::clone(&reds),
                    })
                    .collect();
                // In-order consumption of an out-of-order execution: the
                // committer retires ticket s the moment lane s delivers,
                // while later lanes keep executing. An early `Err` drops
                // the stream, which drains the abandoned lanes so they stay
                // aligned.
                let mut stream = pool.stream_round(jobs);
                let mut worker = 0;
                while let Some((ticket, outcome)) = stream.next_ticket() {
                    sink(worker, ticket, outcome)?;
                    worker += 1;
                }
                Ok(())
            };
            run_rounds(heap, reds, space, params, &mut exec, observer)
        };
        if let Ok(stats) = &mut result {
            stats.pool_round_handoffs = pool.round_handoffs();
        }
        result
        // The pool drops here, closing the job channels, so the scope's
        // implicit join finds every worker already draining out.
    })
}

/// The committer's per-ticket consumer: validates and commits (or
/// re-queues) one ticket. [`run_rounds`] builds one sink per round over its
/// own mutable state; drivers must feed it **strictly in ticket order** —
/// that in-order handoff, not a barrier, is the only ordering the
/// determinism argument needs. An `Err` aborts the round (and the run).
type TaskSink<'a> = dyn FnMut(usize, Ticket, TaskOutcome) -> Result<(), RunError> + 'a;

/// Per-round execution callback of [`run_rounds`]: given the round's
/// snapshot, tickets, lent buffers, base worker index, and a shared handle
/// on the reduction registry, runs every ticket and feeds each `(worker,
/// ticket, outcome)` to the sink in ticket order, each as soon as it is
/// available.
type RoundExec<'a> = dyn FnMut(
        &Snapshot,
        Vec<Ticket>,
        Vec<TxBuffers>,
        u32,
        Arc<RedVars>,
        &mut TaskSink<'_>,
    ) -> Result<(), RunError>
    + 'a;

/// The round loop: schedule, snapshot, execute (via `exec`), validate,
/// commit, observe — everything about a run that is independent of how a
/// round's tasks are driven.
fn run_rounds(
    heap: &mut Heap,
    reds: &mut RedVars,
    space: &mut dyn IterSpace,
    params: &ExecParams,
    exec: &mut RoundExec<'_>,
    observer: &mut dyn RoundObserver,
) -> Result<RunStats, RunError> {
    let mode = params.conflict.track_mode();
    // Partition the heap to the requested shard count before the first
    // round snapshot. A no-op when already there (convergence loops call
    // run_rounds repeatedly), so the snapshot cache survives across runs
    // exactly as before; an actual re-partition drops the cache and the
    // next incremental snapshot pays one full build — the same cost a
    // fresh heap's first snapshot pays at any shard count.
    heap.set_shards(params.shards);
    let nshards = heap.shard_count();
    // Resolve the recorder once: `None` here means every emission site below
    // is one predicted-not-taken branch and constructs nothing.
    let rec: Option<&dyn Recorder> = params.recorder.as_deref().filter(|r| r.is_enabled());
    // Wall-clock phase mirror: `None` (the default) means no `Instant` is
    // ever taken; the deterministic cost-unit accounting below runs either
    // way and never reads the clock.
    let wall = params.wall_profile.as_deref();
    let mut stats = RunStats::default();
    let mut sequencer = Sequencer::default();
    let mut reports: Vec<TaskReport> = Vec::new();
    // Cross-round recycling (tentpole of the validation fast path): the pool
    // lends each task its transaction buffers and takes them back — emptied,
    // capacity intact — once the task's effects are consumed. It lives on
    // this coordinating thread and is only touched between rounds, so
    // recycling cannot perturb determinism: only capacity is reused, never
    // contents.
    let mut pool = TxBufferPool::new();
    // Committed write sets of the current round, one entry per committer
    // (for conflict attribution), plus their running union. The union's
    // fingerprint lets validation reject a non-overlapping task in O(1) and
    // compare against one merged set — instead of scanning every earlier
    // writer — when it cannot.
    let mut round_writes: Vec<(u64, AccessSet)> = Vec::new();
    let mut merged_writes = AccessSet::new();

    loop {
        // Assemble the round from the sequencer: re-queued tickets first
        // (lowest seq first — they are already in order), then fresh
        // chunks.
        let (tickets, fresh) = sequencer.next_round(space, params.workers, params.chunk);
        if tickets.is_empty() {
            break;
        }
        stats.tickets_issued += fresh;

        // Establish the round snapshot by patching the heap's persistent
        // page table: a view bit-identical to a full rebuild, at the cost
        // of the slots dirtied since the previous round.
        let wall_t = wall.map(|_| Instant::now());
        let (snap, snap_stats) = heap.snapshot_incremental();
        if let (Some(w), Some(t)) = (wall, wall_t) {
            w.add(Phase::Snapshot, t.elapsed().as_secs_f64());
        }
        stats.snapshot_slots_copied += snap_stats.slots_copied;
        stats.snapshot_pages_reused += snap_stats.pages_reused;
        // Phase ledger for this round. Snapshot cost is the trace's
        // `snapshot_slots` figure (one charge per slot in the round's view,
        // what a full rebuild would copy), deliberately not `slots_copied`.
        let round_snapshot = snap.slot_count() as u64;
        let mut round_execute: u64 = 0;
        let mut round_validate: u64 = 0;
        let mut round_commit: u64 = 0;
        let base = heap.high_water();
        if let Some(rec) = rec {
            rec.record(Event::RoundStart {
                round: stats.rounds,
                tasks: tickets.len() as u32,
                snapshot_slots: snap.slot_count() as u64,
            });
            for (worker, task) in tickets.iter().enumerate() {
                rec.record(Event::TaskStart {
                    seq: task.seq,
                    worker: worker as u32,
                    iters: task.iters.len() as u32,
                });
            }
        }
        let bufs: Vec<TxBuffers> = tickets.iter().map(|_| pool.acquire()).collect();
        // Workers read the reduction registry through a shared handle;
        // merges happen in the sink below, on this thread, against `reds`
        // itself. The handle's values are identical under both drivers.
        let exec_reds = Arc::new(reds.clone());

        // Validate and commit strictly in ticket order. The sink below is
        // the single committer both drivers feed, ticket by ticket as each
        // lane delivers. Each committed write set is remembered with its
        // owner's sequence number so a later conflict can name the
        // transaction it lost to.
        let mut squash = false;
        let mut squashed_by: u64 = 0;
        // Out-of-band wall bookkeeping: the committer's validate/commit
        // spans land *inside* the exec span, so the sink measures them and
        // the remainder approximates execution.
        let mut sink_secs = 0.0f64;
        reports.clear();
        let round_wall_t = wall.map(|_| Instant::now());
        let mut sink =
            |worker: usize, task: Ticket, outcome: TaskOutcome| -> Result<(), RunError> {
                let (mut effects, deltas) = match outcome {
                    Ok(v) => v,
                    Err(TaskPanic::Oom(me)) => {
                        if let Some(rec) = rec {
                            rec.record(Event::Oom {
                                words: me.words,
                                budget: me.budget,
                            });
                        }
                        return Err(RunError::OutOfMemory {
                            words: me.words,
                            budget: me.budget,
                        });
                    }
                    Err(TaskPanic::Crash(msg)) => {
                        if let Some(rec) = rec {
                            rec.record(Event::Crash {
                                message: msg.clone(),
                            });
                        }
                        return Err(RunError::Crash(msg));
                    }
                };

                stats.attempts += 1;
                stats.tx_stats.add(&effects.stats);
                round_execute +=
                    effects.stats.work + effects.stats.read_words + effects.stats.write_words;
                let tracked = effects.reads.words() + effects.writes.words();
                stats.tracked_words += tracked;
                stats.max_tracked_words = stats.max_tracked_words.max(tracked);

                let mut validate_words = 0;
                let mut conflict: Option<ConflictDetail> = None;
                let wall_t = wall.map(|_| Instant::now());
                if !squash {
                    // One fingerprint test against the union of the round's
                    // committed write sets. A reject proves disjointness
                    // from every earlier writer with no scan at all; a hit runs
                    // one exact scan against the merged set instead of one per
                    // earlier writer. With a sharded heap the same test is
                    // decomposed by shard: each shard's fingerprint slice is
                    // probed independently, and only shards that cannot be
                    // rejected run a word-block scan over their slice of the
                    // merged set. Shards partition the id space, so the OR of
                    // the per-shard verdicts equals the global verdict — and
                    // the per-shard scans touch disjoint state, which is what
                    // lets a partitioned committer run them concurrently.
                    let conflicted =
                        if round_writes.is_empty() || params.conflict == ConflictPolicy::None {
                            false
                        } else if nshards > 1 {
                            let mut conflicted = false;
                            let mut any_hit = false;
                            for shard in 0..nshards {
                                if !may_conflict_shard(
                                    params.conflict,
                                    &effects,
                                    &merged_writes,
                                    shard,
                                    nshards,
                                ) {
                                    continue;
                                }
                                any_hit = true;
                                let (hit, scanned) = shard_block_conflicts(
                                    params.conflict,
                                    &effects,
                                    &merged_writes,
                                    shard,
                                    nshards,
                                );
                                stats.exact_scan_words += scanned;
                                stats.shard_validate_words += scanned;
                                stats.shard_imbalance_max = stats.shard_imbalance_max.max(scanned);
                                if hit {
                                    conflicted = true;
                                    break;
                                }
                            }
                            if any_hit {
                                stats.fingerprint_hits += 1;
                            } else {
                                stats.fingerprint_rejects += 1;
                            }
                            conflicted
                        } else if may_conflict(params.conflict, &effects, &merged_writes) {
                            stats.fingerprint_hits += 1;
                            stats.exact_scan_words += merged_writes.words().min(tracked);
                            conflicts_with(params.conflict, &effects, &merged_writes)
                        } else {
                            stats.fingerprint_rejects += 1;
                            false
                        };
                    // Attribution runs only on the conflict path: walk the
                    // per-writer log in commit order to name the first earlier
                    // transaction this one lost to — the same writer and word
                    // the per-writer scan would have reported.
                    let mut winner_index = round_writes.len();
                    if conflicted {
                        for (i, (winner_seq, earlier)) in round_writes.iter().enumerate() {
                            stats.exact_scan_words += earlier.words().min(tracked);
                            if conflicts_with(params.conflict, &effects, earlier) {
                                let (kind, obj, word) =
                                    locate_conflict(params.conflict, &effects, earlier)
                                        .expect("overlap test and locate must agree");
                                conflict = Some(ConflictDetail {
                                    kind,
                                    obj,
                                    word,
                                    winner_seq: *winner_seq,
                                });
                                winner_index = i;
                                break;
                            }
                        }
                        debug_assert!(
                            conflict.is_some(),
                            "a conflict with the union names some individual writer"
                        );
                    }
                    // Trace-visible accounting stays on the per-writer formula
                    // — the words a scan of every earlier writer would
                    // compare, up to and including the conflicting one — so
                    // event payloads (and trace hashes) do not depend on how
                    // much the fingerprints saved. `words()` is O(1), so this
                    // costs nothing.
                    for (_, earlier) in round_writes.iter().take(winner_index + 1) {
                        validate_words += earlier.words().min(tracked);
                    }
                }
                if let (Some(w), Some(t)) = (wall, wall_t) {
                    let dt = t.elapsed().as_secs_f64();
                    sink_secs += dt;
                    w.add(Phase::Validate, dt);
                }
                stats.validate_words += validate_words;
                round_validate += validate_words;

                let mut report = TaskReport {
                    seq: task.seq,
                    worker,
                    iters: task.iters.len() as u32,
                    committed: false,
                    squashed: squash,
                    stats: effects.stats,
                    read_words: effects.reads.words(),
                    write_words: effects.writes.words(),
                    validate_words,
                    instr_read_ops: if mode.tracks_reads() {
                        effects.stats.read_ops
                    } else {
                        0
                    },
                    instr_write_ops: if mode.tracks_writes() {
                        effects.stats.write_ops
                    } else {
                        0
                    },
                    overlay_words: effects.overlay.values().map(|o| o.len() as u64).sum(),
                    alloc_words: effects.allocs.iter().map(|(_, o)| o.len() as u64).sum(),
                    write_ranges: effects.writes.range_count() as u64,
                    conflict,
                };

                // Opt-in sanitizer payload: the full tracked sets, emitted just
                // before the verdict event they justify.
                if params.record_sets {
                    if let Some(rec) = rec {
                        rec.record(Event::TaskSets {
                            seq: task.seq,
                            reads: alter_trace::render_set(&effects.reads),
                            writes: alter_trace::render_set(&effects.writes),
                        });
                    }
                }

                if squash || conflict.is_some() {
                    if let Some(rec) = rec {
                        if let Some(c) = conflict {
                            rec.record(Event::ValidateConflict {
                                seq: task.seq,
                                kind: c.kind,
                                obj: c.obj,
                                word: c.word,
                                winner_seq: c.winner_seq,
                            });
                        } else {
                            rec.record(Event::Squash {
                                seq: task.seq,
                                by_seq: squashed_by,
                            });
                        }
                    }
                    if conflict.is_some() && params.order == CommitOrder::InOrder {
                        squash = true;
                        squashed_by = task.seq;
                    }
                    stats.tickets_requeued += 1;
                    sequencer.requeue(task);
                    pool.release(TxBuffers {
                        overlay: std::mem::take(&mut effects.overlay),
                        reads: std::mem::take(&mut effects.reads),
                        writes: std::mem::take(&mut effects.writes),
                    });
                } else {
                    report.committed = true;
                    stats.committed += 1;
                    stats.iterations += task.iters.len() as u64;
                    round_commit += report.write_words + report.alloc_words;
                    let wall_t = wall.map(|_| Instant::now());
                    if let Some(rec) = rec {
                        rec.record(Event::ValidateOk {
                            seq: task.seq,
                            validate_words,
                        });
                        rec.record(Event::Commit {
                            seq: task.seq,
                            read_words: report.read_words,
                            write_words: report.write_words,
                            allocs: effects.allocs.len() as u32,
                            frees: effects.frees.len() as u32,
                        });
                    }
                    // A type-mismatched reduction (e.g. a boolean operator on a
                    // float variable) is an invalid annotation; report it as a
                    // crash of the candidate program rather than unwinding.
                    let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for d in &deltas {
                            reds.merge(d);
                        }
                    }));
                    if let Err(payload) = merged {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                            .unwrap_or_else(|| "reduction merge failed".to_owned());
                        if let Some(rec) = rec {
                            rec.record(Event::Crash {
                                message: msg.clone(),
                            });
                        }
                        return Err(RunError::Crash(msg));
                    }
                    if let Some(rec) = rec {
                        for d in &deltas {
                            rec.record(Event::ReductionMerge {
                                seq: task.seq,
                                var: d.var.index() as u32,
                                op: d.op.as_str(),
                            });
                        }
                    }
                    stats.shard_commit_batches +=
                        u64::from(heap.apply_commit(build_commit_ops(&mut effects, mode)));
                    // The committed write set moves into the round log (no
                    // clone — `build_commit_ops` only borrowed it); the rest of
                    // the transaction's buffers go back to the pool, along with
                    // a recycled set to keep the returned buffers complete.
                    let writes = std::mem::replace(&mut effects.writes, pool.acquire_set());
                    merged_writes.union_with(&writes);
                    round_writes.push((task.seq, writes));
                    pool.release(TxBuffers {
                        overlay: std::mem::take(&mut effects.overlay),
                        reads: std::mem::take(&mut effects.reads),
                        writes: std::mem::take(&mut effects.writes),
                    });
                    if let (Some(w), Some(t)) = (wall, wall_t) {
                        let dt = t.elapsed().as_secs_f64();
                        sink_secs += dt;
                        w.add(Phase::Commit, dt);
                    }
                }
                reports.push(report);
                Ok(())
            };
        exec(&snap, tickets, bufs, base, exec_reds, &mut sink)?;
        if let (Some(w), Some(t)) = (wall, round_wall_t) {
            w.add(
                Phase::Execute,
                (t.elapsed().as_secs_f64() - sink_secs).max(0.0),
            );
        }

        // Close the round's phase ledger: fold it into the run statistics
        // (always — the adds are free and driver-invariant) and, for opted-in
        // profiling consumers, emit one `PhaseProfile` event per phase after
        // the round's task events.
        stats.phase_costs.snapshot += round_snapshot;
        stats.phase_costs.execute += round_execute;
        stats.phase_costs.validate += round_validate;
        stats.phase_costs.commit += round_commit;
        if params.profile_phases {
            if let Some(rec) = rec {
                for (phase, cost) in [
                    (Phase::Snapshot, round_snapshot),
                    (Phase::Execute, round_execute),
                    (Phase::Validate, round_validate),
                    (Phase::Commit, round_commit),
                ] {
                    rec.record(Event::PhaseProfile {
                        round: stats.rounds,
                        phase,
                        cost,
                    });
                }
            }
        }

        // The round's write log is only meaningful within the round (earlier
        // rounds are already visible in the next snapshot): recycle its sets
        // and reset the running union.
        for (_, set) in round_writes.drain(..) {
            pool.release_set(set);
        }
        merged_writes.clear();

        stats.rounds += 1;
        observer.on_round(&RoundReport {
            round: stats.rounds - 1,
            tasks: &reports,
            snapshot_slots: snap.slot_count(),
        });

        if let Some(budget) = params.work_budget {
            let spent = stats.cost_units();
            if spent > budget {
                if let Some(rec) = rec {
                    rec.record(Event::WorkBudgetExceeded { spent, budget });
                }
                return Err(RunError::WorkBudgetExceeded { spent, budget });
            }
        }
    }
    stats.pool_reuses = pool.reuses();
    if let Some(rec) = rec {
        rec.record(Event::RunEnd {
            rounds: stats.rounds,
            attempts: stats.attempts,
            committed: stats.committed,
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::RedOp;
    use crate::reduction::RedVal;
    use crate::space::RangeSpace;
    use alter_heap::ObjData;

    fn params(
        workers: usize,
        chunk: usize,
        conflict: ConflictPolicy,
        order: CommitOrder,
    ) -> ExecParams {
        let mut p = ExecParams::new(workers, chunk);
        p.conflict = conflict;
        p.order = order;
        p
    }

    /// The masking contract of [`RunStats::modulo_drive_mode`], pinned as a
    /// test so a future counter cannot silently dodge it: with every field
    /// non-zero, masking zeroes exactly the three scheduling-telemetry
    /// counters — `pool_round_handoffs`, `tickets_issued`,
    /// `tickets_requeued` — and passes every other field through untouched.
    #[test]
    fn modulo_drive_mode_masks_exactly_the_schedule_counters() {
        let full = RunStats {
            rounds: 1,
            attempts: 2,
            committed: 3,
            iterations: 4,
            tx_stats: TxStats {
                read_ops: 5,
                read_words: 6,
                write_ops: 7,
                write_words: 8,
                work: 9,
                traffic_words: 10,
                allocs: 11,
                frees: 12,
            },
            tracked_words: 13,
            max_tracked_words: 14,
            validate_words: 15,
            fingerprint_hits: 16,
            fingerprint_rejects: 17,
            pool_reuses: 18,
            exact_scan_words: 19,
            snapshot_slots_copied: 20,
            snapshot_pages_reused: 21,
            pool_round_handoffs: 22,
            tickets_issued: 23,
            tickets_requeued: 24,
            shard_validate_words: 31,
            shard_commit_batches: 32,
            shard_imbalance_max: 33,
            phase_costs: PhaseCosts {
                snapshot: 27,
                execute: 28,
                validate: 29,
                commit: 30,
            },
        };
        let masked = full.modulo_drive_mode();
        // The masked counters are zeroed...
        assert_eq!(masked.pool_round_handoffs, 0);
        assert_eq!(masked.tickets_issued, 0);
        assert_eq!(masked.tickets_requeued, 0);
        // ...and nothing else moved: re-zeroing the same three fields on the
        // original must reproduce the masked value exactly.
        let expect = RunStats {
            pool_round_handoffs: 0,
            tickets_issued: 0,
            tickets_requeued: 0,
            ..full
        };
        assert_eq!(masked, expect);
        // Masking is idempotent.
        assert_eq!(masked.modulo_drive_mode(), masked);
    }

    /// A DOALL loop: every iteration writes its own element.
    #[test]
    fn doall_loop_commits_everything_first_try() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_f64(16));
            let mut reds = RedVars::new();
            let p = params(4, 2, ConflictPolicy::None, CommitOrder::OutOfOrder);
            let stats = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 16),
                &p,
                threaded,
                &|ctx: &mut TxCtx<'_>, i: u64| {
                    ctx.tx.write_f64(xs, i as usize, i as f64 * 2.0);
                },
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(stats.committed, 8, "16 iters / cf 2");
            assert_eq!(stats.iterations, 16);
            assert_eq!(stats.retries(), 0);
            assert_eq!(stats.rounds, 2, "8 chunks / 4 workers");
            let expect: Vec<f64> = (0..16).map(|i| i as f64 * 2.0).collect();
            assert_eq!(heap.get(xs).f64s(), &expect[..], "threaded={threaded}");
        }
    }

    /// All iterations RMW one counter: WAW conflicts force serialization,
    /// one commit per round, but the result equals the sequential sum.
    #[test]
    fn waw_conflicts_serialize_but_preserve_sum() {
        let mut heap = Heap::new();
        let counter = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 8),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, _i| {
                let v = ctx.tx.read_i64(counter, 0);
                ctx.tx.write_i64(counter, 0, v + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(heap.get(counter).i64s()[0], 8);
        assert!(stats.retries() > 0, "conflicts must have occurred");
        assert_eq!(stats.committed, 8);
    }

    /// The heap shard count is a pure layout knob: committed state,
    /// verdicts and the trace-visible validation accounting are identical
    /// at every shard count; only the scan-economics counters move.
    #[test]
    fn shard_count_is_invisible_to_verdicts_and_outputs() {
        let run = |shards: usize, conflict: ConflictPolicy| {
            let mut heap = Heap::new();
            // Spread writes across several pages so shards > 1 actually
            // split the access sets.
            let xs: Vec<_> = (0..4)
                .map(|_| {
                    let id = heap.alloc(ObjData::zeros_i64(64));
                    for _ in 0..63 {
                        heap.alloc(ObjData::scalar_i64(0));
                    }
                    id
                })
                .collect();
            let counter = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let mut p = params(4, 1, conflict, CommitOrder::OutOfOrder);
            p.shards = shards;
            let stats = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 16),
                &p,
                false,
                &|ctx: &mut TxCtx<'_>, i| {
                    let x = xs[(i % 4) as usize];
                    let v = ctx.tx.read_i64(x, (i / 4) as usize);
                    ctx.tx.write_i64(x, (i / 4) as usize, v + 1);
                    // Every iteration also bumps one shared counter,
                    // guaranteeing real conflicts to validate.
                    let c = ctx.tx.read_i64(counter, 0);
                    ctx.tx.write_i64(counter, 0, c + 1);
                },
                &mut NullObserver,
            )
            .unwrap();
            (heap.digest(), stats)
        };
        for conflict in [ConflictPolicy::Waw, ConflictPolicy::Full] {
            let (digest1, base) = run(1, conflict);
            assert_eq!(base.shard_validate_words, 0, "unsharded: no block scans");
            for shards in [4usize, 16] {
                let (digest, stats) = run(shards, conflict);
                assert_eq!(digest, digest1, "{conflict}/{shards}: same final heap");
                assert_eq!(stats.committed, base.committed);
                assert_eq!(stats.retries(), base.retries());
                assert_eq!(stats.rounds, base.rounds);
                assert_eq!(
                    stats.validate_words, base.validate_words,
                    "{conflict}/{shards}: trace-visible accounting is invariant"
                );
                assert_eq!(stats.tracked_words, base.tracked_words);
                assert!(
                    stats.shard_commit_batches >= base.shard_commit_batches,
                    "{conflict}/{shards}: commits split into per-shard batches"
                );
                assert!(
                    stats.shard_imbalance_max <= stats.shard_validate_words,
                    "imbalance ceiling cannot exceed the total"
                );
            }
        }
    }

    /// Under TLS (RAW + InOrder) the result must match sequential semantics
    /// even for an order-sensitive loop.
    #[test]
    fn tls_matches_sequential_semantics() {
        // x[i] = x[i-1] + 1 — a tight dependence chain.
        let run = |p: &ExecParams| {
            let mut heap = Heap::new();
            let xs = heap.alloc(ObjData::zeros_i64(12));
            let mut reds = RedVars::new();
            let stats = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(1, 12),
                p,
                false,
                &|ctx: &mut TxCtx<'_>, i| {
                    let prev = ctx.tx.read_i64(xs, i as usize - 1);
                    ctx.tx.write_i64(xs, i as usize, prev + 1);
                },
                &mut NullObserver,
            )
            .unwrap();
            (heap.get(xs).i64s().to_vec(), stats)
        };
        let p = params(4, 1, ConflictPolicy::Raw, CommitOrder::InOrder);
        let (xs, stats) = run(&p);
        let expect: Vec<i64> = (0..12).collect();
        assert_eq!(xs, expect);
        assert!(
            stats.retries() > 0,
            "speculation must have failed sometimes"
        );
    }

    /// StaleReads (WAW) lets the same dependence chain commit in one round
    /// with broken RAW dependences — values are stale but writes disjoint.
    #[test]
    fn stalereads_breaks_raw_dependences_without_retries() {
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(8));
        let mut reds = RedVars::new();
        let p = params(4, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(1, 8),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, i| {
                let prev = ctx.tx.read_i64(xs, i as usize - 1);
                ctx.tx.write_i64(xs, i as usize, prev + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(
            stats.retries(),
            0,
            "disjoint writes: snapshot isolation is conflict-free"
        );
        // Stale reads: each chunk saw zeros for the previous chunk's cells.
        let xs = heap.get(xs).i64s().to_vec();
        assert_ne!(
            xs,
            (0..8).collect::<Vec<i64>>(),
            "sequential chain must be broken"
        );
        assert_eq!(xs[1], 1, "first iteration read committed x[0]=0");
    }

    /// Reductions merge in deterministic commit order and match the serial
    /// fold.
    #[test]
    fn reduction_sums_match_serial_fold() {
        for threaded in [false, true] {
            let mut heap = Heap::new();
            let _pad = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let delta = reds.declare("delta", RedVal::F64(0.0));
            let mut p = params(3, 4, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
            p.reductions = vec![(delta, RedOp::Add)];
            let stats = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 100),
                &p,
                threaded,
                &|ctx: &mut TxCtx<'_>, i| {
                    ctx.red_add(delta, i as f64);
                },
                &mut NullObserver,
            )
            .unwrap();
            assert_eq!(reds.get(delta).as_f64(), 4950.0);
            assert_eq!(stats.retries(), 0, "reduction variables never conflict");
        }
    }

    /// The engine reports crashes as RunError::Crash with the message.
    #[test]
    fn body_panic_becomes_crash_error() {
        crate::quiet::quiet_panics(|| {
            let mut heap = Heap::new();
            let mut reds = RedVars::new();
            let p = params(2, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
            let err = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 4),
                &p,
                false,
                &|_ctx: &mut TxCtx<'_>, i| {
                    if i == 2 {
                        panic!("iteration exploded");
                    }
                },
                &mut NullObserver,
            )
            .unwrap_err();
            assert!(matches!(err, RunError::Crash(ref m) if m.contains("exploded")));
        });
    }

    /// Tracked-memory budget violations become OutOfMemory.
    #[test]
    fn memory_budget_becomes_oom_error() {
        crate::quiet::quiet_panics(|| {
            let mut heap = Heap::new();
            let big = heap.alloc(ObjData::zeros_f64(1000));
            let mut reds = RedVars::new();
            let mut p = params(2, 1, ConflictPolicy::Raw, CommitOrder::OutOfOrder);
            p.budget_words = 100;
            let err = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 4),
                &p,
                false,
                &|ctx: &mut TxCtx<'_>, _i| {
                    ctx.tx.with_f64s(big, 0, 1000, |_| {});
                },
                &mut NullObserver,
            )
            .unwrap_err();
            assert!(matches!(err, RunError::OutOfMemory { budget: 100, .. }));
        });
    }

    /// Work-budget violations become WorkBudgetExceeded (timeout analogue).
    #[test]
    fn work_budget_becomes_timeout_error() {
        let mut heap = Heap::new();
        let mut reds = RedVars::new();
        let mut p = params(2, 1, ConflictPolicy::None, CommitOrder::OutOfOrder);
        p.work_budget = Some(10);
        let err = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 100),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, _i| ctx.tx.work(100),
            &mut NullObserver,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RunError::WorkBudgetExceeded { budget: 10, .. }
        ));
    }

    /// Transactional allocation installs objects at commit with stable ids.
    #[test]
    fn transactional_allocation_survives_commit() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_i64(8));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 8),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, i| {
                let node = ctx.tx.alloc(ObjData::scalar_i64(i as i64 * 10));
                ctx.tx.write_i64(table, i as usize, node.to_i64());
            },
            &mut NullObserver,
        )
        .unwrap();
        for i in 0..8 {
            let id = alter_heap::ObjId::from_i64(heap.get(table).i64s()[i]);
            assert_eq!(heap.get(id).i64s()[0], i as i64 * 10);
        }
        assert_eq!(heap.live_objects(), 9);
    }

    /// Allocations made by transactions that later abort are abandoned;
    /// their retries allocate fresh ids and nothing ever collides.
    #[test]
    fn aborted_allocations_never_collide() {
        let mut heap = Heap::new();
        let table = heap.alloc(ObjData::zeros_i64(12));
        let hot = heap.alloc(ObjData::scalar_i64(0));
        let mut reds = RedVars::new();
        let p = params(4, 1, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 12),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, i| {
                // Everyone contends on `hot`, so most attempts abort after
                // allocating; the committed attempt's node must be unique.
                let node = ctx.tx.alloc(ObjData::scalar_i64(i as i64));
                ctx.tx.write_i64(table, i as usize, node.to_i64());
                let v = ctx.tx.read_i64(hot, 0);
                ctx.tx.write_i64(hot, 0, v + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert!(stats.retries() > 0);
        let mut ids: Vec<i64> = (0..12).map(|i| heap.get(table).i64s()[i]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "every committed node id is distinct");
        for (i, raw) in (0..12).map(|i| (i, heap.get(table).i64s()[i])) {
            let node = alter_heap::ObjId::from_i64(raw);
            assert_eq!(heap.get(node).i64s()[0], i as i64);
        }
    }

    /// The observer sees every round with per-task commit decisions.
    #[test]
    fn observer_receives_round_reports() {
        struct Collect {
            rounds: u64,
            committed: u64,
            attempts: u64,
        }
        impl RoundObserver for Collect {
            fn on_round(&mut self, r: &RoundReport<'_>) {
                assert_eq!(r.round, self.rounds);
                self.rounds += 1;
                self.attempts += r.tasks.len() as u64;
                self.committed += r.tasks.iter().filter(|t| t.committed).count() as u64;
            }
        }
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_f64(10));
        let mut reds = RedVars::new();
        let p = params(2, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let mut obs = Collect {
            rounds: 0,
            committed: 0,
            attempts: 0,
        };
        let stats = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 10),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, i| ctx.tx.write_f64(xs, i as usize, 1.0),
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.rounds, stats.rounds);
        assert_eq!(obs.attempts, stats.attempts);
        assert_eq!(obs.committed, stats.committed);
    }

    /// On a conflict-free loop whose tasks touch distinct fingerprint
    /// blocks, validations are dominated by O(1) rejects: the exact scans
    /// compare far less than half the words a scan of every earlier writer
    /// would (`validate_words`) — the fingerprint's target regime,
    /// low-conflict workloads.
    #[test]
    fn disjoint_writes_validate_mostly_by_fingerprint_reject() {
        // Stride iterations 64 words apart so each task owns its own
        // 64-word fingerprint blocks.
        let mut heap = Heap::new();
        let xs = heap.alloc(ObjData::zeros_i64(64 * 64));
        let mut reds = RedVars::new();
        let p = params(4, 4, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
        let stats = run_loop_engine(
            &mut heap,
            &mut reds,
            &mut RangeSpace::new(0, 64),
            &p,
            false,
            &|ctx: &mut TxCtx<'_>, i| {
                let w = i as usize * 64;
                let v = ctx.tx.read_i64(xs, w);
                ctx.tx.write_i64(xs, w, v + 1);
            },
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(stats.retries(), 0);
        assert!(stats.fingerprint_rejects > 0);
        assert!(
            stats.validate_words > 0,
            "a scan of every earlier writer would pay for every validation"
        );
        assert!(
            stats.exact_scan_words * 2 <= stats.validate_words,
            "fingerprints must at least halve exact-scan work here ({} vs {})",
            stats.exact_scan_words,
            stats.validate_words
        );
    }

    /// `avg_rw_words` is well-defined (0.0, not NaN) when nothing ran.
    #[test]
    fn avg_rw_words_of_empty_run_is_zero() {
        let stats = RunStats::default();
        assert_eq!(stats.avg_rw_words(), 0.0);
        assert_eq!(stats.retry_rate(), 0.0);
        let some = RunStats {
            attempts: 4,
            tracked_words: 10,
            ..Default::default()
        };
        assert_eq!(some.avg_rw_words(), 2.5);
    }

    /// Both drivers — inline and the persistent pool — produce
    /// byte-identical heaps, retry schedules and statistics (modulo the
    /// scheduling telemetry, which *names* the driver): the determinism
    /// guarantee. The loop conflicts and leaves a page of slots cold, so
    /// the fingerprint pre-check, the buffer pool and the incremental
    /// snapshot cache all do real work under both drivers.
    #[test]
    fn threaded_and_sequential_drivers_are_identical() {
        let run = |threaded: bool| {
            let mut heap = Heap::new();
            // One page of cold slots no round ever dirties.
            for i in 0..96 {
                heap.alloc(ObjData::scalar_i64(i));
            }
            let xs = heap.alloc(ObjData::zeros_i64(64));
            let shared = heap.alloc(ObjData::scalar_i64(0));
            let mut reds = RedVars::new();
            let p = params(8, 2, ConflictPolicy::Waw, CommitOrder::OutOfOrder);
            let stats = run_loop_engine(
                &mut heap,
                &mut reds,
                &mut RangeSpace::new(0, 64),
                &p,
                threaded,
                &|ctx: &mut TxCtx<'_>, i| {
                    let s = ctx.tx.read_i64(shared, 0);
                    ctx.tx.write_i64(xs, i as usize, s + i as i64);
                    if i % 7 == 0 {
                        ctx.tx.write_i64(shared, 0, s + 1);
                    }
                },
                &mut NullObserver,
            )
            .unwrap();
            (heap.digest(), stats)
        };
        let (d_seq, s_seq) = run(false);
        let (d_pool, s_pool) = run(true);
        assert_eq!(d_seq, d_pool, "committed state must be identical");
        assert_eq!(
            s_seq.modulo_drive_mode(),
            s_pool.modulo_drive_mode(),
            "statistics must be identical modulo scheduling telemetry"
        );
        assert_eq!(s_seq.pool_round_handoffs, 0);
        assert_eq!(
            s_pool.pool_round_handoffs, s_pool.rounds,
            "the pool drives every round of a threaded run"
        );
        for s in [&s_seq, &s_pool] {
            assert_eq!(s.tickets_issued + s.tickets_requeued, s.attempts);
        }
        assert!(s_seq.retries() > 0, "the loop must actually conflict");
        assert!(
            s_seq.fingerprint_hits + s_seq.fingerprint_rejects > 0,
            "validations must go through the fingerprint pre-check"
        );
        assert!(
            s_seq.pool_reuses > 0,
            "a multi-round run must recycle buffers"
        );
        // Snapshots: the trace-visible ledger charges the whole 98-slot table
        // every round, while the incremental build re-copies only dirty
        // slots and shares the cold page.
        assert_eq!(s_seq.phase_costs.snapshot, s_seq.rounds * 98);
        assert!(
            s_seq.snapshot_slots_copied < s_seq.phase_costs.snapshot / 2,
            "incremental snapshots must copy far fewer slots ({} vs {})",
            s_seq.snapshot_slots_copied,
            s_seq.phase_costs.snapshot
        );
        assert!(s_seq.snapshot_pages_reused > 0, "cold pages must be reused");
    }
}
