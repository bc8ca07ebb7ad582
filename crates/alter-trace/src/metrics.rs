//! Aggregate metrics over a trace: counters plus fixed-bucket histograms.
//!
//! [`Metrics::from_events`] is a pure fold over an event stream, so the
//! metrics inherit the trace's determinism: the same run produces the same
//! counters and the same bucket counts, bit for bit.

use crate::event::Event;
use std::fmt::Write as _;

/// Number of histogram buckets: power-of-two buckets `[2^i, 2^(i+1))` for
/// `i` in `0..BUCKETS-1`, preceded by a dedicated zero bucket, with the
/// last bucket open-ended.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A fixed-bucket histogram of non-negative integer samples.
///
/// Bucket 0 counts exact zeros; bucket `i` (for `i ≥ 1`) counts samples in
/// `[2^(i-1), 2^i)`; the final bucket absorbs everything larger. Power-of-
/// two buckets keep the histogram allocation-free and deterministic while
/// still resolving the orders of magnitude that matter for read/write-set
/// sizes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let i = 64 - (value.leading_zeros() as usize); // value in [2^(i-1), 2^i)
            i.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Human-readable label for bucket `i` (e.g. `"0"`, `"[4,8)"`,
    /// `"≥65536"`).
    pub fn bucket_label(i: usize) -> String {
        if i == 0 {
            "0".to_owned()
        } else if i == HISTOGRAM_BUCKETS - 1 {
            format!(">={}", 1u64 << (i - 1))
        } else {
            format!("[{},{})", 1u64 << (i - 1), 1u64 << i)
        }
    }

    /// One-line summary plus the non-empty buckets, for the metrics report.
    fn render_into(&self, out: &mut String, name: &str) {
        let _ = writeln!(
            out,
            "  {name}: n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        );
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let _ = writeln!(out, "    {:>12} {c}", Self::bucket_label(i));
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The metrics registry: counters and histograms folded from a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Lock-step rounds started.
    pub rounds: u64,
    /// Tasks started (transactions launched, including retries).
    pub tasks: u64,
    /// Transactions that committed.
    pub commits: u64,
    /// Transactions squashed by an earlier in-order failure.
    pub squashes: u64,
    /// Validation failures (RAW + WAW).
    pub conflicts: u64,
    /// Validation failures that were RAW overlaps.
    pub raw_conflicts: u64,
    /// Validation failures that were WAW overlaps.
    pub waw_conflicts: u64,
    /// Reduction deltas merged at commit.
    pub reduction_merges: u64,
    /// Tracked-memory budget trips.
    pub ooms: u64,
    /// Loop-body panics (including those suppressed during probes).
    pub crashes: u64,
    /// Work-budget (timeout analogue) trips.
    pub work_budget_exceeded: u64,
    /// Inference probes started.
    pub probes: u64,
    /// Histogram of per-commit read-set words.
    pub read_words: Histogram,
    /// Histogram of per-commit write-set words.
    pub write_words: Histogram,
    /// Histogram of per-validation compared words (successful validations).
    pub validate_words: Histogram,
    /// Validations whose fingerprint pre-check fell through to an exact
    /// scan. Reported by the runtime (not derived from events — the event
    /// stream does not depend on what the fingerprints saved).
    pub fingerprint_hits: u64,
    /// Validations rejected in O(1) by the fingerprint pre-check.
    pub fingerprint_rejects: u64,
    /// Transaction buffers served from the recycling pool.
    pub pool_reuses: u64,
    /// Words actually compared by exact validation merge-scans.
    pub exact_scan_words: u64,
    /// Slot entries copied while establishing round snapshots. Reported by
    /// the runtime, like the validation counters: the event stream carries
    /// the trace-stable full-table figure (`RoundStart.snapshot_slots`),
    /// while this counter reflects what the incremental snapshot actually
    /// copied (far less).
    pub snapshot_slots_copied: u64,
    /// Snapshot pages structurally shared with the previous round's
    /// snapshot instead of being copied.
    pub snapshot_pages_reused: u64,
    /// Rounds handed to the persistent worker pool (0 under the inline
    /// driver).
    pub pool_round_handoffs: u64,
    /// Fresh tickets handed out by the sequencer. Reported by the runtime
    /// (pipeline-ledger bookkeeping, not derived from events).
    pub tickets_issued: u64,
    /// Tickets re-queued after a conflict or in-order squash.
    pub tickets_requeued: u64,
    /// Deterministic cost units the committer spent stalled waiting for the
    /// next ticket in order (virtual time, never wall-clock).
    pub committer_stall_units: u64,
    /// Deterministic cost units worker lanes spent idle after finishing
    /// their ticket while the round drained (virtual time).
    pub worker_idle_units: u64,
    /// Words compared by shard-partitioned word-block validation scans
    /// (zero on unsharded runs).
    pub shard_validate_words: u64,
    /// Per-shard commit batches retired (each commit counts the distinct
    /// heap shards it touched).
    pub shard_commit_batches: u64,
    /// Largest word-block scan any single shard absorbed in one validation
    /// (a `max`, not a sum — see [`Metrics::record_shard_counters`]).
    pub shard_imbalance_max: u64,
}

impl Metrics {
    /// Folds an event stream into metrics.
    pub fn from_events(events: &[Event]) -> Self {
        let mut m = Metrics::default();
        for ev in events {
            m.observe(ev);
        }
        m
    }

    /// Folds one event.
    pub fn observe(&mut self, ev: &Event) {
        match ev {
            Event::RoundStart { .. } => self.rounds += 1,
            Event::TaskStart { .. } => self.tasks += 1,
            Event::ValidateOk { validate_words, .. } => {
                self.validate_words.record(*validate_words);
            }
            Event::ValidateConflict { kind, .. } => {
                self.conflicts += 1;
                match kind {
                    crate::event::ConflictKind::Raw => self.raw_conflicts += 1,
                    crate::event::ConflictKind::Waw => self.waw_conflicts += 1,
                }
            }
            Event::Commit {
                read_words,
                write_words,
                ..
            } => {
                self.commits += 1;
                self.read_words.record(*read_words);
                self.write_words.record(*write_words);
            }
            Event::Squash { .. } => self.squashes += 1,
            Event::ReductionMerge { .. } => self.reduction_merges += 1,
            Event::Oom { .. } => self.ooms += 1,
            Event::Crash { .. } => self.crashes += 1,
            Event::WorkBudgetExceeded { .. } => self.work_budget_exceeded += 1,
            Event::ProbeStart { .. } => self.probes += 1,
            Event::TaskSets { .. }
            | Event::PhaseProfile { .. }
            | Event::ProbeOutcome { .. }
            | Event::RunEnd { .. } => {}
        }
    }

    /// Merges the runtime's validation counters into the registry. These
    /// live outside the event stream on purpose: traces carry only the
    /// per-writer `validate_words`, whatever the fingerprints saved, so the
    /// counters arrive through run statistics instead. Plain integers keep this crate free
    /// of a runtime dependency.
    pub fn record_validation_counters(
        &mut self,
        fingerprint_hits: u64,
        fingerprint_rejects: u64,
        pool_reuses: u64,
        exact_scan_words: u64,
    ) {
        self.fingerprint_hits += fingerprint_hits;
        self.fingerprint_rejects += fingerprint_rejects;
        self.pool_reuses += pool_reuses;
        self.exact_scan_words += exact_scan_words;
    }

    /// Merges the runtime's round-overhead counters — snapshot
    /// construction and worker-pool handoffs — into the registry. Like the
    /// validation counters, these live outside the event stream: traces
    /// are byte-identical whichever snapshot mode and driver produced
    /// them, so the counters arrive through run statistics.
    pub fn record_round_counters(
        &mut self,
        snapshot_slots_copied: u64,
        snapshot_pages_reused: u64,
        pool_round_handoffs: u64,
    ) {
        self.snapshot_slots_copied += snapshot_slots_copied;
        self.snapshot_pages_reused += snapshot_pages_reused;
        self.pool_round_handoffs += pool_round_handoffs;
    }

    /// Merges the ticketed-pipeline counters into the registry: the
    /// runtime's ticket counts and the simulator's committer stall/idle
    /// units. Like the other out-of-band counters, these never ride in the
    /// event stream: the stall/idle units are a pure function of the
    /// per-task counters, and traces stay byte-identical whichever driver
    /// produced them.
    pub fn record_pipeline_counters(
        &mut self,
        tickets_issued: u64,
        tickets_requeued: u64,
        committer_stall_units: u64,
        worker_idle_units: u64,
    ) {
        self.tickets_issued += tickets_issued;
        self.tickets_requeued += tickets_requeued;
        self.committer_stall_units += committer_stall_units;
        self.worker_idle_units += worker_idle_units;
    }

    /// Merges the runtime's sharded-heap counters into the registry. Like
    /// the other out-of-band counters these never ride in the event stream:
    /// traces are byte-identical at every shard count, so the scan and
    /// batch economics arrive through run statistics. The first two
    /// accumulate; the imbalance ceiling combines by `max`.
    pub fn record_shard_counters(
        &mut self,
        shard_validate_words: u64,
        shard_commit_batches: u64,
        shard_imbalance_max: u64,
    ) {
        self.shard_validate_words += shard_validate_words;
        self.shard_commit_batches += shard_commit_batches;
        self.shard_imbalance_max = self.shard_imbalance_max.max(shard_imbalance_max);
    }

    /// Fraction of started tasks that did not commit (conflicted, squashed,
    /// or otherwise wasted). 0.0 when no tasks ran.
    pub fn retry_rate(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            1.0 - (self.commits.min(self.tasks) as f64 / self.tasks as f64)
        }
    }

    /// Human-readable metrics report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics:");
        let _ = writeln!(
            out,
            "  rounds={} tasks={} commits={} squashes={}",
            self.rounds, self.tasks, self.commits, self.squashes
        );
        let _ = writeln!(
            out,
            "  conflicts={} (raw={} waw={}) reduction_merges={}",
            self.conflicts, self.raw_conflicts, self.waw_conflicts, self.reduction_merges
        );
        let _ = writeln!(
            out,
            "  ooms={} crashes={} work_budget_exceeded={} probes={}",
            self.ooms, self.crashes, self.work_budget_exceeded, self.probes
        );
        let _ = writeln!(out, "  retry_rate={:.4}", self.retry_rate());
        let _ = writeln!(
            out,
            "  fingerprint_hits={} fingerprint_rejects={} pool_reuses={} exact_scan_words={}",
            self.fingerprint_hits,
            self.fingerprint_rejects,
            self.pool_reuses,
            self.exact_scan_words
        );
        let _ = writeln!(
            out,
            "  snapshot_slots_copied={} snapshot_pages_reused={} pool_round_handoffs={}",
            self.snapshot_slots_copied, self.snapshot_pages_reused, self.pool_round_handoffs
        );
        let _ = writeln!(
            out,
            "  tickets_issued={} tickets_requeued={} committer_stall_units={} worker_idle_units={}",
            self.tickets_issued,
            self.tickets_requeued,
            self.committer_stall_units,
            self.worker_idle_units
        );
        let _ = writeln!(
            out,
            "  shard_validate_words={} shard_commit_batches={} shard_imbalance_max={}",
            self.shard_validate_words, self.shard_commit_batches, self.shard_imbalance_max
        );
        self.read_words.render_into(&mut out, "read_words");
        self.write_words.render_into(&mut out, "write_words");
        self.validate_words.render_into(&mut out, "validate_words");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConflictKind;
    use alter_heap::ObjId;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0, 1, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.max(), 9);
        assert!((h.mean() - 3.25).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 1); // 3
        assert_eq!(h.buckets()[4], 1); // 9 in [8,16)
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn metrics_fold_counts_and_retry_rate() {
        let evs = vec![
            Event::RoundStart {
                round: 0,
                tasks: 2,
                snapshot_slots: 0,
            },
            Event::TaskStart {
                seq: 0,
                worker: 0,
                iters: 1,
            },
            Event::TaskStart {
                seq: 1,
                worker: 1,
                iters: 1,
            },
            Event::ValidateOk {
                seq: 0,
                validate_words: 0,
            },
            Event::Commit {
                seq: 0,
                read_words: 4,
                write_words: 2,
                allocs: 0,
                frees: 0,
            },
            Event::ValidateConflict {
                seq: 1,
                kind: ConflictKind::Waw,
                obj: ObjId::from_index(0),
                word: 0,
                winner_seq: 0,
            },
        ];
        let m = Metrics::from_events(&evs);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.tasks, 2);
        assert_eq!(m.commits, 1);
        assert_eq!(m.conflicts, 1);
        assert_eq!(m.waw_conflicts, 1);
        assert_eq!(m.raw_conflicts, 0);
        assert!((m.retry_rate() - 0.5).abs() < 1e-12);
        assert_eq!(m.read_words.count(), 1);
        assert_eq!(m.validate_words.count(), 1);
    }

    #[test]
    fn retry_rate_with_no_tasks_is_zero() {
        assert_eq!(Metrics::default().retry_rate(), 0.0);
    }

    #[test]
    fn validation_counters_accumulate_and_render() {
        let mut m = Metrics::default();
        m.record_validation_counters(3, 7, 11, 640);
        m.record_validation_counters(1, 1, 1, 10);
        assert_eq!(m.fingerprint_hits, 4);
        assert_eq!(m.fingerprint_rejects, 8);
        assert_eq!(m.pool_reuses, 12);
        assert_eq!(m.exact_scan_words, 650);
        assert!(m.render().contains("fingerprint_rejects=8"));
        assert!(m.render().contains("exact_scan_words=650"));
    }

    #[test]
    fn round_counters_accumulate_and_render() {
        let mut m = Metrics::default();
        m.record_round_counters(100, 30, 5);
        m.record_round_counters(20, 10, 2);
        assert_eq!(m.snapshot_slots_copied, 120);
        assert_eq!(m.snapshot_pages_reused, 40);
        assert_eq!(m.pool_round_handoffs, 7);
        assert!(m.render().contains("snapshot_slots_copied=120"));
        assert!(m.render().contains("pool_round_handoffs=7"));
    }

    #[test]
    fn pipeline_counters_accumulate_and_render() {
        let mut m = Metrics::default();
        m.record_pipeline_counters(8, 2, 4000, 900);
        m.record_pipeline_counters(2, 1, 500, 100);
        assert_eq!(m.tickets_issued, 10);
        assert_eq!(m.tickets_requeued, 3);
        assert_eq!(m.committer_stall_units, 4500);
        assert_eq!(m.worker_idle_units, 1000);
        assert!(m.render().contains("tickets_requeued=3"));
        assert!(m.render().contains("committer_stall_units=4500"));
    }

    #[test]
    fn shard_counters_accumulate_and_render() {
        let mut m = Metrics::default();
        m.record_shard_counters(400, 12, 90);
        m.record_shard_counters(100, 3, 250);
        m.record_shard_counters(50, 1, 10);
        assert_eq!(m.shard_validate_words, 550);
        assert_eq!(m.shard_commit_batches, 16);
        assert_eq!(m.shard_imbalance_max, 250, "imbalance combines by max");
        assert!(m.render().contains("shard_validate_words=550"));
        assert!(m.render().contains("shard_imbalance_max=250"));
    }
}
