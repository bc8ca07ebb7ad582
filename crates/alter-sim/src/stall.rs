//! The committer stall model: how long the in-order committer waits for
//! worker lanes, and how long lanes sit idle, in one lock-step round.
//!
//! The engine's committer retires tickets strictly in ticket order, taking
//! each one the moment its lane delivers (the in-order committer of Saad et
//! al., "Processing Transactions in a Predefined Order"). The paper's round
//! barrier is the depth-1 case of the same discipline: nothing retires until
//! the slowest lane has joined. [`round_stall`] charges one round under
//! both disciplines from the same per-task counters, so a single run yields
//! both figures — in deterministic cost units, never wall-clock.
//!
//! Executing ticket *s* costs its declared work plus instrumented words;
//! retiring it costs its validation words plus, if it committed, the words
//! it published.

use alter_runtime::TaskReport;

/// Stall and idle time of one committer discipline, in cost units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stall {
    /// Units the in-order committer spent waiting for the next ticket's
    /// lane to deliver.
    pub committer_stall_units: u64,
    /// Units workers spent idle between finishing their own lane and the
    /// round's last commit retiring.
    pub worker_idle_units: u64,
}

impl Stall {
    fn add(&mut self, other: &Stall) {
        self.committer_stall_units += other.committer_stall_units;
        self.worker_idle_units += other.worker_idle_units;
    }
}

/// The same rounds charged under both committer disciplines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallModel {
    /// The committer starts only once the slowest lane has joined the round
    /// barrier, then retires everything back to back.
    pub barrier: Stall,
    /// The committer retires ticket *s* as soon as lane *s* delivers, while
    /// later lanes keep executing.
    pub streaming: Stall,
}

impl StallModel {
    /// Accumulates another round's (or run's) figures.
    pub fn add(&mut self, other: &StallModel) {
        self.barrier.add(&other.barrier);
        self.streaming.add(&other.streaming);
    }
}

fn exec_cost(t: &TaskReport) -> u64 {
    t.stats.work + t.stats.read_words + t.stats.write_words
}

fn retire_cost(t: &TaskReport) -> u64 {
    t.validate_words
        + if t.committed {
            t.write_words + t.alloc_words
        } else {
            0
        }
}

/// Charges one round's tasks, given in ticket (commit-validation) order,
/// under the barrier and the streaming committer. Every lane starts at
/// t = 0.
pub fn round_stall(tasks: &[TaskReport]) -> StallModel {
    let idle = |end: u64| tasks.iter().map(|t| end.saturating_sub(exec_cost(t))).sum();

    // Barrier: the committer cannot start until the slowest lane joins.
    let slowest = tasks.iter().map(exec_cost).max().unwrap_or(0);
    let barrier_end = slowest + tasks.iter().map(retire_cost).sum::<u64>();

    // Streaming: the committer stalls only where in-order consumption
    // cannot hide a late lane behind earlier retire work.
    let mut stall = 0;
    let mut fin = 0;
    for t in tasks {
        let done = exec_cost(t);
        stall += done.saturating_sub(fin);
        fin = fin.max(done) + retire_cost(t);
    }

    StallModel {
        barrier: Stall {
            committer_stall_units: slowest,
            worker_idle_units: idle(barrier_end),
        },
        streaming: Stall {
            committer_stall_units: stall,
            worker_idle_units: idle(fin),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alter_heap::TxStats;

    /// A deterministic SplitMix64 stream for the seeded round generator.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    fn task(
        seq: u64,
        work: u64,
        write_words: u64,
        validate_words: u64,
        committed: bool,
    ) -> TaskReport {
        TaskReport {
            seq,
            worker: seq as usize,
            iters: 1,
            committed,
            squashed: false,
            stats: TxStats {
                work,
                write_words,
                ..TxStats::default()
            },
            read_words: 0,
            write_words,
            validate_words,
            instr_read_ops: 0,
            instr_write_ops: 0,
            overlay_words: 0,
            alloc_words: 0,
            write_ranges: 0,
            conflict: None,
        }
    }

    fn random_round(rng: &mut SplitMix64, len: usize) -> Vec<TaskReport> {
        (0..len as u64)
            .map(|seq| {
                task(
                    seq,
                    rng.below(5000),
                    rng.below(600),
                    rng.below(300),
                    rng.below(4) != 0,
                )
            })
            .collect()
    }

    /// Streaming never stalls the committer (or idles a lane) longer than
    /// the barrier, and a single-task round has nothing to overlap, so the
    /// two disciplines agree exactly there.
    #[test]
    fn streaming_never_exceeds_the_barrier_and_equals_it_on_one_task() {
        let mut rng = SplitMix64(0x057a_11ed);
        for case in 0..500 {
            let len = 1 + rng.below(12) as usize;
            let round = random_round(&mut rng, len);
            let m = round_stall(&round);
            assert!(
                m.barrier.committer_stall_units >= m.streaming.committer_stall_units,
                "case {case}: {m:?}"
            );
            assert!(
                m.barrier.worker_idle_units >= m.streaming.worker_idle_units,
                "case {case}: {m:?}"
            );
            let single = round_stall(&round[..1]);
            assert_eq!(single.barrier, single.streaming, "case {case}");
        }
        assert_eq!(round_stall(&[]), StallModel::default());
    }

    /// The skewed-chunk scenario of the `pipeline` bench: eight lanes each
    /// write a private 512-word span, the last one also declares 4000 work
    /// units; ticket *s* validates against the *s* earlier 512-word write
    /// sets. The barrier waits for the straggler; streaming retires the
    /// seven cheap tickets while it runs.
    #[test]
    fn skewed_chunk_round_reproduces_the_bench_figures() {
        let round: Vec<TaskReport> = (0..8)
            .map(|seq| task(seq, if seq == 7 { 4000 } else { 0 }, 512, 512 * seq, true))
            .collect();
        let m = round_stall(&round);
        assert_eq!(m.barrier.committer_stall_units, 4512);
        assert_eq!(m.streaming.committer_stall_units, 512);
        assert_eq!(m.barrier.worker_idle_units, 175_456);
        assert_eq!(m.streaming.worker_idle_units, 143_456);
    }
}
