//! Read and write sets.
//!
//! The runtime library in the paper stores instrumented addresses "in a
//! (local) hash set as well as a (global) array. The hash set allows quick
//! elimination of duplicates, while the global array allows other processes
//! to check for conflicts" (§4.1). We keep the same structure: a
//! deterministic hash map from allocation to a set of word ranges, which
//! doubles as the structure other transactions probe during validation.

use crate::fx::{FxHashMap, FxHasher};
use crate::object::ObjId;
use std::hash::Hasher as _;

/// Words per fingerprint block: accesses are fingerprinted at the
/// granularity of `(allocation, word >> FINGERPRINT_BLOCK_SHIFT)`, so one
/// hash covers a 64-word block. Coarser blocks keep range inserts cheap;
/// the exact merge-scan behind the fingerprint restores word precision.
const FINGERPRINT_BLOCK_SHIFT: u32 = 6;

/// Number of fingerprint lanes an [`AccessSet`] maintains, and therefore the
/// maximum number of heap shards: a lane is the finest shard an access can
/// route to, and a shard at any coarser power-of-two count is a union of
/// lanes. See [`shard_of_id`].
pub const SHARD_LANES: usize = 16;

/// The shard count a request for `shards` actually yields: rounded up to a
/// power of two and clamped to `1..=`[`SHARD_LANES`]. The heap, the engine
/// parameters and the CLIs all normalize through this one function, so a
/// reported or journaled count is always the count the heap runs.
pub fn normalize_shards(shards: usize) -> usize {
    shards.clamp(1, SHARD_LANES).next_power_of_two()
}

/// The heap shard `id` routes to, out of `shards` (a power of two, at most
/// [`SHARD_LANES`]). Routing is by *snapshot page* — all ids of one
/// 64-slot page share a shard — interleaved round-robin so consecutive
/// pages land on different shards. This is the one routing function shared
/// by the heap's storage partition and the access sets' lane partition.
#[inline]
pub fn shard_of_id(id: ObjId, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two() && shards <= SHARD_LANES);
    lane_of(id) & (shards - 1)
}

/// The fingerprint lane `id` routes to (its shard at [`SHARD_LANES`] shards).
#[inline]
fn lane_of(id: ObjId) -> usize {
    (id.index() as usize / crate::heap::SNAPSHOT_PAGE_SLOTS) & (SHARD_LANES - 1)
}

/// A 128-bit Bloom-style fingerprint of an access set, maintained
/// incrementally on insert (paper §4.1 keeps a hash set *plus* a global
/// array so conflict checks are cheap; this is the analogous cheap
/// pre-filter in front of the exact range scan).
///
/// Each inserted `(ObjId, word-block)` pair sets two bits derived from its
/// deterministic FxHash. The only guarantee is one-sided and that is the
/// point: if two fingerprints share no bit, the underlying sets share no
/// `(allocation, word)` — so [`Fingerprint::may_intersect`] returning
/// `false` proves [`AccessSet::overlaps`] is `false`. False positives
/// merely fall through to the exact scan; verdicts never change.
///
/// ```
/// use alter_heap::{AccessSet, ObjId};
/// let mut a = AccessSet::new();
/// a.insert(ObjId::from_index(1), 0, 8);
/// let mut b = AccessSet::new();
/// b.insert(ObjId::from_index(2), 0, 8);
/// if !a.fingerprint().may_intersect(b.fingerprint()) {
///     assert!(!a.overlaps(&b)); // the rejection is always sound
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    bits: [u64; 2],
}

impl Fingerprint {
    /// The empty fingerprint (matches the empty set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one `(allocation, block)` element in.
    #[inline]
    fn insert_block(&mut self, id: ObjId, block: u32) {
        let mut h = FxHasher::default();
        h.write_u32(id.index());
        h.write_u32(block);
        let hash = h.finish();
        // Two independent bit positions in 0..128 from disjoint hash bits.
        let b1 = (hash & 127) as usize;
        let b2 = ((hash >> 7) & 127) as usize;
        self.bits[b1 >> 6] |= 1u64 << (b1 & 63);
        self.bits[b2 >> 6] |= 1u64 << (b2 & 63);
    }

    /// Folds the blocks covered by words `lo..hi` of `id` in.
    #[inline]
    pub(crate) fn insert_range(&mut self, id: ObjId, lo: u32, hi: u32) {
        debug_assert!(lo < hi);
        for block in (lo >> FINGERPRINT_BLOCK_SHIFT)..=((hi - 1) >> FINGERPRINT_BLOCK_SHIFT) {
            self.insert_block(id, block);
        }
    }

    /// Whether the sets behind the two fingerprints *may* share an element.
    /// `false` is a proof of disjointness; `true` says nothing.
    #[inline]
    pub fn may_intersect(self, other: Fingerprint) -> bool {
        (self.bits[0] & other.bits[0]) | (self.bits[1] & other.bits[1]) != 0
    }

    /// Whether no element was ever folded in.
    pub fn is_empty(self) -> bool {
        self.bits == [0, 0]
    }

    /// Resets to the empty fingerprint.
    pub fn clear(&mut self) {
        self.bits = [0, 0];
    }

    /// Folds every element of `other` in (bitwise OR). The fingerprint of a
    /// union is exactly the OR of the parts' fingerprints, which is what
    /// makes the per-lane decomposition below lossless.
    #[inline]
    pub fn union_with(&mut self, other: Fingerprint) {
        self.bits[0] |= other.bits[0];
        self.bits[1] |= other.bits[1];
    }
}

/// A sorted, coalesced set of half-open word ranges within one allocation.
///
/// ```
/// use alter_heap::RangeSet;
/// let mut r = RangeSet::new();
/// r.insert(0, 4);
/// r.insert(4, 8); // coalesces with the previous range
/// assert_eq!(r.range_count(), 1);
/// assert!(r.overlaps_range(6, 7));
/// assert!(!r.contains(8));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Sorted by `lo`, pairwise disjoint and non-adjacent.
    ranges: Vec<(u32, u32)>,
}

impl RangeSet {
    /// Creates an empty range set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `lo..hi`, merging with overlapping or adjacent ranges.
    /// Inserting an empty range is a no-op.
    pub fn insert(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        // Fast path: append or extend at the tail (the common access pattern
        // is monotonically increasing indices within a chunk).
        if let Some(last) = self.ranges.last_mut() {
            if lo >= last.0 {
                if lo <= last.1 {
                    last.1 = last.1.max(hi);
                    return;
                }
                self.ranges.push((lo, hi));
                return;
            }
        } else {
            self.ranges.push((lo, hi));
            return;
        }
        // Slow path: general insert with coalescing.
        let start = self.ranges.partition_point(|&(_, h)| h < lo);
        let mut end = start;
        let mut new_lo = lo;
        let mut new_hi = hi;
        while end < self.ranges.len() && self.ranges[end].0 <= new_hi {
            new_lo = new_lo.min(self.ranges[end].0);
            new_hi = new_hi.max(self.ranges[end].1);
            end += 1;
        }
        self.ranges.splice(start..end, [(new_lo, new_hi)]);
    }

    /// Whether any word of `lo..hi` is present.
    pub fn overlaps_range(&self, lo: u32, hi: u32) -> bool {
        if lo >= hi {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, h)| h <= lo);
        i < self.ranges.len() && self.ranges[i].0 < hi
    }

    /// Whether the two sets share any word.
    pub fn overlaps(&self, other: &RangeSet) -> bool {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].1 <= b[j].0 {
                i += 1;
            } else if b[j].1 <= a[i].0 {
                j += 1;
            } else {
                return true;
            }
        }
        false
    }

    /// The lowest word shared by the two sets, if any.
    pub fn first_overlap(&self, other: &RangeSet) -> Option<u32> {
        let (a, b) = (&self.ranges, &other.ranges);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].1 <= b[j].0 {
                i += 1;
            } else if b[j].1 <= a[i].0 {
                j += 1;
            } else {
                return Some(a[i].0.max(b[j].0));
            }
        }
        None
    }

    /// Whether a specific word is present.
    pub fn contains(&self, word: u32) -> bool {
        self.overlaps_range(word, word + 1)
    }

    /// Total number of words covered.
    pub fn words(&self) -> u64 {
        self.ranges.iter().map(|&(l, h)| u64::from(h - l)).sum()
    }

    /// Number of maximal ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Removes all ranges, retaining the backing vector's capacity so a
    /// recycled set (see [`AccessSet::clear`] and the runtime's buffer
    /// pool) inserts without reallocating.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Iterates over the maximal ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }

    /// Word-block disjointness scan against `other`: walks both sets as
    /// streams of `(64-word block, u64 occupancy mask)` pairs — one lane
    /// comparison per common block instead of one per word — and returns
    /// `(overlap, words_compared)`. The verdict is exact (masks are exact
    /// occupancy, so it always equals [`RangeSet::overlaps`]);
    /// `words_compared` charges each common block the smaller side's
    /// popcount, the work a word-granular probe of that block would not
    /// have been able to skip. Stops at the first overlapping block.
    pub fn block_scan(&self, other: &RangeSet) -> (bool, u64) {
        let mut a = BlockMasks::new(&self.ranges);
        let mut b = BlockMasks::new(&other.ranges);
        let (mut x, mut y) = (a.next(), b.next());
        let mut words = 0u64;
        while let (Some((ab, am)), Some((bb, bm))) = (x, y) {
            match ab.cmp(&bb) {
                std::cmp::Ordering::Less => x = a.next(),
                std::cmp::Ordering::Greater => y = b.next(),
                std::cmp::Ordering::Equal => {
                    words += u64::from(am.count_ones().min(bm.count_ones()));
                    if am & bm != 0 {
                        return (true, words);
                    }
                    x = a.next();
                    y = b.next();
                }
            }
        }
        (false, words)
    }
}

/// Streams a sorted range list as `(block, occupancy mask)` pairs in
/// ascending block order, skipping blocks the set does not touch.
struct BlockMasks<'a> {
    ranges: &'a [(u32, u32)],
    /// First range not yet fully consumed.
    idx: usize,
    /// Next block to emit (valid while `idx < ranges.len()`).
    block: u32,
}

impl<'a> BlockMasks<'a> {
    fn new(ranges: &'a [(u32, u32)]) -> Self {
        let block = ranges.first().map_or(0, |r| r.0 >> FINGERPRINT_BLOCK_SHIFT);
        BlockMasks {
            ranges,
            idx: 0,
            block,
        }
    }
}

impl Iterator for BlockMasks<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        if self.idx >= self.ranges.len() {
            return None;
        }
        let block = self.block;
        let base = u64::from(block) << FINGERPRINT_BLOCK_SHIFT;
        let mut mask = 0u64;
        let mut j = self.idx;
        while j < self.ranges.len() && u64::from(self.ranges[j].0) < base + 64 {
            let (lo, hi) = (u64::from(self.ranges[j].0), u64::from(self.ranges[j].1));
            let s = lo.max(base) - base;
            let e = hi.min(base + 64) - base;
            debug_assert!(s < e, "ranges are non-empty and sorted");
            mask |= if e - s == 64 {
                u64::MAX
            } else {
                ((1u64 << (e - s)) - 1) << s
            };
            if hi > base + 64 {
                break; // range continues into the next block
            }
            j += 1;
        }
        self.idx = j;
        if j < self.ranges.len() {
            self.block = (block + 1).max(self.ranges[j].0 >> FINGERPRINT_BLOCK_SHIFT);
        }
        Some((block, mask))
    }
}

/// A read or write set: for each touched allocation, the set of touched
/// word ranges.
///
/// ```
/// use alter_heap::{AccessSet, ObjId};
/// let (a, b) = (ObjId::from_index(1), ObjId::from_index(2));
/// let mut reads = AccessSet::new();
/// reads.insert(a, 0, 16);
/// let mut writes = AccessSet::new();
/// writes.insert(b, 0, 16); // different allocation: no conflict
/// assert!(!reads.overlaps(&writes));
/// writes.insert(a, 15, 17); // one shared word: conflict
/// assert!(reads.overlaps(&writes));
/// ```
///
/// Iteration order over allocations is only exposed in sorted form
/// ([`AccessSet::iter_sorted`]) so that every consumer of the set is
/// deterministic — determinism is a headline guarantee of the runtime
/// (paper §4.3).
#[derive(Debug, Default)]
pub struct AccessSet {
    map: FxHashMap<ObjId, RangeSet>,
    words: u64,
    /// Bloom-style summary maintained incrementally by [`AccessSet::insert`]
    /// — the O(1) pre-filter in front of the exact merge-scan.
    fp: Fingerprint,
    /// `fp` decomposed by fingerprint lane (= heap shard at the maximum
    /// shard count): every insert sets the same bits in `fp` and in its
    /// lane, so the OR of any lane subset is exactly the fingerprint of the
    /// accesses routing there — [`AccessSet::shard_fingerprint`] reads a
    /// shard's slice without any per-shard map.
    lane_fp: [Fingerprint; SHARD_LANES],
    /// Words recorded per lane (sums to `words`).
    lane_words: [u64; SHARD_LANES],
    /// Cleared [`RangeSet`]s recycled by [`AccessSet::clear`]; their backing
    /// vectors keep their capacity and are reused by later inserts.
    spare: Vec<RangeSet>,
}

impl Clone for AccessSet {
    fn clone(&self) -> Self {
        AccessSet {
            map: self.map.clone(),
            words: self.words,
            fp: self.fp,
            lane_fp: self.lane_fp,
            lane_words: self.lane_words,
            // Spare capacity is a recycling detail of the original, not part
            // of the set's value.
            spare: Vec::new(),
        }
    }
}

impl AccessSet {
    /// Creates an empty access set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to words `lo..hi` of `id`.
    pub fn insert(&mut self, id: ObjId, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        self.fp.insert_range(id, lo, hi);
        let lane = lane_of(id);
        self.lane_fp[lane].insert_range(id, lo, hi);
        let spare = &mut self.spare;
        let set = self
            .map
            .entry(id)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let before = set.words();
        set.insert(lo, hi);
        let added = set.words() - before;
        self.words += added;
        self.lane_words[lane] += added;
    }

    /// Records an access to a single word.
    pub fn insert_word(&mut self, id: ObjId, word: u32) {
        self.insert(id, word, word + 1);
    }

    /// Whether this set shares any (allocation, word) with `other`.
    ///
    /// This is the conflict test at the heart of validation: `FULL` compares
    /// reads∪writes against writes, `WAW` writes against writes, `RAW` reads
    /// against writes (paper §4.2).
    pub fn overlaps(&self, other: &AccessSet) -> bool {
        // Probe from the smaller side.
        let (small, big) = if self.map.len() <= other.map.len() {
            (self, other)
        } else {
            (other, self)
        };
        for (id, ranges) in &small.map {
            if let Some(other_ranges) = big.map.get(id) {
                if ranges.overlaps(other_ranges) {
                    return true;
                }
            }
        }
        false
    }

    /// The first `(allocation, word)` shared with `other`, searched in
    /// deterministic order: ascending [`ObjId`], then lowest shared word.
    ///
    /// This is the slow sibling of [`AccessSet::overlaps`] used only on the
    /// conflict path, where validation has already failed and the trace
    /// wants to *name* the dependence that broke (which word, and below,
    /// which committed writer owns it).
    pub fn first_overlap(&self, other: &AccessSet) -> Option<(ObjId, u32)> {
        let mut best: Option<(ObjId, u32)> = None;
        for (id, ranges) in &self.map {
            if best.is_some_and(|(b, _)| b <= *id) {
                continue;
            }
            if let Some(other_ranges) = other.map.get(id) {
                if let Some(word) = ranges.first_overlap(other_ranges) {
                    best = Some((*id, word));
                }
            }
        }
        best
    }

    /// Whether words `lo..hi` of `id` are present.
    pub fn contains_range(&self, id: ObjId, lo: u32, hi: u32) -> bool {
        self.map.get(&id).is_some_and(|r| r.overlaps_range(lo, hi))
    }

    /// The range set recorded for `id`, if any.
    pub fn ranges(&self, id: ObjId) -> Option<&RangeSet> {
        self.map.get(&id)
    }

    /// Merges `other` into `self`.
    pub fn union_with(&mut self, other: &AccessSet) {
        for (id, ranges) in &other.map {
            for (lo, hi) in ranges.iter() {
                self.insert(*id, lo, hi);
            }
        }
    }

    /// Total words covered across all allocations.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Number of distinct allocations touched.
    pub fn objects(&self) -> usize {
        self.map.len()
    }

    /// Total number of maximal ranges across all allocations (each maps to
    /// one instrumentation record).
    pub fn range_count(&self) -> usize {
        self.map.values().map(RangeSet::range_count).sum()
    }

    /// Whether no access has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes all recorded accesses, retaining capacity: the allocation
    /// map keeps its table, and each per-allocation [`RangeSet`] is drained
    /// into a spare list for reuse by later inserts — the `clear()`-style
    /// recycling the cross-round buffer pool relies on.
    pub fn clear(&mut self) {
        for (_, mut ranges) in self.map.drain() {
            ranges.clear();
            self.spare.push(ranges);
        }
        self.words = 0;
        self.fp.clear();
        self.lane_fp = [Fingerprint::default(); SHARD_LANES];
        self.lane_words = [0; SHARD_LANES];
    }

    /// The Bloom-style fingerprint summarizing this set (empty set ⇒ empty
    /// fingerprint).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// O(1) conservative overlap pre-check: `false` proves
    /// [`AccessSet::overlaps`] is `false`; `true` requires the exact scan.
    pub fn may_overlap(&self, other: &AccessSet) -> bool {
        self.fp.may_intersect(other.fp)
    }

    /// Iterates over `(allocation, ranges)` in ascending `ObjId` order.
    pub fn iter_sorted(&self) -> Vec<(ObjId, &RangeSet)> {
        let mut v: Vec<_> = self.map.iter().map(|(id, r)| (*id, r)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// The fingerprint of the accesses routing to heap shard `shard` out of
    /// `shards` — the OR of that shard's lanes, read in O([`SHARD_LANES`]).
    /// ORing this over all shards reproduces [`AccessSet::fingerprint`]
    /// exactly, so a per-shard rejection is as sound as the global one.
    pub fn shard_fingerprint(&self, shard: usize, shards: usize) -> Fingerprint {
        debug_assert!(shards.is_power_of_two() && shards <= SHARD_LANES);
        let mut fp = Fingerprint::default();
        let mut lane = shard & (shards - 1);
        while lane < SHARD_LANES {
            fp.union_with(self.lane_fp[lane]);
            lane += shards;
        }
        fp
    }

    /// Words recorded against heap shard `shard` out of `shards` (the
    /// shard's slice of [`AccessSet::words`]).
    pub fn shard_words(&self, shard: usize, shards: usize) -> u64 {
        debug_assert!(shards.is_power_of_two() && shards <= SHARD_LANES);
        let mut words = 0;
        let mut lane = shard & (shards - 1);
        while lane < SHARD_LANES {
            words += self.lane_words[lane];
            lane += shards;
        }
        words
    }

    /// Exact overlap test against `other`, restricted to the accesses
    /// routing to heap shard `shard` out of `shards`, using word-block
    /// scans. Returns `(overlap, words_compared)`; ORing the verdict over
    /// all shards equals [`AccessSet::overlaps`], because two sets share an
    /// `(allocation, word)` exactly when they share one in some shard.
    pub fn shard_block_overlaps(
        &self,
        other: &AccessSet,
        shard: usize,
        shards: usize,
    ) -> (bool, u64) {
        let (small, big) = if self.map.len() <= other.map.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = 0;
        for (id, ranges) in &small.map {
            if shard_of_id(*id, shards) != shard {
                continue;
            }
            if let Some(other_ranges) = big.map.get(id) {
                let (hit, compared) = ranges.block_scan(other_ranges);
                words += compared;
                if hit {
                    return (true, words);
                }
            }
        }
        (false, words)
    }

    /// Clones the subset of this set owned by heap shard `shard` out of
    /// `shards`. The shard views of one set partition it: their union (and
    /// the OR of their fingerprints) reproduces the original exactly.
    pub fn shard_view(&self, shard: usize, shards: usize) -> AccessSet {
        let mut out = AccessSet::new();
        for (id, ranges) in self.iter_sorted() {
            if shard_of_id(id, shards) == shard {
                for (lo, hi) in ranges.iter() {
                    out.insert(id, lo, hi);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> ObjId {
        ObjId::from_index(n)
    }

    #[test]
    fn shard_counts_normalize_to_a_power_of_two_within_the_lanes() {
        assert_eq!(normalize_shards(0), 1);
        assert_eq!(normalize_shards(1), 1);
        assert_eq!(normalize_shards(3), 4);
        assert_eq!(normalize_shards(9), 16);
        assert_eq!(normalize_shards(16), 16);
        assert_eq!(normalize_shards(64), 16);
    }

    #[test]
    fn rangeset_coalesces_adjacent_and_overlapping() {
        let mut r = RangeSet::new();
        r.insert(0, 2);
        r.insert(2, 4); // adjacent
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 4);
        r.insert(10, 12);
        r.insert(1, 11); // bridges both
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.words(), 12);
    }

    #[test]
    fn rangeset_out_of_order_inserts() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(0, 5);
        r.insert(30, 40);
        assert_eq!(r.range_count(), 3);
        assert!(r.contains(0));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(25));
        assert!(r.contains(39));
    }

    #[test]
    fn rangeset_empty_insert_is_noop() {
        let mut r = RangeSet::new();
        r.insert(5, 5);
        assert!(r.is_empty());
        assert!(!r.overlaps_range(0, 100));
    }

    #[test]
    fn rangeset_overlap_tests() {
        let mut a = RangeSet::new();
        a.insert(0, 10);
        a.insert(20, 30);
        let mut b = RangeSet::new();
        b.insert(10, 20);
        assert!(!a.overlaps(&b));
        b.insert(29, 35);
        assert!(a.overlaps(&b));
        assert!(a.overlaps_range(5, 6));
        assert!(!a.overlaps_range(10, 20));
    }

    #[test]
    fn accessset_word_accounting() {
        let mut s = AccessSet::new();
        s.insert(id(1), 0, 4);
        s.insert(id(1), 2, 6); // 2 new words
        s.insert_word(id(2), 9);
        assert_eq!(s.words(), 7);
        assert_eq!(s.objects(), 2);
    }

    #[test]
    fn accessset_overlap_requires_same_object_and_range() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 4);
        let mut b = AccessSet::new();
        b.insert(id(2), 0, 4);
        assert!(!a.overlaps(&b));
        b.insert(id(1), 4, 8);
        assert!(!a.overlaps(&b));
        b.insert(id(1), 3, 4);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn accessset_union_and_clear() {
        let mut a = AccessSet::new();
        a.insert(id(1), 0, 2);
        let mut b = AccessSet::new();
        b.insert(id(1), 1, 3);
        b.insert(id(3), 0, 1);
        a.union_with(&b);
        assert_eq!(a.words(), 4);
        assert_eq!(a.objects(), 2);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.words(), 0);
    }

    #[test]
    fn rangeset_first_overlap_finds_lowest_shared_word() {
        let mut a = RangeSet::new();
        a.insert(0, 10);
        a.insert(20, 30);
        let mut b = RangeSet::new();
        b.insert(10, 20);
        assert_eq!(a.first_overlap(&b), None);
        b.insert(25, 35);
        assert_eq!(a.first_overlap(&b), Some(25));
        let mut c = RangeSet::new();
        c.insert(5, 6);
        c.insert(22, 23);
        assert_eq!(a.first_overlap(&c), Some(5));
        assert_eq!(c.first_overlap(&a), Some(5));
    }

    #[test]
    fn accessset_first_overlap_is_deterministic_ascending() {
        let mut a = AccessSet::new();
        a.insert(id(7), 0, 4);
        a.insert(id(2), 8, 12);
        let mut b = AccessSet::new();
        b.insert(id(7), 2, 3);
        b.insert(id(2), 10, 11);
        // Both objects overlap; the lowest ObjId (and its lowest shared
        // word) must win regardless of hash-map iteration order.
        assert_eq!(a.first_overlap(&b), Some((id(2), 10)));
        assert_eq!(b.first_overlap(&a), Some((id(2), 10)));
        let empty = AccessSet::new();
        assert_eq!(a.first_overlap(&empty), None);
    }

    #[test]
    fn rangeset_clear_retains_capacity() {
        let mut r = RangeSet::new();
        r.insert(0, 2);
        r.insert(10, 12);
        let cap = r.ranges.capacity();
        assert!(cap >= 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.ranges.capacity(), cap, "clear must not shrink");
        r.insert(5, 7);
        assert_eq!(r.words(), 2);
    }

    #[test]
    fn accessset_clear_recycles_rangesets_and_resets_fingerprint() {
        let mut s = AccessSet::new();
        s.insert(id(1), 0, 4);
        s.insert(id(2), 8, 16);
        assert!(!s.fingerprint().is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.words(), 0);
        assert!(s.fingerprint().is_empty());
        assert_eq!(s.spare.len(), 2, "cleared range sets are kept for reuse");
        s.insert(id(3), 0, 1);
        assert_eq!(s.spare.len(), 1, "a reused range set left the spare list");
        assert_eq!(s.words(), 1);
    }

    #[test]
    fn fingerprint_reject_implies_no_overlap() {
        // Exhaustive-ish sweep of small disjoint pairs: whenever the
        // fingerprints reject, the exact answer must be "no overlap" —
        // and whenever the sets do overlap, the fingerprints must hit.
        for n in 0..64u32 {
            let mut a = AccessSet::new();
            let mut b = AccessSet::new();
            a.insert(id(n), n, n + 3);
            b.insert(id(n + 1), n, n + 3); // different allocation
            if !a.may_overlap(&b) {
                assert!(!a.overlaps(&b));
            }
            let mut c = AccessSet::new();
            c.insert(id(n), n + 1, n + 2); // genuine overlap with `a`
            assert!(a.overlaps(&c));
            assert!(
                a.may_overlap(&c),
                "a real overlap must never be fingerprint-rejected (n={n})"
            );
        }
    }

    #[test]
    fn fingerprint_survives_clone_and_union() {
        let mut a = AccessSet::new();
        a.insert(id(9), 100, golden());
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut u = AccessSet::new();
        u.union_with(&a);
        assert!(u.may_overlap(&a), "union must carry the donor's blocks");
    }

    fn golden() -> u32 {
        // A multi-block range, exercising the per-block fingerprint loop.
        100 + 3 * 64 + 7
    }

    #[test]
    fn empty_fingerprints_never_intersect() {
        let a = AccessSet::new();
        let mut b = AccessSet::new();
        assert!(!a.may_overlap(&b));
        b.insert(id(1), 0, 1);
        assert!(!a.may_overlap(&b), "empty set intersects nothing");
    }

    #[test]
    fn accessset_iter_sorted_is_ascending() {
        let mut a = AccessSet::new();
        for n in [5u32, 1, 9, 3] {
            a.insert_word(id(n), 0);
        }
        let order: Vec<u32> = a.iter_sorted().iter().map(|(i, _)| i.index()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    /// An access set spread over many pages, so every shard count splits it.
    fn spread() -> AccessSet {
        let mut s = AccessSet::new();
        for n in [0u32, 63, 64, 130, 1000, 1025, 2047, 4096] {
            s.insert(id(n), n % 7, n % 7 + 5 + n % 11);
        }
        s.insert(id(130), 200, 270); // multi-block range on an existing id
        s
    }

    #[test]
    fn lane_fingerprints_decompose_the_global_fingerprint() {
        let s = spread();
        for shards in [1usize, 2, 4, 8, 16] {
            let mut fp = Fingerprint::default();
            let mut words = 0;
            for shard in 0..shards {
                fp.union_with(s.shard_fingerprint(shard, shards));
                words += s.shard_words(shard, shards);
            }
            assert_eq!(fp, s.fingerprint(), "{shards} shards: OR of lanes");
            assert_eq!(words, s.words(), "{shards} shards: word slices sum");
        }
        let mut c = s.clone();
        c.clear();
        assert!(c.shard_fingerprint(0, 1).is_empty(), "clear resets lanes");
        assert_eq!(c.shard_words(0, 1), 0);
    }

    #[test]
    fn shard_views_partition_the_set() {
        let s = spread();
        for shards in [1usize, 2, 4, 16] {
            let mut union = AccessSet::new();
            let mut words = 0;
            for shard in 0..shards {
                let view = s.shard_view(shard, shards);
                assert_eq!(view.words(), s.shard_words(shard, shards));
                for (vid, _) in view.iter_sorted() {
                    assert_eq!(shard_of_id(vid, shards), shard);
                }
                words += view.words();
                union.union_with(&view);
            }
            assert_eq!(words, s.words(), "{shards} shards: views are disjoint");
            assert_eq!(
                union.iter_sorted(),
                s.iter_sorted(),
                "{shards} shards: views reassemble the set"
            );
            assert_eq!(union.fingerprint(), s.fingerprint());
        }
    }

    #[test]
    fn block_scan_verdicts_match_exact_overlap() {
        type Ranges = &'static [(u32, u32)];
        let cases: &[(Ranges, Ranges)] = &[
            (&[(0, 10)], &[(10, 20)]),            // touching, disjoint
            (&[(0, 10)], &[(9, 12)]),             // overlap in block 0
            (&[(0, 64)], &[(64, 128)]),           // block-aligned, disjoint
            (&[(0, 200)], &[(120, 130)]),         // long range spans blocks
            (&[(5, 6), (700, 710)], &[(6, 700)]), // interleaved, disjoint
            (&[(5, 6), (700, 710)], &[(6, 701)]), // grazes the second range
            (&[], &[(0, 4)]),                     // empty side
            (&[(63, 65)], &[(64, 66)]),           // straddles a block seam
            (&[(63, 64)], &[(64, 66)]),           // disjoint across the seam
        ];
        for (i, (aw, bw)) in cases.iter().enumerate() {
            let mut a = RangeSet::new();
            let mut b = RangeSet::new();
            for &(l, h) in *aw {
                a.insert(l, h);
            }
            for &(l, h) in *bw {
                b.insert(l, h);
            }
            let (hit, words) = a.block_scan(&b);
            assert_eq!(hit, a.overlaps(&b), "case {i}: verdicts must agree");
            assert_eq!(hit, b.block_scan(&a).0, "case {i}: symmetric verdict");
            assert!(
                words <= a.words().min(b.words()),
                "case {i}: block accounting never exceeds the smaller side"
            );
        }
    }

    #[test]
    fn shard_block_overlaps_reassembles_the_global_verdict() {
        let a = spread();
        let mut b = AccessSet::new();
        b.insert(id(1000), 900, 910); // no shared words with `a`
        b.insert(id(64), 0, 3);
        for shards in [1usize, 4, 16] {
            let mut any = false;
            for shard in 0..shards {
                any |= a.shard_block_overlaps(&b, shard, shards).0;
            }
            assert_eq!(any, a.overlaps(&b), "{shards} shards");
        }
        // Remove the overlap: every shard must report disjoint.
        let mut c = AccessSet::new();
        c.insert(id(1000), 900, 910);
        for shard in 0..16 {
            let (hit, _) = a.shard_block_overlaps(&c, shard, 16);
            assert!(!hit);
        }
    }
}
