//! The committed memory state, snapshots of it, and commit application.
//!
//! The paper's runtime keeps one *committed memory state* plus N process-
//! private copy-on-write mappings (§4.1, Figure 4). Here the committed state
//! is a vector of `Arc`'d objects; a [`Snapshot`] is a page-chunked
//! structural copy of that vector (every object shared), and transaction
//! privacy comes from copying an object into a private overlay on first
//! write ([`crate::Tx`]) — software copy-on-write at allocation granularity.
//!
//! Snapshots come in two flavours. [`Heap::snapshot`] builds the page table
//! from scratch (O(slots), one `Arc` clone per slot — the cost this module
//! existed with for its first two releases). [`Heap::snapshot_incremental`]
//! instead patches a persistent page table kept inside the heap, guided by a
//! dirty-slot journal that every mutation path feeds, and is O(slots dirtied
//! since the previous incremental snapshot) — the analogue of the paper's
//! runtime re-establishing only the *invalidated* copy-on-write mappings at
//! a round boundary instead of remapping the whole address space. Both
//! produce bit-identical snapshot views.
//!
//! # Sharding
//!
//! Internally the heap is a fixed power-of-two array of [`HeapShard`]s, each
//! owning its slot storage, dirty-slot journal, page-chunked snapshot cache,
//! and a 128-bit fingerprint accumulating the write blocks committed into
//! it. Object ids route to shards by *snapshot page*: global page
//! `id / SNAPSHOT_PAGE_SLOTS` belongs to shard `page % shards`, so every
//! snapshot page lives wholly inside one shard and the page partition — and
//! therefore every snapshot-economics counter — is independent of the shard
//! count. Validation and commit batches over distinct shards touch disjoint
//! state by construction; [`Heap::apply_commit`] applies them in ascending
//! shard order on the committer, which keeps commit order per shard equal to
//! ticket order and traces byte-identical across shard counts. The default
//! is a single shard, which is bit-for-bit the pre-sharding layout.

use crate::object::{ObjData, ObjId};
use crate::sets::{normalize_shards, Fingerprint};
use std::sync::Arc;

/// Slots per snapshot page. Pages are the unit of structural sharing
/// between consecutive incremental snapshots: a page none of whose slots
/// were dirtied since the last snapshot is reused as-is (one `Arc` bump for
/// the whole page instead of one per slot). Pages are also the unit of
/// shard routing, so a page never straddles two shards.
pub const SNAPSHOT_PAGE_SLOTS: usize = 64;

/// One fixed-size page of a snapshot's slot table. The array is padded
/// with `None` past the heap's current length, which stays correct across
/// heap growth because a slot is `None` until its first allocation — and
/// that allocation lands in the dirty journal.
#[derive(Clone, Debug)]
struct PageData {
    slots: [Option<Arc<ObjData>>; SNAPSHOT_PAGE_SLOTS],
}

impl PageData {
    fn empty() -> Self {
        PageData {
            slots: [const { None }; SNAPSHOT_PAGE_SLOTS],
        }
    }

    /// Builds one page from the slot vector starting at `lo`, tolerating
    /// short (or absent) tails — the padding stays `None`.
    fn from_slots_at(slots: &[Option<Arc<ObjData>>], lo: usize) -> Self {
        let mut page = PageData::empty();
        if lo < slots.len() {
            let hi = (lo + SNAPSHOT_PAGE_SLOTS).min(slots.len());
            for (dst, src) in page.slots.iter_mut().zip(&slots[lo..hi]) {
                *dst = src.clone();
            }
        }
        page
    }
}

type Page = Arc<PageData>;

/// Construction cost of one snapshot, reported by
/// [`Heap::snapshot_incremental`] (the full [`Heap::snapshot`] path costs
/// `slot_count` copies and reuses nothing, by definition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Slot entries `Arc`-cloned into the page table: every slot on a full
    /// (re)build, only journalled slots on the incremental path.
    pub slots_copied: u64,
    /// Pages carried over from the previous snapshot untouched — their
    /// slots were not copied at all.
    pub pages_reused: u64,
}

/// One shard of the committed state: a slice of the slot table (every
/// `shards`-th snapshot page), its versions, its dirty-slot journal, its
/// snapshot-page cache, and a fingerprint folding in every write block
/// committed into the shard. All indices are shard-local; only [`Heap`]
/// knows the global routing.
#[derive(Debug, Default)]
struct HeapShard {
    slots: Vec<Option<Arc<ObjData>>>,
    /// Commit version at which each local slot was last written.
    versions: Vec<u64>,
    live: usize,
    live_words: u64,
    /// Persistent page table shared with the last incremental snapshot,
    /// indexed by shard-local page.
    snap_pages: Vec<Page>,
    /// Local slots mutated since the last incremental snapshot,
    /// deduplicated via `journaled`.
    journal: Vec<u32>,
    journaled: Vec<bool>,
    /// Bloom-style accumulator over the `(object, word-block)` pairs of
    /// every write committed into this shard (diagnostics and the sharding
    /// invariant tests; never consulted on the validation path).
    write_fp: Fingerprint,
}

impl HeapShard {
    /// Records that local slot `idx` diverged from the last incremental
    /// snapshot.
    #[inline]
    fn mark_dirty(&mut self, idx: usize) {
        if idx >= self.journaled.len() {
            self.journaled.resize(idx + 1, false);
        }
        if !self.journaled[idx] {
            self.journaled[idx] = true;
            self.journal.push(idx as u32);
        }
    }

    /// Grows the local slot table to cover local index `idx`.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
            self.versions.resize(idx + 1, 0);
        }
    }
}

/// The committed memory state.
///
/// Sequential (non-transactional) code — program setup, the sequential parts
/// between parallel loops, validation — accesses the heap directly through
/// [`Heap::get`] / [`Heap::get_mut`]. Parallel loops access it only through
/// snapshots and transactions, and mutate it only through
/// [`Heap::apply_commit`] in deterministic commit order.
///
/// Storage is partitioned into a power-of-two number of [`HeapShard`]s (one
/// by default — see the module docs); the partition is an internal layout
/// choice and never observable through snapshots, digests, or commits.
#[derive(Debug)]
pub struct Heap {
    shards: Vec<HeapShard>,
    /// `log2(shards.len())`, cached for routing.
    shard_bits: u32,
    /// Global high water: number of slot ids ever issued (live or dead).
    len: usize,
    /// Global commit counter; bumped once per committed transaction.
    version: u64,
    /// Slots freed by sequential code, reusable by sequential allocation
    /// (global ids — the free list is not sharded).
    free: Vec<u32>,
    /// Whether the shards' `snap_pages` reflect some past snapshot (false
    /// until the first incremental snapshot, which does a full build).
    snap_valid: bool,
}

impl Default for Heap {
    fn default() -> Self {
        Heap {
            shards: vec![HeapShard::default()],
            shard_bits: 0,
            len: 0,
            version: 0,
            free: Vec::new(),
            snap_valid: false,
        }
    }
}

impl Heap {
    /// Creates an empty heap (single shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap partitioned into
    /// [`normalize_shards`]`(shards)` shards.
    pub fn with_shards(shards: usize) -> Self {
        let mut h = Self::default();
        h.set_shards(shards);
        h
    }

    /// Number of shards the slot table is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` routes to: global snapshot page, interleaved. Every
    /// id of one snapshot page lands in the same shard, so the page
    /// partition (and with it every snapshot-economics counter) is
    /// independent of the shard count.
    #[inline]
    pub fn shard_of(&self, id: ObjId) -> usize {
        (id.0 as usize / SNAPSHOT_PAGE_SLOTS) & (self.shards.len() - 1)
    }

    /// Routes a global slot index to `(shard, local slot index)`.
    #[inline]
    fn locate(&self, idx: usize) -> (usize, usize) {
        let page = idx / SNAPSHOT_PAGE_SLOTS;
        let shard = page & (self.shards.len() - 1);
        let local = ((page >> self.shard_bits) * SNAPSHOT_PAGE_SLOTS) + (idx % SNAPSHOT_PAGE_SLOTS);
        (shard, local)
    }

    /// Re-partitions the slot table into [`normalize_shards`]`(shards)`
    /// shards. A no-op when the count is unchanged; otherwise slots are
    /// redistributed deterministically in ascending id order, the per-shard
    /// write fingerprints reset, and the snapshot cache is dropped so the next
    /// incremental snapshot does a full build — exactly the cost a fresh
    /// heap's first snapshot pays, so snapshot accounting stays comparable
    /// across shard counts. The committed state, versions and free list
    /// are untouched; digests and snapshots are identical before and after.
    pub fn set_shards(&mut self, shards: usize) {
        let n = normalize_shards(shards);
        if n == self.shards.len() {
            return;
        }
        let old_bits = self.shard_bits;
        let old_mask = self.shards.len() - 1;
        let old = std::mem::take(&mut self.shards);
        let new_bits = n.trailing_zeros();
        let mut shards_new: Vec<HeapShard> = (0..n).map(|_| HeapShard::default()).collect();
        for idx in 0..self.len {
            let page = idx / SNAPSHOT_PAGE_SLOTS;
            let off = idx % SNAPSHOT_PAGE_SLOTS;
            let (os, ol) = (
                page & old_mask,
                ((page >> old_bits) * SNAPSHOT_PAGE_SLOTS) + off,
            );
            let slot = old[os].slots.get(ol).cloned().flatten();
            let ver = old[os].versions.get(ol).copied().unwrap_or(0);
            if slot.is_none() && ver == 0 {
                continue;
            }
            let (ns, nl) = (
                page & (n - 1),
                ((page >> new_bits) * SNAPSHOT_PAGE_SLOTS) + off,
            );
            let dst = &mut shards_new[ns];
            dst.ensure(nl);
            if let Some(obj) = slot {
                dst.live += 1;
                dst.live_words += obj.len() as u64;
                dst.slots[nl] = Some(obj);
            }
            dst.versions[nl] = ver;
        }
        self.shards = shards_new;
        self.shard_bits = new_bits;
        self.snap_valid = false;
    }

    /// The Bloom-style accumulator over every `(object, word-block)` pair
    /// committed into shard `shard` via [`Heap::apply_commit`]. Reset by
    /// [`Heap::set_shards`]. Purely diagnostic: validation probes the
    /// round's access-set fingerprints, never this one.
    pub fn shard_write_fingerprint(&self, shard: usize) -> Fingerprint {
        self.shards[shard].write_fp
    }

    /// Allocates an object from sequential code and returns its id.
    ///
    /// Reuses previously freed slots (single-threaded, so reuse is
    /// deterministic). Transactional allocation goes through
    /// [`crate::Tx::alloc`] instead, which draws from per-worker disjoint id
    /// reservations so concurrent transactions can never be handed the same
    /// id (the ALTER-allocator guarantee, §4.1).
    pub fn alloc(&mut self, data: ObjData) -> ObjId {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                let idx = self.len;
                u32::try_from(idx).expect("heap exhausted");
                self.len += 1;
                idx
            }
        };
        let version = self.version;
        let (s, l) = self.locate(idx);
        let shard = &mut self.shards[s];
        shard.ensure(l);
        shard.live_words += data.len() as u64;
        shard.slots[l] = Some(Arc::new(data));
        shard.versions[l] = version;
        shard.live += 1;
        shard.mark_dirty(l);
        ObjId(idx as u32)
    }

    /// Frees an object from sequential code.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double free or never allocated).
    pub fn free(&mut self, id: ObjId) {
        let (s, l) = self.locate(id.0 as usize);
        let shard = &mut self.shards[s];
        let slot = shard
            .slots
            .get_mut(l)
            .unwrap_or_else(|| panic!("free of unknown {id}"));
        let freed = slot.take().unwrap_or_else(|| panic!("double free of {id}"));
        shard.live_words -= freed.len() as u64;
        shard.live -= 1;
        shard.mark_dirty(l);
        self.free.push(id.0);
    }

    /// Borrows the committed payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    #[inline]
    pub fn get(&self, id: ObjId) -> &ObjData {
        let (s, l) = self.locate(id.0 as usize);
        self.shards[s]
            .slots
            .get(l)
            .and_then(|slot| slot.as_deref())
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"))
    }

    /// Whether `id` names a live allocation.
    pub fn is_live(&self, id: ObjId) -> bool {
        let (s, l) = self.locate(id.0 as usize);
        self.shards[s]
            .slots
            .get(l)
            .is_some_and(|slot| slot.is_some())
    }

    /// Mutably borrows the committed payload of `id` from sequential code,
    /// cloning it first if a snapshot still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get_mut(&mut self, id: ObjId) -> &mut ObjData {
        let version = self.version;
        let (s, l) = self.locate(id.0 as usize);
        let shard = &mut self.shards[s];
        if l < shard.versions.len() {
            shard.versions[l] = version;
        }
        shard.mark_dirty(l);
        let slot = shard
            .slots
            .get_mut(l)
            .and_then(|slot| slot.as_mut())
            .unwrap_or_else(|| panic!("access to dead or unknown {id}"));
        Arc::make_mut(slot)
    }

    /// Number of global snapshot pages covering the slot table.
    fn page_count(&self) -> usize {
        self.len.div_ceil(SNAPSHOT_PAGE_SLOTS)
    }

    /// Number of shard-local pages shard `s` owns out of `npages` global
    /// pages (the pages `s, s + shards, s + 2·shards, …`).
    fn local_pages(&self, s: usize, npages: usize) -> usize {
        npages.saturating_sub(s).div_ceil(self.shards.len())
    }

    /// Takes a consistent snapshot of the committed state, building the
    /// page table from scratch.
    ///
    /// Cost is one `Arc` clone per slot — the analogue of re-establishing
    /// all N copy-on-write mappings at the start of a lock-step round. The
    /// engine's rounds use [`Heap::snapshot_incremental`] instead; this
    /// entry point serves one-shot snapshots (dependence detection) and is
    /// the reference the incremental path is tested against.
    pub fn snapshot(&self) -> Snapshot {
        let npages = self.page_count();
        Snapshot {
            pages: (0..npages)
                .map(|page| {
                    let shard = &self.shards[page & (self.shards.len() - 1)];
                    let lo = (page >> self.shard_bits) * SNAPSHOT_PAGE_SLOTS;
                    Arc::new(PageData::from_slots_at(&shard.slots, lo))
                })
                .collect(),
            len: self.len,
            version: self.version,
        }
    }

    /// Takes a snapshot bit-identical to [`Heap::snapshot`]'s by patching
    /// each shard's persistent page table, in O(slots dirtied since the
    /// previous incremental snapshot).
    ///
    /// The first call (and any call after [`Heap::reset_snapshot_cache`] or
    /// [`Heap::set_shards`]) falls back to a full build. Clean pages are
    /// shared structurally with the previous snapshot — one `Arc` bump per
    /// page; dirty pages are patched slot-by-slot, copy-on-write if the
    /// previous snapshot is still alive, in place once it has been dropped
    /// (the engine's steady state, since a round's snapshot dies at the
    /// round barrier). Because shard routing is page-aligned, the dirty-page
    /// partition — and both [`SnapshotStats`] counters — is identical
    /// whatever the shard count.
    pub fn snapshot_incremental(&mut self) -> (Snapshot, SnapshotStats) {
        let mut stats = SnapshotStats::default();
        let npages = self.page_count();
        let nshards = self.shards.len();
        if self.snap_valid {
            for s in 0..nshards {
                let local_npages = self.local_pages(s, npages);
                let shard = &mut self.shards[s];
                debug_assert!(shard.snap_pages.len() <= local_npages, "slots never shrink");
                while shard.snap_pages.len() < local_npages {
                    shard.snap_pages.push(Arc::new(PageData::empty()));
                }
                let mut page_dirty = vec![false; local_npages];
                for i in 0..shard.journal.len() {
                    let idx = shard.journal[i] as usize;
                    let page_idx = idx / SNAPSHOT_PAGE_SLOTS;
                    page_dirty[page_idx] = true;
                    let page = Arc::make_mut(&mut shard.snap_pages[page_idx]);
                    page.slots[idx % SNAPSHOT_PAGE_SLOTS] = shard.slots.get(idx).cloned().flatten();
                    shard.journaled[idx] = false;
                }
                stats.slots_copied += shard.journal.len() as u64;
                stats.pages_reused += page_dirty.iter().filter(|d| !**d).count() as u64;
                shard.journal.clear();
            }
        } else {
            for s in 0..nshards {
                let local_npages = self.local_pages(s, npages);
                let shard = &mut self.shards[s];
                shard.snap_pages.clear();
                shard.snap_pages.extend((0..local_npages).map(|p| {
                    Arc::new(PageData::from_slots_at(
                        &shard.slots,
                        p * SNAPSHOT_PAGE_SLOTS,
                    ))
                }));
                for i in 0..shard.journal.len() {
                    let idx = shard.journal[i] as usize;
                    shard.journaled[idx] = false;
                }
                shard.journal.clear();
            }
            stats.slots_copied = self.len as u64;
            self.snap_valid = true;
        }
        let snap = Snapshot {
            pages: (0..npages)
                .map(|page| {
                    self.shards[page & (nshards - 1)].snap_pages[page >> self.shard_bits].clone()
                })
                .collect(),
            len: self.len,
            version: self.version,
        };
        (snap, stats)
    }

    /// Drops the persistent page tables; the next
    /// [`Heap::snapshot_incremental`] does a full build. Only useful to
    /// release memory between unrelated parallel phases.
    pub fn reset_snapshot_cache(&mut self) {
        for shard in &mut self.shards {
            shard.snap_pages.clear();
            shard.snap_pages.shrink_to_fit();
        }
        self.snap_valid = false;
    }

    /// Current global commit version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Commit version at which `id` was last written.
    pub fn slot_version(&self, id: ObjId) -> u64 {
        let (s, l) = self.locate(id.0 as usize);
        self.shards[s].versions.get(l).copied().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.shards.iter().map(|s| s.live).sum()
    }

    /// Total words across live allocations (used by the simulator's
    /// bandwidth model and by memory-budget accounting). O(shards):
    /// payloads are fixed-length, so the per-shard counters move only on
    /// alloc and free.
    pub fn live_words(&self) -> u64 {
        let total: u64 = self.shards.iter().map(|s| s.live_words).sum();
        debug_assert_eq!(
            total,
            self.shards
                .iter()
                .flat_map(|s| s.slots.iter().flatten())
                .map(|o| o.len() as u64)
                .sum::<u64>(),
            "live-words counters diverged from the sweep"
        );
        total
    }

    /// First id that has never been allocated; parallel id reservations
    /// start here (see [`crate::IdReservation`]).
    pub fn high_water(&self) -> u32 {
        u32::try_from(self.len).expect("heap exhausted")
    }

    /// Applies a validated transaction's effects, in deterministic commit
    /// order, and bumps the commit version. Returns the number of distinct
    /// shards the commit touched — the per-shard batches a partitioned
    /// committer retires (batches over distinct shards are disjoint by
    /// construction; they are applied here in ascending op order, which
    /// visits shards deterministically).
    ///
    /// Only the word ranges in the transaction's write set are merged back
    /// ([`ObjData::copy_range_from`]): snapshot isolation lets two
    /// transactions commit writes to disjoint ranges of one allocation, so a
    /// whole-object overwrite would lose the earlier commit.
    ///
    /// # Panics
    ///
    /// Panics if an op refers to a dead object (the engine validates before
    /// committing, so this indicates a runtime bug) or an alloc id collides
    /// with a live slot (an allocator invariant violation).
    pub fn apply_commit(&mut self, ops: CommitOps) -> u32 {
        self.version += 1;
        let version = self.version;
        let mut touched: u32 = 0;
        for (id, lo, hi, src) in ops.writes {
            let (s, l) = self.locate(id.0 as usize);
            touched |= 1 << s;
            let shard = &mut self.shards[s];
            shard.versions[l] = version;
            shard.mark_dirty(l);
            shard.write_fp.insert_range(id, lo, hi);
            let slot = shard.slots[l]
                .as_mut()
                .unwrap_or_else(|| panic!("commit write to dead {id}"));
            if lo == 0 && hi as usize == src.len() && src.len() == slot.len() {
                // Whole-object write: swap the Arc, no copy.
                *slot = src;
            } else {
                Arc::make_mut(slot).copy_range_from(&src, lo as usize, hi as usize);
            }
        }
        for (id, data) in ops.allocs {
            let idx = id.0 as usize;
            if idx >= self.len {
                self.len = idx + 1;
            }
            let (s, l) = self.locate(idx);
            touched |= 1 << s;
            let shard = &mut self.shards[s];
            shard.ensure(l);
            assert!(
                shard.slots[l].is_none(),
                "allocator invariant violated: {id} already live at commit"
            );
            shard.live_words += data.len() as u64;
            shard.write_fp.insert_range(id, 0, data.len().max(1) as u32);
            shard.slots[l] = Some(data);
            shard.versions[l] = version;
            shard.live += 1;
            shard.mark_dirty(l);
        }
        for id in ops.frees {
            let (s, l) = self.locate(id.0 as usize);
            touched |= 1 << s;
            let shard = &mut self.shards[s];
            let slot = shard.slots[l]
                .take()
                .unwrap_or_else(|| panic!("commit free of dead {id}"));
            shard.live_words -= slot.len() as u64;
            drop(slot);
            shard.live -= 1;
            shard.mark_dirty(l);
            // Freed parallel slots are not recycled: the paper's allocator
            // also leaves holes rather than risk cross-process reuse races.
        }
        touched.count_ones()
    }

    /// Returns a deterministic digest of the committed state, for
    /// output-comparison in tests and the inference engine. Iterates in
    /// ascending global id order, so the digest is independent of the
    /// shard layout.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (slot index, kind tag, raw words) of live slots.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for i in 0..self.len {
            let (s, l) = self.locate(i);
            let Some(obj) = self.shards[s].slots.get(l).and_then(|slot| slot.as_ref()) else {
                continue;
            };
            mix(i as u64);
            match obj.as_ref() {
                ObjData::F64(v) => {
                    mix(1);
                    for x in v {
                        mix(x.to_bits());
                    }
                }
                ObjData::I64(v) => {
                    mix(2);
                    for x in v {
                        mix(*x as u64);
                    }
                }
            }
        }
        h
    }
}

/// A consistent, immutable view of the committed state at some version.
///
/// Cloning a snapshot is O(1); all transactions of one lock-step round share
/// one snapshot. The slot table is chunked into fixed-size pages
/// ([`SNAPSHOT_PAGE_SLOTS`]) so consecutive incremental snapshots can share
/// clean pages structurally; page padding past [`Snapshot::slot_count`] is
/// always `None`, so lookups need no length check. The page table is always
/// assembled in global page order, so a snapshot's view is identical
/// whatever the heap's shard count.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pages: Arc<[Page]>,
    len: usize,
    version: u64,
}

impl Snapshot {
    /// Borrows the payload of `id` as of this snapshot, or `None` if the
    /// object was dead (or not yet allocated) at snapshot time.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&ObjData> {
        let idx = id.0 as usize;
        self.pages
            .get(idx / SNAPSHOT_PAGE_SLOTS)
            .and_then(|p| p.slots[idx % SNAPSHOT_PAGE_SLOTS].as_deref())
    }

    /// Shares the payload `Arc` of `id`, for zero-copy reads.
    pub fn get_arc(&self, id: ObjId) -> Option<Arc<ObjData>> {
        let idx = id.0 as usize;
        self.pages
            .get(idx / SNAPSHOT_PAGE_SLOTS)
            .and_then(|p| p.slots[idx % SNAPSHOT_PAGE_SLOTS].clone())
    }

    /// The commit version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of slots (live or dead) visible to the snapshot.
    pub fn slot_count(&self) -> usize {
        self.len
    }
}

/// The effects of one validated transaction, applied by
/// [`Heap::apply_commit`].
#[derive(Debug, Default)]
pub struct CommitOps {
    /// `(object, lo, hi, source)` — merge words `lo..hi` of `source` into
    /// the committed object.
    pub writes: Vec<(ObjId, u32, u32, Arc<ObjData>)>,
    /// Objects allocated by the transaction, installed at their reserved ids.
    pub allocs: Vec<(ObjId, Arc<ObjData>)>,
    /// Objects freed by the transaction.
    pub frees: Vec<ObjId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_mutate_free() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_f64(1.0));
        let b = h.alloc(ObjData::zeros_i64(3));
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.get(a).f64s()[0], 1.0);
        h.get_mut(b).i64s_mut()[2] = 7;
        assert_eq!(h.get(b).i64s(), &[0, 0, 7]);
        h.free(a);
        assert_eq!(h.live_objects(), 1);
        assert!(!h.is_live(a));
        // Sequential alloc reuses the freed slot deterministically.
        let c = h.alloc(ObjData::scalar_i64(9));
        assert_eq!(c.index(), a.index());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(0));
        h.free(a);
        // Slot is now empty; freeing again must panic.
        let dead = ObjId::from_index(a.index());
        h.free(dead);
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_f64(1.0));
        let snap = h.snapshot();
        h.get_mut(a).f64s_mut()[0] = 2.0;
        assert_eq!(snap.get(a).unwrap().f64s()[0], 1.0);
        assert_eq!(h.get(a).f64s()[0], 2.0);
    }

    #[test]
    fn snapshot_does_not_see_later_allocations() {
        let mut h = Heap::new();
        let snap = h.snapshot();
        let a = h.alloc(ObjData::scalar_i64(1));
        assert!(snap.get(a).is_none());
        assert_eq!(snap.slot_count(), 0);
    }

    #[test]
    fn apply_commit_merges_ranges_not_whole_objects() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::F64(vec![0.0; 4]));
        // Two "transactions" writing disjoint ranges, both based on the
        // original snapshot contents.
        let tx1 = Arc::new(ObjData::F64(vec![1.0, 1.0, 0.0, 0.0]));
        let tx2 = Arc::new(ObjData::F64(vec![0.0, 0.0, 2.0, 2.0]));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 2, tx1)],
            ..Default::default()
        });
        h.apply_commit(CommitOps {
            writes: vec![(a, 2, 4, tx2)],
            ..Default::default()
        });
        assert_eq!(h.get(a).f64s(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(h.version(), 2);
        assert_eq!(h.slot_version(a), 2);
    }

    #[test]
    fn apply_commit_installs_allocs_at_reserved_ids() {
        let mut h = Heap::new();
        let _ = h.alloc(ObjData::scalar_i64(0));
        let far = ObjId::from_index(10);
        h.apply_commit(CommitOps {
            allocs: vec![(far, Arc::new(ObjData::scalar_i64(42)))],
            ..Default::default()
        });
        assert_eq!(h.get(far).i64s(), &[42]);
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.high_water(), 11);
    }

    #[test]
    fn apply_commit_frees() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        h.apply_commit(CommitOps {
            frees: vec![a],
            ..Default::default()
        });
        assert!(!h.is_live(a));
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn digest_changes_with_content_and_identity() {
        let mut h1 = Heap::new();
        let a = h1.alloc(ObjData::scalar_f64(1.0));
        let d1 = h1.digest();
        h1.get_mut(a).f64s_mut()[0] = 2.0;
        let d2 = h1.digest();
        assert_ne!(d1, d2);

        let mut h2 = Heap::new();
        h2.alloc(ObjData::scalar_f64(2.0));
        assert_eq!(h2.digest(), d2);
    }

    #[test]
    fn snapshot_get_arc_shares_until_write() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_f64(4));
        let snap = h.snapshot();
        let arc = snap.get_arc(a).unwrap();
        // Snapshot and heap share the payload until a write forces a copy.
        assert!(std::sync::Arc::ptr_eq(&arc, &snap.get_arc(a).unwrap()));
        h.get_mut(a).f64s_mut()[0] = 5.0;
        assert_eq!(arc.f64s()[0], 0.0, "snapshot view unaffected");
        assert_eq!(h.get(a).f64s()[0], 5.0);
        assert!(snap.get_arc(ObjId::from_index(99)).is_none());
    }

    #[test]
    fn live_words_counts_all_payloads() {
        let mut h = Heap::new();
        h.alloc(ObjData::zeros_f64(10));
        let b = h.alloc(ObjData::zeros_i64(5));
        assert_eq!(h.live_words(), 15);
        h.free(b);
        assert_eq!(h.live_words(), 10);
    }

    #[test]
    fn live_words_tracks_commit_allocs_and_frees() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::zeros_f64(4));
        h.apply_commit(CommitOps {
            writes: vec![(a, 0, 4, Arc::new(ObjData::zeros_f64(4)))],
            allocs: vec![(ObjId::from_index(7), Arc::new(ObjData::zeros_i64(3)))],
            ..Default::default()
        });
        assert_eq!(h.live_words(), 7);
        h.apply_commit(CommitOps {
            frees: vec![a],
            ..Default::default()
        });
        assert_eq!(h.live_words(), 3);
    }

    /// Asserts `snap` is exactly the view [`Heap::snapshot`] would produce.
    fn assert_snap_matches(snap: &Snapshot, h: &Heap) {
        assert_eq!(snap.slot_count(), h.high_water() as usize);
        assert_eq!(snap.version(), h.version());
        for i in 0..h.high_water() + SNAPSHOT_PAGE_SLOTS as u32 {
            let id = ObjId::from_index(i);
            let expect = if h.is_live(id) { Some(h.get(id)) } else { None };
            assert_eq!(snap.get(id), expect, "slot {i}");
        }
    }

    #[test]
    fn incremental_snapshot_matches_full_snapshot() {
        for shards in [1usize, 4, 16] {
            let mut h = Heap::with_shards(shards);
            let mut ids = Vec::new();
            // Span several pages (the mutations below leave page 3 untouched).
            for i in 0..SNAPSHOT_PAGE_SLOTS * 4 {
                ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
            }
            let (s0, st0) = h.snapshot_incremental();
            assert_eq!(
                st0.slots_copied,
                h.high_water() as u64,
                "first use: full build"
            );
            assert_snap_matches(&s0, &h);
            drop(s0);

            // Dirty a handful of slots through every mutation path.
            h.get_mut(ids[3]).i64s_mut()[0] = -3;
            h.free(ids[70]);
            let reused = h.alloc(ObjData::scalar_f64(0.5)); // reuses slot 70
            assert_eq!(reused.index(), 70);
            h.apply_commit(CommitOps {
                writes: vec![(ids[130], 0, 1, Arc::new(ObjData::scalar_i64(-130)))],
                allocs: vec![(
                    ObjId::from_index(h.high_water()),
                    Arc::new(ObjData::zeros_f64(2)),
                )],
                frees: vec![ids[131]],
            });

            let (s1, st1) = h.snapshot_incremental();
            assert_snap_matches(&s1, &h);
            assert_eq!(
                st1.slots_copied, 5,
                "3, 70, 130, 131 and the new slot ({shards} shard(s))"
            );
            assert!(st1.pages_reused >= 1, "untouched pages must be reused");

            // A clean snapshot copies nothing and reuses every page.
            let (s2, st2) = h.snapshot_incremental();
            assert_snap_matches(&s2, &h);
            assert_eq!(st2.slots_copied, 0);
            assert_eq!(st2.pages_reused, s2.pages.len() as u64);
        }
    }

    #[test]
    fn incremental_snapshot_is_isolated_while_previous_lives() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        let (s1, _) = h.snapshot_incremental();
        h.get_mut(a).i64s_mut()[0] = 2;
        // s1 is still alive: the dirty page must be patched copy-on-write.
        let (s2, _) = h.snapshot_incremental();
        assert_eq!(s1.get(a).unwrap().i64s()[0], 1);
        assert_eq!(s2.get(a).unwrap().i64s()[0], 2);
    }

    #[test]
    fn incremental_snapshot_grows_across_page_boundaries() {
        let mut h = Heap::new();
        let (s0, _) = h.snapshot_incremental();
        assert_eq!(s0.slot_count(), 0);
        let mut ids = Vec::new();
        for i in 0..SNAPSHOT_PAGE_SLOTS + 3 {
            ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
        }
        let (s1, st1) = h.snapshot_incremental();
        assert_snap_matches(&s1, &h);
        assert_eq!(st1.slots_copied, (SNAPSHOT_PAGE_SLOTS + 3) as u64);
        assert!(s1.get(ids[SNAPSHOT_PAGE_SLOTS]).is_some());
        // Growth did not leak into the earlier snapshot's view.
        assert_eq!(s0.slot_count(), 0);
    }

    #[test]
    fn reset_snapshot_cache_forces_full_rebuild() {
        let mut h = Heap::new();
        let a = h.alloc(ObjData::scalar_i64(1));
        let _ = h.snapshot_incremental();
        h.reset_snapshot_cache();
        let (s, st) = h.snapshot_incremental();
        assert_eq!(st.slots_copied, 1);
        assert_eq!(s.get(a).unwrap().i64s()[0], 1);
    }

    /// Builds a heap with objects spread over several pages, through every
    /// mutation path, for the sharding invariance tests below.
    fn populated(shards: usize) -> Heap {
        let mut h = Heap::with_shards(shards);
        let mut ids = Vec::new();
        for i in 0..SNAPSHOT_PAGE_SLOTS * 3 + 17 {
            ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
        }
        h.free(ids[5]);
        h.free(ids[SNAPSHOT_PAGE_SLOTS + 1]);
        h.get_mut(ids[64]).i64s_mut()[0] = -64;
        h.apply_commit(CommitOps {
            writes: vec![(ids[130], 0, 1, Arc::new(ObjData::scalar_i64(-130)))],
            allocs: vec![(
                ObjId::from_index(h.high_water() + 9),
                Arc::new(ObjData::zeros_f64(4)),
            )],
            frees: vec![ids[131]],
        });
        h
    }

    #[test]
    fn shard_count_is_invisible_to_digest_and_snapshots() {
        let base = populated(1);
        for shards in [2usize, 4, 16] {
            let h = populated(shards);
            assert_eq!(h.shard_count(), shards);
            assert_eq!(h.digest(), base.digest(), "{shards} shards");
            assert_eq!(h.live_objects(), base.live_objects());
            assert_eq!(h.live_words(), base.live_words());
            assert_eq!(h.high_water(), base.high_water());
            assert_snap_matches(&h.snapshot(), &base);
        }
    }

    #[test]
    fn set_shards_redistributes_in_place() {
        let mut h = populated(1);
        let digest = h.digest();
        let live = (h.live_objects(), h.live_words());
        let _ = h.snapshot_incremental();
        h.set_shards(8);
        assert_eq!(h.shard_count(), 8);
        assert_eq!(h.digest(), digest);
        assert_eq!((h.live_objects(), h.live_words()), live);
        // Re-sharding drops the snapshot cache: the next incremental
        // snapshot is a full build, exactly like a fresh heap's first.
        let (snap, stats) = h.snapshot_incremental();
        assert_eq!(stats.slots_copied, h.high_water() as u64);
        assert_snap_matches(&snap, &h);
        // Versions survived the redistribution.
        h.set_shards(1);
        assert_eq!(h.shard_count(), 1);
        assert_eq!(h.digest(), digest);
        // Same count is a no-op (the cache survives).
        let (_, warm) = h.snapshot_incremental();
        h.set_shards(1);
        let (_, again) = h.snapshot_incremental();
        assert_eq!(
            warm.slots_copied,
            h.high_water() as u64,
            "rebuild after reshard"
        );
        assert_eq!(again.slots_copied, 0, "no-op set_shards keeps the cache");
    }

    #[test]
    fn snapshot_stats_are_shard_count_invariant() {
        let mut runs = Vec::new();
        for shards in [1usize, 4, 16] {
            let mut h = Heap::with_shards(shards);
            let mut ids = Vec::new();
            for i in 0..SNAPSHOT_PAGE_SLOTS * 4 {
                ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
            }
            let (_, st0) = h.snapshot_incremental();
            h.get_mut(ids[3]).i64s_mut()[0] = -3;
            h.get_mut(ids[100]).i64s_mut()[0] = -100;
            h.get_mut(ids[101]).i64s_mut()[0] = -101;
            let (_, st1) = h.snapshot_incremental();
            runs.push((st0, st1));
        }
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "page-aligned routing keeps snapshot economics identical: {runs:?}"
        );
    }

    #[test]
    fn apply_commit_counts_touched_shards() {
        let mut h = Heap::with_shards(4);
        let mut ids = Vec::new();
        for i in 0..SNAPSHOT_PAGE_SLOTS * 4 {
            ids.push(h.alloc(ObjData::scalar_i64(i as i64)));
        }
        // Pages 0..4 route to shards 0..4: one write each is 4 batches.
        let w = |i: usize| {
            (
                ids[i * SNAPSHOT_PAGE_SLOTS],
                0u32,
                1u32,
                Arc::new(ObjData::scalar_i64(-1)),
            )
        };
        let batches = h.apply_commit(CommitOps {
            writes: vec![w(0), w(1), w(2), w(3)],
            ..Default::default()
        });
        assert_eq!(batches, 4);
        // Two writes into one page are one batch.
        let batches = h.apply_commit(CommitOps {
            writes: vec![w(0), w(0)],
            ..Default::default()
        });
        assert_eq!(batches, 1);
        // An empty commit touches nothing (but still bumps the version).
        assert_eq!(h.apply_commit(CommitOps::default()), 0);
    }

    #[test]
    fn shard_write_fingerprints_accumulate_committed_blocks() {
        let mut h = Heap::with_shards(4);
        let mut ids = Vec::new();
        for _ in 0..SNAPSHOT_PAGE_SLOTS * 2 {
            ids.push(h.alloc(ObjData::zeros_i64(4)));
        }
        assert!(h.shard_write_fingerprint(0).is_empty());
        let target = ids[0]; // page 0 → shard 0
        h.apply_commit(CommitOps {
            writes: vec![(target, 0, 2, Arc::new(ObjData::zeros_i64(4)))],
            ..Default::default()
        });
        assert!(!h.shard_write_fingerprint(0).is_empty());
        assert_eq!(h.shard_of(target), 0);
        let other = ids[SNAPSHOT_PAGE_SLOTS]; // page 1 → shard 1
        assert_eq!(h.shard_of(other), 1);
        assert!(
            h.shard_write_fingerprint(1).is_empty(),
            "only the written shard accumulates"
        );
        // The accumulated fingerprint must cover the committed block.
        let mut probe = Fingerprint::new();
        probe.insert_range(target, 0, 2);
        assert!(h.shard_write_fingerprint(0).may_intersect(probe));
    }
}
