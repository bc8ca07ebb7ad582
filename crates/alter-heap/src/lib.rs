//! # alter-heap — the ALTER memory substrate
//!
//! This crate implements the memory system underneath the ALTER runtime
//! (Udupa, Rajan, Thies, *ALTER: Exploiting Breakable Dependences for
//! Parallelization*, PLDI 2011):
//!
//! * a committed [`Heap`] of typed allocations ([`ObjData`]) addressed by
//!   stable [`ObjId`]s — the analogue of the paper's committed memory state;
//! * O(1)-cloneable [`Snapshot`]s, the consistent views each lock-step round
//!   starts from;
//! * [`Tx`], a private copy-on-write overlay with instrumented reads and
//!   writes recorded as word-range [`AccessSet`]s — what the paper's
//!   `InstrumentRead` / `InstrumentWrite` compiler pass produces;
//! * [`IdReservation`], a coordination-free deterministic allocator that
//!   guarantees concurrent transactions never receive the same id — the
//!   ALTER-allocator property.
//!
//! The paper achieves isolation with Win32 processes and copy-on-write page
//! mappings; this crate achieves the same semantics in safe Rust with
//! `Arc`-shared objects and per-transaction overlays (see DESIGN.md for the
//! substitution argument).
//!
//! ```
//! use alter_heap::{Heap, ObjData, Tx, TrackMode, IdReservation};
//!
//! let mut heap = Heap::new();
//! let xs = heap.alloc(ObjData::F64(vec![1.0, 2.0, 3.0]));
//!
//! let snap = heap.snapshot();
//! let ids = IdReservation::new(heap.high_water(), 0, 1, 64);
//! let mut tx = Tx::new(&snap, TrackMode::ReadsAndWrites, ids, u64::MAX);
//! let sum: f64 = tx.with_f64s(xs, 0, 3, |s| s.iter().sum());
//! tx.write_f64(xs, 0, sum);
//! let effects = tx.finish();
//! assert!(effects.writes.contains_range(xs, 0, 1));
//! ```

#![warn(missing_docs)]

mod alloc;
pub mod fx;
mod heap;
mod object;
mod pool;
mod sets;
mod tx;

pub use alloc::{IdReservation, DEFAULT_BLOCK_SIZE};
pub use heap::{CommitOps, Heap, Snapshot, SnapshotStats, SNAPSHOT_PAGE_SLOTS};
pub use object::{ObjData, ObjId, ObjKind};
pub use pool::{TxBufferPool, TxBuffers};
pub use sets::{normalize_shards, shard_of_id, AccessSet, Fingerprint, RangeSet, SHARD_LANES};
pub use tx::{MemoryExceeded, TrackMode, Tx, TxEffects, TxStats};
