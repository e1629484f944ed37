//! # cvr-storage — storage substrate for both engines
//!
//! The paper's experiments hinge on *where bytes live and how many of them a
//! query must move*. This crate provides both storage layouts plus the
//! metered simulated disk they are charged against:
//!
//! * [`io`] — 32 KB pages, [`io::BufferPool`] (CLOCK), per-query
//!   [`io::IoSession`] accounting, and the [`io::DiskModel`] that converts
//!   page traffic into modeled I/O time (the substitution for the paper's
//!   4-disk array; see DESIGN.md §4).
//! * [`rowcodec`] / [`heap`] — the row-store side: N-ary tuples with 8-byte
//!   headers in slotted heap pages, optionally horizontally partitioned
//!   (System X's `orderdate` partitioning).
//! * [`encode`] / [`column`](mod@column) — the column-store side: per-column files with
//!   plain / RLE / frame-of-reference-packed / dictionary encodings that
//!   support *direct operation on compressed data*, plus positional-gather
//!   charging for late materialization.
//! * [`packed`] — lane-aligned bit-packed integer arrays ([`packed::PackedInts`]),
//!   the real word image behind the packed encodings and the input format of
//!   `cvr-core`'s word-parallel scan kernels.
//! * [`fault`] — deterministic fault injection: injected page-read
//!   failures, morsel panics/stalls, frame truncation, and durability
//!   faults (torn writes, bit flips, fsync failures, crash points) for the
//!   chaos and crash harnesses. Armed per handle ([`fault::FaultState`],
//!   adopted thread-locally for a statement) or process-globally
//!   (`CVR_FAULT`). Off by default, one atomic load.
//! * [`par`] — the bounded job fan-out both engines build their stores with.
//! * [`persist`] — durable snapshots: per-segment files with CRC64
//!   checksums, committed by an atomic manifest rename; recovery walks
//!   generations newest-first and falls back past damaged ones.
//!
//! The crate is engine-agnostic: `cvr-row` and `cvr-core` build their
//! physical designs out of these parts.

#![warn(missing_docs)]

pub mod column;
pub mod encode;
pub mod fault;
pub mod heap;
pub mod io;
pub mod packed;
pub mod par;
pub mod persist;
pub mod rowcodec;

pub use column::{ColumnStore, EncodingChoice, StoredColumn};
pub use encode::{Column, IntColumn, Run, StrColumn};
pub use heap::{HeapFile, PartitionedHeap};
pub use io::{BufferPool, DiskModel, FileId, IoSession, IoStats, PageId, PAGE_SIZE};
pub use packed::PackedInts;
pub use persist::{LoadReport, PersistError, SegmentPayload, SnapshotReport};
