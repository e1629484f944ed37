//! # cvr-index — index substrate
//!
//! The access methods both engines build on:
//!
//! * [`btree`] — an unclustered B+Tree with composite [`cvr_data::Value`]
//!   keys; the backbone of the row store's "index-only" (AI) physical design
//!   and the clustered position indexes of the vertical-partitioning design.
//! * [`bitmap`] — rid bitmaps and per-value bitmap indexes, used by the
//!   "traditional (bitmap)" configuration and reused by the column engine as
//!   one of its position-list representations; and the one-bit-per-key
//!   membership vector the join probes use over dense (reassigned) keys.
//! * [`bloom`] — Bloom filters for star-join pre-filtering, a System X
//!   optimizer feature the paper mentions enabling.
//! * [`hashidx`] — open-addressing integer hash set/map with a cheap
//!   multiply-shift hash: the probe structure behind the row engine's hash
//!   joins and the column engine's joins on non-dense keys (DATE).
//!
//! Every structure reports its byte/page footprint and charges page touches
//! to an [`cvr_storage::IoSession`], so index-based plans pay honest I/O in
//! the simulator's cost model.

#![warn(missing_docs)]

pub mod bitmap;
pub mod bloom;
pub mod btree;
pub mod hashidx;

pub use bitmap::{BitmapIndex, KeyBits, RidBitmap};
pub use bloom::BloomFilter;
pub use btree::{ikey, skey, BPlusTree, Key, Rid};
pub use hashidx::{IntHashMap, IntHashSet};
