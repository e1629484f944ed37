//! # cvr-row — a System-X-style row-store engine
//!
//! The "commercial row-store under a variety of different configurations"
//! side of the study. This crate implements:
//!
//! * a Volcano-style **tuple-at-a-time executor** ([`ops`]) — heap and
//!   index scans, filters, hash joins (with optional Bloom pre-filtering),
//!   grouped aggregation — all moving one heap-allocated tuple per virtual call,
//!   which is precisely the interface cost Section 5.3 charges row-stores
//!   for;
//! * the **five physical designs** of Section 4 ([`designs`]): traditional
//!   (orderdate-partitioned), traditional biased to bitmap plans,
//!   per-flight materialized views, full vertical partitioning, and
//!   index-only plans — each with hand-built plans following the shapes the
//!   paper dissects in Section 6.2.1.
//!
//! The engine is honest about its pathologies on purpose: the point of the
//! reproduction is that *even with column-oriented physical designs*, a row
//! executor pays tuple headers, record-id joins, and per-tuple interface
//! costs that a column engine does not.
//!
//! ```
//! use cvr_data::{gen::SsbConfig, queries};
//! use cvr_row::designs::{RowDb, RowDesign};
//! use cvr_storage::io::IoSession;
//! use std::sync::Arc;
//!
//! let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
//! let db = RowDb::build(tables, RowDesign::Traditional);
//! let io = IoSession::unmetered();
//! let out = db.execute(&queries::query(1, 1), &io);
//! assert_eq!(out.rows.len(), 1); // scalar revenue-gain aggregate
//! ```

#![warn(missing_docs)]

pub mod designs;
pub mod ops;
#[cfg(test)]
mod ops_tests;
pub mod tuple;

pub use designs::{RowDb, RowDesign};
pub use ops::{BoxedOp, RowOp};
pub use tuple::{OpSchema, Tuple};
