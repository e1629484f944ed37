//! # cvr-data — Star Schema Benchmark substrate
//!
//! This crate provides everything the two execution engines in this workspace
//! share about the *workload*: the SSBM star schema (Figure 1 of the paper),
//! a deterministic data generator that reproduces the value distributions of
//! the SSB `dbgen` tool (and therefore the per-query LINEORDER selectivities
//! listed in Section 3 of the paper), and a structured catalog of the
//! thirteen benchmark queries.
//!
//! Nothing in this crate knows about storage formats or execution strategies;
//! it deals in logical tables ([`table::TableData`]) and logical queries
//! ([`queries::SsbQuery`]). The row engine (`cvr-row`) and the column engine
//! (`cvr-core`) each compile these logical artifacts into their own physical
//! designs and plans.
//!
//! ## Quick start
//!
//! ```
//! use cvr_data::{gen::SsbConfig, queries};
//!
//! // ~6000 fact rows: plenty for a smoke test, fast to generate.
//! let tables = SsbConfig::with_scale(0.001).generate();
//! assert_eq!(tables.lineorder.num_rows(), 6_000);
//!
//! let q = queries::all_queries();
//! assert_eq!(q.len(), 13);
//! ```

#![warn(missing_docs)]

pub mod date;
pub mod gen;
pub mod ints;
pub mod queries;
pub mod reference;
pub mod result;
pub mod schema;
pub mod table;
pub mod value;
pub mod workload;

pub use gen::{SsbConfig, SsbTables};
pub use queries::{all_queries, QueryId, SsbQuery};
pub use result::{QueryOutput, ResultRow};
pub use schema::{star_schema, ColumnDef, StarSchema, TableSchema};
pub use table::{ColumnData, TableData};
pub use value::{DataType, Value};
pub use workload::{generate_queries, WorkloadConfig};
