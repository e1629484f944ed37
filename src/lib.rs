//! # cvr — Column-stores vs. Row-stores, reproduced in Rust
//!
//! A from-scratch reproduction of Abadi, Madden, and Hachem,
//! *"Column-Stores vs. Row-Stores: How Different Are They Really?"*
//! (SIGMOD 2008): two complete execution engines — a C-Store-style column
//! engine with the paper's **invisible join**, and a System-X-style row
//! engine with the paper's five physical designs — over a shared Star
//! Schema Benchmark substrate and a metered simulated disk.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`data`] (`cvr-data`) — SSBM schema, generator, 13-query catalog,
//!   reference evaluator;
//! * [`storage`] (`cvr-storage`) — heap files, column encodings, buffer
//!   pool, disk model;
//! * [`index`] (`cvr-index`) — B+Tree, rid bitmaps, Bloom filter, hash
//!   index;
//! * [`row`] (`cvr-row`) — the row engine: T, T(B), MV, VP, AI designs;
//! * [`core`] (`cvr-core`) — the column engine: invisible join, late
//!   materialization, compressed execution, Row-MV, denormalization;
//! * [`plan`] (`cvr-plan`) — the statistics-driven cost-based planner over
//!   both engines' physical-design space;
//! * [`server`] (`cvr-server`) — the front door: SQL parser, unified
//!   `Session` API, wire protocol, and a concurrent TCP server.
//!
//! Every system the paper compares is one [`plan::Design`], and one
//! [`plan::Stores`] builds each design's store on first use and runs any of
//! them:
//!
//! ```
//! use cvr::core::{morsel::Parallelism, EngineConfig, ExecOptions};
//! use cvr::data::{gen::SsbConfig, queries};
//! use cvr::plan::{Design, Stores};
//! use cvr::row::designs::RowDesign;
//! use cvr::storage::io::IoSession;
//! use std::sync::Arc;
//!
//! let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
//! let stores = Stores::new(tables, Parallelism::from_env());
//! let (q, opts) = (queries::query(2, 1), ExecOptions::default());
//! let run = |design| stores.run(design, &q, &opts, &IoSession::unmetered());
//! // Same answer from both worlds.
//! assert_eq!(run(Design::Column(EngineConfig::FULL))?, run(Design::Row(RowDesign::Traditional))?);
//! # Ok::<(), cvr::core::QueryError>(())
//! ```

#![warn(missing_docs)]

pub use cvr_core as core;
pub use cvr_data as data;
pub use cvr_index as index;
pub use cvr_plan as plan;
pub use cvr_row as row;
pub use cvr_server as server;
pub use cvr_storage as storage;
