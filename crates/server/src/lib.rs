//! cvr-server: the front door — SQL, sessions, and a concurrent server.
//!
//! The crates below this one expose descriptors, engines, and a planner;
//! this crate puts one door in front of them:
//!
//! * [`parser`] — a small SQL frontend over the SSB star schema. It lowers
//!   `SELECT`/`WHERE`/`GROUP BY`/`ORDER BY` text to [`SsbQuery`]
//!   descriptors and recognizes the 13 paper queries, so SQL enters the
//!   planner on exactly the same footing as hand-built descriptors.
//! * [`session`] — [`Session`], the unified API: one object owning
//!   statistics, planning, and both engines, answering `query(&str)`.
//! * [`cache`] — the byte-budgeted result cache behind `Session`; hits are
//!   byte-identical to cold executions (outputs *and* `IoStats`) and marked
//!   by the wire protocol's `cached` flag.
//! * [`protocol`] — a length-prefixed binary wire format with typed
//!   result sets, structured errors, `EXPLAIN` payloads, out-of-band
//!   cancellation, a `STATS` introspection frame (scheduler, cache, and
//!   the `cvr-obs` metrics registry), and an opt-in `TRACE` frame
//!   carrying the statement's operator span tree.
//! * `analyze` (internal) — `EXPLAIN ANALYZE`: executes, then zips the
//!   planner's estimate tree with the measured [`cvr_core::SpanRecord`]
//!   tree.
//! * [`server`] / [`client`] — a threaded TCP accept loop (per-statement
//!   [`cvr_core::QueryCtx`] lifecycles, cancel registry, socket timeouts,
//!   drain-on-shutdown) and the matching blocking client, plus
//!   [`RetryClient`] with capped exponential backoff over exactly the
//!   failures the server marks retryable.
//!
//! The load-bearing invariant, inherited from the engines and preserved
//! here: a query's output bytes and [`IoStats`] are identical whether it
//! arrives as SQL or as a descriptor, serially or over any number of
//! concurrent connections.
//!
//! [`SsbQuery`]: cvr_data::queries::SsbQuery
//! [`IoStats`]: cvr_storage::io::IoStats

#![warn(missing_docs)]

mod analyze;
pub mod cache;
pub mod client;
pub mod parser;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::{CacheStats, QueryCache};
pub use client::{Client, ClientConfig, ClientError, RetryClient};
pub use parser::{parse, parse_query, render_sql, ParseError, Statement};
pub use protocol::{Request, Response, ResultSet, StatsReport, FLAG_TRACE};
pub use server::{serve, CancelRegistry, Server};
pub use session::{ColumnMeta, QueryResponse, RowsResponse, Session, SessionError};
