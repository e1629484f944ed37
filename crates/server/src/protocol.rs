//! The wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame: a `u32` little-endian payload length,
//! then the payload. The first payload byte is a tag:
//!
//! ```text
//! requests            responses
//! 0x01 QUERY          0x81 RESULT
//! 0x02 CLOSE          0x82 ERROR
//! 0x03 QUERY_OPTS     0x83 EXPLAIN
//! 0x04 CANCEL         0x84 CANCEL_ACK
//! 0x05 STATS          0x85 STATS
//!                     0x86 TRACE
//!                     0x87 SNAPSHOT
//! ```
//!
//! * `QUERY`: `u32` length + UTF-8 SQL.
//! * `CLOSE`: tag only; the server hangs up after reading it.
//! * `QUERY_OPTS`: `u64` cancel token (0 = not cancellable), `u32`
//!   deadline in milliseconds (0 = none), `u8` flags ([`FLAG_TRACE`]
//!   requests a `TRACE` frame after the response), then `u32` length +
//!   UTF-8 SQL. While the statement runs, a *second* connection may send
//!   `CANCEL` with the same token to abort it (the Postgres out-of-band
//!   shape).
//! * `CANCEL`: `u64` token. Answered with `CANCEL_ACK` (`u8` flag: 1 if a
//!   query holding that token was found and signalled).
//! * `STATS`: tag only; answered with a `STATS` response carrying the
//!   scheduler counters, the result-cache counters when the session keeps
//!   one (eight `u64` slots in [`CacheStats`] field order; the third and
//!   fourth are reserved and always 0), and the process metrics registry's
//!   samples (see [`StatsReport`]).
//! * `RESULT`: query id (`u8` flight, `u8` number), plan label
//!   (`u16` length + UTF-8), a `cached` flag (`u8`, 1 when served from the
//!   session's result cache — the only byte a cache hit may change),
//!   [`IoStats`] (`u64` bytes, pages, seeks, pool hits),
//!   column metadata (`u16` count, each `u16` length + UTF-8 name +
//!   `u8` type tag, 0 = int / 1 = str), then the result rows: `u32`
//!   length + `QueryOutput::to_bytes`, shipped verbatim — the bytes the
//!   differential harness compares are the bytes on the wire.
//! * `ERROR`: `u16` [`ParseError::code`]-compatible code, `u32` length +
//!   UTF-8 message. Also what the server sends in place of any response
//!   whose encoding exceeds [`max_frame_bytes`] (code 106): the reader
//!   would reject that frame and the connection would die.
//! * `EXPLAIN`: two `u32`-length-prefixed UTF-8 strings — the rendered
//!   tree and the stable-field JSON (`Plan::to_json`; for
//!   `EXPLAIN ANALYZE`, the same fields plus per-node `"actual"` objects
//!   and a top-level `"trace"`).
//! * `TRACE`: two `u32`-length-prefixed UTF-8 strings — the rendered span
//!   tree and its JSON. Sent *after* the `RESULT`/`ERROR` frame of a
//!   `QUERY_OPTS` request that set [`FLAG_TRACE`] — the response frame
//!   itself stays byte-identical to an untraced run. Both strings are
//!   empty when the statement recorded no spans (e.g. a parse error).
//! * `SNAPSHOT`: answer to a `SNAPSHOT` or `RELOAD` statement — `u64`
//!   manifest generation, `u64` store version after the statement, `u32`
//!   segment count, `u64` total bytes. A failed snapshot or reload (no
//!   data directory, I/O failure, or an unrecoverable corrupt store, code
//!   105) arrives as an `ERROR` frame like any other statement failure.
//!
//! All integers are little-endian. Hand-rolled on purpose: the build
//! environment has no serde, and the format doubles as documentation of
//! exactly what a result *is*.
//!
//! [`ParseError::code`]: crate::parser::ParseError::code

use crate::cache::CacheStats;
use crate::session::{ColumnMeta, QueryResponse, RowsResponse, SnapshotInfo};
use cvr_core::SchedStats;
use cvr_data::queries::QueryId;
use cvr_data::result::QueryOutput;
use cvr_data::value::DataType;
use cvr_storage::io::IoStats;
use std::io::{Read, Write};
use std::sync::OnceLock;

/// Default frame-size cap when `CVR_MAX_FRAME` is unset (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Frames larger than this are rejected as malformed before any payload
/// allocation. `CVR_MAX_FRAME` (bytes, read once) overrides the 16 MiB
/// default; malformed or zero values fall back to it.
pub fn max_frame_bytes() -> usize {
    static LIMIT: OnceLock<usize> = OnceLock::new();
    *LIMIT.get_or_init(|| frame_limit_from(std::env::var("CVR_MAX_FRAME").ok().as_deref()))
}

fn frame_limit_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_MAX_FRAME_BYTES)
}

/// `Request::QueryOpts` flag bit: ship a `TRACE` frame (the execution's
/// span tree) after the response frame.
pub const FLAG_TRACE: u8 = 0x01;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one SQL statement.
    Query(String),
    /// Orderly hang-up.
    Close,
    /// Execute one SQL statement with lifecycle options.
    QueryOpts {
        /// Cancel token; `0` means the statement is not cancellable.
        token: u64,
        /// Deadline in milliseconds from receipt; `0` means none.
        deadline_ms: u32,
        /// Option bits; see [`FLAG_TRACE`].
        flags: u8,
        /// The statement.
        sql: String,
    },
    /// Cancel the in-flight statement registered under this token.
    Cancel(u64),
    /// Ask for scheduler and cache counters.
    Stats,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A result set.
    Result(ResultSet),
    /// The statement failed.
    Error {
        /// Stable error-category code (see `ParseError::code`).
        code: u16,
        /// Human-readable message.
        message: String,
    },
    /// An `EXPLAIN` payload: the plan, never executed.
    Explain {
        /// Rendered tree, identical to the CLI binaries' output.
        text: String,
        /// Stable-field JSON (`Plan::to_json`).
        json: String,
    },
    /// Answer to [`Request::Cancel`].
    CancelAck {
        /// Whether a query registered under the token was found.
        found: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// The execution trace of the preceding response's statement
    /// (requested via [`FLAG_TRACE`]).
    Trace {
        /// Rendered span tree (`SpanRecord::render`); empty when the
        /// statement recorded no spans.
        text: String,
        /// Span-tree JSON (`SpanRecord::to_json`); empty likewise.
        json: String,
    },
    /// Answer to a `SNAPSHOT` or `RELOAD` statement.
    Snapshot(SnapshotInfo),
}

/// The counters shipped in a `STATS` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Scheduler counters and gauges.
    pub sched: SchedStats,
    /// Result-cache counters; `None` when the session runs cache-disabled.
    pub cache: Option<CacheStats>,
    /// The process metrics registry's `(name, value)` samples — every
    /// counter and gauge, plus `_count`/`_sum`/`_p50`/`_p99` per
    /// histogram (sorted by name; see `cvr_obs::Registry::samples`).
    pub metrics: Vec<(String, u64)>,
}

/// A result set as shipped on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Executed query id.
    pub query_id: QueryId,
    /// The planner's chosen plan label.
    pub plan: String,
    /// Whether this result came from the session's result cache. By the
    /// determinism contract it is the only field that may differ between a
    /// cold execution and a hit (see [`Response::normalized`]).
    pub cached: bool,
    /// I/O accounting of the execution.
    pub io: IoStats,
    /// Column metadata: group columns, then the aggregate.
    pub columns: Vec<ColumnMeta>,
    /// `QueryOutput::to_bytes`, verbatim.
    pub output_bytes: Vec<u8>,
}

impl ResultSet {
    /// Decode the row payload.
    pub fn output(&self) -> Result<QueryOutput, String> {
        QueryOutput::from_bytes(&self.output_bytes)
    }
}

/// Build the `RESULT` response for an executed query.
pub fn result_response(r: &RowsResponse) -> Response {
    Response::Result(ResultSet {
        query_id: r.query_id,
        plan: r.plan.clone(),
        cached: r.cached,
        io: r.io,
        columns: r.columns.clone(),
        output_bytes: r.output.to_bytes(),
    })
}

/// Build the wire response for any session answer.
pub fn response_for(answer: &QueryResponse) -> Response {
    match answer {
        QueryResponse::Rows(r) => result_response(r),
        QueryResponse::Explain { text, json } => {
            Response::Explain { text: text.clone(), json: json.clone() }
        }
        QueryResponse::Snapshot(info) => Response::Snapshot(*info),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The `u32` LE length prefix of a `len`-byte payload; `InvalidInput` when
/// the length does not fit the prefix (a cast would silently truncate it
/// and desynchronise the stream).
pub fn frame_header(len: usize) -> std::io::Result<[u8; 4]> {
    u32::try_from(len).map(u32::to_le_bytes).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes does not fit the u32 length prefix"),
        )
    })
}

/// Write one frame: `u32` LE length + payload. Nothing is written when the
/// payload does not fit the length prefix.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_header(payload.len())?)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    let limit = max_frame_bytes();
    if len > limit {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {limit}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const TAG_QUERY: u8 = 0x01;
const TAG_CLOSE: u8 = 0x02;
const TAG_QUERY_OPTS: u8 = 0x03;
const TAG_CANCEL: u8 = 0x04;
const TAG_STATS_REQ: u8 = 0x05;
const TAG_RESULT: u8 = 0x81;
const TAG_ERROR: u8 = 0x82;
const TAG_EXPLAIN: u8 = 0x83;
const TAG_CANCEL_ACK: u8 = 0x84;
const TAG_STATS: u8 = 0x85;
const TAG_TRACE: u8 = 0x86;
const TAG_SNAPSHOT: u8 = 0x87;

fn put_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query(sql) => {
                out.push(TAG_QUERY);
                put_str32(&mut out, sql);
            }
            Request::Close => out.push(TAG_CLOSE),
            Request::QueryOpts { token, deadline_ms, flags, sql } => {
                out.push(TAG_QUERY_OPTS);
                out.extend_from_slice(&token.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.push(*flags);
                put_str32(&mut out, sql);
            }
            Request::Cancel(token) => {
                out.push(TAG_CANCEL);
                out.extend_from_slice(&token.to_le_bytes());
            }
            Request::Stats => out.push(TAG_STATS_REQ),
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Request, String> {
        let mut r = Cursor { bytes, at: 0 };
        let req = match r.u8()? {
            TAG_QUERY => Request::Query(r.str32()?),
            TAG_CLOSE => Request::Close,
            TAG_QUERY_OPTS => Request::QueryOpts {
                token: r.u64()?,
                deadline_ms: r.u32()?,
                flags: r.u8()?,
                sql: r.str32()?,
            },
            TAG_CANCEL => Request::Cancel(r.u64()?),
            TAG_STATS_REQ => Request::Stats,
            t => return Err(format!("unknown request tag 0x{t:02x}")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// This response with the `cached` flag cleared — the form the
    /// differential harnesses compare, since a hit must match its cold
    /// reference in every *other* byte.
    pub fn normalized(&self) -> Response {
        match self {
            Response::Result(rs) => {
                let mut rs = rs.clone();
                rs.cached = false;
                Response::Result(rs)
            }
            other => other.clone(),
        }
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Result(rs) => {
                out.push(TAG_RESULT);
                out.push(rs.query_id.flight);
                out.push(rs.query_id.number);
                put_str16(&mut out, &rs.plan);
                out.push(rs.cached as u8);
                out.extend_from_slice(&rs.io.bytes_read.to_le_bytes());
                out.extend_from_slice(&rs.io.pages_read.to_le_bytes());
                out.extend_from_slice(&rs.io.seeks.to_le_bytes());
                out.extend_from_slice(&rs.io.pool_hits.to_le_bytes());
                out.extend_from_slice(&(rs.columns.len() as u16).to_le_bytes());
                for c in &rs.columns {
                    put_str16(&mut out, &c.name);
                    out.push(match c.dtype {
                        DataType::Int => 0,
                        DataType::Str => 1,
                    });
                }
                out.extend_from_slice(&(rs.output_bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&rs.output_bytes);
            }
            Response::Error { code, message } => {
                out.push(TAG_ERROR);
                out.extend_from_slice(&code.to_le_bytes());
                put_str32(&mut out, message);
            }
            Response::Explain { text, json } => {
                out.push(TAG_EXPLAIN);
                put_str32(&mut out, text);
                put_str32(&mut out, json);
            }
            Response::CancelAck { found } => {
                out.push(TAG_CANCEL_ACK);
                out.push(*found as u8);
            }
            Response::Stats(report) => {
                out.push(TAG_STATS);
                let s = &report.sched;
                for v in [
                    s.admitted,
                    s.queued,
                    s.shed,
                    s.abandoned,
                    s.leases,
                    s.throttled,
                    s.active,
                    s.queue_depth,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                match &report.cache {
                    None => out.push(0),
                    Some(c) => {
                        out.push(1);
                        for v in [
                            c.result_hits,
                            c.result_misses,
                            c.filter_hits,
                            c.filter_misses,
                            c.inserted,
                            c.evicted,
                            c.bytes as u64,
                            c.budget as u64,
                        ] {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                out.extend_from_slice(&(report.metrics.len() as u32).to_le_bytes());
                for (name, value) in &report.metrics {
                    put_str16(&mut out, name);
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            Response::Trace { text, json } => {
                out.push(TAG_TRACE);
                put_str32(&mut out, text);
                put_str32(&mut out, json);
            }
            Response::Snapshot(info) => {
                out.push(TAG_SNAPSHOT);
                out.extend_from_slice(&info.generation.to_le_bytes());
                out.extend_from_slice(&info.store_version.to_le_bytes());
                out.extend_from_slice(&info.segments.to_le_bytes());
                out.extend_from_slice(&info.bytes.to_le_bytes());
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Response, String> {
        let mut r = Cursor { bytes, at: 0 };
        let resp = match r.u8()? {
            TAG_RESULT => {
                let query_id = QueryId::new(r.u8()?, r.u8()?);
                let plan = r.str16()?;
                let cached = match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("invalid cached flag {t}")),
                };
                let io = IoStats {
                    bytes_read: r.u64()?,
                    pages_read: r.u64()?,
                    seeks: r.u64()?,
                    pool_hits: r.u64()?,
                };
                let ncols = r.u16()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1 << 10));
                for _ in 0..ncols {
                    let name = r.str16()?;
                    let dtype = match r.u8()? {
                        0 => DataType::Int,
                        1 => DataType::Str,
                        t => return Err(format!("unknown column type tag {t}")),
                    };
                    columns.push(ColumnMeta { name, dtype });
                }
                let n = r.u32()? as usize;
                let output_bytes = r.take(n)?.to_vec();
                Response::Result(ResultSet { query_id, plan, cached, io, columns, output_bytes })
            }
            TAG_ERROR => Response::Error { code: r.u16()?, message: r.str32()? },
            TAG_EXPLAIN => Response::Explain { text: r.str32()?, json: r.str32()? },
            TAG_CANCEL_ACK => Response::CancelAck {
                found: match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("invalid cancel-ack flag {t}")),
                },
            },
            TAG_STATS => {
                let sched = SchedStats {
                    admitted: r.u64()?,
                    queued: r.u64()?,
                    shed: r.u64()?,
                    abandoned: r.u64()?,
                    leases: r.u64()?,
                    throttled: r.u64()?,
                    active: r.u64()?,
                    queue_depth: r.u64()?,
                };
                let cache = match r.u8()? {
                    0 => None,
                    1 => Some(CacheStats {
                        result_hits: r.u64()?,
                        result_misses: r.u64()?,
                        filter_hits: r.u64()?,
                        filter_misses: r.u64()?,
                        inserted: r.u64()?,
                        evicted: r.u64()?,
                        bytes: r.u64()? as usize,
                        budget: r.u64()? as usize,
                    }),
                    t => return Err(format!("invalid cache-stats flag {t}")),
                };
                let n = r.u32()? as usize;
                let mut metrics = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let name = r.str16()?;
                    metrics.push((name, r.u64()?));
                }
                Response::Stats(StatsReport { sched, cache, metrics })
            }
            TAG_TRACE => Response::Trace { text: r.str32()?, json: r.str32()? },
            TAG_SNAPSHOT => Response::Snapshot(SnapshotInfo {
                generation: r.u64()?,
                store_version: r.u64()?,
                segments: r.u32()?,
                bytes: r.u64()?,
            }),
            t => return Err(format!("unknown response tag 0x{t:02x}")),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Bounds-checked little-endian cursor.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated payload at byte {}", self.at))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, String> {
        let n = self.u16()? as usize;
        self.utf8(n)
    }

    fn str32(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        self.utf8(n)
    }

    fn utf8(&mut self, n: usize) -> Result<String, String> {
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|e| format!("invalid UTF-8: {e}"))
    }

    fn finish(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.bytes.len() - self.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::value::Value;

    fn sample_result() -> Response {
        let output = QueryOutput::new(vec![
            (vec![Value::Int(1993), Value::str("MFGR#12")], 42_000_000),
            (vec![Value::Int(1994), Value::str("MFGR#13")], -7),
        ]);
        Response::Result(ResultSet {
            query_id: QueryId::new(2, 1),
            plan: "tICL".to_string(),
            cached: true,
            io: IoStats { bytes_read: 1024, pages_read: 16, seeks: 3, pool_hits: 9 },
            columns: vec![
                ColumnMeta { name: "d_year".into(), dtype: DataType::Int },
                ColumnMeta { name: "p_brand1".into(), dtype: DataType::Str },
                ColumnMeta { name: "SUM(lo_revenue)".into(), dtype: DataType::Int },
            ],
            output_bytes: output.to_bytes(),
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query("SELECT SUM(lo_revenue) FROM lineorder".into()),
            Request::Close,
            Request::QueryOpts {
                token: 0xDEAD_BEEF,
                deadline_ms: 250,
                flags: FLAG_TRACE,
                sql: "SELECT 1".into(),
            },
            Request::QueryOpts {
                token: 0,
                deadline_ms: 0,
                flags: 0,
                sql: "EXPLAIN SELECT 1".into(),
            },
            Request::Cancel(42),
            Request::Stats,
        ] {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let sched = SchedStats {
            admitted: 10,
            queued: 3,
            shed: 2,
            abandoned: 1,
            leases: 12,
            throttled: 4,
            active: 1,
            queue_depth: 0,
        };
        let cache = CacheStats {
            result_hits: 7,
            result_misses: 9,
            filter_hits: 5,
            filter_misses: 6,
            inserted: 9,
            evicted: 2,
            bytes: 4096,
            budget: 1 << 20,
        };
        let metrics =
            vec![("cvr_queries_total".to_string(), 17u64), ("cvr_sched_shed_total".to_string(), 2)];
        let responses = [
            sample_result(),
            Response::Error { code: 2, message: "unknown column: lo_color".into() },
            Response::Explain { text: "plan=tICL".into(), json: "{\"plan\": \"tICL\"}".into() },
            Response::CancelAck { found: true },
            Response::CancelAck { found: false },
            Response::Stats(StatsReport { sched, cache: Some(cache), metrics: metrics.clone() }),
            Response::Stats(StatsReport { sched, cache: None, metrics: Vec::new() }),
            Response::Trace { text: "column-plan: tICL [rows=7]".into(), json: "{}".into() },
            Response::Trace { text: String::new(), json: String::new() },
            Response::Snapshot(SnapshotInfo {
                generation: 3,
                store_version: 3,
                segments: 58,
                bytes: 1 << 20,
            }),
        ];
        for resp in responses {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn frame_limit_parses_and_falls_back() {
        assert_eq!(frame_limit_from(None), DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(frame_limit_from(Some("1048576")), 1 << 20);
        assert_eq!(frame_limit_from(Some(" 4096 ")), 4096);
        for bad in ["", "0", "-1", "lots", "1e9"] {
            assert_eq!(frame_limit_from(Some(bad)), DEFAULT_MAX_FRAME_BYTES, "{bad:?}");
        }
    }

    /// Decoders must reject arbitrary garbage with an `Err`, never a panic
    /// or an over-allocation: random byte soup, plus structured mutations
    /// of valid frames (truncations and single-byte flips), at every tag.
    #[test]
    fn byte_soup_never_panics_the_decoders() {
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic PRNG seed
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000 {
            let len = (next() % 64) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            // Half the rounds: aim the soup at a real tag so the field
            // decoders run, not just the tag dispatch.
            if round % 2 == 0 && !bytes.is_empty() {
                let tags = [0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87];
                bytes[0] = tags[(next() % tags.len() as u64) as usize];
            }
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
        // Truncations and bit flips of every well-formed frame.
        let frames: Vec<Vec<u8>> = vec![
            Request::QueryOpts { token: 7, deadline_ms: 9, flags: 1, sql: "SELECT 1".into() }
                .encode(),
            Request::Cancel(7).encode(),
            Request::Stats.encode(),
            Response::CancelAck { found: true }.encode(),
            Response::Stats(StatsReport {
                sched: SchedStats::default(),
                cache: None,
                metrics: vec![("cvr_queries_total".to_string(), 3)],
            })
            .encode(),
            Response::Trace { text: "t".into(), json: "{}".into() }.encode(),
            Response::Snapshot(SnapshotInfo {
                generation: 1,
                store_version: 1,
                segments: 58,
                bytes: 4096,
            })
            .encode(),
            sample_result().encode(),
        ];
        for f in &frames {
            for cut in 0..f.len() {
                let _ = Request::decode(&f[..cut]);
                let _ = Response::decode(&f[..cut]);
            }
            for i in 0..f.len() {
                let mut m = f.clone();
                m[i] ^= 0xFF;
                let _ = Request::decode(&m);
                let _ = Response::decode(&m);
            }
        }
        // The framing layer itself: random wire prefixes either yield a
        // frame, a clean EOF, or an error — never a panic.
        for _ in 0..500 {
            let len = (next() % 24) as usize;
            let wire: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = read_frame(&mut wire.as_slice());
        }
    }

    #[test]
    fn result_payload_decodes_rows() {
        let Response::Result(rs) = sample_result() else { unreachable!() };
        let round = Response::decode(&rs.encode_as_response()).unwrap();
        let Response::Result(back) = round else { panic!("expected RESULT") };
        let rows = back.output().unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0].1, 42_000_000);
        assert_eq!(back.io.pool_hits, 9);
        assert!(back.cached, "cached flag survives the round trip");
    }

    #[test]
    fn normalized_clears_only_the_cached_flag() {
        let hit = sample_result();
        let normalized = hit.normalized();
        assert_ne!(hit, normalized);
        let Response::Result(n) = &normalized else { panic!("expected RESULT") };
        assert!(!n.cached);
        // Identical everywhere else: re-set the flag and compare.
        let mut back = n.clone();
        back.cached = true;
        assert_eq!(Response::Result(back), hit);
        // Already-cold responses and non-results are unchanged.
        assert_eq!(normalized.normalized(), normalized);
        let err = Response::Error { code: 1, message: "x".into() };
        assert_eq!(err.normalized(), err);
        // A corrupt flag byte is rejected, not misread.
        let mut bytes = hit.encode();
        let flag_at = 1 + 2 + 2 + "tICL".len(); // tag, id, str16 len, label
        assert_eq!(bytes[flag_at], 1);
        bytes[flag_at] = 7;
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[0x7f]).is_err(), "unknown request tag");
        assert!(Response::decode(&[0x7f]).is_err(), "unknown response tag");
        assert!(Request::decode(&[]).is_err(), "empty payload");
        // Trailing garbage after a well-formed message.
        let mut bytes = Request::Close.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err(), "trailing bytes");
        // Truncated string length.
        let mut q = Request::Query("SELECT".into()).encode();
        q.truncate(q.len() - 2);
        assert!(Request::decode(&q).is_err(), "truncated payload");
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a frame boundary");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let wire = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn lengths_beyond_the_prefix_are_an_error_not_a_truncation() {
        assert_eq!(frame_header(5).unwrap(), 5u32.to_le_bytes());
        assert_eq!(frame_header(u32::MAX as usize).unwrap(), u32::MAX.to_le_bytes());
        // 4 GiB + 5 used to go out as a 5-byte frame followed by 4 GiB of
        // what the peer would read as further frames.
        let err = frame_header((1usize << 32) + 5).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    impl ResultSet {
        fn encode_as_response(self) -> Vec<u8> {
            Response::Result(self).encode()
        }
    }
}
