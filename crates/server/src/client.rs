//! A minimal blocking client for the wire protocol, plus a retrying
//! wrapper with capped exponential backoff.
//!
//! Used by the server tests and `benchmark/`'s load generator; also the
//! reference implementation for anyone speaking the protocol.
//! [`Client`] is one connection with socket timeouts; [`RetryClient`]
//! layers reconnection and retry on top, retrying exactly the failures the
//! server marks retryable (load shedding, transient I/O) plus transport
//! errors, and never retrying semantic failures (parse errors, cancelled
//! or timed-out queries, panics).

use crate::protocol::{read_frame, write_frame, Request, Response, StatsReport};
use cvr_core::QueryError;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket and retry policy for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read socket timeout (a response must start arriving within it).
    pub read_timeout: Duration,
    /// Per-write socket timeout.
    pub write_timeout: Duration,
    /// Retry attempts after the first failure ([`RetryClient`] only).
    pub retries: u32,
    /// Backoff before retry `n` is `base × 2ⁿ`, capped at `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl ClientConfig {
    /// The capped exponential sleep before retry attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.backoff_base.saturating_mul(1u32 << attempt.min(16));
        exp.min(self.backoff_cap)
    }
}

/// A client-side failure, distinguishing timeouts from other transport
/// errors and from protocol violations.
#[derive(Debug)]
pub enum ClientError {
    /// A socket operation exceeded its configured timeout.
    Timeout {
        /// Which operation timed out (`"connect"`, `"read"`, `"write"`).
        op: &'static str,
    },
    /// Any other transport failure.
    Io(io::Error),
    /// The peer sent bytes that do not decode as a protocol frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout { op } => write!(f, "{op} timed out"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                ClientError::Timeout { op: "read" }
            }
            io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
            _ => ClientError::Io(e),
        }
    }
}

/// One open connection to a server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` with the default [`ClientConfig`] timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connect with explicit timeouts. Zero durations disable a timeout.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> io::Result<Client> {
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            let attempt = if cfg.connect_timeout.is_zero() {
                TcpStream::connect(addr)
            } else {
                TcpStream::connect_timeout(&addr, cfg.connect_timeout)
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let some = |d: Duration| (!d.is_zero()).then_some(d);
                    stream.set_read_timeout(some(cfg.read_timeout))?;
                    stream.set_write_timeout(some(cfg.write_timeout))?;
                    return Ok(Client { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Send one SQL statement and read its response.
    pub fn query(&mut self, sql: &str) -> io::Result<Response> {
        self.round_trip(&Request::Query(sql.to_string()))
    }

    /// Send one SQL statement with lifecycle options: a cancel `token`
    /// (`0` = not cancellable) another connection can abort it with, and a
    /// `deadline_ms` server-side deadline (`0` = server default).
    pub fn query_opts(&mut self, sql: &str, token: u64, deadline_ms: u32) -> io::Result<Response> {
        self.round_trip(&Request::QueryOpts { token, deadline_ms, flags: 0, sql: sql.to_string() })
    }

    /// [`Client::query_opts`] with [`FLAG_TRACE`](crate::protocol::FLAG_TRACE)
    /// set: the response is followed by a mandatory `TRACE` frame carrying
    /// the execution's span tree as `(text, json)` — `None` when the run
    /// recorded no spans (e.g. the statement errored before executing).
    pub fn query_traced(
        &mut self,
        sql: &str,
        token: u64,
        deadline_ms: u32,
    ) -> io::Result<(Response, Option<(String, String)>)> {
        let req = Request::QueryOpts {
            token,
            deadline_ms,
            flags: crate::protocol::FLAG_TRACE,
            sql: sql.to_string(),
        };
        let response = self.round_trip(&req)?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before the TRACE frame")
        })?;
        let trace = match Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            Response::Trace { text, json } if text.is_empty() && json.is_empty() => None,
            Response::Trace { text, json } => Some((text, json)),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected TRACE, got {other:?}"),
                ));
            }
        };
        Ok((response, trace))
    }

    /// Cancel the statement registered under `token` (sent from *this*
    /// connection while the statement runs on another). Returns whether
    /// the server found a matching in-flight query.
    pub fn cancel(&mut self, token: u64) -> io::Result<bool> {
        match self.round_trip(&Request::Cancel(token))? {
            Response::CancelAck { found } => Ok(found),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected CANCEL_ACK, got {other:?}"),
            )),
        }
    }

    /// Fetch the server's scheduler and cache counters.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected STATS, got {other:?}"),
            )),
        }
    }

    /// Orderly hang-up.
    pub fn close(mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &Request::Close.encode())
    }
}

/// A client that reconnects and retries with capped exponential backoff.
///
/// Two failure classes retry, each up to `cfg.retries` times:
///
/// * **transport errors** (connect/read/write failures and timeouts,
///   mid-frame EOF) — the connection is dropped and re-dialed;
/// * **retryable `ERROR` responses** — codes the server marks as safe to
///   re-submit (load shed, transient I/O). The connection is kept.
///
/// Non-retryable `ERROR` responses (parse errors, cancelled, deadline,
/// memory budget, panic) and `RESULT`/`EXPLAIN` frames return immediately.
/// When retryable errors persist past the budget the *last response* is
/// returned (the caller sees the server's verdict); when transport errors
/// persist the last [`ClientError`] is returned.
pub struct RetryClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Client>,
}

impl RetryClient {
    /// Set up against `addr` (no connection is made until the first call).
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> RetryClient {
        RetryClient { addr, cfg, conn: None }
    }

    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        let client = match self.conn.take() {
            Some(client) => client,
            None => Client::connect_with(self.addr, &self.cfg).map_err(|e| {
                if e.kind() == io::ErrorKind::TimedOut {
                    ClientError::Timeout { op: "connect" }
                } else {
                    ClientError::Io(e)
                }
            })?,
        };
        Ok(self.conn.insert(client))
    }

    /// [`Client::query`] with reconnection and retry.
    pub fn query(&mut self, sql: &str) -> Result<Response, ClientError> {
        self.query_opts(sql, 0, 0)
    }

    /// [`Client::query_opts`] with reconnection and retry.
    pub fn query_opts(
        &mut self,
        sql: &str,
        token: u64,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self
                .conn()
                .and_then(|c| c.query_opts(sql, token, deadline_ms).map_err(ClientError::from));
            match outcome {
                Ok(Response::Error { code, message }) if QueryError::retryable_code(code) => {
                    if attempt >= self.cfg.retries {
                        return Ok(Response::Error { code, message });
                    }
                    std::thread::sleep(self.cfg.backoff(attempt));
                    attempt += 1;
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Transport failure: the connection state is unknown —
                    // drop it and re-dial on the next attempt.
                    self.conn = None;
                    if attempt >= self.cfg.retries {
                        return Err(e);
                    }
                    std::thread::sleep(self.cfg.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }
}
