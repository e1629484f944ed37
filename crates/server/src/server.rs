//! A threaded TCP accept loop multiplexing concurrent connections onto one
//! shared [`Session`].
//!
//! Deliberately boring: thread-per-connection over the blocking standard
//! library. The engines are CPU-bound and morsel-parallel internally; the
//! serving layer's job is isolation (one slow client never blocks another)
//! and determinism (each query gets its own `IoSession`, so answers don't
//! depend on interleaving). *Processing a Trillion Cells per Mouse Click*
//! credits exactly this serve-many-users shape — not a smarter scheduler —
//! for interactive analytics; the closed-loop harness in `cvr-bench`
//! measures it.
//!
//! ## Lifecycle hardening
//!
//! Every statement executes under a [`QueryCtx`] assembled from the request
//! (`QUERY_OPTS` deadline) and process defaults (`CVR_QUERY_TIMEOUT_MS`,
//! `CVR_MEM_BUDGET`), and is tracked in a process-wide [`CancelRegistry`]
//! while it runs, so a *second* connection can abort it with a `CANCEL`
//! frame carrying the same token — the Postgres out-of-band shape. Typed
//! [`QueryError`]s reach the wire as structured `ERROR` frames with stable
//! codes; connection sockets carry read/write timeouts
//! (`CVR_CONN_READ_TIMEOUT_MS` / `CVR_CONN_WRITE_TIMEOUT_MS`); and shutdown
//! drains live connections for `CVR_DRAIN_MS` before cancelling whatever is
//! still running.

use crate::protocol::{
    frame_header, max_frame_bytes, read_frame, response_for, write_frame, Request, Response,
    StatsReport, FLAG_TRACE,
};
use crate::session::Session;
use cvr_core::{QueryCtx, QueryError, Tracer};
use cvr_storage::fault;
use std::collections::HashMap;
use std::io;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server: background accept thread plus shutdown handle.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    live_conns: Arc<AtomicUsize>,
    registry: Arc<CancelRegistry>,
    /// Prometheus scrape endpoint, when `CVR_METRICS_ADDR` bound one.
    metrics_addr: Option<SocketAddr>,
    metrics_thread: Option<JoinHandle<()>>,
}

/// In-flight queries, keyed for out-of-band cancellation. Every executing
/// statement registers its [`QueryCtx`] here for the duration of the run;
/// `CANCEL <token>` flips the matching contexts' flags, and shutdown's
/// drain deadline flips all of them.
#[derive(Default)]
pub struct CancelRegistry {
    /// Internal registration id → (client token, context). The internal id
    /// keeps registrations unique even when a client reuses a token.
    live: Mutex<HashMap<u64, (u64, QueryCtx)>>,
    next_id: AtomicU64,
}

impl CancelRegistry {
    /// Track `ctx` under `token` until the returned guard drops.
    fn register(self: &Arc<Self>, token: u64, ctx: QueryCtx) -> Registration {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live.lock().unwrap_or_else(PoisonError::into_inner).insert(id, (token, ctx));
        Registration { registry: self.clone(), id }
    }

    /// Cancel every live query registered under `token`. Token `0` is the
    /// "not cancellable" marker and never matches. Returns whether any
    /// query was found.
    pub fn cancel_token(&self, token: u64) -> bool {
        if token == 0 {
            return false;
        }
        let live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let mut found = false;
        for (t, ctx) in live.values() {
            if *t == token {
                ctx.cancel();
                found = true;
            }
        }
        found
    }

    /// Cancel everything still running (shutdown drain deadline).
    pub fn cancel_all(&self) {
        let live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, ctx) in live.values() {
            ctx.cancel();
        }
    }

    fn len(&self) -> usize {
        self.live.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// RAII deregistration for one in-flight statement.
struct Registration {
    registry: Arc<CancelRegistry>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.registry.live.lock().unwrap_or_else(PoisonError::into_inner).remove(&self.id);
    }
}

/// Millisecond env knob: `None` when unset, unparsable, or `0`.
fn env_ms(var: &str) -> Option<Duration> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Process-default query limits: deadline from `CVR_QUERY_TIMEOUT_MS`,
/// memory budget from `CVR_MEM_BUDGET` (bytes). Unset or `0` disables.
fn default_limits() -> (Option<Duration>, Option<usize>) {
    static LIMITS: OnceLock<(Option<Duration>, Option<usize>)> = OnceLock::new();
    *LIMITS.get_or_init(|| {
        let budget = std::env::var("CVR_MEM_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&b| b > 0);
        (env_ms("CVR_QUERY_TIMEOUT_MS"), budget)
    })
}

/// Connection socket timeouts: read (`CVR_CONN_READ_TIMEOUT_MS`, default
/// 30 s) and write (`CVR_CONN_WRITE_TIMEOUT_MS`, default 10 s); `0`
/// disables either.
fn conn_timeouts() -> (Option<Duration>, Option<Duration>) {
    static TIMEOUTS: OnceLock<(Option<Duration>, Option<Duration>)> = OnceLock::new();
    *TIMEOUTS.get_or_init(|| {
        let from_env = |var: &str, default_ms: u64| {
            socket_timeout_from(var, std::env::var(var).ok().as_deref(), default_ms)
        };
        (
            from_env("CVR_CONN_READ_TIMEOUT_MS", 30_000),
            from_env("CVR_CONN_WRITE_TIMEOUT_MS", 10_000),
        )
    })
}

/// One socket timeout from its variable's `value`: unset keeps the default,
/// `0` disables the timeout, a number of milliseconds sets it. Anything else
/// is a typo, not a request to wait forever: it keeps the default and warns.
fn socket_timeout_from(var: &str, value: Option<&str>, default_ms: u64) -> Option<Duration> {
    let ms = match value.map(|text| (text, text.trim().parse::<u64>())) {
        None => default_ms,
        Some((_, Ok(ms))) => ms,
        Some((text, Err(_))) => {
            cvr_obs::warn(&format!(
                "{var}={text:?} is not a number of milliseconds; keeping the {default_ms} ms default"
            ));
            default_ms
        }
    };
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// The [`QueryCtx`] for one statement: the request's deadline when it
/// carries one, the process default otherwise; the memory budget is always
/// the process default.
fn ctx_for(deadline_ms: u32) -> QueryCtx {
    let (default_deadline, budget) = default_limits();
    let deadline = if deadline_ms > 0 {
        Some(Duration::from_millis(deadline_ms as u64))
    } else {
        default_deadline
    };
    QueryCtx::with_limits(deadline, budget)
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// `session` until [`Server::shutdown`].
pub fn serve(session: Arc<Session>, addr: impl ToSocketAddrs) -> io::Result<Server> {
    serve_with_metrics(session, addr, std::env::var("CVR_METRICS_ADDR").ok().as_deref())
}

/// [`serve`] with an explicit metrics bind address instead of the
/// `CVR_METRICS_ADDR` environment knob (`None` disables the endpoint).
pub fn serve_with_metrics(
    session: Arc<Session>,
    addr: impl ToSocketAddrs,
    metrics_addr: Option<&str>,
) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = match metrics_addr {
        Some(m) => Some(spawn_metrics_endpoint(m, session.clone(), shutdown.clone())?),
        None => None,
    };
    let (metrics_addr, metrics_thread) = match metrics {
        Some((a, t)) => (Some(a), Some(t)),
        None => (None, None),
    };
    let live_conns = Arc::new(AtomicUsize::new(0));
    let registry = Arc::new(CancelRegistry::default());
    let flag = shutdown.clone();
    let conns = live_conns.clone();
    let reg = registry.clone();
    let accept_thread = std::thread::Builder::new().name("cvr-accept".into()).spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Responses are one small write each; without TCP_NODELAY the
            // reply sits in Nagle's buffer until the client's delayed ACK
            // (~40 ms per statement on loopback).
            let _ = stream.set_nodelay(true);
            let (read_to, write_to) = conn_timeouts();
            let _ = stream.set_read_timeout(read_to);
            let _ = stream.set_write_timeout(write_to);
            let session = session.clone();
            let registry = reg.clone();
            // Count the connection *before* the thread exists, so a stop()
            // racing the spawn still sees it in the drain gauge.
            conns.fetch_add(1, Ordering::SeqCst);
            let gauge = conns.clone();
            let spawned = std::thread::Builder::new().name("cvr-conn".into()).spawn(move || {
                let _guard = ConnGuard(gauge);
                serve_connection(&session, &registry, stream);
            });
            if spawned.is_err() {
                conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    })?;
    Ok(Server {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        live_conns,
        registry,
        metrics_addr,
        metrics_thread,
    })
}

/// Bind the Prometheus scrape endpoint and serve it on a background
/// thread: a deliberately tiny HTTP/1.0 responder — `GET /metrics` answers
/// the registry's text exposition (plus scrape-time gauges), anything else
/// a 404. One request per connection, `Connection: close`.
fn spawn_metrics_endpoint(
    addr: &str,
    session: Arc<Session>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let thread = std::thread::Builder::new().name("cvr-metrics".into()).spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = answer_scrape(&session, &mut stream);
        }
    })?;
    Ok((addr, thread))
}

/// Read one HTTP request line and answer it.
fn answer_scrape(session: &Session, stream: &mut TcpStream) -> io::Result<()> {
    // Read until the end of the request head (or 4 KiB, whichever first);
    // only the request line matters.
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let line = head.lines().next().unwrap_or("");
    let ok = line.starts_with("GET /metrics ") || line == "GET /metrics";
    let (status, body) = if ok {
        ("200 OK", render_metrics(session))
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The scrape body: refresh the point-in-time gauges from their sources,
/// then render the whole registry.
fn render_metrics(session: &Session) -> String {
    let sched = session.scheduler().stats();
    cvr_obs::gauge("cvr_sched_active", "Queries executing right now").set(sched.active);
    cvr_obs::gauge("cvr_sched_queue_depth", "Queries waiting for admission").set(sched.queue_depth);
    if let Some(cache) = session.cache_stats() {
        cvr_obs::gauge("cvr_cache_bytes", "Current cache footprint in bytes")
            .set(cache.bytes as u64);
        cvr_obs::gauge("cvr_cache_budget_bytes", "Configured cache byte budget")
            .set(cache.budget as u64);
    }
    cvr_obs::global().render_prometheus()
}

/// Decrements the live-connection gauge however the thread exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cancel registry (exposed for tests and diagnostics).
    pub fn registry(&self) -> &Arc<CancelRegistry> {
        &self.registry
    }

    /// The Prometheus scrape endpoint's bound address, when
    /// `CVR_METRICS_ADDR` (or [`serve_with_metrics`]) enabled one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stop accepting connections and join the accept thread, then drain:
    /// wait up to `CVR_DRAIN_MS` (default 5 s) for live connections to
    /// finish on their own; past the deadline, cancel every in-flight
    /// query and grant a short grace period for the cancellations to land.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accepts with throwaway connections.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        let drain = env_ms("CVR_DRAIN_MS").unwrap_or(Duration::from_secs(5));
        let deadline = Instant::now() + drain;
        while self.live_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if self.live_conns.load(Ordering::SeqCst) > 0 {
            // Past the drain deadline: flip every live query's cancel flag
            // and give the workers a moment to reach a morsel boundary.
            self.registry.cancel_all();
            let grace = Instant::now() + Duration::from_secs(1);
            while self.registry.len() > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Error code for a query that panicked inside the engine — distinct from
/// every `ParseError::code` and every [`QueryError`] code, so clients can
/// tell "your SQL is wrong" from "your query was aborted" from "the server
/// hit a bug".
pub const ERROR_CODE_PANIC: u16 = 99;

/// Error code for a malformed or oversized frame (the connection closes
/// right after the error ships).
pub const ERROR_CODE_MALFORMED: u16 = 0;

/// Serve one connection: a loop of frame → request → response frame.
fn serve_connection(session: &Session, registry: &Arc<CancelRegistry>, mut stream: TcpStream) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean hang-up
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: tell the client why before closing —
                // an opaque EOF here would look like a server crash.
                let resp = Response::Error {
                    code: ERROR_CODE_MALFORMED,
                    message: format!("malformed frame: {e}"),
                };
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
            Err(_) => return, // read timeout or transport failure
        };
        let (response, trace) = match Request::decode(&payload) {
            Ok(Request::Close) => return,
            Ok(Request::Query(sql)) => answer_statement(session, registry, &sql, 0, 0, 0),
            Ok(Request::QueryOpts { token, deadline_ms, flags, sql }) => {
                answer_statement(session, registry, &sql, token, deadline_ms, flags)
            }
            Ok(Request::Cancel(token)) => {
                (Response::CancelAck { found: registry.cancel_token(token) }, None)
            }
            Ok(Request::Stats) => (
                Response::Stats(StatsReport {
                    sched: session.scheduler().stats(),
                    cache: session.cache_stats(),
                    metrics: cvr_obs::global().samples(),
                }),
                None,
            ),
            Err(e) => (
                Response::Error {
                    code: ERROR_CODE_MALFORMED,
                    message: format!("malformed request: {e}"),
                },
                None,
            ),
        };
        if let Response::Error { code, .. } = &response {
            count_error(*code);
        }
        if send_response(session, &mut stream, &response).is_err() {
            return;
        }
        if let Some(trace) = trace {
            if send_response(session, &mut stream, &trace).is_err() {
                return;
            }
        }
    }
}

/// Execute one statement: build its [`QueryCtx`], attach a tracer when the
/// request set [`FLAG_TRACE`], register for cancellation, run, and — for
/// such a request — produce the `TRACE` frame that follows the response
/// (empty when nothing was recorded, so the client always reads exactly two
/// frames).
fn answer_statement(
    session: &Session,
    registry: &Arc<CancelRegistry>,
    sql: &str,
    token: u64,
    deadline_ms: u32,
    flags: u8,
) -> (Response, Option<Response>) {
    let ctx = ctx_for(deadline_ms);
    let tracer = (flags & FLAG_TRACE != 0).then(Tracer::new);
    if let Some(t) = &tracer {
        ctx.attach_tracer(t.clone());
    }
    let _reg = registry.register(token, ctx.clone());
    let response = answer_query(session, sql, &ctx);
    let trace = tracer.map(|t| match t.take_root() {
        Some(r) => Response::Trace { text: r.render(0), json: r.to_json() },
        None => Response::Trace { text: String::new(), json: String::new() },
    });
    (response, trace)
}

/// Ship one response frame, honouring the frame-truncation fault: when the
/// fault fires, half the frame is written and the socket severed — the
/// client sees a mid-frame EOF, exactly what a crashed peer looks like.
/// The session's fault state is adopted for the duration of the write —
/// the connection thread holds no ambient fault scope of its own.
fn send_response(session: &Session, stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let _faults = fault::adopt_opt(session.faults());
    let payload = encode_within(response, max_frame_bytes());
    if fault::take_frame_truncation() {
        let mut wire = Vec::with_capacity(4 + payload.len());
        wire.extend_from_slice(&frame_header(payload.len())?);
        wire.extend_from_slice(&payload);
        wire.truncate((4 + payload.len()) / 2);
        let _ = stream.write_all(&wire);
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "injected frame truncation"));
    }
    write_frame(stream, &payload)
}

/// The wire payload for `response`: its encoding, unless that exceeds
/// `limit`. The peer's `read_frame` rejects a frame above its limit and the
/// connection dies, so an oversized answer is replaced by a typed,
/// non-retryable `ERROR` ([`QueryError::ResultTooLarge`]) that tells the
/// client why on a still-usable connection.
fn encode_within(response: &Response, limit: usize) -> Vec<u8> {
    let payload = response.encode();
    if payload.len() <= limit {
        return payload;
    }
    let e = QueryError::ResultTooLarge { bytes: payload.len(), limit };
    count_error(e.code());
    Response::Error { code: e.code(), message: e.to_string() }.encode()
}

/// Count one `ERROR` response in the process metrics, by stable code.
fn count_error(code: u16) {
    cvr_obs::counter(
        &format!("cvr_server_errors_total{{code=\"{code}\"}}"),
        "Error responses by stable code",
    )
    .inc();
}

/// Answer one statement, containing panics: a panic inside `Session::query`
/// must surface as a structured `ERROR` frame on a still-usable connection,
/// not unwind the connection thread and drop the socket into an opaque EOF.
/// `Session` holds no lock-free invariants across a panic (its mutexes
/// recover from poisoning), so resuming after the unwind is sound. Typed
/// lifecycle aborts and injected I/O faults carried in the panic payload
/// keep their stable codes; only genuinely unexpected payloads fall back to
/// [`ERROR_CODE_PANIC`].
fn answer_query(session: &Session, sql: &str, ctx: &QueryCtx) -> Response {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.query_ctx(sql, ctx))) {
        Ok(Ok(answer)) => response_for(&answer),
        Ok(Err(e)) => Response::Error { code: e.code(), message: e.to_string() },
        Err(panic) => {
            // Engine code entered through an infallible wrapper re-raises
            // lifecycle errors via panic_any; keep their codes stable.
            let panic = match panic.downcast::<QueryError>() {
                Ok(e) => {
                    return Response::Error { code: e.code(), message: e.to_string() };
                }
                Err(p) => p,
            };
            let panic = match panic.downcast::<fault::InjectedFault>() {
                Ok(f) => {
                    let e = QueryError::Io { detail: f.0.clone() };
                    return Response::Error { code: e.code(), message: e.to_string() };
                }
                Err(p) => p,
            };
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Response::Error { code: ERROR_CODE_PANIC, message: format!("query panicked: {msg}") }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 29 MB `c_city × s_city` answer PR 11 met, in miniature: the limit
    /// is passed in, so this does not depend on `CVR_MAX_FRAME`.
    #[test]
    fn oversized_answers_become_a_typed_error_frame() {
        let big = Response::Explain { text: "x".repeat(4096), json: String::new() };
        let encoded = big.encode();
        assert_eq!(encode_within(&big, encoded.len()), encoded, "at the limit: shipped as is");

        let limit = encoded.len() - 1;
        let payload = encode_within(&big, limit);
        assert!(payload.len() <= limit, "the replacement itself must fit");
        let Ok(Response::Error { code, message }) = Response::decode(&payload) else {
            panic!("an oversized answer must be replaced by an ERROR frame")
        };
        assert_eq!(code, QueryError::CODE_RESULT_TOO_LARGE);
        assert!(!QueryError::retryable_code(code), "the same statement is as large next time");
        assert!(message.contains(&encoded.len().to_string()) && message.contains("limit"));
    }

    /// Regression: `CVR_CONN_READ_TIMEOUT_MS=30s` used to parse to `None`,
    /// i.e. *no* timeout, the one outcome nobody asking for 30 s wants. The
    /// value is passed in, so this does not touch the process environment.
    #[test]
    fn a_malformed_socket_timeout_keeps_the_default() {
        let read = |value| socket_timeout_from("CVR_CONN_READ_TIMEOUT_MS", value, 30_000);
        let default = Some(Duration::from_secs(30));
        assert_eq!(read(None), default, "unset");
        assert_eq!(read(Some("0")), None, "0 disables");
        assert_eq!(read(Some(" 1500 ")), Some(Duration::from_millis(1500)), "a number");
        for garbage in ["30s", "", "-1", "1e3", "none"] {
            assert_eq!(read(Some(garbage)), default, "{garbage:?}");
        }
    }
}
