//! Fault-injection and lifecycle tests: the serving stack under induced
//! failure.
//!
//! The load-bearing assertions: every induced failure — injected I/O
//! faults, worker panics, cancellation, deadlines, memory budgets,
//! oversized frames — surfaces as a *typed* error on a still-usable
//! connection, and once the fault clears the very same query produces
//! bytes identical to the pre-fault reference. Nothing leaks: scheduler
//! gauges return to zero ([`scheduler_drains`]) and aborted queries never
//! populate the cache.
//!
//! Fault configuration is **per-session** ([`Session::set_faults`]): each
//! test arms its own session's handle, so the tests here run concurrently
//! without a global lock, and two tests injecting different faults never
//! see each other's — which is itself the isolation property under test.

use cvr_core::morsel::Parallelism;
use cvr_core::{QueryCtx, QueryError, SchedStats};
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::{all_queries, query, SsbQuery};
use cvr_data::workload::WorkloadConfig;
use cvr_plan::PhysicalChoice;
use cvr_server::protocol::{read_frame, Response};
use cvr_server::{parser, serve, Client, ClientConfig, ClientError, RetryClient, Session};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tables(scale: f64) -> Arc<SsbTables> {
    Arc::new(SsbConfig::with_scale(scale).generate())
}

/// A session that always executes (cache disabled) — the shape every
/// cancellation test needs, since a cache hit never reaches a morsel.
fn cold_session(tables: Arc<SsbTables>, par: Parallelism) -> Arc<Session> {
    Arc::new(Session::with_cache_budget(tables, par, 0))
}

/// Wait for an instant at which the scheduler gauges read zero.
///
/// Every session shares `Scheduler::process_default()` and the sibling tests
/// of this binary run queries concurrently, so a single reading of the
/// process-wide `active` gauge counts *their* permits too. What a test owns
/// is that its own queries gave theirs back — and `run_ctx` and the wire
/// reply both return only after the permit is dropped — so the gauge must
/// read zero whenever the siblings are between statements, which a sibling
/// is every few milliseconds. A permit or queue ticket this test leaked
/// would keep it above zero for good.
fn scheduler_drains(mut stats: impl FnMut() -> SchedStats) {
    let patience = Instant::now() + Duration::from_secs(30);
    loop {
        let now = stats();
        if now.active == 0 && now.queue_depth == 0 {
            return;
        }
        assert!(Instant::now() < patience, "a permit or queue ticket never came back: {now:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The first paper query the planner sends to the column engine: the
/// engine with morsel boundaries (for stall/panic faults) and memory
/// charges (for budget tests).
fn column_plan_query(session: &Session) -> SsbQuery {
    all_queries()
        .into_iter()
        .find(|q| matches!(session.explain(q).choice, PhysicalChoice::Column(_)))
        .expect("some paper query must plan to the column engine")
}

/// Injected page-read faults surface as `QueryError::Io` in-process and as
/// `ERROR` code 104 on the wire; clearing the fault restores byte-identical
/// answers on the same connection.
#[test]
fn injected_io_faults_surface_as_typed_errors_then_clear() {
    let session = cold_session(tables(0.001), Parallelism::serial());
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let q = query(1, 1);
    let sql = parser::render_sql(&q);
    let reference = client.query(&sql).expect("reference").normalized().encode();

    session.set_faults(Some("io:1.0")).expect("valid spec");
    match session.run_ctx(&q, &QueryCtx::unbounded()) {
        Err(QueryError::Io { detail }) => assert!(detail.contains("injected"), "{detail}"),
        other => panic!("expected Err(Io), got {other:?}"),
    }
    match client.query(&sql).expect("a faulted query still answers") {
        Response::Error { code, message } => {
            assert_eq!(code, QueryError::CODE_IO);
            assert!(message.contains("injected"), "{message}");
        }
        other => panic!("expected ERROR, got {other:?}"),
    }

    session.set_faults(None).expect("disarm");
    let healthy = client.query(&sql).expect("recovered").normalized().encode();
    assert_eq!(healthy, reference, "post-fault bytes must match the pre-fault reference");
    client.close().expect("close");
    server.shutdown();
}

/// Fault handles are session-scoped: a session armed with a certain-fire
/// I/O fault never perturbs an unfaulted session running concurrently over
/// the same tables — the isolation that lets this whole binary run without
/// a global lock.
#[test]
fn fault_handles_do_not_leak_across_sessions() {
    let tables = tables(0.001);
    let faulted = cold_session(tables.clone(), Parallelism::serial());
    let clean = cold_session(tables, Parallelism::serial());
    let q = query(1, 1);
    let reference = clean.run(&q);

    faulted.set_faults(Some("io:1.0")).expect("valid spec");
    assert!(matches!(faulted.run_ctx(&q, &QueryCtx::unbounded()), Err(QueryError::Io { .. })));
    // The clean session, same thread, immediately after: unaffected.
    let out = clean.run_ctx(&q, &QueryCtx::unbounded()).expect("clean session unaffected");
    assert_eq!(out.output.to_bytes(), reference.output.to_bytes());
    assert_eq!(out.io, reference.io);

    // Invalid specs are rejected without disturbing the armed state.
    assert!(faulted.set_faults(Some("bogus:nan")).is_err());
    assert!(matches!(faulted.run_ctx(&q, &QueryCtx::unbounded()), Err(QueryError::Io { .. }),));
}

/// A worker panic inside the morsel pool is contained to an `ERROR` frame
/// (code 99) on a connection that keeps serving once the fault clears.
#[test]
fn worker_panics_in_the_morsel_pool_become_error_frames() {
    let par = Parallelism { threads: 2, morsel_rows: 256 };
    let session = cold_session(tables(0.001), par);
    let q = column_plan_query(&session);
    let sql = parser::render_sql(&q);
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let reference = client.query(&sql).expect("reference").normalized().encode();

    session.set_faults(Some("panic:1.0")).expect("valid spec");
    match client.query(&sql).expect("a crashed worker still produces a frame") {
        Response::Error { code, message } => {
            assert_eq!(code, cvr_server::server::ERROR_CODE_PANIC);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected ERROR, got {other:?}"),
    }

    session.set_faults(None).expect("disarm");
    let healthy = client.query(&sql).expect("recovered").normalized().encode();
    assert_eq!(healthy, reference, "the worker pool must survive a contained panic");
    client.close().expect("close");
    server.shutdown();
}

/// Cancelling a query mid-run yields `Err(Cancelled)`, releases its
/// scheduler permit, and never populates the result cache — the next
/// identical query executes cold and matches the reference byte-for-byte.
#[test]
fn cancel_mid_run_leaves_the_scheduler_and_cache_clean() {
    let par = Parallelism { threads: 2, morsel_rows: 256 };
    let tables = tables(0.002);
    let session = Arc::new(Session::with_cache_budget(tables.clone(), par, 16 << 20));
    // A column-plan query: the cancellation window needs morsel boundaries.
    let q = column_plan_query(&session);
    // Reference from a separate cache-disabled session over the same
    // tables, so the session under test keeps a cold cache.
    let reference = cold_session(tables, par).run(&q);

    // Stall every morsel so the query is guaranteed to still be running
    // when the cancel lands.
    session.set_faults(Some("stall:1.0:10")).expect("valid spec");
    let ctx = QueryCtx::unbounded();
    let outcome = std::thread::scope(|s| {
        let worker = s.spawn(|| session.run_ctx(&q, &ctx));
        std::thread::sleep(Duration::from_millis(30));
        ctx.cancel();
        worker.join().expect("query thread must not panic")
    });
    assert_eq!(outcome, Err(QueryError::Cancelled));

    // The aborted query must release its permit and leave nothing queued.
    scheduler_drains(|| session.scheduler().stats());

    session.set_faults(None).expect("disarm");
    let rerun = session.run_ctx(&q, &QueryCtx::unbounded()).expect("clean rerun");
    assert!(!rerun.cached, "the cancelled attempt must not have populated the cache");
    assert_eq!(rerun.output.to_bytes(), reference.output.to_bytes(), "bytes must match");
    assert_eq!(rerun.io, reference.io, "I/O accounting must match");
    let again = session.run_ctx(&q, &QueryCtx::unbounded()).expect("cached rerun");
    assert!(again.cached, "the successful rerun populates the cache as usual");
}

/// Deadlines and memory budgets abort with their own typed errors (and
/// stable wire codes), not a generic failure.
#[test]
fn deadlines_and_memory_budgets_abort_with_typed_errors() {
    let session = cold_session(tables(0.001), Parallelism::serial());
    let q = column_plan_query(&session);

    let expired = QueryCtx::with_limits(Some(Duration::ZERO), None);
    match session.run_ctx(&q, &expired) {
        Err(e @ QueryError::DeadlineExceeded { .. }) => {
            assert_eq!(e.code(), QueryError::CODE_DEADLINE)
        }
        other => panic!("expected Err(DeadlineExceeded), got {other:?}"),
    }

    let tiny = QueryCtx::with_limits(None, Some(1));
    match session.run_ctx(&q, &tiny) {
        Err(e @ QueryError::MemoryBudgetExceeded { .. }) => {
            assert_eq!(e.code(), QueryError::CODE_MEMORY);
            let QueryError::MemoryBudgetExceeded { used, budget } = e else { unreachable!() };
            assert_eq!(budget, 1);
            assert!(used > 1, "the tripping charge must be accounted: used {used}");
        }
        other => panic!("expected Err(MemoryBudgetExceeded), got {other:?}"),
    }

    // Neither abort may leave scheduler state behind.
    scheduler_drains(|| session.scheduler().stats());
}

/// Out-of-band CANCEL from a second connection aborts a stalled query on
/// the first: the runner gets `ERROR` code 100 and the server keeps
/// serving.
#[test]
fn wire_cancel_aborts_a_stalled_query() {
    let par = Parallelism { threads: 2, morsel_rows: 256 };
    let session = cold_session(tables(0.002), par);
    let q = column_plan_query(&session);
    let sql = parser::render_sql(&q);
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    const TOKEN: u64 = 0xC0FFEE;

    session.set_faults(Some("stall:1.0:10")).expect("valid spec");
    let response = std::thread::scope(|s| {
        let runner = s.spawn(|| {
            let mut client = Client::connect(addr).expect("connect runner");
            let resp = client.query_opts(&sql, TOKEN, 0).expect("stalled query answers");
            client.close().expect("close");
            resp
        });
        let mut canceller = Client::connect(addr).expect("connect canceller");
        let mut found = false;
        for _ in 0..2000 {
            if canceller.cancel(TOKEN).expect("cancel round-trip") {
                found = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(found, "the in-flight query must be registered under its token");
        canceller.close().expect("close");
        runner.join().expect("runner thread")
    });
    match response {
        Response::Error { code, message } => {
            assert_eq!(code, QueryError::CODE_CANCELLED, "{message}");
        }
        other => panic!("expected ERROR(cancelled), got {other:?}"),
    }

    session.set_faults(None).expect("disarm");
    let mut client = Client::connect(addr).expect("reconnect");
    assert!(
        matches!(client.query(&sql).expect("healthy"), Response::Result(_)),
        "the server must keep serving after a wire cancel"
    );
    client.close().expect("close");
    server.shutdown();
}

/// The STATS frame reports live scheduler counters, cache counters, and
/// the process metrics registry.
#[test]
fn stats_frames_report_scheduler_and_cache_counters() {
    let tables = tables(0.001);
    let session = Arc::new(Session::with_cache_budget(tables, Parallelism::serial(), 16 << 20));
    let admitted_before = session.scheduler().stats().admitted;
    let server = serve(session, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = parser::render_sql(&query(2, 2));

    assert!(matches!(client.query(&sql).expect("cold"), Response::Result(_)));
    let report = client.stats().expect("stats frame");
    assert!(report.sched.admitted > admitted_before, "{:?}", report.sched);
    scheduler_drains(|| client.stats().expect("stats frame").sched);
    let cache = report.cache.expect("cache enabled for this session");
    assert!(cache.result_misses >= 1, "{cache:?}");
    // The registry rides along: process-wide counters, sorted by name.
    // (Values are process-global, so only presence and monotonicity are
    // assertable here.)
    let metric = |report: &cvr_server::StatsReport, name: &str| {
        report.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let queries = metric(&report, "cvr_queries_total").expect("query counter exported");
    assert!(queries >= 1, "at least this test's query: {queries}");
    assert!(metric(&report, "cvr_query_latency_us_count").is_some(), "histogram exported");

    // A repeat is served from the cache: hits move, admissions may not
    // (the lookup happens before admission).
    assert!(matches!(client.query(&sql).expect("warm"), Response::Result(_)));
    let report2 = client.stats().expect("stats frame");
    assert!(report2.cache.expect("cache enabled").result_hits >= 1);
    assert!(metric(&report2, "cvr_queries_total").expect("still exported") > queries);
    client.close().expect("close");
    server.shutdown();
}

/// An oversized frame gets a structured `ERROR` (code 0) before the server
/// hangs up — never an opaque EOF, never an allocation.
#[test]
fn oversized_frames_get_a_structured_error_before_hangup() {
    let session = cold_session(tables(0.0005), Parallelism::serial());
    let server = serve(session, "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&u32::MAX.to_le_bytes()).expect("length prefix");
    stream.flush().expect("flush");

    let frame = read_frame(&mut stream).expect("readable").expect("an error frame, not EOF");
    match Response::decode(&frame).expect("decodable") {
        Response::Error { code, message } => {
            assert_eq!(code, cvr_server::server::ERROR_CODE_MALFORMED);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "the connection must close after a malformed frame"
    );
    server.shutdown();
}

/// A server that never answers trips the client's read timeout as a typed
/// error rather than blocking forever.
#[test]
fn client_read_timeout_surfaces_as_typed_timeout() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Accept and hold the socket without ever responding.
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_millis(200));
        drop(stream);
    });

    let cfg = ClientConfig { read_timeout: Duration::from_millis(50), ..Default::default() };
    let mut client = Client::connect_with(addr, &cfg).expect("connect");
    let err = client.query("SELECT SUM(lo_revenue) FROM lineorder").expect_err("must time out");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock),
        "{err:?}"
    );
    assert!(matches!(ClientError::from(err), ClientError::Timeout { op: "read" }));
    hold.join().expect("hold thread");
}

/// The availability soak, every fault class at once. Under the mixed spec —
/// rare page-read faults and worker panics, frequent morsel stalls, response
/// frames cut mid-write — three retrying connections drive a cold server
/// through the paper queries and generated ones, and every statement
/// eventually answers byte-identically to its fault-free serial reference.
/// Then, under certain stalls, cancel probes come back as `ERROR 100` and
/// 1 ms deadline probes as `ERROR 101`; disarmed, every statement answers
/// as before; and the scheduler drains.
#[test]
fn armed_fault_mix_keeps_every_statement_answerable() {
    const SPEC: &str = "io:0.00001,panic:0.001,stall:0.1:2,trunc:0.02";
    const CONNECTIONS: usize = 3;
    const STATEMENTS: usize = 60;
    // Attempts per statement on top of `RetryClient`'s own retries, which
    // by design never cover a contained worker panic (code 99).
    const ATTEMPTS: usize = 8;
    let session = cold_session(tables(0.001), Parallelism { threads: 2, morsel_rows: 1024 });
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut queries = all_queries();
    queries.extend(WorkloadConfig { seed: 0xC4A0, count: 12 }.generate());
    let mut seen = HashSet::new();
    let sqls: Vec<String> =
        queries.iter().map(parser::render_sql).filter(|sql| seen.insert(sql.clone())).collect();
    let mut serial = Client::connect(addr).expect("connect");
    let reference: HashMap<&str, Vec<u8>> = sqls
        .iter()
        .map(|sql| {
            let response = serial.query(sql).expect("reference");
            assert!(matches!(response, Response::Result(_)), "`{sql}`: {response:?}");
            (sql.as_str(), response.normalized().encode())
        })
        .collect();

    session.set_faults(Some(SPEC)).expect("valid spec");
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|w| {
                let (sqls, reference) = (&sqls, &reference);
                s.spawn(move || {
                    let mut client = RetryClient::new(addr, ClientConfig::default());
                    for i in 0..STATEMENTS {
                        let sql = &sqls[(w + i) % sqls.len()];
                        let answer = (0..ATTEMPTS).find_map(|_| match client.query(sql) {
                            Ok(Response::Error { code, message }) => {
                                let injected = code == cvr_server::server::ERROR_CODE_PANIC
                                    && message.contains("injected");
                                assert!(
                                    injected || QueryError::retryable_code(code),
                                    "`{sql}`: {code} {message}"
                                );
                                None
                            }
                            Ok(response) => Some(response.normalized().encode()),
                            // A transport failure past the client's budget.
                            Err(_) => None,
                        });
                        let answer = answer.unwrap_or_else(|| panic!("`{sql}` never answered"));
                        assert_eq!(answer, reference[sql.as_str()], "`{sql}` under faults");
                    }
                })
            })
            .collect();
        workers.into_iter().for_each(|w| w.join().expect("worker thread"));
    });

    // Every morsel stalls 10 ms: a cancel lands mid-run, a 1 ms deadline
    // expires. A probe shed at admission (103, when sibling tests fill the
    // scheduler) is retried, as its code says it may be.
    session.set_faults(Some("stall:1.0:10")).expect("valid spec");
    let sql = parser::render_sql(&column_plan_query(&session));
    let mut canceller = Client::connect(addr).expect("connect canceller");
    for token in 0xCA1..0xCA5u64 {
        let response = std::thread::scope(|s| {
            let sql = &sql;
            let runner = s.spawn(move || {
                RetryClient::new(addr, ClientConfig::default()).query_opts(sql, token, 0)
            });
            let mut found = false;
            for _ in 0..5000 {
                found = canceller.cancel(token).expect("cancel round-trip");
                if found || runner.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(found, "probe {token:#x} must be in flight when its cancel arrives");
            runner.join().expect("runner thread").expect("probe answers")
        });
        match response {
            Response::Error { code, .. } if code == QueryError::CODE_CANCELLED => {}
            other => panic!("cancel probe {token:#x}: {other:?}"),
        }
    }
    for probe in 0..4 {
        let response =
            (0..20).map(|_| canceller.query_opts(&sql, 0, 1).expect("deadline probe")).find(
                |r| !matches!(r, Response::Error { code, .. } if QueryError::retryable_code(*code)),
            );
        match response {
            Some(Response::Error { code, .. }) if code == QueryError::CODE_DEADLINE => {}
            other => panic!("deadline probe {probe}: {other:?}"),
        }
    }
    canceller.close().expect("close");

    session.set_faults(None).expect("disarm");
    for sql in &sqls {
        let response = serial.query(sql).expect("recovery");
        assert_eq!(response.normalized().encode(), reference[sql.as_str()], "`{sql}` recovered");
    }
    serial.close().expect("close");
    scheduler_drains(|| session.scheduler().stats());
    server.shutdown();
}
