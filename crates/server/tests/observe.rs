//! Differential observability tests: tracing must *observe* execution, not
//! perturb it.
//!
//! The load-bearing assertions: for every paper query (the 13 span all
//! four plan shapes — invisible-join, late-materialized join,
//! early-materialized, denormalized) under serial and 4-way morsel
//! execution, a traced run is byte-identical — output bytes *and*
//! [`IoStats`] — to an untraced run; `EXPLAIN ANALYZE` reports actual row
//! counts that equal what plain execution returns, and pairs every filter
//! operator's estimated with its actual *running* survivors; and the wire
//! `TRACE` frame carries the same spans without changing the `RESULT` frame.

use cvr_core::morsel::Parallelism;
use cvr_core::QueryCtx;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::all_queries;
use cvr_server::protocol::Response;
use cvr_server::session::QueryResponse;
use cvr_server::{parser, serve, Client, Session};
use std::sync::Arc;

fn tables() -> Arc<SsbTables> {
    Arc::new(SsbConfig::with_scale(0.001).generate())
}

/// Cache-disabled session: every run executes, so traced-vs-untraced
/// compares two real executions rather than a hit against a miss.
fn cold_session(par: Parallelism) -> Session {
    Session::with_cache_budget(tables(), par, 0)
}

/// Pull `"actual": {"rows": N` off the root tree node of an
/// `EXPLAIN ANALYZE` JSON payload.
fn root_actual_rows(json: &str) -> Option<u64> {
    let at = json.find("\"actual\": {\"rows\": ")?;
    let rest = &json[at + "\"actual\": {\"rows\": ".len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Tracing is a pure observer: across every paper query and both
/// parallelism shapes, the traced run's output bytes and I/O accounting
/// equal the untraced run's, and the recorded root span agrees with the
/// output row count.
#[test]
fn traced_runs_are_byte_identical_to_untraced() {
    for par in [Parallelism::serial(), Parallelism { threads: 4, morsel_rows: 256 }] {
        let session = cold_session(par);
        for q in all_queries() {
            let plain = session.run_ctx(&q, &QueryCtx::unbounded()).expect("untraced");
            let (traced, root) = session.run_traced(&q, &QueryCtx::unbounded()).expect("traced");
            assert_eq!(
                traced.output.to_bytes(),
                plain.output.to_bytes(),
                "{} ({} threads): tracing must not change the answer",
                q.id,
                par.threads
            );
            assert_eq!(
                traced.io, plain.io,
                "{} ({} threads): tracing must not change I/O accounting",
                q.id, par.threads
            );
            assert_eq!(traced.plan, plain.plan, "{}: same plan either way", q.id);
            let root = root.expect("a traced execution records a root span");
            assert_eq!(
                root.rows_out,
                Some(traced.output.rows.len() as u64),
                "{}: the root span's row count is the result's",
                q.id
            );
            assert!(!root.flatten().is_empty());
        }
    }
}

/// `EXPLAIN ANALYZE` executes for real: its reported actual row count at
/// the plan root equals plain execution's, for every paper query, serial
/// and parallel — and every query gets an est-vs-actual tree, not a bare
/// estimate dump.
#[test]
fn explain_analyze_actuals_match_plain_execution() {
    for par in [Parallelism::serial(), Parallelism { threads: 4, morsel_rows: 256 }] {
        let session = cold_session(par);
        for q in all_queries() {
            let rows =
                session.run_ctx(&q, &QueryCtx::unbounded()).expect("plain").output.rows.len();
            let sql = format!("EXPLAIN ANALYZE {}", parser::render_sql(&q));
            let QueryResponse::Explain { text, json } = session.query(&sql).expect("analyze")
            else {
                panic!("{}: EXPLAIN ANALYZE must return an explain payload", q.id)
            };
            assert!(
                text.contains("(actual:"),
                "{}: the text tree must carry actuals:\n{text}",
                q.id
            );
            assert_eq!(
                root_actual_rows(&json),
                Some(rows as u64),
                "{} ({} threads): root actual rows vs plain execution\n{json}",
                q.id,
                par.threads
            );
            assert!(json.contains("\"trace\": {"), "{}: raw span tree attached", q.id);
        }
    }
}

/// A join on scattered cities cannot be rewritten to a between-predicate:
/// the planner must still send it to the invisible join (its probes are bit
/// tests over dense keys and only look where candidates remain), and
/// `EXPLAIN ANALYZE` must pair each probe's estimate with the rows actually
/// left *after* it — checked here against a count made straight from the
/// tables.
#[test]
fn explain_analyze_pairs_each_probe_with_its_running_rows() {
    use cvr_data::gen::{city_name, NATIONS};
    use cvr_data::queries::{query, Pred};
    use cvr_data::schema::Dim;
    use cvr_data::value::Value;
    use std::collections::HashMap;

    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    // Q3.3 over 45 cities a side — every other nation, every other city
    // suffix, so no two are neighbours in the sorted hierarchy — by year.
    let cities: Vec<String> = NATIONS
        .iter()
        .flat_map(|region| region.iter().step_by(2))
        .flat_map(|nation| (0..3).map(move |i| city_name(nation, 2 * i)))
        .collect();
    let listed = Pred::InSet(cities.iter().map(|c| Value::str(c.as_str())).collect());
    let mut q = query(3, 3);
    for p in q.dim_predicates.iter_mut().filter(|p| p.dim != Dim::Date) {
        p.pred = listed.clone();
    }
    q.group_by.retain(|g| g.dim == Dim::Date);

    // Running survivors, counted row by row in probe order.
    let attr = |dim: Dim, column: &str| -> HashMap<i64, Value> {
        let t = tables.dim(dim);
        (0..t.num_rows())
            .map(|i| (t.value(i, dim.key_column()).as_int(), t.value(i, column)))
            .collect()
    };
    let fact = &tables.lineorder;
    let mut alive: Vec<usize> = (0..fact.num_rows()).collect();
    let mut running = Vec::new();
    for dim in q.restricted_dims() {
        for p in q.dim_predicates_on(dim) {
            let values = attr(dim, p.column);
            alive.retain(|&i| {
                p.pred.matches(&values[&fact.value(i, dim.fact_fk_column()).as_int()])
            });
        }
        running.push(alive.len() as u64);
    }
    assert!(running[0] > running[1] && running[1] > running[2] && running[2] > 0, "{running:?}");

    for par in [Parallelism::serial(), Parallelism { threads: 4, morsel_rows: 1024 }] {
        let session = Session::with_cache_budget(tables.clone(), par, 0);
        let sql = format!("EXPLAIN ANALYZE {}", parser::render_sql(&q));
        let QueryResponse::Explain { text, json } = session.query(&sql).expect("analyze") else {
            panic!("EXPLAIN ANALYZE must return an explain payload")
        };
        assert!(json.contains("\"plan\": \"tICL\""), "must plan to the invisible join:\n{text}");
        // Each probe node: its detail, estimate and actual, in tree order.
        let number_after = |from: &str, key: &str| -> u64 {
            let rest = &from[from.find(key).expect(key) + key.len()..];
            rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()].parse().expect(key)
        };
        // (The raw span tree after "candidates" has probe nodes of its own.)
        let tree = &json[..json.find("\"candidates\"").expect("ranking follows the tree")];
        let probes: Vec<(&str, u64, u64)> = tree
            .match_indices("{\"op\": \"probe\"")
            .map(|(at, _)| {
                let node = &tree[at..];
                let est = number_after(node, "\"est_rows\": ");
                (node, est, number_after(node, "\"actual\": {\"rows\": "))
            })
            .collect();
        assert_eq!(probes.len(), 3, "{text}");
        for ((node, est, actual), (fk, want)) in
            probes.iter().zip(["lo_custkey", "lo_suppkey", "lo_orderdate"].iter().zip(&running))
        {
            assert!(node.contains(&format!("\"detail\": \"{fk}")), "probe order: {text}");
            assert_eq!(
                actual, want,
                "{fk}: actual running rows at {} threads\n{text}",
                par.threads
            );
            assert!(
                est.max(want) <= &(2 * est.min(want) + 16),
                "{fk}: estimated {est} running rows against {want} actual\n{text}"
            );
        }
        assert!(probes[0].0.contains("key-bits") && probes[1].0.contains("key-bits"), "{text}");
    }
}

/// `EXPLAIN ANALYZE` bypasses the result-cache *read* (a hit would leave
/// no operator actuals) but still feeds the cache: analyzing twice keeps
/// producing real actuals, and a plain repeat afterwards is a hit.
#[test]
fn explain_analyze_skips_cache_reads_but_still_writes() {
    let session = Session::with_cache_budget(tables(), Parallelism::serial(), 16 << 20);
    let q = &all_queries()[0];
    let sql = parser::render_sql(q);
    let analyze = format!("EXPLAIN ANALYZE {sql}");
    for round in 0..2 {
        let QueryResponse::Explain { text, .. } = session.query(&analyze).expect("analyze") else {
            panic!("expected explain payload")
        };
        assert!(
            text.contains("(actual:"),
            "round {round}: analyze must execute operators, not replay the cache:\n{text}"
        );
    }
    let QueryResponse::Rows(rows) = session.query(&sql).expect("plain") else {
        panic!("expected rows")
    };
    assert!(rows.cached, "the analyzed execution must have populated the cache");
}

/// Over the wire: a traced statement's `RESULT` frame is byte-identical to
/// an untraced one's, and the mandatory `TRACE` frame carries a non-empty
/// span tree in both encodings.
#[test]
fn wire_trace_frames_ride_along_without_changing_results() {
    let session = Arc::new(cold_session(Parallelism::serial()));
    let server = serve(session, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for q in all_queries().iter().take(4) {
        let sql = parser::render_sql(q);
        let plain = client.query_opts(&sql, 0, 0).expect("untraced");
        let (traced, trace) = client.query_traced(&sql, 0, 0).expect("traced");
        assert_eq!(
            traced.normalized().encode(),
            plain.normalized().encode(),
            "{}: the RESULT frame must not depend on tracing",
            q.id
        );
        assert!(matches!(traced, Response::Result(_)));
        let (text, json) = trace.expect("an executed statement records spans");
        assert!(!text.is_empty(), "{}: text trace", q.id);
        assert!(json.starts_with('{'), "{}: json trace", q.id);
    }
    // A parse error still answers the TRACE frame (empty), keeping the
    // two-frames-per-request contract.
    let (err, trace) = client.query_traced("SELECT bogus FROM nowhere", 0, 0).expect("round trip");
    assert!(matches!(err, Response::Error { .. }));
    assert!(trace.is_none(), "no spans recorded for a statement that never executed");
    client.close().expect("close");
    server.shutdown();
}
