//! The differential harness locking down the column engine's one pipeline.
//!
//! Every cell of (query × plan shape × encoding × seed × scale factor ×
//! thread count) must agree with `cvr_data::reference` — and the cells of
//! one plan must agree with each other at every thread count *byte for
//! byte*, including the merged I/O accounting. This is the contract that
//! lets the figures make speed claims: more threads are only faster, never
//! different. There is no serial twin to compare against: the independent
//! oracles are the reference evaluator, which every system of the one
//! design list answers like (`tests/cross_engine.rs`), and the pinned
//! absolute numbers of [`iostats_match_the_pinned_fixture`]. Every system
//! runs through one `cvr_plan::Stores`.
//!
//! Structure:
//! * [`column_plan_shapes_match_reference`] — the three plan shapes
//!   (invisible join, late-materialized join, early materialization) at both
//!   compression settings, against the brute-force reference, at two seeds
//!   and two scale factors;
//! * [`row_designs_match_reference`] — the five row-store physical designs
//!   over the same datasets;
//! * [`thread_counts_are_byte_identical`] — thread counts {1, 2, 4, 8} on a
//!   fine morsel grid produce the [`QueryOutput`]s and
//!   [`cvr::storage::io::IoStats`] (bytes, pages, seeks) of one thread on
//!   the default grid, for every plan shape, the three pre-joined tables of
//!   Figure 8 and CS (Row-MV), with and without between-predicate
//!   rewriting (hash-only joins);
//! * [`iostats_match_the_pinned_fixture`] — absolute bytes/pages/seeks per
//!   (plan shape × query × pool), dumped from the pre-refactor serial
//!   executor, at threads 1 and 4, through the printer and checker every
//!   I/O fixture shares (`fixtures/mod.rs`);
//! * [`a_predicate_that_empties_most_morsels_changes_nothing_but_the_work`]
//!   — a one-month date range leaves most morsels without candidates: the
//!   kernels they skip must not show in the outputs or the I/O accounting,
//!   whichever position the emptying predicate is evaluated in;
//! * [`parallel_engine_matches_reference_directly`] — four workers vs the
//!   reference evaluator, not just vs one worker.

mod fixtures;

use cvr::core::morsel::Parallelism;
use cvr::core::{ColumnEngine, DenormVariant, EngineConfig, ExecOptions, QueryCtx, Tracer};
use cvr::data::gen::{SsbConfig, SsbTables};
use cvr::data::queries::{all_queries, SsbQuery};
use cvr::data::reference;
use cvr::data::result::QueryOutput;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, Design, PlanShape, Planner, Stores};
use cvr::row::designs::RowDesign;
use cvr::storage::io::{BufferPool, IoSession, IoStats};
use fixtures::{assert_pinned, Printer};
use std::sync::Arc;

/// Two seeds × two scale factors: small enough to stay fast, different
/// enough that sort orders, dictionary layouts and run structures all vary.
fn datasets() -> Vec<Arc<SsbTables>> {
    let mut out = Vec::new();
    for sf in [0.0008, 0.0015] {
        for seed in [7, 4242] {
            out.push(Arc::new(SsbConfig { sf, seed }.generate()));
        }
    }
    out
}

fn expected(tables: &SsbTables) -> Vec<QueryOutput> {
    all_queries().iter().map(|q| reference::evaluate(tables, q)).collect()
}

/// Every paper query through each of `designs` on every grid dataset,
/// against the reference evaluator.
fn designs_match_reference(designs: &[Design]) {
    for tables in datasets() {
        let exp = expected(&tables);
        let rows = tables.lineorder.num_rows();
        let stores = Stores::new(tables, Parallelism::serial());
        for &design in designs {
            for (q, e) in all_queries().iter().zip(&exp) {
                let got = stores.run(design, q, &ExecOptions::default(), &IoSession::unmetered());
                let label = design.label();
                assert_eq!(got.as_ref(), Ok(e), "{label} disagrees on {} ({rows} fact rows)", q.id);
            }
        }
    }
}

#[test]
fn column_plan_shapes_match_reference() {
    designs_match_reference(&Design::plan_shapes());
}

#[test]
fn row_designs_match_reference() {
    designs_match_reference(&RowDesign::ALL.map(Design::Row));
}

/// The three counters the byte-identity contract covers (`pool_hits` is a
/// diagnostic that legitimately varies with the morsel grid: boundary pages
/// shared by two morsels are touched twice).
fn charged(io: &IoSession) -> (u64, u64, u64) {
    let IoStats { bytes_read, pages_read, seeks, .. } = io.stats();
    (bytes_read, pages_read, seeks)
}

#[test]
fn thread_counts_are_byte_identical() {
    // One mid-sized dataset; small morsels so even it fans out widely.
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 2026 }.generate());
    let stores = Stores::new(tables, Parallelism::from_env());
    let par = |threads| Parallelism { threads, morsel_rows: 384 };
    // Every design on the morsel driver: the plan shapes, the pre-joined
    // tables of Figure 8 and CS (Row-MV).
    let pre_joined = DenormVariant::ALL.map(Design::PreJoined);
    let designs = Design::plan_shapes().into_iter().chain(pre_joined).chain([Design::RowMv]);
    for design in designs {
        let label = design.label();
        for q in all_queries() {
            let run = |opts: &ExecOptions<'_>| {
                let io = IoSession::unmetered();
                let out = stores.run(design, &q, opts, &io).expect("unbounded lifecycle");
                (out, charged(&io))
            };
            // Its answer and charges at one thread on the default grid are
            // those at every count on the fine grid.
            let one = run(&with_par(Parallelism::serial()));
            for threads in [1, 2, 4, 8] {
                assert_eq!(
                    run(&with_par(par(threads))),
                    one,
                    "{label} {} at {threads} threads",
                    q.id
                );
            }
            // The invisible join's one option (the other plans ignore it):
            // hash-only joins answer like rewritten ones and charge the same
            // at 1 and 4 threads.
            let hash_only =
                |threads| run(&ExecOptions { between_rewriting: false, ..with_par(par(threads)) });
            let (one_hash, four_hash) = (hash_only(1), hash_only(4));
            assert_eq!(one_hash.0, one.0, "{label} {} without between-rewriting", q.id);
            assert_eq!(one_hash, four_hash, "{label} {} hash-only, threads 1 vs 4", q.id);
        }
    }
}

fn with_par(par: Parallelism) -> ExecOptions<'static> {
    ExecOptions { par, ..ExecOptions::default() }
}

#[test]
fn iostats_match_the_pinned_fixture() {
    // `tests/fixtures/iostats_serial.txt` was dumped at the last commit that
    // still had a serial executor (7dbb9a0), from that executor
    // (`Parallelism::serial()`), for the 6 plan shapes × the 13 paper queries
    // × {unmetered pool, 1 MiB bounded pool} at sf 0.02, seed 6 — a scale at
    // which the 1 MiB pool evicts (11 bounded cells re-read pages the
    // unmetered ones do not), so the bounded cells pin the *order* of the
    // charges too: charging a dimension's hash table ahead of the whole
    // fan-out instead of in front of its probe moves 6 of them. With the
    // serial twin gone, "threads 1 vs N" only proves the pipeline agrees with
    // itself; this proves the absolute numbers did not drift.
    let tables = Arc::new(SsbConfig { sf: 0.02, seed: 6 }.generate());
    let expected: Vec<QueryOutput> =
        all_queries().iter().map(|q| reference::evaluate(&tables, q)).collect();
    let stores = Stores::new(tables, Parallelism::from_env());
    for threads in [1, 4] {
        let opts = with_par(Parallelism::with_threads(threads));
        let mut out = Printer::new(&stores, 1 << 20);
        for design in Design::plan_shapes() {
            for (q, want) in all_queries().iter().zip(&expected) {
                out.cell(q, want, design, &opts);
            }
        }
        assert_pinned(include_str!("fixtures/iostats_serial.txt"), &out.text(), 13 * 6, 11);
    }
}

#[test]
fn a_predicate_that_empties_most_morsels_changes_nothing_but_the_work() {
    // One month of the date-sorted fact table: after the DATE probe only a
    // morsel or two of the ~32-morsel grid still has candidates, and every
    // later predicate of the others runs no kernel at all. A skipped kernel
    // must still charge its scan (the modeled disk reads the column, the CPU
    // skips words), so outputs *and* IoStats must equal those of the same
    // statement with the date predicate moved last — where every morsel runs
    // every earlier kernel in full — at every thread count, for every plan
    // shape, compressed and not.
    use cvr::data::queries::{AggExpr, DimPredicate, FactPredicate, GroupColumn, Pred, QueryId};
    use cvr::data::schema::Dim;
    use cvr::data::value::Value;

    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 2026 }.generate());
    let stores = Stores::new(tables.clone(), Parallelism::from_env());
    let month = DimPredicate {
        dim: Dim::Date,
        column: "d_yearmonthnum",
        pred: Pred::Eq(Value::Int(199_401)),
    };
    // Disjoint hierarchy values: key bits over the dense dimension keys.
    let any_of = |names: &[&str]| Pred::InSet(names.iter().map(|n| Value::str(*n)).collect());
    let customers = DimPredicate {
        dim: Dim::Customer,
        column: "c_region",
        pred: any_of(&["AFRICA", "ASIA", "EUROPE"]),
    };
    let parts = DimPredicate {
        dim: Dim::Part,
        column: "p_mfgr",
        pred: any_of(&["MFGR#1", "MFGR#3", "MFGR#5"]),
    };
    let date_first = SsbQuery {
        id: QueryId::new(9, 1),
        dim_predicates: vec![month.clone(), customers.clone(), parts.clone()],
        fact_predicates: vec![FactPredicate {
            column: "lo_quantity",
            pred: Pred::Lt(Value::Int(40)),
        }],
        group_by: vec![GroupColumn { dim: Dim::Customer, column: "c_nation" }],
        aggregate: AggExpr::SumRevenue,
        paper_selectivity: 0.0,
    };
    let date_last =
        SsbQuery { dim_predicates: vec![customers, parts, month], ..date_first.clone() };
    let expected = reference::evaluate(&tables, &date_first);
    assert!(!expected.rows.is_empty(), "the month must select something");

    let at = |threads| with_par(Parallelism { threads, morsel_rows: 384 });
    for design in Design::plan_shapes() {
        let code = design.label();
        let run = |q: &SsbQuery, opts: &ExecOptions<'_>| {
            let io = IoSession::unmetered();
            let out = stores.run(design, q, opts, &io).expect("unbounded lifecycle");
            (out, charged(&io))
        };
        let (last, last_io) = run(&date_last, &at(1));
        assert_eq!(last, expected, "{code}: date predicate last");
        for threads in [1, 2, 4] {
            let (first, io) = run(&date_first, &at(threads));
            assert_eq!(first, expected, "{code}: date predicate first at {threads} threads");
            assert_eq!(
                io, last_io,
                "{code} at {threads} threads: skipped kernels must still charge their scans"
            );
        }
    }
    // And the morsels really were emptied: the filter's survivors — what the
    // traced last filter operator has left — sit in a small corner of the
    // grid.
    let ctx = QueryCtx::unbounded();
    ctx.attach_tracer(Tracer::new());
    let traced = ExecOptions { ctx: ctx.clone(), ..at(1) };
    let full = Design::Column(EngineConfig::FULL);
    stores.run(full, &date_first, &traced, &IoSession::unmetered()).expect("unbounded lifecycle");
    let root = ctx.tracer().expect("attached above").take_root().expect("traced");
    let spans = root.flatten();
    let last_filter = spans.iter().rfind(|s| s.op == "probe" || s.op == "scan");
    let survivors = last_filter.and_then(|s| s.rows_out).expect("a traced filter operator");
    let rows = tables.lineorder.num_rows() as u64;
    assert!(survivors > 0 && survivors * 50 < rows, "{survivors} of {rows} rows survive");
}

#[test]
fn bounded_pool_io_matches_serial() {
    // The figure binaries run over a small buffer pool. Execution must
    // charge the modeled disk op-major — column by column, not morsel by
    // morsel — at every thread count and on every grid, or the reproduced
    // numbers become machine-dependent. Everything here is deterministic,
    // so exact equality is the right assertion.
    let tables = Arc::new(SsbConfig { sf: 0.004, seed: 6 }.generate());
    let stores = Stores::new(tables, Parallelism::from_env());
    // 4 pages: re-read pages have been evicted.
    let pool_bytes = 4 * (32u64 << 10);
    // One design on `q`: its answer and bounded-pool charges at 2 and 4
    // threads are one thread's. Returns whether the pool evicted.
    let cell = |design: Design, q: &SsbQuery| {
        let run = |par, io: &IoSession| {
            stores.run(design, q, &with_par(par), io).expect("unbounded lifecycle")
        };
        let one_io = IoSession::new(BufferPool::new(pool_bytes));
        let one = run(Parallelism::serial(), &one_io);
        let unmetered = IoSession::unmetered();
        run(Parallelism::serial(), &unmetered);
        for threads in [2, 4] {
            let io = IoSession::new(BufferPool::new(pool_bytes));
            let out = run(Parallelism { threads, morsel_rows: 1024 }, &io);
            let at = format!("{} {} at {threads} threads", design.label(), q.id);
            assert_eq!(out, one, "{at}");
            assert_eq!(charged(&io), charged(&one_io), "{at}: bounded-pool IoStats differ");
        }
        charged(&one_io) != charged(&unmetered)
    };
    let spilled = |designs: &[Design]| {
        let cells = designs.iter().flat_map(|&d| all_queries().into_iter().map(move |q| (d, q)));
        cells.filter(|(design, q)| cell(*design, q)).count()
    };
    let spilled_shapes = spilled(&Design::plan_shapes());
    assert!(spilled_shapes >= 30, "only {spilled_shapes} cells evicted: the pool bounds nothing");
    let spilled_pre_joined = spilled(&DenormVariant::ALL.map(Design::PreJoined));
    assert!(spilled_pre_joined >= 10, "only {spilled_pre_joined} pre-joined cells evicted");
}

#[test]
fn packed_encodings_run_through_the_grid() {
    // The grid above only proves the word-parallel kernels correct if the
    // compressed stores actually contain truly bit-packed columns. Pin the
    // encoding choices: at every grid dataset, the compressed fact
    // projection must hold frame-of-reference packed integers (the FK and
    // measure-predicate columns the invisible join scans) and bit-packed
    // dictionary codes, and those columns must answer queries identically
    // at every thread count — so a regression in the auto-chooser can't
    // silently take the packed paths out of the differential.
    for tables in datasets() {
        let engine = ColumnEngine::new(tables.clone());
        let db = engine.db(EngineConfig::FULL);
        for fk in ["lo_custkey", "lo_suppkey", "lo_quantity", "lo_discount"] {
            assert!(
                db.fact.column(fk).column.as_int().is_packed(),
                "{fk} must be frame-of-reference bit-packed under compression"
            );
        }
        let (dict, codes) = db.fact.column("lo_shipmode").column.as_str().dict_parts();
        assert!(!dict.is_empty());
        assert_eq!(codes.len() as usize, tables.lineorder.num_rows());
        // And the packed image really is the charged footprint.
        assert_eq!(
            db.fact.column("lo_quantity").bytes(),
            match &db.fact.column("lo_quantity").column {
                cvr::storage::Column::Int(cvr::storage::IntColumn::Packed { packed, .. }) =>
                    packed.bytes(),
                _ => unreachable!(),
            }
        );
    }
}

#[test]
fn code_level_aggregation_is_engaged_and_byte_identical() {
    // The thread-count and plan-shape grids above only prove the code-level
    // aggregator correct if it is actually the path taken. Pin the strategy
    // choice: on every grid dataset's *compressed* store, all 13 paper
    // queries and 30 generated queries must aggregate on composed group ids
    // (every group column is a sorted dictionary or bounded-integer column
    // there), and the uncompressed store must fall back to the Value-keyed
    // reference exactly for queries grouping by a plain string column. Then
    // confirm byte-identity of both stores against the reference across
    // thread counts {1, 2, 4, 8} for a grouped flight-2 and flight-3 query
    // — the representative shapes the aggregation tail dominates.
    use cvr::core::agg::AggStrategy;
    use cvr::core::CStoreDb;

    // Engagement at the benchmark scale: sf 0.02 is where every dimension
    // group column compresses to a dictionary or bounded-integer encoding
    // (at tiny scale factors near-unique brand/city strings stay plain, and
    // the honest answer is the fallback).
    {
        let tables = Arc::new(SsbConfig { sf: 0.02, seed: 7 }.generate());
        let compressed = CStoreDb::build(tables, true);
        let mut queries = all_queries();
        queries.extend(WorkloadConfig { seed: 11, count: 30 }.generate());
        for q in &queries {
            assert!(
                AggStrategy::for_query(&compressed, q).is_code_level(),
                "{}: compressed store must aggregate on dictionary/FoR codes",
                q.id
            );
        }
    }

    for tables in datasets().into_iter().take(2) {
        let engine = ColumnEngine::new(tables.clone());
        let compressed = engine.db(EngineConfig::FULL);
        let plain = engine.db(EngineConfig::parse("tIcL"));
        for q in all_queries() {
            // Strategy choice is exactly "every group column has a code
            // space", on both stores.
            for db in [compressed, plain] {
                let all_coded = q.group_by.iter().all(|g| {
                    cvr::core::extract::CodeSpace::of(db.dim(g.dim).store.column(g.column))
                        .is_some()
                });
                assert_eq!(
                    AggStrategy::for_query(db, &q).is_code_level(),
                    all_coded,
                    "{}: strategy must track the group columns' code spaces",
                    q.id
                );
            }
        }
        for q in [cvr::data::queries::query(2, 1), cvr::data::queries::query(3, 1)] {
            let expected = reference::evaluate(&tables, &q);
            // The invisible join over the compressed store and the plain one.
            for cfg in [true, false].map(|compressed| PlanShape::Invisible.config(compressed)) {
                for threads in [1, 2, 4, 8] {
                    let io = IoSession::unmetered();
                    let par = Parallelism { threads, morsel_rows: 512 };
                    assert_eq!(
                        engine.execute_with(&q, cfg, par, &io),
                        expected,
                        "{cfg} {} at {threads} threads",
                        q.id
                    );
                }
            }
        }
    }
}

#[test]
fn planner_picked_plans_are_byte_identical_to_hand_picked() {
    // The cost-based planner's fact-order option must be *transparent*: whatever configuration and fact-predicate order the
    // planner picks, executing through the planner produces byte-identical
    // outputs AND byte-identical I/O accounting to handing the engines the
    // same configuration with the same (hand-permuted) query directly —
    // over the 13 paper queries and a generated ad-hoc workload of ≥ 30.
    let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 77 }.generate());
    let stores = Stores::new(tables.clone(), Parallelism::from_env());
    let planner = Planner::new(Catalog::build(stores.engine()));

    let mut queries: Vec<SsbQuery> = all_queries();
    queries.extend(WorkloadConfig { seed: 2026, count: 30 }.generate());
    assert!(queries.len() >= 43);

    for q in &queries {
        let plan = planner.plan(q);
        let expected = reference::evaluate(&tables, q);
        let hand_q = q.with_fact_order(&plan.fact_order);
        let run = |q: &SsbQuery, opts: &ExecOptions<'_>| {
            let io = IoSession::unmetered();
            let out = stores.run(plan.choice.into(), q, opts, &io).expect("unbounded lifecycle");
            (out, charged(&io))
        };
        let planned =
            run(q, &ExecOptions { fact_order: Some(&plan.fact_order), ..ExecOptions::default() });
        let hand = run(&hand_q, &ExecOptions::default());
        assert_eq!(planned.0, expected, "{}: planned execution disagrees with reference", q.id);
        assert_eq!(
            planned,
            hand,
            "{}: planned vs hand-picked differ ({})",
            q.id,
            plan.choice.label()
        );
    }
}

#[test]
fn parallel_engine_matches_reference_directly() {
    for tables in datasets().into_iter().take(2) {
        let exp = expected(&tables);
        let stores = Stores::new(tables, Parallelism::from_env());
        let opts = with_par(Parallelism { threads: 4, morsel_rows: 256 });
        for design in Design::plan_shapes() {
            for (q, e) in all_queries().iter().zip(&exp) {
                let got = stores.run(design, q, &opts, &IoSession::unmetered());
                assert_eq!(
                    got.as_ref(),
                    Ok(e),
                    "parallel {} disagrees on {}",
                    design.label(),
                    q.id
                );
            }
        }
    }
}

#[test]
fn concurrent_sessions_are_byte_identical_to_serial() {
    // The front-door extension of the differential contract: one shared
    // `Session` answering N concurrent SQL streams must produce, for every
    // query, byte-identical output AND IoStats to the same queries run
    // serially through the direct-descriptor path. (The full wire-level
    // version — real TCP connections — lives in crates/server/tests; this
    // cell pins the Session layer itself into the differential grid.)
    use cvr::server::session::QueryResponse;
    use cvr::server::{parser, Session};

    let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 77 }.generate());
    let session = Arc::new(Session::new(tables));

    let mut queries: Vec<SsbQuery> = all_queries();
    queries.extend(WorkloadConfig { seed: 5, count: 10 }.generate());

    // Serial reference via the descriptor path.
    let serial: Vec<(Vec<u8>, cvr::storage::io::IoStats)> = queries
        .iter()
        .map(|q| {
            let r = session.run(q);
            (r.output.to_bytes(), r.io)
        })
        .collect();

    // 8 concurrent SQL streams over the same session.
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let session = session.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                queries
                    .iter()
                    // Stagger the starting point so streams interleave
                    // different queries at any instant.
                    .cycle()
                    .skip(w * 3)
                    .take(queries.len())
                    .map(|q| {
                        let sql = parser::render_sql(q);
                        match session.query(&sql).expect("parse") {
                            QueryResponse::Rows(r) => (q.id, r.output.to_bytes(), r.io),
                            _ => unreachable!(),
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (w, worker) in workers.into_iter().enumerate() {
        for (id, bytes, io) in worker.join().expect("session stream") {
            let idx = queries.iter().position(|q| q.id == id).unwrap();
            let (ref_bytes, ref_io) = &serial[idx];
            assert_eq!(&bytes, ref_bytes, "stream {w}: {id} output diverged under concurrency");
            assert_eq!(&io, ref_io, "stream {w}: {id} IoStats diverged under concurrency");
        }
    }
}

#[test]
fn cache_grid_is_byte_identical_to_serial_cold() {
    // The cache-correctness grid: repeated and interleaved queries over
    // {cold, hit, concurrent×8} must all be identical — the whole
    // `RowsResponse`, output bytes AND IoStats, `cached` aside — to a serial
    // cold reference taken from a cache-disabled session, at threads 1 and 4
    // and in either submission order. A result-cache hit may change latency,
    // never a byte.
    use cvr::data::queries::{AggExpr, GroupColumn, QueryId};
    use cvr::data::schema::Dim;
    use cvr::server::session::{QueryResponse, RowsResponse};
    use cvr::server::{parser, Session};
    let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 99 }.generate());
    let mut queries: Vec<SsbQuery> = all_queries();
    queries.extend(WorkloadConfig { seed: 9, count: 8 }.generate());
    // Statements that share a WHERE and differ in group-by (even inputs) or
    // aggregate (odd ones): each is its own cold execution whichever of the
    // pair ran first — nothing of a filter outlives its statement.
    let siblings: Vec<SsbQuery> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut sibling = SsbQuery { id: QueryId::new(8, i as u8), ..q.clone() };
            if i % 2 == 1 {
                sibling.aggregate = match q.aggregate {
                    AggExpr::SumRevenue => AggExpr::SumRevenueMinusSupplyCost,
                    _ => AggExpr::SumRevenue,
                };
            } else if sibling.group_by.pop().is_none() {
                sibling.group_by.push(GroupColumn { dim: Dim::Date, column: "d_year" });
            }
            sibling
        })
        .collect();
    queries.extend(siblings);
    let uncached = |r: RowsResponse| RowsResponse { cached: false, ..r };

    for threads in [1, 4] {
        let par = Parallelism::with_threads(threads);
        // Serial cold reference: cache disabled, so every run executes.
        let cold = Session::with_cache_budget(tables.clone(), par, 0);
        let reference: Vec<RowsResponse> = queries.iter().map(|q| cold.run(q)).collect();
        assert!(reference.iter().all(|r| !r.cached));

        for reversed in [false, true] {
            // Cold then hit, interleaved (q0 q1 ... q0 q1 ...): the first
            // round executes and populates the cache, the second must hit it.
            let mut order: Vec<(&SsbQuery, &RowsResponse)> =
                queries.iter().zip(&reference).collect();
            if reversed {
                order.reverse();
            }
            let session = Arc::new(Session::with_cache_budget(tables.clone(), par, 64 << 20));
            for round in 0..2 {
                for (q, expected) in &order {
                    let r = session.run(q);
                    let at = format!("{threads} threads, reversed={reversed}, round {round}");
                    assert_eq!(r.cached, round == 1, "{at}: {} cached flag", q.id);
                    assert_eq!(&uncached(r), *expected, "{at}: {}", q.id);
                }
            }

            // Concurrent×8 over the warmed session, staggered so streams
            // interleave different statements — hits under contention are
            // still identical.
            let workers: Vec<_> = (0..8)
                .map(|w| {
                    let session = session.clone();
                    let queries = queries.clone();
                    std::thread::spawn(move || {
                        queries
                            .iter()
                            .cycle()
                            .skip(w * 3)
                            .take(queries.len())
                            .map(|q| {
                                let sql = parser::render_sql(q);
                                match session.query(&sql).expect("parse") {
                                    QueryResponse::Rows(r) => (q.id, r.output.to_bytes(), r.io),
                                    _ => unreachable!(),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (w, worker) in workers.into_iter().enumerate() {
                for (id, bytes, io) in worker.join().expect("stream") {
                    let expected = &reference[queries.iter().position(|q| q.id == id).unwrap()];
                    assert_eq!(bytes, expected.output.to_bytes(), "stream {w}: {id} output");
                    assert_eq!(io, expected.io, "stream {w}: {id} IoStats");
                }
            }
            let stats = session.cache_stats().expect("cache enabled");
            assert!(stats.result_hits > 0, "the grid must actually exercise hits: {stats:?}");
        }
    }
}

#[test]
fn eviction_under_a_tiny_budget_stays_correct() {
    // Squeeze the cache hard enough that entries are evicted (or refused)
    // constantly; every answer must still match the uncached reference.
    use cvr::server::Session;

    let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 99 }.generate());
    let queries: Vec<SsbQuery> = all_queries();
    let cold = Session::with_cache_budget(tables.clone(), Parallelism::from_env(), 0);
    let reference: Vec<(Vec<u8>, IoStats)> = queries
        .iter()
        .map(|q| {
            let r = cold.run(q);
            (r.output.to_bytes(), r.io)
        })
        .collect();

    let tiny = Session::with_cache_budget(tables, Parallelism::from_env(), 2 << 10);
    for round in 0..3 {
        for (q, (ref_bytes, ref_io)) in queries.iter().zip(&reference) {
            let r = tiny.run(q);
            assert_eq!(r.output.to_bytes(), *ref_bytes, "round {round}: {} bytes", q.id);
            assert_eq!(r.io, *ref_io, "round {round}: {} IoStats", q.id);
        }
    }
    let stats = tiny.cache_stats().expect("cache enabled");
    assert!(stats.bytes <= stats.budget, "footprint must respect the budget: {stats:?}");
    assert!(stats.evicted > 0, "a 2 KiB budget over 13 queries must evict: {stats:?}");
}
