//! The differential harness locking down the column engine's one pipeline.
//!
//! Every cell of (query × plan shape × encoding × row design × seed × scale
//! factor × thread count) must agree with `cvr_data::reference` — and the
//! cells of one plan must agree with each other at every thread count *byte
//! for byte*, including the merged I/O accounting. This is the contract
//! that lets the `scaling` binary make speed claims: more threads are only
//! faster, never different. There is no serial twin to compare against: the
//! independent oracles are the reference evaluator, the five row designs
//! (equivalent rewrites of the same queries) and the pinned absolute
//! numbers of [`iostats_match_the_pinned_fixture`].
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
//!   the default grid, for every plan shape, for the invisible join
//!   without between-predicate rewriting (hash-only joins) and for the three
//!   pre-joined tables of Figure 8;
//! * [`iostats_match_the_pinned_fixture`] — absolute bytes/pages/seeks per
//!   (query × plan shape × pool), dumped from the pre-refactor serial
//!   executor, at threads 1 and 4;
//! * [`a_predicate_that_empties_most_morsels_changes_nothing_but_the_work`]
//!   — a one-month date range leaves most morsels without candidates: the
//!   kernels they skip must not show in the outputs or the I/O accounting,
//!   whichever position the emptying predicate is evaluated in;
//! * [`parallel_engine_matches_reference_directly`] — four workers vs the
//!   reference evaluator, not just vs one worker.

use cvr::core::morsel::Parallelism;
use cvr::core::{
    ColumnEngine, DenormDb, DenormVariant, EngineConfig, ExecOptions, QueryCtx, Tracer,
};
use cvr::data::gen::{SsbConfig, SsbTables};
use cvr::data::queries::{all_queries, SsbQuery};
use cvr::data::reference;
use cvr::data::result::QueryOutput;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, PhysicalChoice, Planner};
use cvr::row::designs::{RowDb, RowDesign};
use cvr::storage::io::{BufferPool, IoSession, IoStats};
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

/// The three column plan shapes at both compression settings:
/// invisible join (`tICL`/`tIcL`), late-materialized join (`tiCL`/`ticL`),
/// early materialization (`tICl`/`tIcl`).
const PLAN_SHAPES: [&str; 6] = ["tICL", "tIcL", "tiCL", "ticL", "tICl", "tIcl"];

#[test]
fn column_plan_shapes_match_reference() {
    for tables in datasets() {
        let exp = expected(&tables);
        let engine = ColumnEngine::new(tables.clone());
        let io = IoSession::unmetered();
        for code in PLAN_SHAPES {
            let cfg = EngineConfig::parse(code);
            for (q, e) in all_queries().iter().zip(&exp) {
                assert_eq!(
                    &engine.execute(q, cfg, &io),
                    e,
                    "{code} disagrees with reference on {} ({} fact rows)",
                    q.id,
                    tables.lineorder.num_rows()
                );
            }
        }
    }
}

#[test]
fn row_designs_match_reference() {
    for tables in datasets() {
        let exp = expected(&tables);
        let io = IoSession::unmetered();
        for design in RowDesign::ALL {
            let db = RowDb::build(tables.clone(), design);
            for (q, e) in all_queries().iter().zip(&exp) {
                assert_eq!(
                    &db.execute(q, &io),
                    e,
                    "{} disagrees with reference on {} ({} fact rows)",
                    design.label(),
                    q.id,
                    tables.lineorder.num_rows()
                );
            }
        }
    }
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
    let engine = ColumnEngine::new(tables);
    let par = |threads| Parallelism { threads, morsel_rows: 384 };
    let run = |q: &SsbQuery, cfg, opts: &ExecOptions<'_>| {
        let io = IoSession::unmetered();
        let out = engine.run(q, cfg, opts, &io).expect("unbounded lifecycle");
        (out, charged(&io))
    };
    // One plan on `q`: its answer and charges at one thread on the default
    // grid are those at every count on the fine grid. Returns the answer.
    let cell =
        |label: &str, q: &SsbQuery, plan: &dyn Fn(Parallelism, &IoSession) -> QueryOutput| {
            let one_io = IoSession::unmetered();
            let one = plan(Parallelism::serial(), &one_io);
            for threads in [1, 2, 4, 8] {
                let io = IoSession::unmetered();
                assert_eq!(plan(par(threads), &io), one, "{label} {} at {threads} threads", q.id);
                assert_eq!(
                    charged(&io),
                    charged(&one_io),
                    "{label} {} at {threads} threads: merged IoStats must equal one thread's",
                    q.id
                );
            }
            one
        };
    for code in PLAN_SHAPES {
        let cfg = EngineConfig::parse(code);
        for q in all_queries() {
            let one = cell(code, &q, &|par, io| engine.execute_with(&q, cfg, par, io));
            if !(cfg.late_materialization && cfg.invisible_join) {
                continue;
            }
            // The invisible join's one option: hash-only joins answer like
            // rewritten ones and charge the same at 1 and 4 threads.
            let hash_only =
                |threads| ExecOptions { between_rewriting: false, ..with_par(par(threads)) };
            let (out1, io1) = run(&q, cfg, &hash_only(1));
            let (out4, io4) = run(&q, cfg, &hash_only(4));
            assert_eq!(out1, one, "{code} {} without between-rewriting", q.id);
            assert_eq!((out1, io1), (out4, io4), "{code} {} hash-only, threads 1 vs 4", q.id);
        }
    }
    // The pre-joined tables of Figure 8 run on the same morsel driver.
    for db in denormalized(&engine.db(EngineConfig::FULL).tables) {
        for q in all_queries() {
            cell(db.variant.label(), &q, &|par, io| {
                db.run(&q, EngineConfig::FULL, &with_par(par), io).expect("unbounded lifecycle")
            });
        }
    }
}

/// The three pre-joined tables of Figure 8 over `tables`.
fn denormalized(tables: &Arc<SsbTables>) -> Vec<DenormDb> {
    [DenormVariant::NoCompression, DenormVariant::IntCompression, DenormVariant::MaxCompression]
        .into_iter()
        .map(|variant| DenormDb::build(tables.clone(), variant))
        .collect()
}

fn with_par(par: Parallelism) -> ExecOptions<'static> {
    ExecOptions { par, ..ExecOptions::default() }
}

#[test]
fn iostats_match_the_pinned_fixture() {
    // `tests/fixtures/iostats_serial.txt` was dumped at the last commit that
    // still had a serial executor (7dbb9a0), from that executor
    // (`Parallelism::serial()`), for the 13 paper queries × the 6 plan shapes
    // × {unmetered pool, 1 MiB bounded pool} at sf 0.02, seed 6 — a scale at
    // which the 1 MiB pool evicts (11 bounded cells re-read pages the
    // unmetered ones do not), so the bounded cells pin the *order* of the
    // charges too: charging a dimension's hash table ahead of the whole
    // fan-out instead of in front of its probe moves 6 of them. With the
    // serial twin gone, "threads 1 vs N" only proves the pipeline agrees with
    // itself; this proves the absolute numbers did not drift.
    let tables = Arc::new(SsbConfig { sf: 0.02, seed: 6 }.generate());
    let engine = ColumnEngine::new(tables);
    let fixture = include_str!("fixtures/iostats_serial.txt");
    let (mut cells, mut evicting, mut unmetered) = (0, 0, (0, 0, 0));
    for line in fixture.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [id, code, pool, bytes, pages, seeks] = f[..] else { panic!("bad line: {line}") };
        let q = all_queries().into_iter().find(|q| q.id.to_string() == id).expect("paper query");
        let want: (u64, u64, u64) =
            (bytes.parse().unwrap(), pages.parse().unwrap(), seeks.parse().unwrap());
        // Each unmetered line is followed by the same cell over the pool.
        match pool {
            "unmetered" => unmetered = want,
            _ => evicting += (want != unmetered) as usize,
        }
        for threads in [1, 4] {
            let io = match pool {
                "unmetered" => IoSession::unmetered(),
                "1MiB" => IoSession::new(BufferPool::new(1 << 20)),
                other => panic!("unknown pool {other}"),
            };
            engine.execute_with(
                &q,
                EngineConfig::parse(code),
                Parallelism::with_threads(threads),
                &io,
            );
            assert_eq!(charged(&io), want, "{id} {code} {pool} at {threads} threads");
        }
        cells += 1;
    }
    assert_eq!(cells, 13 * PLAN_SHAPES.len() * 2);
    assert_eq!(evicting, 11, "the bounded cells must not merely repeat the unmetered ones");
}

#[test]
fn a_predicate_that_empties_most_morsels_changes_nothing_but_the_work() {
    // One month of the date-sorted fact table: after the DATE probe only a
    // morsel or two of the ~32-morsel grid still has candidates, and every
    // later predicate of the others runs no kernel at all. A skipped kernel
    // must still charge its scan (the modeled disk reads the column, the CPU
    // skips words), so outputs *and* IoStats must equal those of the same
    // statement with the date predicate moved last — where every morsel runs
    // every earlier kernel in full — at every thread count, for both
    // late-materialized shapes, compressed and not.
    use cvr::data::queries::{AggExpr, DimPredicate, FactPredicate, GroupColumn, Pred, QueryId};
    use cvr::data::schema::Dim;
    use cvr::data::value::Value;

    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 2026 }.generate());
    let engine = ColumnEngine::new(tables.clone());
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

    let par = |threads| Parallelism { threads, morsel_rows: 384 };
    for code in ["tICL", "tIcL", "tiCL", "ticL"] {
        let cfg = EngineConfig::parse(code);
        let last_io = IoSession::unmetered();
        let last = engine.execute_with(&date_last, cfg, par(1), &last_io);
        assert_eq!(last, expected, "{code}: date predicate last");
        for threads in [1, 2, 4] {
            let io = IoSession::unmetered();
            let first = engine.execute_with(&date_first, cfg, par(threads), &io);
            assert_eq!(first, expected, "{code}: date predicate first at {threads} threads");
            assert_eq!(
                charged(&io),
                charged(&last_io),
                "{code} at {threads} threads: skipped kernels must still charge their scans"
            );
        }
    }
    // And the morsels really were emptied: the filter's survivors — what the
    // traced last filter operator has left — sit in a small corner of the
    // grid.
    let ctx = QueryCtx::unbounded();
    ctx.attach_tracer(Tracer::new());
    let traced = ExecOptions { ctx: ctx.clone(), ..with_par(par(1)) };
    engine
        .run(&date_first, EngineConfig::FULL, &traced, &IoSession::unmetered())
        .expect("unbounded lifecycle");
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
    let engine = ColumnEngine::new(tables);
    let pool_bytes = 4 * (32u64 << 10); // 4 pages: re-read pages have been evicted
                                        // One plan on `q`: its answer and bounded-pool charges at 2 and 4
                                        // threads are one thread's. Returns whether the pool evicted.
    let cell =
        |label: &str, q: &SsbQuery, plan: &dyn Fn(Parallelism, &IoSession) -> QueryOutput| {
            let one_io = IoSession::new(BufferPool::new(pool_bytes));
            let one = plan(Parallelism::serial(), &one_io);
            let unmetered = IoSession::unmetered();
            plan(Parallelism::serial(), &unmetered);
            for threads in [2, 4] {
                let io = IoSession::new(BufferPool::new(pool_bytes));
                let out = plan(Parallelism { threads, morsel_rows: 1024 }, &io);
                assert_eq!(out, one, "{label} {} at {threads} threads", q.id);
                assert_eq!(
                    charged(&io),
                    charged(&one_io),
                    "{label} {} at {threads} threads: bounded-pool IoStats must equal one thread's",
                    q.id
                );
            }
            charged(&one_io) != charged(&unmetered)
        };
    let mut spilled = 0;
    for code in PLAN_SHAPES {
        let cfg = EngineConfig::parse(code);
        for q in all_queries() {
            spilled += cell(code, &q, &|par, io| engine.execute_with(&q, cfg, par, io)) as usize;
        }
    }
    assert!(spilled >= 30, "only {spilled} cells evicted: the pool no longer bounds anything");
    let mut spilled = 0;
    for db in denormalized(&engine.db(EngineConfig::FULL).tables) {
        for q in all_queries() {
            spilled += cell(db.variant.label(), &q, &|par, io| {
                db.run(&q, EngineConfig::FULL, &with_par(par), io).expect("unbounded lifecycle")
            }) as usize;
        }
    }
    assert!(spilled >= 10, "only {spilled} pre-joined cells evicted: the pool bounds nothing");
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
            for code in ["tICL", "tIcL"] {
                let cfg = EngineConfig::parse(code);
                for threads in [1, 2, 4, 8] {
                    let io = IoSession::unmetered();
                    let par = Parallelism { threads, morsel_rows: 512 };
                    assert_eq!(
                        engine.execute_with(&q, cfg, par, &io),
                        expected,
                        "{code} {} at {threads} threads",
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
    let engine = ColumnEngine::new(tables.clone());
    let planner = Planner::new(Catalog::build(&engine));
    let mut row_dbs: std::collections::HashMap<RowDesign, RowDb> = std::collections::HashMap::new();

    let mut queries: Vec<SsbQuery> = all_queries();
    queries.extend(WorkloadConfig { seed: 2026, count: 30 }.generate());
    assert!(queries.len() >= 43);

    for q in &queries {
        let plan = planner.plan(q);
        let expected = reference::evaluate(&tables, q);
        let hand_q = q.with_fact_order(&plan.fact_order);
        let (planned_io, hand_io) = (IoSession::unmetered(), IoSession::unmetered());
        let (planned, hand) = match plan.choice {
            PhysicalChoice::Column(cfg) => {
                let opts =
                    ExecOptions { fact_order: Some(&plan.fact_order), ..ExecOptions::default() };
                (
                    engine.run(q, cfg, &opts, &planned_io).expect("unbounded lifecycle"),
                    engine.execute_with(&hand_q, cfg, Parallelism::from_env(), &hand_io),
                )
            }
            PhysicalChoice::Row(design) => {
                let db =
                    row_dbs.entry(design).or_insert_with(|| RowDb::build(tables.clone(), design));
                (
                    db.execute_planned(q, &plan.fact_order, &planned_io),
                    db.execute(&hand_q, &hand_io),
                )
            }
        };
        assert_eq!(planned, expected, "{}: planned execution disagrees with reference", q.id);
        assert_eq!(planned, hand, "{}: planned vs hand-picked outputs differ", q.id);
        let (a, b) = (planned_io.stats(), hand_io.stats());
        assert_eq!(
            (a.bytes_read, a.pages_read, a.seeks),
            (b.bytes_read, b.pages_read, b.seeks),
            "{}: planned vs hand-picked IoStats differ ({})",
            q.id,
            plan.choice.label()
        );
    }
}

#[test]
fn parallel_engine_matches_reference_directly() {
    for tables in datasets().into_iter().take(2) {
        let exp = expected(&tables);
        let engine = ColumnEngine::new(tables);
        let par = Parallelism { threads: 4, morsel_rows: 256 };
        for code in PLAN_SHAPES {
            let cfg = EngineConfig::parse(code);
            for (q, e) in all_queries().iter().zip(&exp) {
                let io = IoSession::unmetered();
                assert_eq!(
                    &engine.execute_with(q, cfg, par, &io),
                    e,
                    "parallel {code} disagrees with reference on {}",
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
