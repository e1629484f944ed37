//! Every row-store physical design must produce identical results to the
//! brute-force reference evaluator, for all thirteen SSBM queries.

use cvr_data::gen::SsbConfig;
use cvr_data::queries::{all_queries, query, FactPredicate, Pred, QueryId, SsbQuery};
use cvr_data::reference;
use cvr_data::value::Value;
use cvr_data::workload::WorkloadConfig;
use cvr_row::designs::traditional::BITMAP_COLUMNS;
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::io::{BufferPool, IoSession, PAGE_SIZE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn check_design(design: RowDesign) {
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 31 }.generate());
    let db = RowDb::build(tables.clone(), design);
    let io = IoSession::unmetered();
    for q in all_queries() {
        let expected = reference::evaluate(&tables, &q);
        let got = db.execute(&q, &io);
        assert_eq!(got, expected, "{} disagrees on {}", design.label(), q.id);
    }
}

#[test]
fn traditional_matches_reference() {
    check_design(RowDesign::Traditional);
}

#[test]
fn traditional_bitmap_matches_reference() {
    check_design(RowDesign::TraditionalBitmap);
    // The planner also sends T(B) generated statements, among them empty and
    // near-empty selections, with measure predicates on indexed and
    // unindexed fact columns.
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 31 }.generate());
    let db = RowDb::build(tables.clone(), RowDesign::TraditionalBitmap);
    let io = IoSession::unmetered();
    let (mut empty, mut indexed) = (0, 0);
    for q in WorkloadConfig::with_count(100).generate() {
        let expected = reference::evaluate(&tables, &q);
        assert_eq!(db.execute(&q, &io), expected, "T(B) disagrees on generated {}", q.id);
        empty += usize::from(expected.rows.is_empty());
        indexed +=
            usize::from(q.fact_predicates.iter().any(|p| BITMAP_COLUMNS.contains(&p.column)));
    }
    assert!(empty > 0 && indexed > 0, "{empty} empty results, {indexed} indexed predicates");
}

#[test]
fn materialized_views_match_reference() {
    check_design(RowDesign::MaterializedViews);
}

#[test]
fn vertical_partitioning_matches_reference() {
    check_design(RowDesign::VerticalPartitioning);
}

#[test]
fn index_only_matches_reference() {
    check_design(RowDesign::IndexOnly);
}

#[test]
fn results_stable_under_small_buffer_pool() {
    // A bounded pool changes I/O accounting, never results.
    let tables = Arc::new(SsbConfig { sf: 0.001, seed: 5 }.generate());
    let db = RowDb::build(tables.clone(), RowDesign::Traditional);
    let small = IoSession::new(BufferPool::new(4 * PAGE_SIZE));
    let big = IoSession::unmetered();
    for q in all_queries() {
        assert_eq!(db.execute(&q, &small), db.execute(&q, &big), "{}", q.id);
    }
    assert!(small.stats().pages_read >= big.stats().pages_read);
}

#[test]
fn io_ordering_mv_below_traditional() {
    // The MV design's whole advantage is bytes: it must read less than the
    // traditional design for every query.
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 31 }.generate());
    let t = RowDb::build(tables.clone(), RowDesign::Traditional);
    let mv = RowDb::build(tables.clone(), RowDesign::MaterializedViews);
    for q in all_queries() {
        let io_t = IoSession::new(BufferPool::new(8 * PAGE_SIZE));
        t.execute(&q, &io_t);
        let io_mv = IoSession::new(BufferPool::new(8 * PAGE_SIZE));
        mv.execute(&q, &io_mv);
        assert!(
            io_mv.stats().bytes_read <= io_t.stats().bytes_read,
            "{}: MV read {} vs T {}",
            q.id,
            io_mv.stats().bytes_read,
            io_t.stats().bytes_read
        );
    }
}

#[test]
fn a_design_refuses_a_statement_it_cannot_answer_by_name() {
    // MV holds views of the four paper flights only, and AI indexes only the
    // columns some paper query reads (`lo_tax` is not one of them).
    let tables = Arc::new(SsbConfig { sf: 0.001, seed: 31 }.generate());
    let adhoc = SsbQuery { id: QueryId::new(0, 1), ..query(1, 1) };
    let mut taxed = query(1, 1);
    taxed.fact_predicates.push(FactPredicate { column: "lo_tax", pred: Pred::Lt(Value::Int(4)) });
    for (design, q) in [(RowDesign::MaterializedViews, adhoc), (RowDesign::IndexOnly, taxed)] {
        assert!(!design.answers(&q));
        let db = RowDb::build(tables.clone(), design);
        let io = IoSession::unmetered();
        let panic = catch_unwind(AssertUnwindSafe(|| db.execute(&q, &io))).unwrap_err();
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        let want = format!("row design {} cannot answer {}: ", design.label(), q.id);
        assert!(message.starts_with(&want), "{}: {message:?}", design.label());
    }
}
