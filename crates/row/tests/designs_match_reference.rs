//! What the row-store designs do beyond answering like the reference (which
//! every system's answers are checked against in `tests/cross_engine.rs`):
//! a bounded pool changes only their I/O, `MV` reads less than `T`, and a
//! design refuses, by name, a statement it does not hold.

use cvr_data::gen::SsbConfig;
use cvr_data::queries::{all_queries, query, FactPredicate, Pred, QueryId, SsbQuery};
use cvr_data::value::Value;
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::io::{BufferPool, IoSession, PAGE_SIZE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
