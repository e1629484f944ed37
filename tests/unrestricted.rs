//! Statements that restrict nothing, in every design the planner admits.
//!
//! No paper query and no generated statement goes without a predicate, but
//! SQL may: `SELECT SUM(lo_revenue) FROM lineorder` sums the whole fact
//! table, and a statement that only groups joins a dimension it does not
//! filter. A position-join plan that starts from the first restriction has
//! nothing to start from. Each statement below is run through every
//! candidate the planner costs for it, column and row, and compared with
//! the reference evaluator.

use cvr::core::morsel::Parallelism;
use cvr::core::ExecOptions;
use cvr::data::gen::SsbConfig;
use cvr::data::reference;
use cvr::plan::{Catalog, Planner, Stores};
use cvr::server::parse;
use cvr::server::Statement;
use cvr::storage::io::IoSession;
use std::sync::Arc;

/// A whole-table sum, and a sum grouped by one unfiltered dimension.
const STATEMENTS: [&str; 2] = [
    "SELECT SUM(lo_revenue) FROM lineorder",
    "SELECT d_year, SUM(lo_revenue) FROM lineorder, date \
     WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
];

#[test]
fn every_admitted_design_answers_an_unrestricted_statement() {
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 30 }.generate());
    let stores = Stores::new(tables.clone(), Parallelism::from_env());
    let planner = Planner::new(Catalog::build(stores.engine()));
    let mut wrong = Vec::new();
    for (i, sql) in STATEMENTS.iter().enumerate() {
        let Ok(Statement::Select(q)) = parse(sql) else { panic!("not a SELECT: {sql}") };
        assert!(q.dim_predicates.is_empty() && q.fact_predicates.is_empty(), "{sql}");
        let want = reference::evaluate(&tables, &q);
        assert!(!want.rows.is_empty(), "{sql}");
        let candidates = planner.candidates(&q);
        assert!(candidates.len() >= 10, "{sql}: only {} candidates", candidates.len());
        for c in candidates {
            let io = IoSession::unmetered();
            let got = stores.run(c.choice.into(), &q, &ExecOptions::default(), &io);
            if got.as_ref() != Ok(&want) {
                wrong.push(format!("statement {i}: {}", c.choice.label()));
            }
        }
    }
    assert!(wrong.is_empty(), "answers differ from the reference: {wrong:?}");
}
