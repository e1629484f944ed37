//! Two predicates on one column must both hold, in every row design.
//!
//! No paper query and no generated statement repeats a column, but SQL may:
//! `WHERE c_region IN ('ASIA', 'EUROPE') AND c_region = 'EUROPE'`. A plan
//! that range-scans or pushes down only the first predicate on a column
//! returns rows the second one rejects. Each statement below is run through
//! every row design the planner admits for it and compared with the
//! reference evaluator.

use cvr::core::ColumnEngine;
use cvr::data::gen::SsbConfig;
use cvr::data::reference;
use cvr::plan::{Catalog, Planner};
use cvr::row::designs::RowDb;
use cvr::server::parse;
use cvr::server::Statement;
use cvr::storage::io::IoSession;
use std::sync::Arc;

/// Two predicates on a fact column, two on a dimension's first predicate
/// column, and two on a later predicate column of the same dimension.
const STATEMENTS: [&str; 3] = [
    "SELECT SUM(lo_extendedprice * lo_discount) FROM lineorder, date \
     WHERE lo_orderdate = d_datekey AND d_year = 1993 \
     AND lo_quantity < 30 AND lo_quantity BETWEEN 20 AND 40",
    "SELECT d_year, SUM(lo_revenue) FROM lineorder, customer, date \
     WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey \
     AND c_region IN ('ASIA', 'EUROPE') AND c_region = 'EUROPE' \
     GROUP BY d_year ORDER BY d_year",
    "SELECT d_year, SUM(lo_revenue) FROM lineorder, customer, date \
     WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey \
     AND c_region = 'ASIA' AND c_nation IN ('CHINA', 'INDIA') AND c_nation = 'INDIA' \
     GROUP BY d_year ORDER BY d_year",
];

#[test]
fn every_row_design_applies_every_predicate_on_a_column() {
    let tables = Arc::new(SsbConfig { sf: 0.002, seed: 30 }.generate());
    let planner = Planner::new(Catalog::build(&ColumnEngine::new(tables.clone())));
    let mut wrong = Vec::new();
    for (i, sql) in STATEMENTS.iter().enumerate() {
        let Ok(Statement::Select(q)) = parse(sql) else { panic!("not a SELECT: {sql}") };
        let want = reference::evaluate(&tables, &q);
        assert!(!want.rows.is_empty() && want.rows.iter().all(|r| r.1 != 0), "{sql}");
        let designs = planner.applicable_row_designs(&q);
        assert!(designs.len() >= 5, "{sql}: only {designs:?} admitted");
        for design in designs {
            let got = RowDb::build(tables.clone(), design).execute(&q, &IoSession::unmetered());
            if got != want {
                wrong.push(format!("statement {i}: {}", design.label()));
            }
        }
    }
    assert!(wrong.is_empty(), "answers differ from the reference: {wrong:?}");
}
