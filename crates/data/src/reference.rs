//! Reference query evaluator: slow, obviously correct.
//!
//! A straight-line nested evaluation over the logical tables, used as the
//! *oracle* by every engine's tests: whatever clever plan an engine runs,
//! its output must equal this. No storage, no I/O accounting, no operators —
//! just the query semantics.

use crate::gen::SsbTables;
use crate::queries::SsbQuery;
use crate::result::QueryOutput;
use crate::schema::Dim;
use crate::table::ColumnData;
use crate::value::Value;
use std::collections::HashMap;

/// Evaluate `q` over `tables` by brute force.
pub fn evaluate(tables: &SsbTables, q: &SsbQuery) -> QueryOutput {
    let fact = &tables.lineorder;
    let n = fact.num_rows();
    let agg_cols: Vec<&ColumnData> =
        q.aggregate.fact_columns().iter().map(|c| fact.column(c)).collect();
    let fact_pred_cols: Vec<(&ColumnData, &crate::queries::Pred)> =
        q.fact_predicates.iter().map(|p| (fact.column(p.column), &p.pred)).collect();
    // Per touched dimension: its FK column and its key -> row index map.
    let touched: Vec<(Dim, &[i64], HashMap<i64, usize>)> = q
        .touched_dims()
        .into_iter()
        .map(|d| {
            let keys = tables.dim(d).column(d.key_column()).ints();
            let rows = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            (d, fact.column(d.fact_fk_column()).ints(), rows)
        })
        .collect();
    let dim_pred_cols: Vec<(Dim, &ColumnData, &crate::queries::Pred)> = q
        .dim_predicates
        .iter()
        .map(|p| (p.dim, tables.dim(p.dim).column(p.column), &p.pred))
        .collect();
    let group_cols: Vec<(Dim, &ColumnData)> =
        q.group_by.iter().map(|g| (g.dim, tables.dim(g.dim).column(g.column))).collect();

    let mut groups: HashMap<Vec<Value>, i64> = HashMap::new();
    // Each touched dimension's row for the current fact row, by `Dim`.
    let mut dim_rows = [0usize; Dim::ALL.len()];
    'rows: for i in 0..n {
        for (col, pred) in &fact_pred_cols {
            if !matches(col, i, pred) {
                continue 'rows;
            }
        }
        // Resolve dimension rows and check dimension predicates.
        for (d, fks, rows) in &touched {
            // The generator draws every foreign key from its dimension's keys.
            dim_rows[*d as usize] = *rows.get(&fks[i]).expect("dangling foreign key");
        }
        for (d, col, pred) in &dim_pred_cols {
            if !matches(col, dim_rows[*d as usize], pred) {
                continue 'rows;
            }
        }
        let key: Vec<Value> =
            group_cols.iter().map(|(d, col)| col.value(dim_rows[*d as usize])).collect();
        let inputs: Vec<i64> = agg_cols.iter().map(|c| c.value(i).as_int()).collect();
        *groups.entry(key).or_insert(0) += q.aggregate.term(&inputs);
    }

    if groups.is_empty() && q.group_by.is_empty() {
        return QueryOutput::scalar(0);
    }
    QueryOutput::new(groups.into_iter().collect())
}

/// `pred.matches(&col.value(row))`, without materializing the value.
fn matches(col: &ColumnData, row: usize, pred: &crate::queries::Pred) -> bool {
    match col {
        ColumnData::Int(v) => pred.matches_int(v[row]),
        ColumnData::Str(v) => pred.matches_str(&v[row]),
    }
}

/// Measured LINEORDER selectivity of `q` (fraction of fact rows passing all
/// predicates) — the Section 3 "selectivity table" experiment.
pub fn measured_selectivity(tables: &SsbTables, q: &SsbQuery) -> f64 {
    let mut key_maps: HashMap<Dim, HashMap<i64, usize>> = HashMap::new();
    for d in q.restricted_dims() {
        let keys = tables.dim(d).column(d.key_column()).ints();
        key_maps.insert(d, keys.iter().enumerate().map(|(i, &k)| (k, i)).collect());
    }
    let fact = &tables.lineorder;
    let n = fact.num_rows();
    let mut matched = 0usize;
    'rows: for i in 0..n {
        for p in &q.fact_predicates {
            if !p.pred.matches(&fact.column(p.column).value(i)) {
                continue 'rows;
            }
        }
        for d in q.restricted_dims() {
            let fk = fact.column(d.fact_fk_column()).value(i).as_int();
            let row = key_maps[&d][&fk];
            for p in q.dim_predicates_on(d) {
                if !p.pred.matches(&tables.dim(d).value(row, p.column)) {
                    continue 'rows;
                }
            }
        }
        matched += 1;
    }
    matched as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SsbConfig;
    use crate::queries::all_queries;

    fn tables() -> SsbTables {
        SsbConfig { sf: 0.005, seed: 42 }.generate()
    }

    #[test]
    fn all_queries_evaluate() {
        let t = tables();
        for q in all_queries() {
            let out = evaluate(&t, &q);
            if q.group_by.is_empty() {
                assert_eq!(out.rows.len(), 1, "{} should be scalar", q.id);
            }
            // Group keys have the declared arity.
            for (k, _) in &out.rows {
                assert_eq!(k.len(), q.group_by.len(), "{}", q.id);
            }
        }
    }

    #[test]
    fn q11_matches_hand_rolled() {
        let t = tables();
        let q = crate::queries::query(1, 1);
        // Hand-rolled: sum(extendedprice*discount) where year(orderdate)=1993
        // and 1<=discount<=3 and quantity<25.
        let od = t.lineorder.column("lo_orderdate").ints();
        let disc = t.lineorder.column("lo_discount").ints();
        let qty = t.lineorder.column("lo_quantity").ints();
        let ep = t.lineorder.column("lo_extendedprice").ints();
        let mut expected = 0i64;
        for i in 0..t.lineorder.num_rows() {
            if od[i] / 10_000 == 1993 && (1..=3).contains(&disc[i]) && qty[i] < 25 {
                expected += ep[i] * disc[i];
            }
        }
        assert_eq!(evaluate(&t, &q).rows[0].1, expected);
        assert!(expected > 0, "test data too small to exercise Q1.1");
    }

    #[test]
    fn selectivities_close_to_paper() {
        let t = SsbConfig { sf: 0.01, seed: 7 }.generate();
        let n = t.lineorder.num_rows() as f64;
        for q in all_queries() {
            let measured = measured_selectivity(&t, &q);
            let expected = q.paper_selectivity;
            // Upper bound always holds (within noise); the lower bound is
            // only meaningful when the expected match count is large enough
            // that sampling noise cannot plausibly zero it out.
            assert!(
                measured <= expected * 2.5 + 5e-5,
                "{}: measured {measured:.2e} vs paper {expected:.2e}",
                q.id
            );
            if expected * n >= 50.0 {
                assert!(
                    measured >= expected / 2.5,
                    "{}: measured {measured:.2e} vs paper {expected:.2e}",
                    q.id
                );
            }
        }
    }

    #[test]
    fn grouped_query_group_count_reasonable() {
        let t = tables();
        let q = crate::queries::query(3, 1);
        let out = evaluate(&t, &q);
        // c_nation × s_nation × year for ASIA-ASIA 92-97: at most 5*5*6.
        assert!(out.rows.len() <= 150);
        assert!(!out.rows.is_empty(), "Q3.1 selects 3.4% of rows; must match at sf=0.005");
    }
}
