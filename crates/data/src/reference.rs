//! Reference query evaluator: slow, obviously correct.
//!
//! A brute-force evaluation over the logical tables, used as the *oracle* by
//! every engine's tests: whatever clever plan an engine runs, its output must
//! equal this. No storage, no I/O accounting, no operators — just the query
//! semantics, a block of fact rows at a time: filter the block by each fact
//! predicate, join each dimension by hash map, drop rows whose dimension row
//! fails the query's predicates on it, and sum the rest by group.

use crate::gen::SsbTables;
use crate::ints::{PlainInts, PlainValue};
use crate::queries::{Pred, SsbQuery};
use crate::result::QueryOutput;
use crate::schema::Dim;
use crate::table::ColumnData;
use crate::value::Value;
use crate::with_plain_values;
use std::collections::HashMap;

/// Fact rows evaluated a block at a time: each block's predicates, joins and
/// aggregate inputs are taken one column at a time over buffers this long.
const BLOCK: usize = 4096;

/// Evaluate `q` over `tables` by brute force.
pub fn evaluate(tables: &SsbTables, q: &SsbQuery) -> QueryOutput {
    let fact = &tables.lineorder;
    let agg_cols: Vec<&PlainInts> =
        q.aggregate.fact_columns().iter().map(|c| fact.column(c).ints()).collect();
    let touched = q.touched_dims();
    // Each group-by column, with the index of its dimension in `touched`.
    let group_cols: Vec<(usize, &ColumnData)> = q
        .group_by
        .iter()
        .map(|g| {
            let join = touched.iter().position(|&d| d == g.dim).expect("a touched dimension");
            (join, tables.dim(g.dim).column(g.column))
        })
        .collect();

    let mut groups: HashMap<Vec<Value>, i64> = HashMap::new();
    let mut inputs: Vec<Vec<i64>> = vec![Vec::with_capacity(BLOCK); agg_cols.len()];
    let mut terms = vec![0; agg_cols.len()];
    for_each_match(tables, q, &touched, |rows, dim_rows| {
        for (col, out) in agg_cols.iter().zip(&mut inputs) {
            out.clear();
            with_plain_values!(col, |v| out.extend(rows.iter().map(|&r| v[r as usize].widen())));
        }
        for k in 0..rows.len() {
            let key: Vec<Value> =
                group_cols.iter().map(|&(j, col)| col.value(dim_rows[j][k] as usize)).collect();
            for (term, input) in terms.iter_mut().zip(&inputs) {
                *term = input[k];
            }
            *groups.entry(key).or_insert(0) += q.aggregate.term(&terms);
        }
    });

    if groups.is_empty() && q.group_by.is_empty() {
        return QueryOutput::scalar(0);
    }
    QueryOutput::new(groups.into_iter().collect())
}

/// Measured LINEORDER selectivity of `q` (fraction of fact rows passing all
/// predicates) — the Section 3 "selectivity table" experiment.
pub fn measured_selectivity(tables: &SsbTables, q: &SsbQuery) -> f64 {
    let mut matched = 0usize;
    for_each_match(tables, q, &q.restricted_dims(), |rows, _| matched += rows.len());
    matched as f64 / tables.lineorder.num_rows() as f64
}

/// One dimension joined to the fact table.
struct Join<'a> {
    /// The fact table's foreign-key column.
    fks: &'a PlainInts,
    /// Dimension key → dimension row.
    rows: HashMap<i64, u32>,
    /// Per dimension row: it satisfies every predicate `q` puts on it.
    passes: Vec<bool>,
}

impl<'a> Join<'a> {
    fn new(tables: &'a SsbTables, q: &SsbQuery, d: Dim) -> Join<'a> {
        let table = tables.dim(d);
        let keys = table.column(d.key_column()).ints();
        let rows = with_plain_values!(keys, |k| k
            .iter()
            .enumerate()
            .map(|(i, &k)| (k.widen(), i as u32))
            .collect());
        let mut passing: Vec<u32> = (0..table.num_rows() as u32).collect();
        for p in q.dim_predicates_on(d) {
            retain_matching(table.column(p.column), &p.pred, &mut passing);
        }
        let mut passes = vec![false; table.num_rows()];
        for r in passing {
            passes[r as usize] = true;
        }
        Join { fks: tables.lineorder.column(d.fact_fk_column()).ints(), rows, passes }
    }

    /// Into `out`, the dimension row each of the fact rows `rows` joins.
    fn rows_of(&self, rows: &[u32], out: &mut Vec<u32>) {
        out.clear();
        with_plain_values!(self.fks, |fks| out.extend(rows.iter().map(|&r| {
            // The generator draws every foreign key from its dimension's keys.
            *self.rows.get(&fks[r as usize].widen()).expect("dangling foreign key")
        })));
    }
}

/// Call `visit(rows, dim_rows)` for each block of fact rows that satisfy
/// every predicate of `q`: `rows` are the fact rows, and `dim_rows[j][k]` is
/// the row of `dims[j]` that fact row `rows[k]` joins.
fn for_each_match(
    tables: &SsbTables,
    q: &SsbQuery,
    dims: &[Dim],
    mut visit: impl FnMut(&[u32], &[Vec<u32>]),
) {
    let fact = &tables.lineorder;
    let n = fact.num_rows();
    let joins: Vec<Join> = dims.iter().map(|&d| Join::new(tables, q, d)).collect();
    let mut rows: Vec<u32> = Vec::with_capacity(BLOCK);
    let mut dim_rows: Vec<Vec<u32>> = vec![Vec::with_capacity(BLOCK); joins.len()];
    for start in (0..n).step_by(BLOCK) {
        rows.clear();
        rows.extend(start as u32..(start + BLOCK).min(n) as u32);
        for p in &q.fact_predicates {
            retain_matching(fact.column(p.column), &p.pred, &mut rows);
        }
        for (join, out) in joins.iter().zip(&mut dim_rows) {
            join.rows_of(&rows, out);
        }
        // Keep the fact rows whose every dimension row passes.
        let mut kept = 0;
        for k in 0..rows.len() {
            if joins.iter().zip(&dim_rows).all(|(join, r)| join.passes[r[k] as usize]) {
                rows[kept] = rows[k];
                for r in &mut dim_rows {
                    r[kept] = r[k];
                }
                kept += 1;
            }
        }
        rows.truncate(kept);
        for r in &mut dim_rows {
            r.truncate(kept);
        }
        visit(&rows, &dim_rows);
    }
}

/// Keep the rows of `rows` at which `col` satisfies `pred`.
fn retain_matching(col: &ColumnData, pred: &Pred, rows: &mut Vec<u32>) {
    match col {
        ColumnData::Int(v) => {
            with_plain_values!(v, |v| rows.retain(|&r| pred.matches_int(v[r as usize].widen())))
        }
        ColumnData::Str(v) => rows.retain(|&r| pred.matches_str(&v[r as usize])),
    }
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
        let od = t.lineorder.column("lo_orderdate").ints().decode();
        let disc = t.lineorder.column("lo_discount").ints().decode();
        let qty = t.lineorder.column("lo_quantity").ints().decode();
        let ep = t.lineorder.column("lo_extendedprice").ints().decode();
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
