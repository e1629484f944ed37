//! The canonical key of a statement, for the serving layer's plan memo and
//! result cache.
//!
//! Two statements may share memoized or cached state only when *everything*
//! that could change bytes — the store contents and the query descriptor —
//! is identical. Planning is a pure function of exactly that pair, so the
//! plan choice and fact-predicate order need no place in the key: one string
//! serves the plan memo and the result cache alike. The encoding is the
//! `Debug` form of the descriptor pieces, which is order-preserving and total
//! over every predicate/aggregate variant; it is deliberately conservative —
//! two semantically equal queries that spell their predicates differently
//! get different keys, which can only cost a miss, never a wrong hit.

use cvr_data::queries::SsbQuery;
use std::fmt::Write as _;

/// Key of `q` against the store at `store_version`: the version plus the
/// full query descriptor — id, dimension and fact predicates, grouping and
/// aggregate, any of which changes the plan or the output bytes.
pub fn statement_key(q: &SsbQuery, store_version: u64) -> String {
    let mut k = String::with_capacity(160);
    let _ = write!(
        k,
        "v{store_version}|id={}|dim={:?}|fact={:?}|group={:?}|agg={:?}",
        q.id, q.dim_predicates, q.fact_predicates, q.group_by, q.aggregate
    );
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::queries::{all_queries, query, AggExpr, QueryId};

    #[test]
    fn paper_queries_have_distinct_keys() {
        let keys: Vec<String> = all_queries().iter().map(|q| statement_key(q, 0)).collect();
        let mut uniq = keys.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "statement keys must be distinct");
    }

    #[test]
    fn every_key_component_matters() {
        // Q2.1's two dimension predicates and two group columns with Q1.1's
        // two fact predicates: every list has an element to drop and an
        // order to swap.
        let q = SsbQuery { fact_predicates: query(1, 1).fact_predicates, ..query(2, 1) };
        let base = statement_key(&q, 0);
        assert_eq!(base, statement_key(&q.clone(), 0), "deterministic");
        assert_ne!(base, statement_key(&q, 1), "store version");
        type Edit = fn(&mut SsbQuery);
        let edits: [(&str, Edit); 8] = [
            ("id", |o| o.id = QueryId::new(9, 1)),
            ("a dimension predicate", |o| o.dim_predicates.truncate(1)),
            ("dimension predicate order", |o| o.dim_predicates.reverse()),
            ("a fact predicate", |o| o.fact_predicates.truncate(1)),
            ("fact predicate order", |o| o.fact_predicates.reverse()),
            ("a group column", |o| o.group_by.truncate(1)),
            ("group column order", |o| o.group_by.reverse()),
            ("aggregate", |o| o.aggregate = AggExpr::SumRevenueMinusSupplyCost),
        ];
        for (what, edit) in edits {
            let mut other = q.clone();
            edit(&mut other);
            assert_ne!(base, statement_key(&other, 0), "{what}");
        }
    }
}
