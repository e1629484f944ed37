//! Deterministic (timing-free) checks of specific claims the paper makes in
//! prose — the ones that are properties of plans and storage rather than of
//! the clock.

use cvr::core::invisible::phase1_key_pred;
use cvr::core::{CStoreDb, EngineConfig};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::storage::io::IoSession;
use std::sync::Arc;

/// §6.3.2: "it was possible to use the between-predicate rewriting
/// optimization at least once per query."
#[test]
fn between_rewriting_applies_at_least_once_per_query() {
    let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.01, seed: 2008 }.generate()), true);
    let io = IoSession::unmetered();
    for q in all_queries() {
        let mut rewrites = 0;
        for dim in q.restricted_dims() {
            let kp = phase1_key_pred(&db, &q, dim, EngineConfig::FULL, true, &io)
                .expect("restricted dim");
            if kp.kind() == "between" {
                rewrites += 1;
            }
        }
        assert!(rewrites >= 1, "{}: no join rewrote to a between-predicate", q.id);
    }
}

/// §6.3.2: "The primary sort column, orderdate, only contains 2405 unique
/// values, and so the average run-length for this column is almost 25,000."
/// Scale-adjusted: the RLE orderdate column must have exactly one run per
/// distinct date, so average run length = rows / distinct dates.
#[test]
fn orderdate_rle_runs_equal_distinct_dates() {
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 2008 }.generate());
    let distinct: std::collections::HashSet<i64> =
        tables.lineorder.column("lo_orderdate").ints().iter().copied().collect();
    let db = CStoreDb::build(tables.clone(), true);
    let od = db.fact.column("lo_orderdate").column.as_int();
    assert!(od.is_rle(), "sorted orderdate must be RLE under compression");
    assert_eq!(od.runs().len(), distinct.len());
    let avg_run = tables.lineorder.num_rows() as f64 / distinct.len() as f64;
    assert!(avg_run > 10.0, "runs long enough for RLE to pay: {avg_run}");
}

/// §5.4.2: "a range predicate on a non-sorted field results in
/// non-contiguous result positions" — and conversely the DATE dimension's
/// hierarchy (year → yearmonth → date) stays contiguous because the table
/// is sorted by datekey.
#[test]
fn date_hierarchy_predicates_stay_contiguous() {
    use cvr::core::scan::{refine, ScanPred};
    use cvr::core::PosList;
    use cvr::data::queries::Pred;
    use cvr::data::schema::Dim;
    use cvr::data::value::Value;
    let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.005, seed: 3 }.generate()), true);
    let io = IoSession::unmetered();
    let date = &db.dim(Dim::Date).store;
    for (name, pred) in [
        ("d_year", Pred::Eq(Value::Int(1995))),
        ("d_year", Pred::Between(Value::Int(1993), Value::Int(1996))),
        ("d_yearmonthnum", Pred::Eq(Value::Int(199407))),
        ("d_yearmonth", Pred::Eq(Value::str("Dec1997"))),
    ] {
        let col = date.column(name);
        let all = PosList::all(col.positions());
        let pl = refine(col, col.positions(), &all, &ScanPred::Logical(&pred), true, &io);
        assert!(pl.is_contiguous(), "{name} predicate must select a contiguous range");
        assert!(!pl.is_empty());
    }
    // A predicate on a non-sorted date attribute is NOT contiguous.
    let week = date.column("d_weeknuminyear");
    let (all, sixth) = (PosList::all(week.positions()), Pred::Eq(Value::Int(6)));
    let pl = refine(week, week.positions(), &all, &ScanPred::Logical(&sixth), true, &io);
    assert!(!pl.is_contiguous(), "week-of-year repeats every year");
}

/// §5.4.1: dimension keys of CUSTOMER/SUPPLIER/PART are "a sorted,
/// contiguous list of identifiers starting from [0]" after reassignment, so
/// the foreign key *is* the row position; DATE keys are not.
#[test]
fn key_reassignment_matches_paper_description() {
    use cvr::data::schema::Dim;
    let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.005, seed: 3 }.generate()), true);
    for d in [Dim::Customer, Dim::Supplier, Dim::Part] {
        assert!(db.dim(d).dense_keys);
        let keys = db.dim(d).sorted.column(d.key_column()).ints();
        assert!(keys.iter().enumerate().all(|(i, &k)| k == i as i64));
    }
    assert!(!db.dim(Dim::Date).dense_keys);
    let dk = db.dim(Dim::Date).sorted.column("d_datekey").ints();
    assert!(dk.windows(2).all(|w| w[0] < w[1]), "datekeys sorted");
    assert_ne!(dk[1], 1, "datekeys must stay yyyymmdd, not dense");
}

/// §6.2 discussion: "scanning just four of the columns in the vertical
/// partitioning approach will take as long as scanning the entire fact
/// table in the traditional approach" — i.e. 4 VP column tables ≈ 1 full
/// heap, in bytes.
#[test]
fn four_vp_columns_cost_one_traditional_scan() {
    use cvr::row::designs::{TraditionalDb, TraditionalOptions, VpDb};
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 9 }.generate());
    let trad = TraditionalDb::build(
        tables.clone(),
        TraditionalOptions { partitioned: false, bitmap_indexes: false, use_bloom: false },
    );
    let vp = VpDb::build(tables.clone());
    let four_cols = 4 * vp.fact_column_bytes("lo_revenue");
    let whole = trad.fact_bytes();
    let ratio = four_cols as f64 / whole as f64;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "4 VP columns ≈ whole traditional table; got ratio {ratio:.2}"
    );
}
