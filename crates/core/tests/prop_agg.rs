//! Property tests for code-level aggregation: the [`CodeGrouper`] over a
//! [`GroupLayout`] must be byte-identical to the scalar [`Grouper`]
//! reference across NDV regimes — single-group columns, the 63/64/65
//! bitmap-word boundaries of the direct accumulator, large domains that
//! overflow into the `u64`-keyed hash kernel, and multi-column radix
//! products that push a per-column-small key set over
//! [`DIRECT_GROUPS_LIMIT`] — plus the per-worker merge: rows cut into
//! morsels, morsels handed to workers at random, the workers' partials
//! merged in every order, must finish to the same bytes. Over a real store,
//! the engine's phase-3 kernel answers every grouped paper query alike under
//! both strategies, outputs and I/O.

use cvr_core::agg::{
    AggPartial, AggStrategy, CodeDecoder, CodeGrouper, GroupLayout, Grouper, DIRECT_GROUPS_LIMIT,
};
use cvr_core::extract::gather_ints;
use cvr_core::poslist::PosList;
use cvr_core::{ColumnEngine, EngineConfig, ExecOptions, Parallelism};
use cvr_data::gen::SsbConfig;
use cvr_data::queries::{all_queries, query};
use cvr_data::result::QueryOutput;
use cvr_data::value::Value;
use cvr_storage::io::{BufferPool, IoSession};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Domains covering every accumulator regime: NDV 1, the bitmap word
/// boundaries of the direct accumulator, mid-size direct domains, and a
/// domain past the direct limit (hash kernel).
fn domain_from(sel: u8) -> u64 {
    match sel % 6 {
        0 => 1,
        1 => 63,
        2 => 64,
        3 => 65,
        4 => 2 + (sel as u64 * 7) % 198,
        _ => DIRECT_GROUPS_LIMIT + 7,
    }
}

/// One row of raw code entropy (reduced into each column's domain) plus a
/// term.
type RawRow = ((u64, u64, u64), i64);

/// 1–3 group columns (domain selectors) plus per-row raw rows.
fn grouped_rows() -> impl Strategy<Value = (Vec<u8>, Vec<RawRow>)> {
    (
        prop::collection::vec(0u8..255, 1..4),
        prop::collection::vec(
            ((0u64..1 << 62, 0u64..1 << 62, 0u64..1 << 62), -1000i64..1000),
            0..200,
        ),
    )
}

fn codes_for(domains: &[u64], raw: &(u64, u64, u64)) -> Vec<u64> {
    [raw.0, raw.1, raw.2].iter().zip(domains).map(|(&r, &d)| r % d).collect()
}

fn layout_for(domains: &[u64]) -> GroupLayout<'static> {
    // IntOffset decoders with distinct references so columns are
    // distinguishable in the decoded keys.
    GroupLayout::try_new(
        domains
            .iter()
            .enumerate()
            .map(|(c, &d)| (d, CodeDecoder::IntOffset(c as i64 * 10)))
            .collect(),
    )
    .expect("test domains compose")
}

/// The group id of one row's codes, one per column.
fn compose(layout: &GroupLayout<'_>, codes: &[u64]) -> u64 {
    codes.iter().enumerate().map(|(c, code)| code * layout.stride(c)).sum()
}

fn decoded_key(codes: &[u64]) -> Vec<Value> {
    codes.iter().enumerate().map(|(c, &code)| Value::Int(c as i64 * 10 + code as i64)).collect()
}

/// Every order of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// Cut `rows` into consecutive morsels of `sizes` (cycled) and hand morsel
/// `k` to worker `owners[k] % workers` (cycled): each worker's rows, the
/// way a morsel fan-out's scheduling groups them.
fn deal<T: Clone>(rows: &[T], sizes: &[usize], owners: &[u8], workers: usize) -> Vec<Vec<T>> {
    let mut dealt = vec![Vec::new(); workers];
    let (mut at, mut k) = (0, 0);
    while at < rows.len() {
        let end = (at + sizes[k % sizes.len()]).min(rows.len());
        dealt[owners[k % owners.len()] as usize % workers].extend_from_slice(&rows[at..end]);
        (at, k) = (end, k + 1);
    }
    dealt
}

/// Merge the partials `make` builds in every worker order through
/// [`AggStrategy::finish`]; all orders must agree. Returns the answer.
fn finish_in_every_order(
    strat: &AggStrategy,
    workers: usize,
    q: &cvr_data::queries::SsbQuery,
    make: impl Fn() -> Vec<AggPartial>,
) -> Result<QueryOutput, TestCaseError> {
    let orders = permutations(workers);
    let finish = |order: &[usize]| {
        let mut partials: Vec<Option<AggPartial>> = make().into_iter().map(Some).collect();
        strat.finish(order.iter().map(|&w| partials[w].take().unwrap()), q)
    };
    let first = finish(&orders[0]);
    for order in &orders[1..] {
        prop_assert_eq!(&finish(order), &first, "merge order {:?}", order);
    }
    Ok(first)
}

/// The code-level and `Value`-keyed partials of `dealt` rows, merged in
/// every worker order, against one pass of the reference over all rows.
fn check_worker_merge(
    domains: &[u64],
    rows: &[(Vec<u64>, i64)],
    dealt: &[Vec<(Vec<u64>, i64)>],
) -> Result<(), TestCaseError> {
    let q = query(2, 1);
    let mut reference = Grouper::new();
    for (codes, term) in rows {
        reference.add(decoded_key(codes), *term);
    }
    let want = reference.finish(&q);
    let code = AggStrategy::Code { layout: layout_for(domains), spaces: Vec::new() };
    let AggStrategy::Code { layout, .. } = &code else { unreachable!() };
    let got = finish_in_every_order(&code, dealt.len(), &q, || {
        let partial = |rows: &Vec<(Vec<u64>, i64)>| {
            let mut g = CodeGrouper::for_layout(layout);
            let ids: Vec<u64> = rows.iter().map(|(c, _)| compose(layout, c)).collect();
            let terms: Vec<i64> = rows.iter().map(|(_, t)| *t).collect();
            g.add_all(&ids, &terms);
            AggPartial::Code(g)
        };
        dealt.iter().map(partial).collect()
    })?;
    prop_assert_eq!(&got, &want);
    let got = finish_in_every_order(&AggStrategy::Value, dealt.len(), &q, || {
        let partial = |rows: &Vec<(Vec<u64>, i64)>| {
            let mut g = Grouper::new();
            rows.iter().for_each(|(codes, term)| g.add(decoded_key(codes), *term));
            AggPartial::Value(g)
        };
        dealt.iter().map(partial).collect()
    })?;
    prop_assert_eq!(&got, &want);
    Ok(())
}

proptest! {
    #[test]
    fn code_grouper_matches_reference_across_ndv_regimes(
        (sels, rows) in grouped_rows()
    ) {
        let domains: Vec<u64> = sels.iter().map(|&s| domain_from(s)).collect();
        let layout = layout_for(&domains);
        let q = query(2, 1);
        let mut code = CodeGrouper::for_layout(&layout);
        let mut reference = Grouper::new();
        for (raw, term) in &rows {
            let codes = codes_for(&domains, raw);
            code.add(compose(&layout, &codes), *term);
            reference.add(decoded_key(&codes), *term);
        }
        prop_assert_eq!(code.len(), reference.len());
        prop_assert_eq!(code.finish(&layout, &q), reference.finish(&q));
    }

    #[test]
    fn merge_splits_match_single_pass(
        (sels, rows) in grouped_rows(),
        chunk in 1usize..64,
    ) {
        let domains: Vec<u64> = sels.iter().map(|&s| domain_from(s)).collect();
        let layout = layout_for(&domains);
        let q = query(2, 1);
        let mut whole = CodeGrouper::for_layout(&layout);
        for (raw, term) in &rows {
            whole.add(compose(&layout, &codes_for(&domains, raw)), *term);
        }
        // Morsel-style: per-chunk partials merged in chunk order.
        let mut merged = CodeGrouper::for_layout(&layout);
        for part_rows in rows.chunks(chunk) {
            let mut part = CodeGrouper::for_layout(&layout);
            for (raw, term) in part_rows {
                part.add(compose(&layout, &codes_for(&domains, raw)), *term);
            }
            merged.merge(part);
        }
        prop_assert_eq!(merged.finish(&layout, &q), whole.finish(&layout, &q));
    }

    #[test]
    fn worker_partials_merge_alike_in_every_order(
        (sels, raw_rows) in grouped_rows(),
        sizes in prop::collection::vec(1usize..40, 1..12),
        owners in prop::collection::vec(0u8..255, 1..12),
        workers in 1usize..5,
    ) {
        // Direct and hash partials (by the domains drawn) and Value-keyed
        // ones: the rows each worker happens to get, merged in all orders.
        let domains: Vec<u64> = sels.iter().map(|&s| domain_from(s)).collect();
        let rows: Vec<(Vec<u64>, i64)> =
            raw_rows.iter().map(|(raw, term)| (codes_for(&domains, raw), *term)).collect();
        check_worker_merge(&domains, &rows, &deal(&rows, &sizes, &owners, workers))?;
    }

}

#[test]
fn partial_sums_that_cross_i64_max_merge_alike_in_every_order() {
    // One group's terms sum to 5, but a worker holding both `MAX` terms
    // holds a partial past `i64::MAX`: sums wrap, so every grouping and
    // every merge order lands on the same 5 (a checked add would panic in
    // some orders and not in others). Direct, hash and `Value` partials.
    let terms = [i64::MAX, i64::MAX, -i64::MAX, -i64::MAX, 5, 1, -1];
    for domains in [vec![3u64], vec![DIRECT_GROUPS_LIMIT + 1]] {
        let rows: Vec<(Vec<u64>, i64)> = terms.iter().map(|&t| (vec![0], t)).collect();
        for owners in [[0u8, 0, 1, 1, 2, 2, 3], [0, 1, 0, 1, 2, 3, 2], [3, 3, 3, 0, 1, 2, 0]] {
            let dealt = deal(&rows, &[1], &owners, 4);
            check_worker_merge(&domains, &rows, &dealt).unwrap();
        }
    }
    let mut g = Grouper::new();
    terms.iter().for_each(|&t| g.add(vec![Value::Int(0)], t));
    assert_eq!(g.finish(&query(2, 1)).rows, vec![(vec![Value::Int(0)], 5)]);
}

#[test]
fn paper_queries_are_byte_identical_under_per_worker_merging() {
    // Four workers, 512-row morsels: which morsels share a partial changes
    // from run to run; outputs and IoStats must not.
    let tables = Arc::new(SsbConfig { sf: 0.004, seed: 5 }.generate());
    let engine = ColumnEngine::with_parallelism(tables, Parallelism::with_threads(2));
    let opts =
        ExecOptions { par: Parallelism { threads: 4, morsel_rows: 512 }, ..Default::default() };
    for config in ["tICL", "tiCL", "tICl"] {
        let config = EngineConfig::parse(config);
        for q in all_queries() {
            let run = || {
                let io = IoSession::new(BufferPool::unbounded());
                let out = engine.run(&q, config, &opts, &io).expect("unbounded");
                (out, io.stats())
            };
            let first = run();
            for _ in 1..50 {
                assert_eq!(run(), first, "{} under {}", q.id, config.code());
            }
        }
    }
}

#[test]
fn code_and_value_tails_agree_on_every_grouped_paper_query() {
    // The engine's phase-3 kernel under the code-level strategy and under
    // the `Value`-keyed reference, over the same real inputs: every third
    // fact row, and the dimension rows its foreign keys join to. Both tails
    // must finish to the same answer and charge the same I/O.
    let tables = Arc::new(SsbConfig::with_scale(0.004).generate());
    let engine = ColumnEngine::with_parallelism(tables, Parallelism::serial());
    let db = engine.db(EngineConfig::FULL);
    let n = db.fact_rows() as u32;
    let positions: Vec<u32> = (0..n).step_by(3).collect();
    let survivors = PosList::explicit(positions.clone(), n);
    for q in all_queries().into_iter().filter(|q| !q.group_by.is_empty()) {
        // (Whether a small dimension's city column is dictionary-coded
        // depends on the seed; at this one every group column is.)
        let code = AggStrategy::for_query(db, &q);
        assert!(code.is_code_level(), "{}: a group column has no code space", q.id);
        let dim_positions: Vec<Vec<u32>> = q
            .group_by
            .iter()
            .map(|g| {
                let fk = db.fact.column(g.dim.fact_fk_column());
                let keys = gather_ints(fk, &survivors, &IoSession::unmetered());
                let dim = db.dim(g.dim);
                if dim.dense_keys {
                    return keys.into_iter().map(|k| k as u32).collect();
                }
                let key_column = dim.store.column(g.dim.key_column()).column.as_int().decode();
                let row_of: HashMap<i64, u32> =
                    key_column.into_iter().enumerate().map(|(row, k)| (k, row as u32)).collect();
                keys.into_iter().map(|k| row_of[&k]).collect()
            })
            .collect();
        let tail = |strat: &AggStrategy| {
            let io = IoSession::new(BufferPool::unbounded());
            let mut agg = strat.worker();
            agg.begin(positions.len());
            for (gi, g) in q.group_by.iter().enumerate() {
                agg.extract(gi, db.dim(g.dim).store.column(g.column), &dim_positions[gi], &io);
            }
            agg.aggregate(&q, &db.fact, &positions, &io);
            (strat.finish([agg.into_partial()], &q), io.stats())
        };
        let (want, want_io) = tail(&AggStrategy::Value);
        assert!(!want.rows.is_empty(), "{}: a third of the fact table forms groups", q.id);
        assert_eq!(tail(&code), (want, want_io), "{}: code-level vs Value-keyed tail", q.id);
    }
}

#[test]
fn multi_column_radix_overflow_lands_in_hash_path() {
    // Each column individually fits the direct accumulator, but the radix
    // product overflows DIRECT_GROUPS_LIMIT — the layout must switch to the
    // hash kernel and still agree with the reference.
    let domains = [1000u64, 1000, 7];
    let layout = layout_for(&domains);
    assert!(layout.total_domain() > DIRECT_GROUPS_LIMIT);
    assert!(!layout.is_direct());
    let q = query(3, 2);
    let mut code = CodeGrouper::for_layout(&layout);
    let mut reference = Grouper::new();
    for i in 0..5000u64 {
        let codes = [(i * 37) % 1000, (i * 91) % 1000, i % 7];
        code.add(compose(&layout, &codes), i as i64 % 97 - 48);
        reference.add(decoded_key(&codes), i as i64 % 97 - 48);
    }
    assert_eq!(code.finish(&layout, &q), reference.finish(&q));
}

#[test]
fn u64_radix_overflow_has_no_layout() {
    // Domains whose product overflows u64 composition cannot form a layout
    // at all; engines fall back to the Value-keyed reference.
    let cols: Vec<(u64, CodeDecoder)> =
        (0..3).map(|_| (u64::MAX / 3, CodeDecoder::IntOffset(0))).collect();
    assert!(GroupLayout::try_new(cols).is_none());
}
