//! The invisible join (Section 5.4) — the paper's new operator.
//!
//! A late-materialized star join that "rewrites joins into predicates on the
//! foreign key columns in the fact table", executed in three phases:
//!
//! 1. **Dimension predicate → key predicate.** Each dimension's predicates
//!    run over its (sorted, compressed) columns, producing a position list.
//!    If the matching positions are contiguous, *between-predicate
//!    rewriting* (Section 5.4.2) turns the join into a `lo <= fk <= hi`
//!    range test; otherwise the matching keys become a membership set — "in
//!    which case a hash join is simulated": one flag per dimension row where
//!    keys are dense (the key *is* the row position, so membership is an
//!    array look-up), a hash set for DATE's `yyyymmdd` keys.
//! 2. **Fact foreign-key probes.** Each key predicate is applied to its FK
//!    column like any other column predicate (RLE-direct where the column
//!    is sorted). The paper intersects per-predicate position lists; here
//!    each predicate instead *refines* the positions its predecessors left
//!    ([`crate::scan::refine`]) — the same final list `P`, but a probe only
//!    looks where candidates remain, and a morsel with none left runs no
//!    further kernel. Every predicate still charges its morsel's slice of
//!    the column: the modeled disk reads sequentially, the CPU skips.
//! 3. **Minimal out-of-order extraction.** Only now, with all predicates
//!    applied, are dimension attributes fetched: dense reassigned keys make
//!    the FK value *be* the dimension row position ("a fast array
//!    look-up"); DATE's non-dense `yyyymmdd` keys take the hash-join
//!    fallback the paper describes.
//!
//! Phase 1 runs once on the coordinator (dimension tables are small);
//! phases 2 and 3 run per morsel of the fact position space, fused into one
//! fan-out ([`crate::morsel::run_fused`]).

use crate::agg::{AggPartial, AggStrategy, GroupData};
use crate::config::EngineConfig;
use crate::ctx::{QueryCtx, QueryError};
use crate::engine::ExecOptions;
use crate::extract::gather_ints;
use crate::morsel::{run_fused, OpActual, Operator};
use crate::poslist::PosList;
use crate::projection::CStoreDb;
use crate::scan::{refine, ScanPred};
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::bitmap::KeyBits;
use cvr_index::hashidx::{IntHashMap, IntHashSet};
use cvr_storage::io::{IoLog, IoSession};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// The rewritten join predicate applied to a fact FK column in phase 2.
pub enum FactKeyPred {
    /// `lo <= fk <= hi` — the between-predicate rewriting fast path.
    Between(i64, i64),
    /// Membership among the matching keys of a dense-keyed dimension: one
    /// bit per dimension row.
    KeyBits(KeyBits),
    /// Hash-set membership — the fallback for non-dense keys (DATE).
    KeySet(IntHashSet),
}

impl FactKeyPred {
    /// Human-readable tag, used by plan-inspection tests and examples.
    pub fn kind(&self) -> &'static str {
        match self {
            FactKeyPred::Between(..) => "between",
            FactKeyPred::KeyBits(..) => "key-bits",
            FactKeyPred::KeySet(..) => "hash-set",
        }
    }

    /// Run `f` with the scan-layer form of this key predicate:
    /// between-rewritten joins become interval predicates
    /// (SWAR-kernel-eligible on packed FK columns), dense key sets one bit
    /// test per value; hash sets stay opaque per-value tests.
    fn with_scan_pred<R>(&self, f: impl FnOnce(&ScanPred<'_>) -> R) -> R {
        match self {
            FactKeyPred::Between(lo, hi) => f(&ScanPred::Range { lo: *lo, hi: *hi }),
            FactKeyPred::KeyBits(keys) => f(&ScanPred::Keys(keys)),
            FactKeyPred::KeySet(set) => {
                let test = |v: i64| set.contains(v);
                f(&ScanPred::Test(&test))
            }
        }
    }
}

/// The positions of `dim`'s rows satisfying every predicate `q` puts on it
/// (all rows when it puts none): each predicate scans its whole — small —
/// dimension column, and the per-predicate lists are intersected.
pub(crate) fn dim_positions(
    db: &CStoreDb,
    q: &SsbQuery,
    dim: Dim,
    cfg: EngineConfig,
    io: &IoSession,
) -> PosList {
    let store = &db.dim(dim).store;
    let rows = 0..db.dim(dim).sorted.num_rows() as u32;
    let mut dpos = PosList::all(rows.clone());
    for p in q.dim_predicates_on(dim) {
        let pred = ScanPred::Logical(&p.pred);
        let all = PosList::all(rows.clone());
        let pl = refine(store.column(p.column), rows.clone(), &all, &pred, cfg.block_iteration, io);
        dpos = dpos.intersect(&pl);
    }
    dpos
}

/// Phase 1 for one dimension: evaluate its predicates and rewrite to a fact
/// key predicate. Returns `None` when the dimension has no predicates.
///
/// `between_rewriting` is the ablation switch of Section 6.3.2 ("this
/// performance difference is largely due to the between-predicate rewriting
/// optimization"): when false, phase 1 always builds a key membership set —
/// the "another way of thinking about a column-oriented semijoin" baseline
/// of Section 5.4.2.
pub fn phase1_key_pred(
    db: &CStoreDb,
    q: &SsbQuery,
    dim: Dim,
    cfg: EngineConfig,
    between_rewriting: bool,
    io: &IoSession,
) -> Option<FactKeyPred> {
    if q.dim_predicates_on(dim).is_empty() {
        return None;
    }
    let store = db.dim(dim);
    let dpos = dim_positions(db, q, dim, cfg, io);
    // Between-predicate rewriting: the *runtime* contiguity check the paper
    // describes ("the code that evaluates predicates against the dimension
    // table is capable of detecting whether the result set is contiguous").
    let key_pred = if between_rewriting && !dpos.is_empty() && dpos.is_contiguous() {
        if store.dense_keys {
            // Keys are positions.
            FactKeyPred::Between(dpos.first().unwrap() as i64, dpos.last().unwrap() as i64)
        } else {
            // DATE: keys ascend with position, so a contiguous position run
            // is a contiguous key range; fetch the two boundary keys.
            let keycol = store.store.column(dim.key_column());
            let bounds = PosList::Explicit {
                positions: if dpos.first() == dpos.last() {
                    vec![dpos.first().unwrap()]
                } else {
                    vec![dpos.first().unwrap(), dpos.last().unwrap()]
                },
                universe: dpos.universe(),
            };
            let vals = gather_ints(keycol, &bounds, io);
            FactKeyPred::Between(vals[0], *vals.last().unwrap())
        }
    } else {
        // General case: collect the matching keys ("the hash table should
        // easily fit in memory since dimension tables are typically small
        // and the table contains only keys") — as a bit per dimension row
        // where the reassigned keys are the row positions.
        let keycol = store.store.column(dim.key_column());
        let keys = gather_ints(keycol, &dpos, io);
        if store.dense_keys {
            FactKeyPred::KeyBits(KeyBits::from_keys(dpos.universe(), keys))
        } else {
            FactKeyPred::KeySet(IntHashSet::from_keys(keys))
        }
    };
    Some(key_pred)
}

/// Phase 2: refine `candidates` — the positions of `window` still alive —
/// by one key predicate over its fact FK column.
pub fn phase2_probe(
    db: &CStoreDb,
    dim: Dim,
    key_pred: &FactKeyPred,
    cfg: EngineConfig,
    window: Range<u32>,
    candidates: &PosList,
    io: &IoSession,
) -> PosList {
    let col = db.fact.column(dim.fact_fk_column());
    key_pred.with_scan_pred(|pred| refine(col, window, candidates, pred, cfg.block_iteration, io))
}

/// Key → position join tables for non-dense grouped dimensions (DATE),
/// built up front so morsels share them read-only. Each table's charge is
/// recorded into `charges`, paired with the op it belongs before (phase 3
/// starts at op `first_op`): the extraction that follows the dimension's FK
/// gather, which is where a whole-column plan builds the table.
fn build_join_maps(
    db: &CStoreDb,
    q: &SsbQuery,
    first_op: usize,
    io: &IoSession,
    ctx: &QueryCtx,
    charges: &mut Vec<(usize, IoLog)>,
) -> Result<HashMap<Dim, IntHashMap>, QueryError> {
    let mut join_maps: HashMap<Dim, IntHashMap> = HashMap::new();
    let mut seen: Vec<Dim> = Vec::new();
    // Phase 3 charges one FK gather per dimension, one extraction per column.
    let mut op = first_op;
    for g in &q.group_by {
        let dim = g.dim;
        if !seen.contains(&dim) {
            seen.push(dim);
            op += 1;
            if !db.dim(dim).dense_keys {
                ctx.check()?;
                let keycol = db.dim(dim).store.column(dim.key_column());
                let ((), log) = io.record(|rio| keycol.charge_scan(rio));
                charges.push((op, log));
                let keys = keycol.column.as_int().decode();
                ctx.charge(keys.len() * 12)?; // decoded keys + hash-table entries
                join_maps.insert(
                    dim,
                    IntHashMap::from_pairs(keys.iter().enumerate().map(|(p, &k)| (k, p as u32))),
                );
            }
        }
        op += 1;
    }
    Ok(join_maps)
}

/// Phase 2 over one morsel: every key predicate, then the fact measure
/// predicates (flight 1) like any other column predicate, each refining the
/// positions its predecessors left. One [`IoLog`] op and one `actuals` slot
/// per predicate; a slot's rows are the survivors *after* its predicate.
fn filter_morsel(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    key_preds: &[(Dim, FactKeyPred)],
    window: Range<u32>,
    io: &IoSession,
    actuals: &mut [OpActual],
) -> PosList {
    let mut pos = PosList::all(window.clone());
    let mut slots = actuals.iter_mut();
    let mut done = |pos: &PosList, started: Instant| {
        *slots.next().expect("one slot per predicate") =
            OpActual { rows: pos.count() as u64, busy: started.elapsed() };
    };
    for (dim, key_pred) in key_preds {
        let started = Instant::now();
        pos = phase2_probe(db, *dim, key_pred, cfg, window.clone(), &pos, io);
        done(&pos, started);
    }
    for p in &q.fact_predicates {
        let started = Instant::now();
        let col = db.fact.column(p.column);
        let pred = ScanPred::Logical(&p.pred);
        pos = refine(col, window.clone(), &pos, &pred, cfg.block_iteration, io);
        done(&pos, started);
    }
    pos
}

/// Phase 3 over one position list: minimal out-of-order extraction of group
/// and measure values at the surviving positions, aggregated on group ids
/// into `partial`.
#[allow(clippy::too_many_arguments)]
fn phase3_partial(
    db: &CStoreDb,
    q: &SsbQuery,
    strat: &AggStrategy,
    join_maps: &HashMap<Dim, IntHashMap>,
    pos: &PosList,
    io: &IoSession,
    ctx: &QueryCtx,
    partial: &mut AggPartial,
) -> Result<(), QueryError> {
    // Account the gathered group/measure arrays this phase materializes.
    let width = q.group_by.len() + q.aggregate.fact_columns().len();
    ctx.charge((pos.count() as usize).saturating_mul(8 * width.max(1)))?;
    let mut group_cols: Vec<GroupData> = Vec::with_capacity(q.group_by.len());
    let mut fk_cache: HashMap<Dim, Vec<u32>> = HashMap::new();
    for (gi, g) in q.group_by.iter().enumerate() {
        let dim = g.dim;
        fk_cache.entry(dim).or_insert_with(|| {
            let fk_col = db.fact.column(dim.fact_fk_column());
            let fks = gather_ints(fk_col, pos, io);
            if db.dim(dim).dense_keys {
                // Reassigned keys: FK value == dimension row position.
                fks.into_iter().map(|k| k as u32).collect()
            } else {
                // DATE: non-dense keys — join via the key→position table.
                let map = &join_maps[&dim];
                fks.into_iter().map(|k| map.get(k).expect("fact FK must join DATE")).collect()
            }
        });
        let dim_positions = &fk_cache[&dim];
        let col = db.dim(dim).store.column(g.column);
        group_cols.push(strat.extract_group_at(gi, col, dim_positions, io));
    }
    let measure_cols: Vec<Vec<i64>> = q
        .aggregate
        .fact_columns()
        .iter()
        .map(|c| gather_ints(db.fact.column(c), pos, io))
        .collect();
    partial.add_rows(q, &group_cols, &measure_cols, pos.count() as usize);
    Ok(())
}

/// Execute `q` with the invisible join.
///
/// Phase 1 (dimension predicate → key predicate) stays on the coordinator:
/// dimension tables are small. Phases 2 and 3 run as one pipelined fan-out:
/// each morsel probes every foreign-key predicate over its slice of the fact
/// position space, applies the fact predicates, extracts group and measure
/// values at its surviving positions, and partially aggregates. Every morsel
/// runs the same structural op sequence, so replaying the logs op-major —
/// each dimension's phase-1 charges spliced in front of its probe — charges
/// phase 2 column by column and then phase 3 column by column, whatever the
/// grid.
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: &ExecOptions<'_>,
    io: &IoSession,
) -> Result<QueryOutput, QueryError> {
    let ctx = &opts.ctx;
    let mut phase1: Vec<IoLog> = Vec::new();
    let mut key_preds: Vec<(Dim, FactKeyPred)> = Vec::new();
    for dim in q.restricted_dims() {
        ctx.check()?;
        let (key_pred, log) = io.record(|rio| {
            phase1_key_pred(db, q, dim, cfg, opts.between_rewriting, rio)
                .expect("restricted dim has predicates")
        });
        key_preds.push((dim, key_pred));
        phase1.push(log);
    }

    // The aggregation strategy is derived from column-header metadata only
    // (no charges) and shared read-only, so every morsel extracts codes in
    // the same global code spaces.
    let strat = AggStrategy::for_query(db, q);
    // Traced operators, in the order every morsel charges them; each morsel's
    // survivor count after an operator sums (over morsels) to the whole
    // column's running survivors, so EXPLAIN ANALYZE reports identical
    // actuals at any thread count.
    let key_ops = key_preds.iter().map(|(dim, _)| ("probe", dim.fact_fk_column()));
    let fact_ops = q.fact_predicates.iter().map(|p| ("scan", p.column));
    let operators: Vec<Operator> =
        key_ops.chain(fact_ops).map(|(op, detail)| Operator { op, detail, log_ops: 1 }).collect();
    let mut join_charges = Vec::new();
    let join_maps = build_join_maps(db, q, operators.len(), io, ctx, &mut join_charges)?;
    let splices: Vec<(usize, &IoLog)> =
        phase1.iter().enumerate().chain(join_charges.iter().map(|(op, log)| (*op, log))).collect();

    let n = db.fact_rows() as u32;
    run_fused(n, opts.par, ctx, io, &strat, q, &operators, &splices, |m| {
        let pos = filter_morsel(db, q, cfg, &key_preds, m.range, m.io, m.actuals);
        ctx.charge(pos.count() as usize * 4)?; // this morsel's surviving positions
        phase3_partial(db, q, &strat, &join_maps, &pos, m.io, ctx, m.partial)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::Parallelism;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query};
    use cvr_data::reference;
    use cvr_storage::io::{BufferPool, IoStats};
    use std::sync::Arc;

    fn db() -> CStoreDb {
        CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 17 }.generate()), true)
    }

    /// Small morsels so even this tiny scale factor fans out.
    fn at(threads: usize) -> ExecOptions<'static> {
        ExecOptions { par: Parallelism { threads, morsel_rows: 512 }, ..ExecOptions::default() }
    }

    /// Output and charges of one execution on a fresh pool.
    fn run(
        db: &CStoreDb,
        q: &SsbQuery,
        cfg: EngineConfig,
        opts: &ExecOptions<'_>,
    ) -> (QueryOutput, IoStats) {
        let io = IoSession::new(BufferPool::unbounded());
        let out = execute(db, q, cfg, opts, &io).expect("unbounded lifecycle");
        (out, io.stats())
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let db = db();
        for q in all_queries() {
            let expected = reference::evaluate(&db.tables, &q);
            let (got, _) = run(&db, &q, EngineConfig::FULL, &ExecOptions::default());
            assert_eq!(got, expected, "invisible join disagrees on {}", q.id);
        }
    }

    #[test]
    fn region_predicate_rewrites_to_between() {
        let db = db();
        let io = IoSession::unmetered();
        // Q3.1: c_region = 'ASIA' — hierarchy-sorted customer ⇒ contiguous.
        let kp = phase1_key_pred(&db, &query(3, 1), Dim::Customer, EngineConfig::FULL, true, &io)
            .expect("customer restricted");
        assert_eq!(kp.kind(), "between");
    }

    #[test]
    fn city_in_set_falls_back_to_key_bits() {
        let db = db();
        let io = IoSession::unmetered();
        // Q3.3: c_city IN ('UNITED KI1','UNITED KI5') — two disjoint ranges.
        let kp = phase1_key_pred(&db, &query(3, 3), Dim::Customer, EngineConfig::FULL, true, &io)
            .expect("customer restricted");
        // With a large enough dimension both cities exist and are disjoint;
        // at tiny scales one may be absent (still correct either way).
        assert!(kp.kind() == "key-bits" || kp.kind() == "between");
    }

    #[test]
    fn date_year_rewrites_to_datekey_between() {
        let db = db();
        let io = IoSession::unmetered();
        let kp = phase1_key_pred(&db, &query(1, 1), Dim::Date, EngineConfig::FULL, true, &io)
            .expect("date restricted");
        match kp {
            FactKeyPred::Between(lo, hi) => {
                assert_eq!(lo, 19930101);
                assert_eq!(hi, 19931231);
            }
            _ => panic!("year predicate must rewrite to between"),
        }
    }

    #[test]
    fn mfgr_in_set_is_contiguous_after_sorting() {
        let db = db();
        let io = IoSession::unmetered();
        // Q4.1: p_mfgr IN ('MFGR#1','MFGR#2') — adjacent under mfgr-sorted
        // parts, so the runtime detector still finds a contiguous range.
        let kp = phase1_key_pred(&db, &query(4, 1), Dim::Part, EngineConfig::FULL, true, &io)
            .expect("part restricted");
        assert_eq!(kp.kind(), "between");
    }

    #[test]
    fn block_and_tuple_modes_agree() {
        let db = db();
        let tuple_cfg = EngineConfig::parse("TICL");
        for q in all_queries() {
            assert_eq!(
                run(&db, &q, EngineConfig::FULL, &at(2)).0,
                run(&db, &q, tuple_cfg, &at(2)).0,
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn traced_operators_carry_rows_time_and_io_at_every_thread_count() {
        // One tree shape at any thread count: the fused span, then one leaf
        // per filter operator whose rows and I/O do not depend on the grid.
        // A leaf's rows are the running survivors — what is left *after* its
        // predicate — so they only fall, and the last leaf's are the filter's.
        let db = db();
        let q = query(3, 1);
        let passing = reference::measured_selectivity(&db.tables, &q) * db.fact_rows() as f64;
        let mut seen = Vec::new();
        for threads in [1, 4] {
            let ctx = QueryCtx::unbounded();
            ctx.attach_tracer(crate::trace::Tracer::new());
            let opts = ExecOptions { ctx: ctx.clone(), ..at(threads) };
            run(&db, &q, EngineConfig::FULL, &opts);
            let root = ctx.tracer().unwrap().take_root().expect("traced");
            let spans = root.flatten();
            let ops: Vec<&str> = spans.iter().map(|s| s.op.as_str()).collect();
            assert_eq!(ops, ["query", "extract-aggregate", "probe", "probe", "probe"]);
            assert!(!spans[1].workers.is_empty() && spans[1].morsels > 1, "{:?}", spans[1]);
            for leaf in &spans[2..] {
                assert!(leaf.wall > std::time::Duration::ZERO, "{leaf:?}");
                assert!(leaf.io.pages_read > 0, "{leaf:?}");
            }
            let rows: Vec<u64> = spans[2..].iter().map(|s| s.rows_out.expect("rows")).collect();
            assert!(rows.windows(2).all(|w| w[0] >= w[1]), "survivors only fall: {rows:?}");
            assert!(rows[0] < db.fact_rows() as u64, "the first probe already restricts");
            assert_eq!(rows.last().copied(), Some(passing.round() as u64));
            seen.push(spans[2..].iter().map(|s| (s.rows_out, s.io)).collect::<Vec<_>>());
        }
        assert_eq!(seen[0], seen[1], "per-operator actuals must not depend on threads");
    }

    #[test]
    fn uncompressed_db_agrees() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 17 }.generate());
        let comp = CStoreDb::build(tables.clone(), true);
        let plain = CStoreDb::build(tables, false);
        let cfg_c = EngineConfig::parse("tICL");
        let cfg_p = EngineConfig::parse("tIcL");
        for q in all_queries() {
            assert_eq!(
                run(&comp, &q, cfg_c, &at(2)).0,
                run(&plain, &q, cfg_p, &at(2)).0,
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn disabling_rewriting_preserves_results_at_every_thread_count() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 61 }.generate()), true);
        for q in all_queries() {
            let (with, _) = run(&db, &q, EngineConfig::FULL, &at(1));
            let no_rewrite = |threads| ExecOptions { between_rewriting: false, ..at(threads) };
            let (one, one_io) = run(&db, &q, EngineConfig::FULL, &no_rewrite(1));
            let (four, four_io) = run(&db, &q, EngineConfig::FULL, &no_rewrite(4));
            assert_eq!(with, one, "{}", q.id);
            assert_eq!((one, one_io), (four, four_io), "{}: threads 1 vs 4", q.id);
        }
    }

    #[test]
    fn disabling_rewriting_forces_key_sets() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 61 }.generate()), true);
        let io = IoSession::unmetered();
        // Region and year predicates: rewritable when enabled. Without, one
        // membership representation per key kind: bits over CUSTOMER's dense
        // keys, a hash set over DATE's yyyymmdd keys.
        let q = query(3, 1);
        for (dim, fallback) in [(Dim::Customer, "key-bits"), (Dim::Date, "hash-set")] {
            let kind = |rewrite| {
                phase1_key_pred(&db, &q, dim, EngineConfig::FULL, rewrite, &io).unwrap().kind()
            };
            assert_eq!((kind(true), kind(false)), ("between", fallback), "{dim:?}");
        }
    }
}
