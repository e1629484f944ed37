//! The classic late-materialized join \[5\] — what C-Store falls back to when
//! the invisible join is disabled (the Figure 7 `i` configurations).
//!
//! Joins run dimension-by-dimension in selectivity order. Each join builds
//! the filtered dimension's *keys → positions* table — one membership bit
//! per dimension row where the reassigned keys are the row positions, a hash
//! table for DATE — probes the fact FK column, and immediately extracts that
//! dimension's group-by attributes at the matched (out-of-order) dimension
//! positions. Like every late-materialized shape, each step works only on
//! the fact positions the previous steps left
//! ([`crate::scan::refine`]). Two deliberate differences from the invisible
//! join, both called out in Section 5.4:
//!
//! * **no between-predicate rewriting** — every join probes its table, even
//!   when the matching keys are contiguous ("this performance
//!   difference is largely due to the between-predicate rewriting
//!   optimization");
//! * **eager extraction** — dimension values are pulled as each join
//!   completes, so earlier joins extract values for fact rows that later
//!   predicates will discard ("the number of positions ... is dependent on
//!   the selectivity of just the part of the query that has been executed
//!   so far"), and the extraction order is whatever the join produced,
//!   "which can have significant cost".

use crate::agg::{AggStrategy, GroupData};
use crate::config::EngineConfig;
use crate::ctx::QueryError;
use crate::engine::ExecOptions;
use crate::extract::{gather_ints, ints_at};
use crate::invisible::dim_positions;
use crate::morsel::{run_fused, Morsel, OpActual, Operator};
use crate::poslist::PosList;
use crate::projection::CStoreDb;
use crate::scan::{refine, ScanPred};
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::bitmap::KeyBits;
use cvr_index::hashidx::IntHashMap;
use cvr_storage::io::{IoLog, IoSession};
use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

/// The build side of one join: `key → dimension position` for the dimension
/// rows matching the query's predicates. One representation per key kind.
enum DimKeys {
    /// Dense (reassigned) keys: the key *is* the row position, so the table
    /// is one membership bit per dimension row.
    Dense(KeyBits),
    /// Non-dense keys (DATE's `yyyymmdd`): a hash table.
    Hashed(IntHashMap),
}

impl DimKeys {
    /// Matching dimension rows.
    fn len(&self) -> usize {
        match self {
            DimKeys::Dense(bits) => bits.len(),
            DimKeys::Hashed(map) => map.len(),
        }
    }

    /// The dimension position `key` joins to, if its row matched.
    #[inline]
    fn get(&self, key: i64) -> Option<u32> {
        match self {
            DimKeys::Dense(bits) => bits.contains(key).then_some(key as u32),
            DimKeys::Hashed(map) => map.get(key),
        }
    }

    /// Run `f` with membership in this table as a scan-layer predicate.
    fn with_scan_pred<R>(&self, f: impl FnOnce(&ScanPred<'_>) -> R) -> R {
        match self {
            DimKeys::Dense(bits) => f(&ScanPred::Keys(bits)),
            DimKeys::Hashed(map) => {
                let joins = |v: i64| map.get(v).is_some();
                f(&ScanPred::Test(&joins))
            }
        }
    }
}

/// Build the join table of `dim`: the keys (and positions) of the dimension
/// rows matching the query's predicates — all rows when unrestricted.
fn dim_keys(db: &CStoreDb, q: &SsbQuery, dim: Dim, cfg: EngineConfig, io: &IoSession) -> DimKeys {
    let store = db.dim(dim);
    let dpos = dim_positions(db, q, dim, cfg, io);
    let keys = gather_ints(store.store.column(dim.key_column()), &dpos, io);
    if store.dense_keys {
        DimKeys::Dense(KeyBits::from_keys(dpos.universe(), keys))
    } else {
        DimKeys::Hashed(IntHashMap::from_pairs(keys.into_iter().zip(dpos.iter())))
    }
}

/// Execute `q` with late-materialized hash joins (invisible join disabled).
///
/// The dimension join tables are built once on the coordinator (they are
/// small); each morsel then pipelines its slice of the fact position space
/// through the join order — fact predicates, restricted dimensions by
/// selectivity with eager out-of-order extraction, group-only dimensions,
/// measures, partial aggregation. Every step works on the positions the
/// previous steps left: fact predicates refine them
/// ([`crate::scan::refine`]), the first join is a membership scan of its FK
/// column, later joins gather their FKs at the surviving positions.
/// Per-morsel I/O logs replay op-major, each join table's charges spliced in
/// front of the join that probes it, and partial aggregates merge in morsel
/// order ([`run_fused`]); `opts.ctx` is polled between table builds and at
/// every morsel boundary.
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: &ExecOptions<'_>,
    io: &IoSession,
) -> Result<QueryOutput, QueryError> {
    let ctx = &opts.ctx;
    let n = db.fact_rows() as u32;
    let block = cfg.block_iteration;
    let group_cols_of = |dim: Dim| q.group_by.iter().enumerate().filter(move |(_, g)| g.dim == dim);

    // Join tables: the restricted dimensions, then the dimensions that only
    // contribute group columns.
    let grouped =
        || q.touched_dims().into_iter().filter(|d| q.group_by.iter().any(|g| g.dim == *d));
    let mut tables: HashMap<Dim, DimKeys> = HashMap::new();
    let mut logs: HashMap<Dim, IoLog> = HashMap::new();
    for dim in q.restricted_dims().into_iter().chain(grouped()) {
        if let Entry::Vacant(slot) = tables.entry(dim) {
            ctx.check()?;
            let (keys, log) = io.record(|rio| dim_keys(db, q, dim, cfg, rio));
            slot.insert(keys);
            logs.insert(dim, log);
        }
    }
    // Join order: restricted dimensions by predicate selectivity, most
    // selective first ("pipeline joins in order of predicate selectivity") —
    // read off the sizes of the tables just built.
    let mut order: Vec<(Dim, f64)> = q
        .restricted_dims()
        .into_iter()
        .map(|d| (d, tables[&d].len() as f64 / db.dim(d).sorted.num_rows().max(1) as f64))
        .collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let order: Vec<Dim> = order.into_iter().map(|(d, _)| d).collect();
    // Every join charges one probe (or gather) op plus one extraction per
    // group column of its dimension, after the fact predicates' one scan op
    // each; a table's build charges go in front of its join's.
    let mut builds: Vec<(usize, IoLog)> = Vec::new();
    let mut op = q.fact_predicates.len();
    for dim in order.iter().copied().chain(grouped()) {
        if let Some(log) = logs.remove(&dim) {
            builds.push((op, log));
            op += 1 + group_cols_of(dim).count();
        }
    }
    let splices: Vec<(usize, &IoLog)> = builds.iter().map(|(op, log)| (*op, log)).collect();

    // Shared read-only aggregation strategy: metadata only, no charges.
    let strat = AggStrategy::for_query(db, q);

    // Traced operators in per-morsel charge order: a scan charges one op, a
    // join its probe plus one extraction per group column of its dimension.
    // Every node reports the running surviving count.
    let scans = q.fact_predicates.iter().map(|p| ("scan", p.column, 1));
    let joins = order
        .iter()
        .map(|&dim| ("hash-join", dim.fact_fk_column(), 1 + group_cols_of(dim).count()));
    let operators: Vec<Operator> =
        scans.chain(joins).map(|(op, detail, log_ops)| Operator { op, detail, log_ops }).collect();

    let task = |m: Morsel<'_>| {
        let (range, rio) = (m.range, m.io);
        let mut slots = m.actuals.iter_mut();
        let mut done = |rows: u32, started: Instant| {
            *slots.next().expect("one slot per operator") =
                OpActual { rows: rows as u64, busy: started.elapsed() };
        };

        // Fact-column predicates (flight 1): ordinary column predicates.
        let mut pos = PosList::all(range.clone());
        for p in &q.fact_predicates {
            let started = Instant::now();
            let col = db.fact.column(p.column);
            pos = refine(col, range.clone(), &pos, &ScanPred::Logical(&p.pred), block, rio);
            done(pos.count(), started);
        }
        // Until something has restricted the morsel, a join reads its FK
        // column as a scan; afterwards as a gather at the survivors.
        let mut restricted = !q.fact_predicates.is_empty();

        // Restricted dimensions, most selective first, with eager
        // out-of-order extraction of each dimension's group columns.
        let mut group_vals: Vec<Option<GroupData>> = Vec::new();
        group_vals.resize_with(q.group_by.len(), || None);
        for &dim in &order {
            let started = Instant::now();
            let keys = &tables[&dim];
            let fk_col = db.fact.column(dim.fact_fk_column());
            let dim_positions: Vec<u32> = if restricted {
                let fks = gather_ints(fk_col, &pos, rio);
                let mut keep = Vec::with_capacity(fks.len());
                let mut new_pos = Vec::new();
                let mut dim_positions = Vec::new();
                for (p, fk) in pos.iter().zip(fks) {
                    let hit = keys.get(fk);
                    keep.push(hit.is_some());
                    if let Some(d) = hit {
                        new_pos.push(p);
                        dim_positions.push(d);
                    }
                }
                // Compact previously-extracted arrays to stay aligned.
                for slot in group_vals.iter_mut().flatten() {
                    slot.retain_marked(&keep);
                }
                pos = PosList::explicit(new_pos, range.len() as u32);
                dim_positions
            } else {
                pos = keys
                    .with_scan_pred(|pred| refine(fk_col, range.clone(), &pos, pred, block, rio));
                let joined = |k| keys.get(k).expect("a matched FK joins its dimension");
                ints_at(fk_col, &pos).into_iter().map(joined).collect()
            };
            restricted = true;
            for (gi, g) in group_cols_of(dim) {
                let col = db.dim(dim).store.column(g.column);
                group_vals[gi] = Some(strat.extract_group_at(gi, col, &dim_positions, rio));
            }
            done(pos.count(), started);
        }

        let count = pos.count() as usize;
        // This morsel's share of the positions + aligned extracted arrays.
        ctx.charge(count.saturating_mul(8 * (q.group_by.len() + 1)))?;

        // Group-only dimensions (no predicates): join via the full table.
        for dim in q.touched_dims() {
            if !group_cols_of(dim).any(|(gi, _)| group_vals[gi].is_none()) {
                continue;
            }
            let fks = gather_ints(db.fact.column(dim.fact_fk_column()), &pos, rio);
            let joined = |k| tables[&dim].get(k).expect("FK joins dimension");
            let dim_positions: Vec<u32> = fks.into_iter().map(joined).collect();
            for (gi, g) in group_cols_of(dim) {
                let col = db.dim(dim).store.column(g.column);
                group_vals[gi] = Some(strat.extract_group_at(gi, col, &dim_positions, rio));
            }
        }

        // Measures + partial aggregation on group ids.
        let measure_cols: Vec<Vec<i64>> = q
            .aggregate
            .fact_columns()
            .iter()
            .map(|c| gather_ints(db.fact.column(c), &pos, rio))
            .collect();
        let group_cols: Vec<GroupData> =
            group_vals.into_iter().map(|v| v.expect("all group columns extracted")).collect();
        m.partial.add_rows(q, &group_cols, &measure_cols, count);
        Ok(())
    };
    run_fused(n, opts.par, ctx, io, &strat, q, &operators, &splices, task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::all_queries;
    use cvr_data::reference;
    use std::sync::Arc;

    fn run(db: &CStoreDb, q: &SsbQuery, cfg: EngineConfig, io: &IoSession) -> QueryOutput {
        execute(db, q, cfg, &ExecOptions::default(), io).expect("unbounded lifecycle")
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 23 }.generate()), true);
        let io = IoSession::unmetered();
        let cfg = EngineConfig::parse("tiCL");
        for q in all_queries() {
            let expected = reference::evaluate(&db.tables, &q);
            assert_eq!(run(&db, &q, cfg, &io), expected, "LM join disagrees on {}", q.id);
        }
    }

    #[test]
    fn agrees_with_invisible_join() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.003, seed: 29 }.generate()), true);
        let io = IoSession::unmetered();
        for q in all_queries() {
            let lm = run(&db, &q, EngineConfig::parse("tiCL"), &io);
            let opts = ExecOptions::default();
            let ij = crate::invisible::execute(&db, &q, EngineConfig::parse("tICL"), &opts, &io)
                .unwrap();
            assert_eq!(lm, ij, "{}", q.id);
        }
    }

    #[test]
    fn tuple_mode_agrees() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.001, seed: 3 }.generate()), false);
        let io = IoSession::unmetered();
        for q in all_queries() {
            assert_eq!(
                run(&db, &q, EngineConfig::parse("ticL"), &io),
                run(&db, &q, EngineConfig::parse("TicL"), &io),
                "{}",
                q.id
            );
        }
    }
}
