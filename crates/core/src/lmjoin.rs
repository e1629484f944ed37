//! The classic late-materialized join \[5\] — what C-Store falls back to when
//! the invisible join is disabled (the Figure 7 `i` configurations).
//!
//! Joins run dimension-by-dimension in selectivity order. Each join hashes
//! the filtered dimension's *keys to positions*, probes the fact FK column,
//! and immediately extracts that dimension's group-by attributes at the
//! matched (out-of-order) dimension positions. Two deliberate differences
//! from the invisible join, both called out in Section 5.4:
//!
//! * **no between-predicate rewriting** — every join probes a hash table,
//!   even when the matching keys are contiguous ("this performance
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
use crate::extract::gather_ints;
use crate::morsel::{run_fused, Morsel, OpActual, Operator};
use crate::poslist::PosList;
use crate::projection::CStoreDb;
use crate::scan::scan_pred;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::hashidx::IntHashMap;
use cvr_storage::encode::IntColumn;
use cvr_storage::io::{IoLog, IoSession};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::time::Instant;

/// Restricted dimensions ordered by predicate selectivity (most selective
/// first) — the "pipeline joins in order of predicate selectivity" heuristic.
fn restricted_in_order(db: &CStoreDb, q: &SsbQuery) -> Vec<Dim> {
    let mut dims: Vec<(Dim, f64)> = q
        .restricted_dims()
        .into_iter()
        .map(|d| {
            let table = &db.dim(d).sorted;
            let preds = q.dim_predicates_on(d);
            let matches = (0..table.num_rows())
                .filter(|&i| preds.iter().all(|p| p.pred.matches(&table.value(i, p.column))))
                .count();
            (d, matches as f64 / table.num_rows().max(1) as f64)
        })
        .collect();
    dims.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    dims.into_iter().map(|(d, _)| d).collect()
}

/// Build `key → dimension position` for the dimension rows matching the
/// query's predicates (all rows when unrestricted).
fn dim_hash(
    db: &CStoreDb,
    q: &SsbQuery,
    dim: Dim,
    cfg: EngineConfig,
    io: &IoSession,
) -> IntHashMap {
    let store = db.dim(dim);
    let preds = q.dim_predicates_on(dim);
    let dpos = if preds.is_empty() {
        PosList::all(0..store.sorted.num_rows() as u32)
    } else {
        let mut acc: Option<PosList> = None;
        for p in &preds {
            let col = store.store.column(p.column);
            let pl = scan_pred(col, col.positions(), &p.pred, cfg.block_iteration, io);
            acc = Some(match acc {
                None => pl,
                Some(a) => a.intersect(&pl),
            });
        }
        acc.unwrap()
    };
    let keys = gather_ints(store.store.column(dim.key_column()), &dpos, io);
    IntHashMap::from_pairs(keys.into_iter().zip(dpos.iter()))
}

/// Probe fact positions `window` of `dim`'s FK column against `map`, per
/// encoding × iteration interface: returns the matched fact positions and
/// the corresponding dimension positions. Hash probes are inherently
/// per-value, but RLE still probes once per run and packed columns unpack
/// one word at a time.
fn probe_window(
    db: &CStoreDb,
    dim: Dim,
    map: &IntHashMap,
    cfg: EngineConfig,
    window: Range<u32>,
    io: &IoSession,
) -> (Vec<u32>, Vec<u32>) {
    let (start, end, block) = (window.start, window.end, cfg.block_iteration);
    let stored = db.fact.column(dim.fact_fk_column());
    stored.charge_scan_range(start, end, io);
    let col = stored.column.as_int();
    let mut fact_pos = Vec::new();
    let mut dim_pos = Vec::new();
    if start >= end {
        return (fact_pos, dim_pos);
    }
    match col {
        IntColumn::Rle { runs, .. } => {
            // Direct operation on compressed data: one probe per run.
            let mut idx = if start == 0 { 0 } else { col.run_containing(start) };
            while idx < runs.len() && runs[idx].start < end {
                let r = &runs[idx];
                if let Some(d) = map.get(r.value) {
                    for p in r.start.max(start)..(r.start + r.len).min(end) {
                        fact_pos.push(p);
                        dim_pos.push(d);
                    }
                }
                idx += 1;
            }
        }
        IntColumn::Plain { values, .. } => {
            let slice = &values[start as usize..end as usize];
            if block {
                for (off, &v) in slice.iter().enumerate() {
                    if let Some(d) = map.get(v) {
                        fact_pos.push(start + off as u32);
                        dim_pos.push(d);
                    }
                }
            } else {
                let mut src: Box<dyn Iterator<Item = i64>> = Box::new(slice.iter().copied());
                let mut i = start;
                while let Some(v) = std::hint::black_box(&mut src).next() {
                    if let Some(d) = map.get(v) {
                        fact_pos.push(i);
                        dim_pos.push(d);
                    }
                    i += 1;
                }
            }
        }
        IntColumn::Packed { reference, packed } => {
            let r = *reference;
            if block {
                let mut i = start;
                packed.for_each_in(start, end, |c| {
                    if let Some(d) = map.get(r + c as i64) {
                        fact_pos.push(i);
                        dim_pos.push(d);
                    }
                    i += 1;
                });
            } else {
                let mut src: Box<dyn Iterator<Item = u64>> =
                    Box::new(packed.iter_range(start, end));
                let mut i = start;
                while let Some(c) = std::hint::black_box(&mut src).next() {
                    if let Some(d) = map.get(r + c as i64) {
                        fact_pos.push(i);
                        dim_pos.push(d);
                    }
                    i += 1;
                }
            }
        }
    }
    (fact_pos, dim_pos)
}

/// Execute `q` with late-materialized hash joins (invisible join disabled).
///
/// The dimension hash tables are built once on the coordinator (they are
/// small); each morsel then pipelines its slice of the fact position space
/// through the join order — fact predicates, restricted dimensions by
/// selectivity with eager out-of-order extraction, group-only dimensions,
/// measures, partial aggregation. Per-morsel I/O logs replay op-major, each
/// hash table's charges spliced in front of the join that probes it, and
/// partial aggregates merge in morsel order ([`run_fused`]); `opts.ctx` is
/// polled between hash-table builds and at every morsel boundary.
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: &ExecOptions<'_>,
    io: &IoSession,
) -> Result<QueryOutput, QueryError> {
    let ctx = &opts.ctx;
    let n = db.fact_rows() as u32;
    let group_cols_of = |dim: Dim| q.group_by.iter().enumerate().filter(move |(_, g)| g.dim == dim);

    // Join order and dimension hash tables: restricted dimensions first,
    // then the dimensions that only contribute group columns. Every join
    // charges one probe (or gather) op plus one extraction per group column
    // of its dimension, after the fact predicates' one scan op each.
    let order = restricted_in_order(db, q);
    let grouped = q.touched_dims().into_iter().filter(|d| q.group_by.iter().any(|g| g.dim == *d));
    let mut maps: HashMap<Dim, IntHashMap> = HashMap::new();
    let mut builds: Vec<(usize, IoLog)> = Vec::new();
    let mut op = q.fact_predicates.len();
    for dim in order.iter().copied().chain(grouped) {
        if let Entry::Vacant(slot) = maps.entry(dim) {
            ctx.check()?;
            let (map, log) = io.record(|rio| dim_hash(db, q, dim, cfg, rio));
            slot.insert(map);
            builds.push((op, log));
            op += 1 + group_cols_of(dim).count();
        }
    }
    let splices: Vec<(usize, &IoLog)> = builds.iter().map(|(op, log)| (*op, log)).collect();

    // Shared read-only aggregation strategy: metadata only, no charges.
    let strat = AggStrategy::for_query(db, q);

    // Traced operators in per-morsel charge order: a scan charges one op, a
    // join its probe plus one extraction per group column of its dimension.
    // Scan nodes report the running surviving count.
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

        // Fact-column predicates (flight 1): ordinary column scans.
        let mut pos: Option<PosList> = None;
        for p in &q.fact_predicates {
            let started = Instant::now();
            let col = db.fact.column(p.column);
            let frag = scan_pred(col, range.clone(), &p.pred, cfg.block_iteration, rio);
            let acc = match pos {
                None => frag,
                Some(acc) => acc.intersect(&frag),
            };
            done(acc.count(), started);
            pos = Some(acc);
        }

        // Restricted dimensions, most selective first, with eager
        // out-of-order extraction of each dimension's group columns.
        let mut group_vals: Vec<Option<GroupData>> = Vec::new();
        group_vals.resize_with(q.group_by.len(), || None);
        for &dim in &order {
            let started = Instant::now();
            let map = &maps[&dim];
            let (new_pos, dim_positions) = match &pos {
                None => probe_window(db, dim, map, cfg, range.clone(), rio),
                Some(current) => {
                    let fks = gather_ints(db.fact.column(dim.fact_fk_column()), current, rio);
                    let mut keep = Vec::with_capacity(fks.len());
                    let mut new_pos = Vec::new();
                    let mut dim_positions = Vec::new();
                    for (p, fk) in current.iter().zip(fks) {
                        let hit = map.get(fk);
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
                    (new_pos, dim_positions)
                }
            };
            for (gi, g) in group_cols_of(dim) {
                let col = db.dim(dim).store.column(g.column);
                group_vals[gi] = Some(strat.extract_group_at(gi, col, &dim_positions, rio));
            }
            done(new_pos.len() as u32, started);
            pos = Some(PosList::explicit(new_pos, range.len() as u32));
        }

        let pos = pos.unwrap_or_else(|| PosList::all(range));
        let count = pos.count() as usize;
        // This morsel's share of the positions + aligned extracted arrays.
        ctx.charge(count.saturating_mul(8 * (q.group_by.len() + 1)))?;

        // Group-only dimensions (no predicates): join via full-key hash.
        for dim in q.touched_dims() {
            if !group_cols_of(dim).any(|(gi, _)| group_vals[gi].is_none()) {
                continue;
            }
            let fks = gather_ints(db.fact.column(dim.fact_fk_column()), &pos, rio);
            let dim_positions: Vec<u32> =
                fks.into_iter().map(|k| maps[&dim].get(k).expect("FK joins dimension")).collect();
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
    let (out, _, _) = run_fused(n, opts.par, ctx, io, &strat, q, &operators, &splices, task)?;
    Ok(out)
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
            let (ij, _) =
                crate::invisible::execute(&db, &q, EngineConfig::parse("tICL"), &opts, &io)
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
