//! Early materialization — late materialization removed (Figure 7 `l`) —
//! and the row-style pipeline it shares with CS (Row-MV).
//!
//! "In order to remove late materialization, we had to hand code query
//! plans to construct tuples at the beginning of the query plan." This
//! module is that hand-coded plan shape: the needed fact columns are read
//! and **decompressed** (tuple construction forces decompression, which is
//! why the paper removes `L` last), tuples are stitched immediately, and
//! everything above is row-oriented execution — per-tuple predicate checks
//! and hash-join probes against filtered dimension tables, just like the
//! row engine. "Once all of these optimizations are removed, the
//! column-store acts like a row-store."
//!
//! The pipeline takes its fact tuples from one of two sources
//! (`FactTuples`): `Stitched` from decoded columns (this module's `l`
//! configurations, by direct indexing or through `getNext`), or `Parsed`
//! from the string rows of a CS (Row-MV) view ([`crate::row_mv`], Section
//! 6.1). Either way each dimension join table is built by
//! `DimTable::from_rows` from rows of `[key, predicate values…, group
//! values…]`, and one morsel pipeline filters, probes and aggregates on
//! group codes.

use crate::agg::{AggPartial, AggStrategy, CodeDecoder, GroupLayout};
use crate::config::EngineConfig;
use crate::ctx::{QueryCtx, QueryError};
use crate::engine::ExecOptions;
use crate::extract::decode_all;
use crate::morsel::try_run_morsels;
use crate::projection::CStoreDb;
use crate::row_mv::RowMvTable;
use cvr_data::queries::{Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::value::Value;
use cvr_index::hashidx::IntHashMap;
use cvr_storage::io::IoSession;
use std::collections::HashMap;
use std::ops::Range;

/// A source of the pipeline's fact tuples, each laid out in
/// [`SsbQuery::fact_columns`] order. The pipeline is generic over it, so
/// each source gets its own monomorphic per-tuple loop.
pub(crate) trait FactTuples: Sync {
    /// Number of tuples.
    fn rows(&self) -> usize;

    /// Call `f` on each tuple of `range`, in order.
    fn for_each(&self, range: Range<usize>, f: impl FnMut(&[Value]));
}

/// Tuples stitched from fully decoded fact columns. In tuple-at-a-time mode
/// every value access goes through a boxed per-column iterator (the
/// `getNext` interface); in block mode tuples are stitched by direct
/// indexing.
struct Stitched {
    columns: Vec<Vec<Value>>,
    block: bool,
}

impl FactTuples for Stitched {
    fn rows(&self) -> usize {
        self.columns[0].len()
    }

    fn for_each(&self, range: Range<usize>, mut f: impl FnMut(&[Value])) {
        if self.block {
            for i in range {
                let tuple: Vec<Value> = self.columns.iter().map(|c| c[i].clone()).collect();
                f(&tuple);
            }
        } else {
            let mut sources: Vec<Box<dyn Iterator<Item = &Value>>> = self
                .columns
                .iter()
                .map(|c| Box::new(c[range.clone()].iter()) as Box<dyn Iterator<Item = &Value>>)
                .collect();
            for _ in range {
                let tuple: Vec<Value> = sources
                    .iter_mut()
                    .map(|s| std::hint::black_box(s).next().expect("column length").clone())
                    .collect();
                f(&tuple);
            }
        }
    }
}

/// Tuples parsed, as they are read, from the string rows of a CS (Row-MV)
/// view: `fields` are the view positions of the tuple's columns.
pub(crate) struct Parsed<'a> {
    pub(crate) view: &'a RowMvTable,
    pub(crate) fields: Vec<usize>,
}

impl FactTuples for Parsed<'_> {
    fn rows(&self) -> usize {
        self.view.num_rows()
    }

    fn for_each(&self, range: Range<usize>, mut f: impl FnMut(&[Value])) {
        for row in &self.view.store.column.as_str().plain_strs()[range] {
            let tuple: Vec<Value> =
                self.fields.iter().map(|&i| self.view.parse_field(row, i)).collect();
            f(&tuple);
        }
    }
}

/// The columns of a dimension row as [`DimTable::from_rows`] reads it: the
/// key, one column per predicate on `dim`, one per group column of `dim`.
pub(crate) fn dim_row_columns(q: &SsbQuery, dim: Dim) -> Vec<&'static str> {
    let preds = q.dim_predicates_on(dim).into_iter().map(|p| p.column);
    let groups = q.group_by.iter().filter(|g| g.dim == dim).map(|g| g.column);
    std::iter::once(dim.key_column()).chain(preds).chain(groups).collect()
}

/// Per-dimension join table for row-mode execution: FK → group values of
/// rows passing the dimension predicates.
pub(crate) struct DimTable {
    map: IntHashMap,
    group_rows: Vec<Vec<Value>>,
    restricted: bool,
}

impl DimTable {
    /// `dim`'s join table for `q` from its rows, each laid out as
    /// [`dim_row_columns`]: the rows that pass every predicate on `dim`,
    /// keyed by their key, holding their group values.
    pub(crate) fn from_rows(
        q: &SsbQuery,
        dim: Dim,
        rows: impl Iterator<Item = Vec<Value>>,
    ) -> DimTable {
        let preds = q.dim_predicates_on(dim);
        let mut map = IntHashMap::with_capacity(rows.size_hint().0);
        let mut group_rows = Vec::new();
        for row in rows {
            if preds.iter().zip(&row[1..]).all(|(p, v)| p.pred.matches(v)) {
                map.insert(row[0].as_int(), group_rows.len() as u32);
                group_rows.push(row[1 + preds.len()..].to_vec());
            }
        }
        DimTable { map, group_rows, restricted: !preds.is_empty() }
    }
}

/// Row-style dimension access: decode the key, predicate and group columns,
/// then stitch them into rows.
fn decoded_dim_table(db: &CStoreDb, q: &SsbQuery, dim: Dim, io: &IoSession) -> DimTable {
    let store = db.dim(dim);
    let columns: Vec<Vec<Value>> =
        dim_row_columns(q, dim).iter().map(|c| decode_all(store.store.column(c), io)).collect();
    let rows = (0..store.store.num_rows()).map(|i| columns.iter().map(|c| c[i].clone()).collect());
    DimTable::from_rows(q, dim, rows)
}

/// The pipeline's plan: where each input sits in a fact tuple, the
/// dimension join tables, and how the pipeline aggregates.
pub(crate) struct RowPlan<'q> {
    pred_idx: Vec<(usize, &'q Pred)>,
    fk_idx: Vec<(Dim, usize)>,
    agg_idx: Vec<usize>,
    group_dim_order: Vec<Dim>,
    dims: HashMap<Dim, DimTable>,
    /// Code-level aggregation: each group column's values over the filtered
    /// dimension rows are interned into a local dictionary
    /// (`group_row_codes[gi][dim_row]` is the code), so even the row-style
    /// pipeline aggregates on composed integer ids and decodes each group
    /// once at finish. Its `spaces` stay empty — the pipeline codes group
    /// columns through `group_row_codes`, not through the storage layout.
    /// The `Value`-keyed reference when the composed domain overflows `u64`.
    strat: AggStrategy<'static>,
    /// Per group column: filtered-dimension-row → code (aligned with the
    /// layout's decoders).
    group_row_codes: Vec<Vec<u32>>,
}

impl<'q> RowPlan<'q> {
    /// The plan of `q` over `dims`, one join table per touched dimension.
    pub(crate) fn new(q: &'q SsbQuery, dims: HashMap<Dim, DimTable>) -> RowPlan<'q> {
        let col_of: HashMap<&str, usize> =
            q.fact_columns().into_iter().enumerate().map(|(i, c)| (c, i)).collect();
        let mut cols = Vec::with_capacity(q.group_by.len());
        let mut group_row_codes = Vec::with_capacity(q.group_by.len());
        for (gi, g) in q.group_by.iter().enumerate() {
            let table = &dims[&g.dim];
            let offset = q.group_by.iter().take(gi).filter(|g2| g2.dim == g.dim).count();
            // Intern the column's distinct values across the filtered
            // dimension rows: many rows share one group value (every Chinese
            // customer is one "CHINA" group), so codes must be value-level,
            // not row-level.
            let (codes, values) =
                crate::agg::intern_values(table.group_rows.iter().map(|r| &r[offset]));
            cols.push((values.len().max(1) as u64, CodeDecoder::Values(values)));
            group_row_codes.push(codes);
        }
        let strat = match GroupLayout::try_new(cols) {
            Some(layout) => AggStrategy::Code { layout, spaces: Vec::new() },
            None => AggStrategy::Value,
        };
        RowPlan {
            pred_idx: q.fact_predicates.iter().map(|p| (col_of[p.column], &p.pred)).collect(),
            fk_idx: q.touched_dims().into_iter().map(|d| (d, col_of[d.fact_fk_column()])).collect(),
            agg_idx: q.aggregate.fact_columns().iter().map(|c| col_of[c]).collect(),
            group_dim_order: q.group_by.iter().map(|g| g.dim).collect(),
            dims,
            strat,
            group_row_codes,
        }
    }
}

/// Run `q`'s pipeline over `source`. Pure CPU: all I/O happened in the
/// caller's prelude. Fans out over morsels of the tuple space, each worker
/// filtering, probing and aggregating into one partial that the coordinator
/// merges; `opts.ctx` is honoured at every morsel boundary.
pub(crate) fn run_pipeline<S: FactTuples>(
    q: &SsbQuery,
    plan: &RowPlan<'_>,
    source: &S,
    opts: &ExecOptions<'_>,
    io: &IoSession,
    detail: &str,
) -> Result<QueryOutput, QueryError> {
    let ctx = &opts.ctx;
    let mut span = ctx.span("pipeline", detail, io);
    let init = || plan.strat.new_partial();
    let (_, partials) = try_run_morsels(source.rows() as u32, opts.par, ctx, init, |p, _, r| {
        let mut inputs = vec![0i64; plan.agg_idx.len()];
        source.for_each(r.start as usize..r.end as usize, |tuple| {
            if process_tuple(tuple, &plan.pred_idx, &plan.fk_idx, &plan.dims) {
                accumulate(tuple, q, plan, &mut inputs, p);
            }
        });
        Ok(())
    })?;
    let out = plan.strat.finish(partials, q);
    span.rows(out.len() as u64);
    Ok(out)
}

/// The coordinator's prelude: every needed fact column fully decoded (tuple
/// construction forces decompression) plus the row-style dimension join
/// tables. All of the plan's I/O is charged here.
fn build_plan<'q>(
    db: &CStoreDb,
    q: &'q SsbQuery,
    cfg: EngineConfig,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<(RowPlan<'q>, Stitched), QueryError> {
    // Tuple construction decompresses every needed fact column in full —
    // this is the plan's dominant allocation, so charge it column by column
    // and honour cancellation between columns.
    let fact_columns = q.fact_columns();
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(fact_columns.len());
    for c in &fact_columns {
        ctx.check()?;
        let col = decode_all(db.fact.column(c), io);
        ctx.charge(col.len().saturating_mul(std::mem::size_of::<Value>()))?;
        columns.push(col);
    }
    let mut dims: HashMap<Dim, DimTable> = HashMap::new();
    for d in q.touched_dims() {
        ctx.check()?;
        dims.insert(d, decoded_dim_table(db, q, d, io));
    }
    Ok((RowPlan::new(q, dims), Stitched { columns, block: cfg.block_iteration }))
}

/// Execute `q` with early materialization.
///
/// All I/O happens in the coordinator's prelude ([`build_plan`]) — tuple
/// construction decompresses every needed column in full, and the dimension
/// join tables are built row-style — so the charges on `io` do not depend
/// on the morsel grid at all. The row pipeline ([`run_pipeline`]) then runs
/// over the stitched tuples. `opts.ctx` is honoured in the prelude and at
/// every morsel boundary.
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: &ExecOptions<'_>,
    io: &IoSession,
) -> Result<QueryOutput, QueryError> {
    let (plan, tuples) = {
        let mut span = opts.ctx.span("materialize", "fact columns up front", io);
        span.rows(db.fact_rows() as u64);
        build_plan(db, q, cfg, io, &opts.ctx)?
    };
    run_pipeline(q, &plan, &tuples, opts, io, "row-style over early-stitched tuples")
}

/// Predicate + join filtering for one constructed tuple.
fn process_tuple(
    tuple: &[Value],
    pred_idx: &[(usize, &Pred)],
    fk_idx: &[(Dim, usize)],
    dims: &HashMap<Dim, DimTable>,
) -> bool {
    for (idx, pred) in pred_idx {
        if !pred.matches(&tuple[*idx]) {
            return false;
        }
    }
    for (dim, idx) in fk_idx {
        let table = &dims[dim];
        if table.restricted && table.map.get(tuple[*idx].as_int()).is_none() {
            return false;
        }
    }
    true
}

fn accumulate(
    tuple: &[Value],
    q: &SsbQuery,
    plan: &RowPlan<'_>,
    inputs: &mut [i64],
    partial: &mut AggPartial,
) {
    for (j, idx) in plan.agg_idx.iter().enumerate() {
        inputs[j] = tuple[*idx].as_int();
    }
    match partial {
        AggPartial::Code(g) => {
            // Group columns code through the interned per-dimension-row
            // tables; no value clones, no per-row key vector.
            let AggStrategy::Code { layout, .. } = &plan.strat else {
                unreachable!("code partials come from a code strategy")
            };
            let mut id = 0u64;
            for (gi, &dim) in plan.group_dim_order.iter().enumerate() {
                let (_, fk_col) = plan.fk_idx.iter().find(|(d, _)| *d == dim).expect("dim touched");
                let row = plan.dims[&dim].map.get(tuple[*fk_col].as_int()).expect("join checked");
                id += plan.group_row_codes[gi][row as usize] as u64 * layout.stride(gi);
            }
            g.add(id, q.aggregate.term(inputs));
        }
        AggPartial::Value(grouper) => {
            let mut key = Vec::with_capacity(q.group_by.len());
            for (gi, &dim) in plan.group_dim_order.iter().enumerate() {
                let (_, fk_col) = plan.fk_idx.iter().find(|(d, _)| *d == dim).expect("dim touched");
                let table = &plan.dims[&dim];
                let row = table.map.get(tuple[*fk_col].as_int()).expect("join checked");
                // Offset of this group column within the dim's stored group
                // row.
                let offset = q.group_by.iter().take(gi).filter(|g2| g2.dim == dim).count();
                key.push(table.group_rows[row as usize][offset].clone());
            }
            grouper.add(key, q.aggregate.term(inputs));
        }
    }
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
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 37 }.generate()), false);
        let io = IoSession::unmetered();
        let cfg = EngineConfig::parse("Ticl");
        for q in all_queries() {
            let expected = reference::evaluate(db.tables(), &q);
            assert_eq!(run(&db, &q, cfg, &io), expected, "EM disagrees on {}", q.id);
        }
    }

    #[test]
    fn compressed_em_decompresses_correctly() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 37 }.generate());
        let comp = CStoreDb::build(tables.clone(), true);
        let plain = CStoreDb::build(tables, false);
        let io = IoSession::unmetered();
        for q in all_queries() {
            assert_eq!(
                run(&comp, &q, EngineConfig::parse("tICl"), &io),
                run(&plain, &q, EngineConfig::parse("Ticl"), &io),
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn block_and_tuple_em_agree() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.001, seed: 41 }.generate()), false);
        let io = IoSession::unmetered();
        for q in all_queries() {
            assert_eq!(
                run(&db, &q, EngineConfig::parse("ticl"), &io),
                run(&db, &q, EngineConfig::parse("Ticl"), &io),
                "{}",
                q.id
            );
        }
    }
}
