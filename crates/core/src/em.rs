//! Early materialization — late materialization removed (Figure 7 `l`).
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

use crate::agg::{AggPartial, CodeDecoder, CodeGrouper, GroupLayout, Grouper};
use crate::config::EngineConfig;
use crate::ctx::{QueryCtx, QueryError};
use crate::engine::ExecOptions;
use crate::extract::decode_all;
use crate::morsel::try_run_morsels;
use crate::projection::CStoreDb;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::value::Value;
use cvr_index::hashidx::IntHashMap;
use cvr_storage::io::IoSession;
use std::collections::HashMap;
use std::ops::Range;

/// Per-dimension join table for row-mode execution: FK → group values of
/// rows passing the dimension predicates.
struct DimTable {
    map: IntHashMap,
    group_rows: Vec<Vec<Value>>,
    restricted: bool,
}

fn build_dim_table(db: &CStoreDb, q: &SsbQuery, dim: Dim, io: &IoSession) -> DimTable {
    let store = db.dim(dim);
    let n = store.sorted.num_rows();
    let preds = q.dim_predicates_on(dim);
    let group_cols: Vec<&'static str> =
        q.group_by.iter().filter(|g| g.dim == dim).map(|g| g.column).collect();

    // Row-style dimension access: decode key, predicate and group columns,
    // then evaluate per row.
    let keys: Vec<Value> = decode_all(store.store.column(dim.key_column()), io);
    let pred_cols: Vec<Vec<Value>> =
        preds.iter().map(|p| decode_all(store.store.column(p.column), io)).collect();
    let group_data: Vec<Vec<Value>> =
        group_cols.iter().map(|c| decode_all(store.store.column(c), io)).collect();

    let mut map = IntHashMap::with_capacity(n);
    let mut group_rows = Vec::new();
    'rows: for i in 0..n {
        for (p, col) in preds.iter().zip(&pred_cols) {
            if !p.pred.matches(&col[i]) {
                continue 'rows;
            }
        }
        map.insert(keys[i].as_int(), group_rows.len() as u32);
        group_rows.push(group_data.iter().map(|g| g[i].clone()).collect());
    }
    DimTable { map, group_rows, restricted: !preds.is_empty() }
}

/// The coordinator's prelude: every needed fact column fully decoded (tuple
/// construction forces decompression) plus the row-style dimension join
/// tables and the index maps the pipeline needs. All of the plan's I/O is
/// charged here.
struct RowPlan<'q> {
    decoded: Vec<Vec<Value>>,
    pred_idx: Vec<(usize, &'q cvr_data::queries::Pred)>,
    fk_idx: Vec<(Dim, usize)>,
    agg_idx: Vec<usize>,
    group_dim_order: Vec<Dim>,
    dims: HashMap<Dim, DimTable>,
    /// Code-level aggregation layout: each group column's values over the
    /// filtered dimension rows are interned into a local dictionary
    /// (`group_row_codes[gi][dim_row]` is the code), so even the row-style
    /// pipeline aggregates on composed integer ids and decodes each group
    /// once at finish. `None` only when the composed domain overflows
    /// `u64`.
    layout: Option<GroupLayout>,
    /// Per group column: filtered-dimension-row → code (aligned with the
    /// layout's decoders).
    group_row_codes: Vec<Vec<u32>>,
}

fn build_plan<'q>(
    db: &CStoreDb,
    q: &'q SsbQuery,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<RowPlan<'q>, QueryError> {
    let fact_columns = q.fact_columns();
    // Tuple construction decompresses every needed fact column in full —
    // this is the plan's dominant allocation, so charge it column by column
    // and honour cancellation between columns.
    let mut decoded: Vec<Vec<Value>> = Vec::with_capacity(fact_columns.len());
    for c in &fact_columns {
        ctx.check()?;
        let col = decode_all(db.fact.column(c), io);
        ctx.charge(col.len().saturating_mul(std::mem::size_of::<Value>()))?;
        decoded.push(col);
    }
    let col_of: HashMap<&str, usize> =
        fact_columns.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut dims: HashMap<Dim, DimTable> = HashMap::new();
    for d in q.touched_dims() {
        ctx.check()?;
        dims.insert(d, build_dim_table(db, q, d, io));
    }
    let mut cols = Vec::with_capacity(q.group_by.len());
    let mut group_row_codes = Vec::with_capacity(q.group_by.len());
    for (gi, g) in q.group_by.iter().enumerate() {
        let table = &dims[&g.dim];
        let offset = q.group_by.iter().take(gi).filter(|g2| g2.dim == g.dim).count();
        // Intern the column's distinct values across the filtered dimension
        // rows: many rows share one group value (every Chinese customer is
        // one "CHINA" group), so codes must be value-level, not row-level.
        let (codes, values) =
            crate::agg::intern_values(table.group_rows.iter().map(|r| &r[offset]));
        cols.push((values.len().max(1) as u64, CodeDecoder::Values(values)));
        group_row_codes.push(codes);
    }
    let layout = if crate::agg::value_keyed_forced() { None } else { GroupLayout::try_new(cols) };
    Ok(RowPlan {
        decoded,
        pred_idx: q.fact_predicates.iter().map(|p| (col_of[p.column], &p.pred)).collect(),
        fk_idx: q.touched_dims().into_iter().map(|d| (d, col_of[d.fact_fk_column()])).collect(),
        agg_idx: q.aggregate.fact_columns().iter().map(|c| col_of[c]).collect(),
        group_dim_order: q.group_by.iter().map(|g| g.dim).collect(),
        dims,
        layout,
        group_row_codes,
    })
}

impl RowPlan<'_> {
    fn new_partial(&self) -> AggPartial {
        match &self.layout {
            Some(layout) => AggPartial::Code(CodeGrouper::for_layout(layout)),
            None => AggPartial::Value(Grouper::new()),
        }
    }

    fn finish(&self, partial: AggPartial, q: &SsbQuery) -> QueryOutput {
        match (partial, &self.layout) {
            (AggPartial::Code(g), Some(layout)) => g.finish(layout, q),
            (AggPartial::Value(g), None) => g.finish(q),
            _ => unreachable!("partial matches the plan's layout"),
        }
    }
}

/// The row pipeline over fact rows `[start, end)`: construct a tuple per
/// row, then filter/join/aggregate into a partial [`AggPartial`]. Pure CPU,
/// run once per morsel. In tuple-at-a-time mode every value access goes through a boxed
/// per-column iterator (the `getNext` interface); in block mode tuples are
/// stitched by direct indexing.
fn run_rows(
    plan: &RowPlan<'_>,
    q: &SsbQuery,
    cfg: EngineConfig,
    range: Range<usize>,
) -> AggPartial {
    let mut partial = plan.new_partial();
    let mut inputs = vec![0i64; plan.agg_idx.len()];
    if cfg.block_iteration {
        'rows: for i in range {
            let tuple: Vec<Value> = plan.decoded.iter().map(|c| c[i].clone()).collect();
            if !process_tuple(&tuple, &plan.pred_idx, &plan.fk_idx, &plan.dims) {
                continue 'rows;
            }
            accumulate(&tuple, q, plan, &mut inputs, &mut partial);
        }
    } else {
        let mut sources: Vec<Box<dyn Iterator<Item = &Value>>> = plan
            .decoded
            .iter()
            .map(|c| Box::new(c[range.clone()].iter()) as Box<dyn Iterator<Item = &Value>>)
            .collect();
        'rows2: for _ in range {
            let tuple: Vec<Value> = sources
                .iter_mut()
                .map(|s| std::hint::black_box(s).next().expect("column length").clone())
                .collect();
            if !process_tuple(&tuple, &plan.pred_idx, &plan.fk_idx, &plan.dims) {
                continue 'rows2;
            }
            accumulate(&tuple, q, plan, &mut inputs, &mut partial);
        }
    }
    partial
}

/// Execute `q` with early materialization.
///
/// All I/O happens in the coordinator's prelude ([`build_plan`]) — tuple
/// construction decompresses every needed column in full, and the dimension
/// join tables are built row-style — so the charges on `io` do not depend
/// on the morsel grid at all. The row pipeline ([`run_rows`]) is pure CPU
/// and fans out over morsels of the constructed-tuple space; partial
/// aggregates merge in morsel order. `opts.ctx` is honoured in the prelude
/// and at every morsel boundary.
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: &ExecOptions<'_>,
    io: &IoSession,
) -> Result<QueryOutput, QueryError> {
    let ctx = &opts.ctx;
    let plan = {
        let mut span = ctx.span("materialize", "fact columns up front", io);
        span.rows(db.fact_rows() as u64);
        build_plan(db, q, io, ctx)?
    };
    let mut span = ctx.span("pipeline", "row-style over early-stitched tuples", io);
    let partials = try_run_morsels(db.fact_rows() as u32, opts.par, ctx, |_, range| {
        Ok(run_rows(&plan, q, cfg, range.start as usize..range.end as usize))
    })?;
    let mut merged = plan.new_partial();
    for partial in partials {
        merged.merge(partial);
    }
    let out = plan.finish(merged, q);
    span.rows(out.len() as u64);
    Ok(out)
}

/// Predicate + join filtering for one constructed tuple.
fn process_tuple(
    tuple: &[Value],
    pred_idx: &[(usize, &cvr_data::queries::Pred)],
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
            let mut id = 0u64;
            for (gi, &dim) in plan.group_dim_order.iter().enumerate() {
                let (_, fk_col) = plan.fk_idx.iter().find(|(d, _)| *d == dim).expect("dim touched");
                let row = plan.dims[&dim].map.get(tuple[*fk_col].as_int()).expect("join checked");
                id = id * g.radix(gi) + plan.group_row_codes[gi][row as usize] as u64;
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
            let expected = reference::evaluate(&db.tables, &q);
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
