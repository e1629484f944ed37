//! Vertical partitioning with **super tuples** — the extension experiment.
//!
//! The paper's related work (Halverson et al. \[13\]) proposes "super tuples"
//! that avoid "duplicating header information and batch many tuples
//! together in a block", and its conclusion names "reduced tuple overhead"
//! and "virtual record-ids" as exactly the changes a row-store would need
//! to make column-oriented physical designs viable. This module implements
//! that proposal on top of the VP design:
//!
//! * each column table stores *just the values*, packed into pages with one
//!   header per page instead of 16 bytes of header+position per value;
//! * record-ids are **virtual** — a value's position in the file — so the
//!   position column disappears entirely;
//! * the executor is still the Volcano row engine: scans materialize
//!   `(pos, value)` tuples one at a time and everything above (hash joins
//!   on positions, aggregation) is unchanged from the VP plans.
//!
//! The result isolates *storage overhead* from *executor architecture*:
//! super-tuple VP reads ~4 bytes/value like a column store, but still pays
//! row-store execution. Run `cargo run -p cvr-bench --bin paper --
//! super-tuples` to see how far that closes the gap (and what remains).

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{aggregate_and_finish, dim_needed_columns, join_order};
use crate::ops::{BoxedOp, HashJoin, Project, RowOp};
use crate::tuple::{OpSchema, Tuple};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::ColumnData;
use cvr_data::value::Value;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::Column;
use cvr_storage::io::IoSession;

/// Key for a dimension column table.
type DimCol = (Dim, &'static str);

/// A super-tuple column table: packed values, virtual positions.
pub struct SuperColumn {
    store: StoredColumn,
}

impl SuperColumn {
    fn build(name: &'static str, data: &ColumnData) -> SuperColumn {
        // Fixed-width plain packing: 4-byte ints / length-prefixed strings —
        // one page header per 32 KB, no per-tuple headers, no positions.
        SuperColumn { store: StoredColumn::new(name, Column::encode(data, false)) }
    }

    /// Bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// Volcano scan producing `(pos, value)` tuples, with an optional
    /// pushed-down predicate. Positions are virtual (the value's ordinal).
    fn scan<'a>(&'a self, name: &str, pred: Option<Pred>, io: &'a IoSession) -> SuperTupleScan<'a> {
        self.store.charge_scan(io);
        SuperTupleScan {
            column: &self.store,
            schema: OpSchema::new(["pos".to_string(), name.to_string()]),
            cursor: 0,
            pred,
        }
    }
}

/// Tuple-at-a-time scan over a super-tuple column.
pub struct SuperTupleScan<'a> {
    column: &'a StoredColumn,
    schema: OpSchema,
    cursor: u32,
    pred: Option<Pred>,
}

impl RowOp for SuperTupleScan<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        let n = self.column.column.len() as u32;
        while self.cursor < n {
            let pos = self.cursor;
            self.cursor += 1;
            let value = match &self.column.column {
                Column::Int(c) => Value::Int(c.value_at(pos)),
                Column::Str(c) => Value::str(c.value_at(pos)),
            };
            if let Some(p) = &self.pred {
                if !p.matches(&value) {
                    continue;
                }
            }
            return Some(vec![Value::Int(pos as i64), value]);
        }
        None
    }
}

/// The super-tuple VP design: packed value files for every column.
pub struct SuperVpDb {
    tables: Arc<SsbTables>,
    fact_cols: HashMap<&'static str, SuperColumn>,
    dim_cols: HashMap<DimCol, SuperColumn>,
}

impl SuperVpDb {
    /// Build packed column tables for every table.
    pub fn build(tables: Arc<SsbTables>) -> SuperVpDb {
        let mut fact_cols = HashMap::new();
        for def in &tables.schema.lineorder.columns {
            fact_cols
                .insert(def.name, SuperColumn::build(def.name, tables.lineorder.column(def.name)));
        }
        let mut dim_cols = HashMap::new();
        for &d in &Dim::ALL {
            let table = tables.dim(d);
            for def in &tables.schema.dim(d).columns {
                dim_cols
                    .insert((d, def.name), SuperColumn::build(def.name, table.column(def.name)));
            }
        }
        SuperVpDb { tables, fact_cols, dim_cols }
    }

    /// Bytes of one fact column table.
    pub fn fact_column_bytes(&self, column: &str) -> u64 {
        self.fact_cols[column].bytes()
    }

    /// Total bytes of all fact column tables.
    pub fn fact_bytes(&self) -> u64 {
        self.fact_cols.values().map(SuperColumn::bytes).sum()
    }

    fn fact_col_scan<'a>(&'a self, column: &'static str, io: &'a IoSession) -> BoxedOp<'a> {
        Box::new(self.fact_cols[column].scan(column, None, io))
    }

    /// Filtered dimension sub-plan producing `[key, groupcols...]` — same
    /// shape as the VP plan, over packed columns.
    fn dim_plan<'a>(&'a self, q: &SsbQuery, dim: Dim, io: &'a IoSession) -> BoxedOp<'a> {
        let needed = dim_needed_columns(q, dim);
        let preds = q.dim_predicates_on(dim);
        let first: &'static str = preds.first().map(|p| p.column).unwrap_or(needed[0]);
        let first_pred = preds.iter().find(|p| p.column == first).map(|p| p.pred.clone());
        let mut plan: BoxedOp<'a> =
            Box::new(self.dim_cols[&(dim, first)].scan(first, first_pred, io));
        for p in &preds {
            if p.column == first {
                continue;
            }
            let scan = self.dim_cols[&(dim, p.column)].scan(p.column, Some(p.pred.clone()), io);
            plan = Box::new(HashJoin::new(plan, Box::new(scan), "pos", "pos", false));
        }
        for &col in &needed {
            if plan.schema().try_idx(col).is_some() {
                continue;
            }
            let scan = self.dim_cols[&(dim, col)].scan(col, None, io);
            plan = Box::new(HashJoin::new(plan, Box::new(scan), "pos", "pos", false));
        }
        Box::new(Project::new(plan, &needed))
    }

    /// Execute `q` with the VP plan shape over super-tuple storage.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let order = join_order(&self.tables, q);
        let mut pipeline: Option<BoxedOp<'_>> = None;
        let mut joined_dims: Vec<Dim> = Vec::new();
        for &dim in &order {
            if q.dim_predicates_on(dim).is_empty() {
                continue;
            }
            let fk_scan = self.fact_col_scan(dim.fact_fk_column(), io);
            let branch: BoxedOp<'_> = Box::new(HashJoin::new(
                fk_scan,
                self.dim_plan(q, dim, io),
                dim.fact_fk_column(),
                dim.key_column(),
                false,
            ));
            pipeline = Some(match pipeline {
                None => branch,
                Some(p) => Box::new(HashJoin::new(p, branch, "pos", "pos", false)),
            });
            joined_dims.push(dim);
        }
        for p in &q.fact_predicates {
            let scan: BoxedOp<'_> =
                Box::new(self.fact_cols[p.column].scan(p.column, Some(p.pred.clone()), io));
            pipeline = Some(match pipeline {
                None => scan,
                Some(pl) => Box::new(HashJoin::new(pl, scan, "pos", "pos", false)),
            });
        }
        let mut pipeline = pipeline.expect("every SSBM query restricts something");
        for &dim in &order {
            if joined_dims.contains(&dim) {
                continue;
            }
            let fk_scan = self.fact_col_scan(dim.fact_fk_column(), io);
            pipeline = Box::new(HashJoin::new(pipeline, fk_scan, "pos", "pos", false));
            pipeline = Box::new(HashJoin::new(
                pipeline,
                self.dim_plan(q, dim, io),
                dim.fact_fk_column(),
                dim.key_column(),
                false,
            ));
        }
        for col in q.aggregate.fact_columns() {
            if pipeline.schema().try_idx(col).is_some() {
                continue;
            }
            let scan = self.fact_col_scan(col, io);
            pipeline = Box::new(HashJoin::new(pipeline, scan, "pos", "pos", false));
        }
        aggregate_and_finish(q, pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::vp::VpDb;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::all_queries;
    use cvr_data::reference;

    fn tables() -> Arc<SsbTables> {
        Arc::new(SsbConfig { sf: 0.002, seed: 67 }.generate())
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let t = tables();
        let db = SuperVpDb::build(t.clone());
        let io = IoSession::unmetered();
        for q in all_queries() {
            let expected = reference::evaluate(&t, &q);
            assert_eq!(db.execute(&q, &io), expected, "SuperVP on {}", q.id);
        }
    }

    #[test]
    fn super_tuples_shrink_vp_by_4x() {
        let t = tables();
        let vp = VpDb::build(t.clone());
        let sup = SuperVpDb::build(t.clone());
        // 16 B/row (header + position + value) vs 4 B/value.
        let ratio =
            vp.fact_column_bytes("lo_revenue") as f64 / sup.fact_column_bytes("lo_revenue") as f64;
        assert!((3.5..=4.5).contains(&ratio), "expected ~4x shrink, got {ratio:.2}");
    }

    #[test]
    fn super_vp_reads_fewer_bytes_than_vp() {
        let t = tables();
        let vp = VpDb::build(t.clone());
        let sup = SuperVpDb::build(t.clone());
        for q in all_queries() {
            let io_vp = IoSession::unmetered();
            vp.execute(&q, &io_vp);
            let io_sup = IoSession::unmetered();
            sup.execute(&q, &io_sup);
            assert!(
                io_sup.stats().bytes_read < io_vp.stats().bytes_read,
                "{}: super {} vs vp {}",
                q.id,
                io_sup.stats().bytes_read,
                io_vp.stats().bytes_read
            );
        }
    }
}
