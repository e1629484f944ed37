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
//!   `(pos, value)` tuples one at a time, and everything above them is VP's
//!   plan builder itself — [`PositionJoinDb`] over [`SuperColumn`] files
//!   instead of `(pos, value)` heaps.
//!
//! The result isolates *storage overhead* from *executor architecture*:
//! super-tuple VP reads ~4 bytes/value like a column store, but still pays
//! row-store execution. Run `cargo run -p cvr-bench --bin paper --
//! super-tuples` to see how far that closes the gap (and what remains).

use crate::designs::vp::{ColumnFile, PositionJoinDb};
use crate::ops::{BoxedOp, RowOp};
use crate::tuple::{OpSchema, Tuple};
use cvr_data::queries::Pred;
use cvr_data::table::ColumnData;
use cvr_data::value::Value;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::Column;
use cvr_storage::io::IoSession;

/// A super-tuple column table: packed values, virtual positions.
pub struct SuperColumn {
    store: StoredColumn,
}

impl ColumnFile for SuperColumn {
    fn build(name: &'static str, data: &ColumnData) -> SuperColumn {
        // Fixed-width plain packing: 4-byte ints / length-prefixed strings —
        // one page header per 32 KB, no per-tuple headers, no positions.
        SuperColumn { store: StoredColumn::new(name, Column::encode(data, false)) }
    }

    fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// Volcano scan producing `(pos, value)` tuples under pushed-down
    /// predicates. Positions are virtual (the value's ordinal).
    fn scan<'a>(&'a self, name: &'static str, preds: Vec<Pred>, io: &'a IoSession) -> BoxedOp<'a> {
        self.store.charge_scan(io);
        Box::new(SuperTupleScan {
            column: &self.store,
            schema: OpSchema::new(["pos", name]),
            cursor: 0,
            preds,
        })
    }
}

/// Tuple-at-a-time scan over a super-tuple column.
pub struct SuperTupleScan<'a> {
    column: &'a StoredColumn,
    schema: OpSchema,
    cursor: u32,
    preds: Vec<Pred>,
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
            if self.preds.iter().all(|p| p.matches(&value)) {
                return Some(vec![Value::Int(pos as i64), value]);
            }
        }
        None
    }
}

/// The super-tuple VP design: packed value files for every column, run by
/// VP's position-join plan.
pub type SuperVpDb = PositionJoinDb<SuperColumn>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::vp::VpDb;
    use cvr_data::gen::{SsbConfig, SsbTables};
    use cvr_data::queries::all_queries;
    use cvr_data::reference;
    use std::sync::Arc;

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
