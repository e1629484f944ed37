//! The fully-vertically-partitioned designs (Figure 6 `VP`, and `VP(S)`).
//!
//! Every column of every relation becomes a two-column table
//! `(pos, value)` — the "integer position column" scheme of Section 4. The
//! row format's 8-byte tuple header plus the 4-byte position make a 16-byte
//! footprint per integer value, which is exactly the overhead arithmetic the
//! paper uses to show why VP scans four columns in the time the traditional
//! design scans all seventeen.
//!
//! Plans follow Section 6.2.1's dissected Q2.1 plan: each restricted
//! dimension filters its (tiny, also vertically partitioned) dimension
//! columns; the fact FK column is hash-joined against that; branch results
//! are hash-joined on `pos`; measure columns are picked up last by further
//! `pos` joins. System X "chose to use hash joins" throughout — so do we.
//!
//! That plan is written once, in [`PositionJoinDb`], over a [`ColumnFile`]:
//! how one column is stored and opened as a `(pos, value)` scan. [`VpDb`]
//! stores a heap of `(pos, value)` records; [`SuperVpDb`](super::SuperVpDb)
//! stores packed values with virtual positions.

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{aggregate_and_finish, dim_needed_columns, join_order};
use crate::ops::{BoxedOp, HashJoin, Project, SeqScan};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::ColumnData;
use cvr_storage::heap::HeapFile;
use cvr_storage::io::IoSession;

/// One stored column of a vertically partitioned design.
pub trait ColumnFile: Sized {
    /// Store `data`, the column named `name`.
    fn build(name: &'static str, data: &ColumnData) -> Self;

    /// Bytes on disk.
    fn bytes(&self) -> u64;

    /// Scan the file as `(pos, name)` tuples that satisfy every one of
    /// `preds`.
    fn scan<'a>(&'a self, name: &'static str, preds: Vec<Pred>, io: &'a IoSession) -> BoxedOp<'a>;
}

/// VP's column file: a heap of `(pos, value)` records.
impl ColumnFile for HeapFile {
    fn build(_: &'static str, data: &ColumnData) -> HeapFile {
        let pos = ColumnData::Int((0..data.len() as i64).collect());
        HeapFile::from_rows(&[&pos, data], 0..data.len())
    }

    fn bytes(&self) -> u64 {
        HeapFile::bytes(self)
    }

    fn scan<'a>(&'a self, name: &'static str, preds: Vec<Pred>, io: &'a IoSession) -> BoxedOp<'a> {
        let cols = ["pos", name];
        let mut scan = SeqScan::new(self, &cols, &cols, io);
        for pred in preds {
            scan = scan.with_predicate(&cols, name, pred);
        }
        Box::new(scan)
    }
}

/// The VP design: one `(pos, value)` heap per column.
pub type VpDb = PositionJoinDb<HeapFile>;

/// Key for a dimension column table.
type DimCol = (Dim, &'static str);

/// A vertically partitioned design: one [`ColumnFile`] per column of every
/// relation, and the position-join plan over them.
pub struct PositionJoinDb<F> {
    tables: Arc<SsbTables>,
    fact_cols: HashMap<&'static str, F>,
    dim_cols: HashMap<DimCol, F>,
}

impl<F: ColumnFile> PositionJoinDb<F> {
    /// Vertically partition every table.
    pub fn build(tables: Arc<SsbTables>) -> PositionJoinDb<F> {
        let mut fact_cols = HashMap::new();
        for def in &tables.schema.lineorder.columns {
            fact_cols.insert(def.name, F::build(def.name, tables.lineorder.column(def.name)));
        }
        let mut dim_cols = HashMap::new();
        for &d in &Dim::ALL {
            let table = tables.dim(d);
            for def in &tables.schema.dim(d).columns {
                dim_cols.insert((d, def.name), F::build(def.name, table.column(def.name)));
            }
        }
        PositionJoinDb { tables, fact_cols, dim_cols }
    }

    /// Bytes of one fact column table (Section 6.2 size accounting).
    pub fn fact_column_bytes(&self, column: &str) -> u64 {
        self.fact_cols[column].bytes()
    }

    /// Total bytes of all fact column tables.
    pub fn fact_bytes(&self) -> u64 {
        self.fact_cols.values().map(F::bytes).sum()
    }

    /// Scan one fact column table → tuples `(pos, col)`.
    fn fact_col_scan<'a>(&'a self, column: &'static str, io: &'a IoSession) -> BoxedOp<'a> {
        self.fact_cols[column].scan(column, Vec::new(), io)
    }

    /// Filtered dimension sub-plan producing `[key, groupcols...]`.
    ///
    /// Dimension columns are joined back together on their `pos` column —
    /// the same tuple-reconstruction cost the fact table pays, just at
    /// dimension scale.
    fn dim_plan<'a>(&'a self, q: &SsbQuery, dim: Dim, io: &'a IoSession) -> BoxedOp<'a> {
        let needed = dim_needed_columns(q, dim);
        let preds = q.dim_predicates_on(dim);
        // Predicate columns first (filter early), then the needed columns
        // they do not cover; each column is scanned once, under every
        // predicate on it.
        let mut columns: Vec<&'static str> = Vec::new();
        for col in preds.iter().map(|p| p.column).chain(needed.iter().copied()) {
            if !columns.contains(&col) {
                columns.push(col);
            }
        }
        let mut plan: Option<BoxedOp<'a>> = None;
        for col in columns {
            let on_col = preds.iter().filter(|p| p.column == col).map(|p| p.pred.clone());
            plan =
                Some(join_on_pos(plan, self.dim_cols[&(dim, col)].scan(col, on_col.collect(), io)));
        }
        Box::new(Project::new(plan.expect("the key is needed"), &needed))
    }

    /// Execute `q`. The pipeline starts from the first fact column scan
    /// the plan needs: a restricted dimension's branch, else a fact
    /// predicate's scan, else (a statement that restricts nothing) the first
    /// group-only dimension's FK or the first measure column.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        // Branches: per restricted dim, FK column ⋈ filtered dimension; per
        // fact predicate, a filtered column scan. Branches intersect on fact
        // position.
        let order = join_order(&self.tables, q);
        let mut pipeline: Option<BoxedOp<'_>> = None;
        let mut joined_dims: Vec<Dim> = Vec::new();
        for &dim in &order {
            if q.dim_predicates_on(dim).is_empty() {
                continue; // group-only dims handled after intersection
            }
            let fk_scan = self.fact_col_scan(dim.fact_fk_column(), io);
            let branch: BoxedOp<'_> = Box::new(HashJoin::new(
                fk_scan,
                self.dim_plan(q, dim, io),
                dim.fact_fk_column(),
                dim.key_column(),
                false,
            ));
            pipeline = Some(join_on_pos(pipeline, branch));
            joined_dims.push(dim);
        }
        // Fact measure predicates (flight 1): filtered column scans.
        for p in &q.fact_predicates {
            let scan = self.fact_cols[p.column].scan(p.column, vec![p.pred.clone()], io);
            pipeline = Some(join_on_pos(pipeline, scan));
        }
        // Group-only dimensions: FK column joined by pos, then the dim.
        for &dim in &order {
            if joined_dims.contains(&dim) {
                continue;
            }
            let with_fk = join_on_pos(pipeline, self.fact_col_scan(dim.fact_fk_column(), io));
            pipeline = Some(Box::new(HashJoin::new(
                with_fk,
                self.dim_plan(q, dim, io),
                dim.fact_fk_column(),
                dim.key_column(),
                false,
            )));
        }
        // Measure columns not yet in the pipeline.
        for col in q.aggregate.fact_columns() {
            if pipeline.as_ref().is_some_and(|p| p.schema().try_idx(col).is_some()) {
                continue;
            }
            pipeline = Some(join_on_pos(pipeline, self.fact_col_scan(col, io)));
        }
        aggregate_and_finish(q, pipeline.expect("every aggregate reads a fact column"))
    }
}

/// `next` joined to `pipeline` on fact position, or `next` alone when it
/// is the plan's first scan.
fn join_on_pos<'a>(pipeline: Option<BoxedOp<'a>>, next: BoxedOp<'a>) -> BoxedOp<'a> {
    match pipeline {
        None => next,
        Some(pl) => Box::new(HashJoin::new(pl, next, "pos", "pos", false)),
    }
}
