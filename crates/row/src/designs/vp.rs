//! The fully-vertically-partitioned design (Figure 6 `VP`).
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

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{aggregate_and_finish, dim_needed_columns, join_order};
use crate::ops::{BoxedOp, HashJoin, Project, SeqScan};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::ColumnData;
use cvr_storage::heap::HeapFile;
use cvr_storage::io::IoSession;

/// Key for a dimension column table.
type DimCol = (Dim, &'static str);

/// The VP design: one `(pos, value)` heap per column.
pub struct VpDb {
    tables: Arc<SsbTables>,
    fact_cols: HashMap<&'static str, HeapFile>,
    dim_cols: HashMap<DimCol, HeapFile>,
}

/// Build a two-column `(pos, value)` table for one source column.
fn column_table(data: &ColumnData) -> HeapFile {
    let pos = ColumnData::Int((0..data.len() as i64).collect());
    HeapFile::from_rows(&[&pos, data], 0..data.len())
}

impl VpDb {
    /// Vertically partition every table.
    pub fn build(tables: Arc<SsbTables>) -> VpDb {
        let mut fact_cols = HashMap::new();
        for def in &tables.schema.lineorder.columns {
            fact_cols.insert(def.name, column_table(tables.lineorder.column(def.name)));
        }
        let mut dim_cols = HashMap::new();
        for &d in &Dim::ALL {
            let table = tables.dim(d);
            for def in &tables.schema.dim(d).columns {
                dim_cols.insert((d, def.name), column_table(table.column(def.name)));
            }
        }
        VpDb { tables, fact_cols, dim_cols }
    }

    /// Bytes of one fact column table (Section 6.2 size accounting).
    pub fn fact_column_bytes(&self, column: &str) -> u64 {
        self.fact_cols[column].bytes()
    }

    /// Total bytes of all fact column tables.
    pub fn fact_bytes(&self) -> u64 {
        self.fact_cols.values().map(HeapFile::bytes).sum()
    }

    /// Scan one fact column table → tuples `(pos, col)`.
    fn fact_col_scan<'a>(&'a self, column: &'static str, io: &'a IoSession) -> BoxedOp<'a> {
        let heap = &self.fact_cols[column];
        Box::new(SeqScan::new(heap, &["pos", column], &["pos", column], io))
    }

    /// Filtered dimension sub-plan producing `[key, groupcols...]`.
    ///
    /// Dimension columns are joined back together on their `pos` column —
    /// the same tuple-reconstruction cost the fact table pays, just at
    /// dimension scale.
    fn dim_plan<'a>(&'a self, q: &SsbQuery, dim: Dim, io: &'a IoSession) -> BoxedOp<'a> {
        let needed = dim_needed_columns(q, dim);
        let preds = q.dim_predicates_on(dim);
        // Start from the first predicate column (filter early), else the key.
        let first: &'static str = preds.first().map(|p| p.column).unwrap_or(needed[0]);
        let heap = &self.dim_cols[&(dim, first)];
        let mut plan: BoxedOp<'a> = {
            let mut scan = SeqScan::new(heap, &["pos", first], &["pos", first], io);
            for p in &preds {
                if p.column == first {
                    scan = scan.with_predicate(&["pos", first], p.column, p.pred.clone());
                }
            }
            Box::new(scan)
        };
        // Remaining predicate columns.
        for p in &preds {
            if p.column == first {
                continue;
            }
            let heap = &self.dim_cols[&(dim, p.column)];
            let scan = SeqScan::new(heap, &["pos", p.column], &["pos", p.column], io)
                .with_predicate(&["pos", p.column], p.column, p.pred.clone());
            plan = Box::new(HashJoin::new(plan, Box::new(scan), "pos", "pos", false));
        }
        // Needed output columns not yet present.
        for &col in &needed {
            if plan.schema().try_idx(col).is_some() {
                continue;
            }
            let heap = &self.dim_cols[&(dim, col)];
            let scan = SeqScan::new(heap, &["pos", col], &["pos", col], io);
            plan = Box::new(HashJoin::new(plan, Box::new(scan), "pos", "pos", false));
        }
        Box::new(Project::new(plan, &needed))
    }

    /// Execute `q`.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        // Branches: per restricted dim, FK column ⋈ filtered dimension; per
        // fact predicate, a filtered column scan.
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
            pipeline = Some(match pipeline {
                None => branch,
                // Intersect branches on fact position.
                Some(p) => Box::new(HashJoin::new(p, branch, "pos", "pos", false)),
            });
            joined_dims.push(dim);
        }
        // Fact measure predicates (flight 1): filtered column scans.
        for p in &q.fact_predicates {
            let heap = &self.fact_cols[p.column];
            let scan: BoxedOp<'_> = Box::new(
                SeqScan::new(heap, &["pos", p.column], &["pos", p.column], io).with_predicate(
                    &["pos", p.column],
                    p.column,
                    p.pred.clone(),
                ),
            );
            pipeline = Some(match pipeline {
                None => scan,
                Some(pl) => Box::new(HashJoin::new(pl, scan, "pos", "pos", false)),
            });
        }
        let mut pipeline = pipeline.expect("every SSBM query restricts something");
        // Group-only dimensions: FK column joined by pos, then the dim.
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
        // Measure columns not yet in the pipeline.
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
