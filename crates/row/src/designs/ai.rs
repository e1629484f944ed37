//! The index-only design (Figure 6 `AI`, "all indexes").
//!
//! Base relations stay row-oriented but every column gets an unclustered
//! B+Tree, and plans read `(value, record-id)` pairs from index leaves
//! without ever touching the heap (Section 4, "Index-only plans").
//! Dimension-table indexes are composite — `(column, primary key)` — the
//! paper's optimization for reaching join keys without heap access.
//!
//! The plans reproduce the pathology Section 6.2.1 dissects for Q2.1: the
//! needed fact columns are materialized by *full index scans* and glued
//! together with hash joins **on record-id before any dimension filtering**,
//! because "System X is unable to defer these joins until later in the plan
//! ... it cannot retain record-ids from the fact table after it has joined
//! with another table". Those giant rid joins are what make AI the slowest
//! design in Figure 6.

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{aggregate_and_finish, join_order};
use crate::ops::{BoxedOp, HashJoin, IndexFullScanOp, IndexRangeScanOp, Project};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::btree::{BPlusTree, Key};
use cvr_storage::io::IoSession;
use cvr_storage::par::{default_threads, Jobs};

/// Which columns to index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AiColumns {
    /// Only columns some benchmark query touches (fast builds).
    QueryNeeded,
    /// Every column of every table (the letter of the design).
    All,
}

/// The index-only design.
pub struct AiDb {
    tables: Arc<SsbTables>,
    /// Single-column indexes over fact columns: key = `(value)`.
    fact_idx: HashMap<&'static str, BPlusTree>,
    /// Composite indexes over dimension columns: key = `(value, pk)`.
    dim_idx: HashMap<(Dim, &'static str), BPlusTree>,
}

impl AiDb {
    /// Build indexes per `cols` policy.
    pub fn build(tables: Arc<SsbTables>, cols: AiColumns) -> AiDb {
        let (fact_cols, dim_cols) = match cols {
            AiColumns::All => {
                let f: Vec<&'static str> =
                    tables.schema.lineorder.columns.iter().map(|c| c.name).collect();
                let mut d: Vec<(Dim, &'static str)> = Vec::new();
                for &dim in &Dim::ALL {
                    for c in &tables.schema.dim(dim).columns {
                        d.push((dim, c.name));
                    }
                }
                (f, d)
            }
            AiColumns::QueryNeeded => needed_columns(),
        };
        // One independent index per column: build them as a job list over
        // the process-default worker count, the fact indexes (the large
        // ones) first.
        let mut jobs = Jobs::new();
        let fact_idx: Vec<_> = fact_cols
            .into_iter()
            .map(|col| {
                let data = tables.lineorder.column(col);
                let entries = (0..data.len()).map(|r| (Key::new(data.value(r)), r as u32));
                (col, jobs.add(move || BPlusTree::bulk_load(entries.collect())))
            })
            .collect();
        let dim_idx: Vec<_> = dim_cols
            .into_iter()
            .map(|(dim, col)| {
                let table = tables.dim(dim);
                let (keys, data) = (table.column(dim.key_column()), table.column(col));
                let entries =
                    (0..data.len()).map(|r| (vec![data.value(r), keys.value(r)].into(), r as u32));
                ((dim, col), jobs.add(move || BPlusTree::bulk_load(entries.collect())))
            })
            .collect();
        jobs.run(default_threads());
        AiDb {
            fact_idx: fact_idx.into_iter().map(|(col, tree)| (col, tree.take())).collect(),
            dim_idx: dim_idx.into_iter().map(|(key, tree)| (key, tree.take())).collect(),
            tables,
        }
    }

    /// Every index of the design with the column it covers.
    pub fn indexes(&self) -> impl Iterator<Item = (&'static str, &BPlusTree)> {
        let dims = self.dim_idx.iter().map(|(&(_, col), tree)| (col, tree));
        self.fact_idx.iter().map(|(&col, tree)| (col, tree)).chain(dims)
    }

    /// Total index bytes (one page per node).
    pub fn bytes(&self) -> u64 {
        self.fact_idx.values().map(BPlusTree::bytes).sum::<u64>()
            + self.dim_idx.values().map(BPlusTree::bytes).sum::<u64>()
    }

    /// Execute `q` with an index-only plan.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        // 1. Materialize every needed fact column from its index; range-scan
        //    the ones that carry predicates, full-scan the rest; hash join
        //    them together on rid *first* (the System X limitation).
        let fact_columns = q.fact_columns();
        let mut pipeline: Option<BoxedOp<'_>> = None;
        for (i, &col) in fact_columns.iter().enumerate() {
            let tree = &self.fact_idx[col];
            let rid_name = format!("rid#{i}");
            let pred = q.fact_predicates.iter().find(|p| p.column == col);
            let scan: BoxedOp<'_> = match pred {
                Some(p) => Box::new(IndexRangeScanOp::new(tree, &[col], &rid_name, &p.pred, io)),
                None => Box::new(IndexFullScanOp::new(tree, &[col], &rid_name, io)),
            };
            pipeline = Some(match pipeline {
                None => scan,
                Some(pl) => Box::new(HashJoin::new(pl, scan, "rid#0", &rid_name, false)),
            });
        }
        let mut pipeline = pipeline.expect("queries read fact columns");

        // 2. Dimension joins: composite (col, pk) indexes provide predicate
        //    evaluation and group columns without heap access; pieces of the
        //    same dimension are rid-joined, then the result joins the fact
        //    stream on fk = pk.
        for dim in join_order(&self.tables, q) {
            let build = self.dim_side(q, dim, io);
            pipeline = Box::new(HashJoin::new(
                pipeline,
                build,
                dim.fact_fk_column(),
                dim.key_column(),
                false,
            ));
        }
        aggregate_and_finish(q, pipeline)
    }

    /// Dimension-side sub-plan producing `[key, groupcols...]` from indexes
    /// only.
    ///
    /// Each index piece contributes `(column, pk, rid)`; pieces are
    /// rid-joined. The *first* piece's pk field carries the canonical key
    /// column name so the fact join can reference it directly.
    fn dim_side<'a>(&'a self, q: &SsbQuery, dim: Dim, io: &'a IoSession) -> BoxedOp<'a> {
        let preds = q.dim_predicates_on(dim);
        let group_cols: Vec<&'static str> =
            q.group_by.iter().filter(|g| g.dim == dim).map(|g| g.column).collect();

        let mut plan: Option<BoxedOp<'a>> = None;
        let mut covered: Vec<&'static str> = Vec::new();
        let mut piece = 0usize;
        let mut first_rid = String::new();
        // Predicate pieces first (range scans), then uncovered group pieces
        // (full scans).
        let pred_cols: Vec<&'static str> = preds.iter().map(|p| p.column).collect();
        let full_cols: Vec<&'static str> =
            group_cols.iter().filter(|c| !pred_cols.contains(c)).copied().collect();
        for &col in pred_cols.iter().chain(full_cols.iter()) {
            if covered.contains(&col) {
                continue;
            }
            let tree = &self.dim_idx[&(dim, col)];
            let pk_name =
                if piece == 0 { dim.key_column().to_string() } else { format!("pk#{piece}") };
            let rid_name = format!("drid#{piece}");
            let pred = preds.iter().find(|p| p.column == col);
            let scan: BoxedOp<'a> = match pred {
                Some(p) => Box::new(IndexRangeScanOp::new(
                    tree,
                    &[col, pk_name.as_str()],
                    &rid_name,
                    &p.pred,
                    io,
                )),
                None => {
                    Box::new(IndexFullScanOp::new(tree, &[col, pk_name.as_str()], &rid_name, io))
                }
            };
            plan = Some(match plan {
                None => {
                    first_rid = rid_name;
                    scan
                }
                Some(pl) => Box::new(HashJoin::new(pl, scan, &first_rid, &rid_name, false)),
            });
            covered.push(col);
            piece += 1;
        }
        let plan = plan.expect("dimension is touched, so it has at least one piece");
        // Expose the canonical key column plus group columns.
        let mut out_cols: Vec<&str> = vec![dim.key_column()];
        out_cols.extend(group_cols.iter().copied());
        Box::new(Project::new(plan, &out_cols))
    }
}

/// Columns any benchmark query touches (build-time savings).
fn needed_columns() -> (Vec<&'static str>, Vec<(Dim, &'static str)>) {
    let mut fact: Vec<&'static str> = Vec::new();
    let mut dims: Vec<(Dim, &'static str)> = Vec::new();
    for q in all_queries() {
        for c in q.fact_columns() {
            if !fact.contains(&c) {
                fact.push(c);
            }
        }
        for p in &q.dim_predicates {
            if !dims.contains(&(p.dim, p.column)) {
                dims.push((p.dim, p.column));
            }
        }
        for g in &q.group_by {
            if !dims.contains(&(g.dim, g.column)) {
                dims.push((g.dim, g.column));
            }
        }
    }
    (fact, dims)
}
