//! The "traditional" physical design (Figure 6 `T` and `T(B)`).
//!
//! One heap file per logical table; LINEORDER optionally partitioned
//! horizontally by `orderdate` year (the configuration the paper's DBA used
//! for the base case). The bitmap-biased variant additionally builds
//! B+Trees over the fact table's predicate-able columns and forces plans
//! through bitmap-index access paths — Section 6.2 reports this usually
//! hurts, and the mechanism (index-leaf reads plus random heap fetches
//! versus one sequential scan) is reproduced here.

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{
    agg_term, aggregate_and_finish, dim_matching_keys, dim_needed_columns, dim_selectivity,
    finish_from_agg, group_col_names, int_col, join_order, qualifying_years,
};
use crate::ops::{
    range_scan_pred, BitmapFetch, BoxedOp, ChainOp, Filter, HashAgg, HashJoin, SeqScan,
};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::bitmap::RidBitmap;
use cvr_index::btree::{ikey, BPlusTree};
use cvr_storage::heap::{HeapFile, PartitionedHeap};
use cvr_storage::io::IoSession;
use cvr_storage::par::{default_threads, Jobs, Slot};

/// Build options for [`TraditionalDb`].
#[derive(Debug, Clone, Copy)]
pub struct TraditionalOptions {
    /// Partition LINEORDER by `orderdate` year (the paper's base case).
    pub partitioned: bool,
    /// Build fact-column B+Trees enabling the bitmap-biased plans (`T(B)`).
    pub bitmap_indexes: bool,
    /// Let hash joins use Bloom-filter pre-filtering (System X star joins).
    pub use_bloom: bool,
}

impl Default for TraditionalOptions {
    fn default() -> Self {
        TraditionalOptions { partitioned: true, bitmap_indexes: false, use_bloom: true }
    }
}

/// Fact columns that bitmap plans may index. Public so cost models can
/// tell which fact predicates an index range scan can absorb — the rest
/// filter tuples only after the heap fetch.
pub const BITMAP_COLUMNS: [&str; 6] =
    ["lo_orderdate", "lo_custkey", "lo_suppkey", "lo_partkey", "lo_discount", "lo_quantity"];

/// The traditional design: heap per table (+ optional extras).
pub struct TraditionalDb {
    tables: Arc<SsbTables>,
    /// LINEORDER partitioned by year; `None` when built unpartitioned.
    fact_partitioned: Option<PartitionedHeap>,
    /// Whole LINEORDER heap; present when unpartitioned or bitmap-biased
    /// (bitmap rids address the unpartitioned heap).
    fact_whole: Option<HeapFile>,
    dims: HashMap<Dim, HeapFile>,
    fact_indexes: HashMap<&'static str, BPlusTree>,
    opts: TraditionalOptions,
}

impl TraditionalDb {
    /// Build the design over `tables`. The heaps and the fact indexes do
    /// not depend on each other, so they are built as one list of jobs over
    /// the process-default worker count, largest first.
    pub fn build(tables: Arc<SsbTables>, opts: TraditionalOptions) -> TraditionalDb {
        let fact = &tables.lineorder;
        let mut jobs = Jobs::new();
        let fact_partitioned = opts.partitioned.then(|| {
            jobs.add(|| {
                let dates = int_col(fact, "lo_orderdate");
                PartitionedHeap::build(fact, |i| dates[i] / 10_000)
            })
        });
        let fact_whole =
            (!opts.partitioned || opts.bitmap_indexes).then(|| jobs.add(|| HeapFile::build(fact)));
        let index_columns: &[&'static str] =
            if opts.bitmap_indexes { &BITMAP_COLUMNS } else { &[] };
        let fact_indexes: Vec<_> = index_columns
            .iter()
            .map(|&col| {
                let entries = int_col(fact, col).iter().zip(0..).map(|(&v, rid)| (ikey(v), rid));
                (col, jobs.add(move || BPlusTree::bulk_load(entries.collect())))
            })
            .collect();
        let dims: Vec<_> = Dim::ALL
            .iter()
            .map(|&d| {
                let table = tables.dim(d);
                (d, jobs.add(move || HeapFile::build(table)))
            })
            .collect();
        jobs.run(default_threads());

        TraditionalDb {
            fact_partitioned: fact_partitioned.map(Slot::take),
            fact_whole: fact_whole.map(Slot::take),
            dims: dims.into_iter().map(|(d, heap)| (d, heap.take())).collect(),
            fact_indexes: fact_indexes.into_iter().map(|(col, tree)| (col, tree.take())).collect(),
            opts,
            tables,
        }
    }

    /// The `T(B)` B+Tree over fact column `column`, when built.
    pub fn fact_index(&self, column: &str) -> Option<&BPlusTree> {
        self.fact_indexes.get(column)
    }

    /// Total fact bytes on disk (for the Section 6.2 size table).
    pub fn fact_bytes(&self) -> u64 {
        self.fact_partitioned
            .as_ref()
            .map(PartitionedHeap::bytes)
            .or_else(|| self.fact_whole.as_ref().map(HeapFile::bytes))
            .unwrap_or(0)
    }

    /// Heap of dimension `d`.
    pub fn dim_heap(&self, d: Dim) -> &HeapFile {
        &self.dims[&d]
    }

    /// Source tables (for planners needing catalog statistics).
    pub fn tables(&self) -> &SsbTables {
        &self.tables
    }

    /// Build the fact-scan operator: partition-pruned chain or whole heap,
    /// with flight-1 predicates pushed into the scan.
    fn fact_scan<'a>(&'a self, q: &SsbQuery, io: &'a IoSession) -> BoxedOp<'a> {
        let fact_cols: Vec<&str> =
            self.tables.schema.lineorder.columns.iter().map(|c| c.name).collect();
        let needed = q.fact_columns();
        let make = |heap: &'a HeapFile| -> BoxedOp<'a> {
            let mut scan = SeqScan::new(heap, &fact_cols, &needed, io);
            for p in &q.fact_predicates {
                scan = scan.with_predicate(&fact_cols, p.column, p.pred.clone());
            }
            Box::new(scan)
        };
        match &self.fact_partitioned {
            Some(parts) => {
                let heaps = match qualifying_years(&self.tables, q) {
                    Some(years) => parts.select(move |y| years.contains(&y)),
                    None => parts.all(),
                };
                Box::new(ChainOp::new(heaps.into_iter().map(make).collect()))
            }
            None => make(self.fact_whole.as_ref().expect("unpartitioned heap")),
        }
    }

    /// A filtered dimension-table operator: sequential scan of the dim heap
    /// with predicates pushed down, projecting key + group columns.
    fn dim_build<'a>(&'a self, q: &SsbQuery, dim: Dim, io: &'a IoSession) -> BoxedOp<'a> {
        let heap = &self.dims[&dim];
        let schema = self.tables.schema.dim(dim);
        let cols: Vec<&str> = schema.columns.iter().map(|c| c.name).collect();
        let needed = dim_needed_columns(q, dim);
        let mut scan = SeqScan::new(heap, &cols, &needed, io);
        for p in q.dim_predicates_on(dim) {
            scan = scan.with_predicate(&cols, p.column, p.pred.clone());
        }
        Box::new(scan)
    }

    /// Execute `q` with the standard plan: pruned fact scan, hash joins in
    /// selectivity order, grouped aggregation.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let mut pipeline = self.fact_scan(q, io);
        for dim in join_order(&self.tables, q) {
            let build = self.dim_build(q, dim, io);
            let restricted = !q.dim_predicates_on(dim).is_empty();
            pipeline = Box::new(HashJoin::new(
                pipeline,
                build,
                dim.fact_fk_column(),
                dim.key_column(),
                self.opts.use_bloom && restricted,
            ));
        }
        aggregate_and_finish(q, pipeline)
    }

    /// Execute `q` with the bitmap-biased plan (`T(B)`).
    ///
    /// Every applicable predicate becomes a rid bitmap via B+Tree access —
    /// fact measure predicates through range scans, the DATE restriction
    /// through an `orderdate` key range, other dimension restrictions
    /// through per-key FK probes (skipped above a key-count threshold, as
    /// even a biased optimizer would) — then the bitmaps are ANDed and the
    /// surviving tuples fetched from the heap.
    pub fn execute_bitmap(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        assert!(self.opts.bitmap_indexes, "TraditionalDb was built without bitmap indexes");
        let heap = self.fact_whole.as_ref().expect("bitmap plans use the whole heap");
        let n = heap.num_rows() as u32;
        let mut bitmap = RidBitmap::full(n);
        let mut applied_dims: Vec<Dim> = Vec::new();
        let mut applied_fact: Vec<&str> = Vec::new();

        // Fact measure predicates via index range scans.
        for p in &q.fact_predicates {
            if let Some(tree) = self.fact_indexes.get(p.column) {
                let rids = range_scan_pred(tree, &p.pred, io);
                bitmap.and_with(&RidBitmap::from_rids(n, rids.into_iter().map(|(_, r)| r)));
                applied_fact.push(p.column);
            }
        }
        // Dimension restrictions via FK-index probes.
        for dim in q.restricted_dims() {
            let Some(tree) = self.fact_indexes.get(dim.fact_fk_column()) else { continue };
            let mut keys = dim_matching_keys(&self.tables, q, dim);
            if keys.is_empty() {
                bitmap = RidBitmap::new(n);
                applied_dims.push(dim);
                continue;
            }
            keys.sort_unstable();
            // Optimizer sanity threshold: probing tens of thousands of keys
            // would be slower than any alternative.
            if keys.len() > 2_000 {
                continue;
            }
            let contiguous = {
                let domain = int_col(self.tables.dim(dim), dim.key_column());
                let set: std::collections::HashSet<i64> = keys.iter().copied().collect();
                is_contiguous_in(domain, &set)
            };
            let mut dim_bitmap = RidBitmap::new(n);
            if contiguous {
                let lo = ikey(*keys.first().unwrap());
                let hi = ikey(*keys.last().unwrap());
                for (_, rid) in tree.range_scan(Some(&lo), Some(&hi), io) {
                    dim_bitmap.set(rid);
                }
            } else {
                for k in &keys {
                    for rid in tree.lookup(&ikey(*k), io) {
                        dim_bitmap.set(rid);
                    }
                }
            }
            bitmap.and_with(&dim_bitmap);
            applied_dims.push(dim);
        }

        // Fetch surviving tuples and finish with the standard joins.
        let fact_cols: Vec<&str> =
            self.tables.schema.lineorder.columns.iter().map(|c| c.name).collect();
        let needed = q.fact_columns();
        let mut pipeline: BoxedOp<'_> =
            Box::new(BitmapFetch::new(heap, &fact_cols, &needed, bitmap.to_vec(), io));
        for p in &q.fact_predicates {
            if !applied_fact.contains(&p.column) {
                pipeline = Box::new(Filter::new(pipeline, p.column, p.pred.clone()));
            }
        }
        for dim in join_order(&self.tables, q) {
            // Dimensions already applied through bitmaps still need joining
            // when they contribute group-by columns.
            let contributes_groups = q.group_by.iter().any(|g| g.dim == dim);
            let restricted = !q.dim_predicates_on(dim).is_empty();
            if applied_dims.contains(&dim) && !contributes_groups {
                continue;
            }
            let build = self.dim_build(q, dim, io);
            pipeline = Box::new(HashJoin::new(
                pipeline,
                build,
                dim.fact_fk_column(),
                dim.key_column(),
                self.opts.use_bloom && restricted,
            ));
        }
        let groups = group_col_names(q);
        let term = agg_term(q, pipeline.schema());
        let agg = HashAgg::new(pipeline, &groups, term);
        finish_from_agg(q, Box::new(agg))
    }

    /// Per-dimension restriction selectivity (exposed for plan debugging).
    pub fn selectivity(&self, q: &SsbQuery, dim: Dim) -> f64 {
        dim_selectivity(&self.tables, q, dim)
    }
}

/// True when `set` covers a contiguous slice of sorted `domain`.
fn is_contiguous_in(domain: &[i64], set: &std::collections::HashSet<i64>) -> bool {
    let mut started = false;
    let mut ended = false;
    for v in domain {
        let m = set.contains(v);
        if m && ended {
            return false;
        }
        if m {
            started = true;
        } else if started {
            ended = true;
        }
    }
    true
}
