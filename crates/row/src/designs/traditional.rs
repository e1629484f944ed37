//! The "traditional" physical design (Figure 6 `T` and `T(B)`).
//!
//! One heap file per logical table; LINEORDER optionally partitioned
//! horizontally by `orderdate` year (the configuration the paper's DBA used
//! for the base case). The bitmap-biased variant instead builds the whole
//! LINEORDER heap plus integer-keyed B+Trees over the fact table's
//! predicate-able columns, and forces plans through bitmap-index access
//! paths — Section 6.2 reports this usually hurts, and the mechanism
//! (index-leaf reads plus random heap fetches versus one sequential scan) is
//! reproduced here.
//!
//! Both plans end in `common::star_join`, which `MV` runs too. `T` feeds it
//! `common::pruned_fact_scan`, as `MV` does.

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{dim_matching_keys, fact_seq_scan, pruned_fact_scan, star_join};
use crate::ops::{range_scan_pred, BitmapFetch, BoxedOp, Filter};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::ColumnData;
use cvr_index::bitmap::RidBitmap;
use cvr_index::btree::BPlusTree;
use cvr_storage::encode::PlainValue;
use cvr_storage::heap::{HeapFile, PartitionedHeap};
use cvr_storage::io::IoSession;
use cvr_storage::par::{default_threads, Jobs, Slot};
use cvr_storage::with_plain_values;

/// Build options for [`TraditionalDb`].
#[derive(Debug, Clone, Copy)]
pub struct TraditionalOptions {
    /// Partition LINEORDER by `orderdate` year (the paper's base case).
    /// Only [`TraditionalDb::execute`] reads the partitions.
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
    /// LINEORDER partitioned by year, read by the `T` plan
    /// ([`TraditionalDb::execute`]); `None` when built unpartitioned, which
    /// is how `RowDb` builds `T(B)`.
    fact_partitioned: Option<PartitionedHeap>,
    /// Whole LINEORDER heap; present when unpartitioned or bitmap-biased.
    /// Bitmap rids address it: it is the only fact heap the `T(B)` plan
    /// ([`TraditionalDb::execute_bitmap`]) reads.
    fact_whole: Option<HeapFile>,
    dims: HashMap<Dim, HeapFile>,
    /// `T(B)`'s B+Trees over [`BITMAP_COLUMNS`], keyed by the integer value.
    fact_indexes: HashMap<&'static str, BPlusTree<i64>>,
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
                let dates = fact.column("lo_orderdate").ints();
                let columns: Vec<&ColumnData> = fact.columns.iter().collect();
                PartitionedHeap::build(&columns, dates, |d| d / 10_000)
            })
        });
        let fact_whole =
            (!opts.partitioned || opts.bitmap_indexes).then(|| jobs.add(|| HeapFile::build(fact)));
        let index_columns: &[&'static str] =
            if opts.bitmap_indexes { &BITMAP_COLUMNS } else { &[] };
        let fact_indexes: Vec<_> = index_columns
            .iter()
            .map(|&col| {
                let keys = fact.column(col).ints();
                let entries = move || {
                    with_plain_values!(keys, |k| k.iter().map(|v| v.widen()).zip(0..).collect())
                };
                (col, jobs.add(move || BPlusTree::bulk_load(entries())))
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
    pub fn fact_index(&self, column: &str) -> Option<&BPlusTree<i64>> {
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

    /// Names of the fact heap's columns, in record order.
    fn fact_cols(&self) -> Vec<&'static str> {
        self.tables.schema.lineorder.columns.iter().map(|c| c.name).collect()
    }

    /// Execute `q` with the standard plan: partition-pruned fact scan (or
    /// the whole heap, when built unpartitioned) with the fact predicates
    /// pushed in, then the star join.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let cols = self.fact_cols();
        let fact = match &self.fact_partitioned {
            Some(parts) => pruned_fact_scan(&self.tables, parts, &cols, q, io),
            None => {
                fact_seq_scan(self.fact_whole.as_ref().expect("unpartitioned heap"), &cols, q, io)
            }
        };
        star_join(&self.tables, &self.dims, q, fact, &[], self.opts.use_bloom, io)
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
                let domain = self.tables.dim(dim).column(dim.key_column()).ints();
                let set: std::collections::HashSet<i64> = keys.iter().copied().collect();
                with_plain_values!(domain, |d| is_contiguous_in(d, &set))
            };
            let mut dim_bitmap = RidBitmap::new(n);
            if contiguous {
                let (lo, hi) = (keys[0], keys[keys.len() - 1]);
                for (_, rid) in tree.range_scan(Some(&lo), Some(&hi), io) {
                    dim_bitmap.set(rid);
                }
            } else {
                for k in &keys {
                    for rid in tree.lookup(k, io) {
                        dim_bitmap.set(rid);
                    }
                }
            }
            bitmap.and_with(&dim_bitmap);
            applied_dims.push(dim);
        }

        // Fetch surviving tuples and finish with the star join.
        let mut pipeline: BoxedOp<'_> = Box::new(BitmapFetch::new(
            heap,
            &self.fact_cols(),
            &q.fact_columns(),
            bitmap.to_vec(),
            io,
        ));
        for p in &q.fact_predicates {
            if !applied_fact.contains(&p.column) {
                pipeline = Box::new(Filter::new(pipeline, p.column, p.pred.clone()));
            }
        }
        // Dimensions already applied through bitmaps still need joining
        // when they contribute group-by columns.
        applied_dims.retain(|&dim| !q.group_by.iter().any(|g| g.dim == dim));
        star_join(&self.tables, &self.dims, q, pipeline, &applied_dims, self.opts.use_bloom, io)
    }
}

/// True when `set` covers a contiguous slice of sorted `domain`.
fn is_contiguous_in<T: PlainValue>(domain: &[T], set: &std::collections::HashSet<i64>) -> bool {
    let mut started = false;
    let mut ended = false;
    for v in domain {
        let m = set.contains(&v.widen());
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
