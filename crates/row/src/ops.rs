//! Volcano-style physical operators.
//!
//! Every operator implements [`RowOp`]: a virtual `next()` returning one
//! [`Tuple`] at a time ("Volcano-style per-tuple iterators" \[11\], as the
//! paper puts it). Plans are trees of boxed operators built by the design
//! planners in [`crate::designs`].
//!
//! I/O discipline: leaf operators ([`SeqScan`], [`IndexFullScanOp`],
//! [`IndexRangeScanOp`], [`BitmapFetch`]) charge page reads to the
//! [`IoSession`] they hold; interior operators are pure CPU.

use crate::tuple::{OpSchema, Tuple};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_index::bloom::BloomFilter;
use cvr_index::btree::{BPlusTree, IndexKey, Key};
use cvr_index::hashidx::IntHashMap;
use cvr_storage::heap::HeapFile;
use cvr_storage::io::IoSession;

/// The Volcano iterator interface.
pub trait RowOp {
    /// Output schema.
    fn schema(&self) -> &OpSchema;
    /// Produce the next tuple, or `None` at end-of-stream.
    fn next(&mut self) -> Option<Tuple>;
}

/// Boxed operator with the plan lifetime.
pub type BoxedOp<'a> = Box<dyn RowOp + 'a>;

/// Drain an operator into a vector (plan roots, build sides).
pub fn drain(mut op: BoxedOp<'_>) -> Vec<Tuple> {
    let mut out = Vec::new();
    while let Some(t) = op.next() {
        out.push(t);
    }
    out
}

// ---------------------------------------------------------------- SeqScan

/// Sequential heap scan projecting a subset of columns.
pub struct SeqScan<'a> {
    heap: &'a HeapFile,
    io: &'a IoSession,
    /// (source field index) per output column.
    projection: Vec<usize>,
    schema: OpSchema,
    cursor: u32,
    /// Optional residual predicates evaluated on the *source* field index
    /// during the scan (cheaper than a separate Filter op, the way a real
    /// scan node evaluates pushed-down predicates).
    residual: Vec<(usize, Pred)>,
    /// Scratch field-offset buffer: the record layout is walked once per
    /// tuple, then fields are decoded at known offsets.
    offsets: Vec<usize>,
}

impl<'a> SeqScan<'a> {
    /// Scan `heap`, producing `columns` (by heap schema name).
    pub fn new(
        heap: &'a HeapFile,
        table_cols: &[&str],
        columns: &[&str],
        io: &'a IoSession,
    ) -> SeqScan<'a> {
        let projection = columns
            .iter()
            .map(|c| {
                table_cols
                    .iter()
                    .position(|t| t == c)
                    .unwrap_or_else(|| panic!("heap has no column {c}"))
            })
            .collect();
        SeqScan {
            heap,
            io,
            projection,
            schema: OpSchema::new(columns.iter().copied()),
            cursor: 0,
            residual: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Attach a pushed-down predicate on `column` (source-schema name).
    pub fn with_predicate(mut self, table_cols: &[&str], column: &str, pred: Pred) -> Self {
        let idx = table_cols.iter().position(|t| *t == column).expect("predicate column");
        self.residual.push((idx, pred));
        self
    }
}

impl RowOp for SeqScan<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        let types = self.heap.types();
        'rows: while (self.cursor as usize) < self.heap.num_rows() {
            let rid = self.cursor;
            self.cursor += 1;
            // `fetch` charges the containing page; consecutive rids hit the
            // buffer pool, so a full scan pays one read per page.
            let rec = self.heap.fetch(rid, self.io);
            rec.field_offsets(types, &mut self.offsets);
            for (idx, pred) in &self.residual {
                if !pred.matches(&rec.value_at(types[*idx], self.offsets[*idx])) {
                    continue 'rows;
                }
            }
            return Some(
                self.projection.iter().map(|&i| rec.value_at(types[i], self.offsets[i])).collect(),
            );
        }
        None
    }
}

// ------------------------------------------------------------- ChainOp

/// Concatenate several operators with identical schemas (partition scans).
pub struct ChainOp<'a> {
    parts: Vec<BoxedOp<'a>>,
    current: usize,
    schema: OpSchema,
}

impl<'a> ChainOp<'a> {
    /// Chain `parts` (must be non-empty and schema-identical).
    pub fn new(parts: Vec<BoxedOp<'a>>) -> ChainOp<'a> {
        assert!(!parts.is_empty(), "empty chain");
        let schema = parts[0].schema().clone();
        for p in &parts {
            assert_eq!(p.schema(), &schema, "chained operators must agree on schema");
        }
        ChainOp { parts, current: 0, schema }
    }
}

impl RowOp for ChainOp<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        while self.current < self.parts.len() {
            if let Some(t) = self.parts[self.current].next() {
                return Some(t);
            }
            self.current += 1;
        }
        None
    }
}

// ------------------------------------------------------------- Values

/// Emit pre-materialized tuples (filtered dimension tables, test inputs).
pub struct ValuesOp {
    rows: std::vec::IntoIter<Tuple>,
    schema: OpSchema,
}

impl ValuesOp {
    /// Wrap `rows` under `schema`.
    pub fn new(schema: OpSchema, rows: Vec<Tuple>) -> ValuesOp {
        ValuesOp { rows: rows.into_iter(), schema }
    }
}

impl RowOp for ValuesOp {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        self.rows.next()
    }
}

// ------------------------------------------------------------- Filter

/// Tuple-at-a-time predicate evaluation.
pub struct Filter<'a> {
    child: BoxedOp<'a>,
    col: usize,
    pred: Pred,
}

impl<'a> Filter<'a> {
    /// Filter `child` on `column` (child-schema name).
    pub fn new(child: BoxedOp<'a>, column: &str, pred: Pred) -> Filter<'a> {
        let col = child.schema().idx(column);
        Filter { child, col, pred }
    }
}

impl RowOp for Filter<'_> {
    fn schema(&self) -> &OpSchema {
        self.child.schema()
    }

    fn next(&mut self) -> Option<Tuple> {
        loop {
            let t = self.child.next()?;
            if self.pred.matches(&t[self.col]) {
                return Some(t);
            }
        }
    }
}

// ------------------------------------------------------------- Project

/// Column subset / reorder.
pub struct Project<'a> {
    child: BoxedOp<'a>,
    indices: Vec<usize>,
    schema: OpSchema,
}

impl<'a> Project<'a> {
    /// Keep `columns` of `child`, in order.
    pub fn new(child: BoxedOp<'a>, columns: &[&str]) -> Project<'a> {
        let indices = columns.iter().map(|c| child.schema().idx(c)).collect();
        Project { child, indices, schema: OpSchema::new(columns.iter().copied()) }
    }
}

impl RowOp for Project<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        let t = self.child.next()?;
        Some(self.indices.iter().map(|&i| t[i].clone()).collect())
    }
}

// ------------------------------------------------------------- HashJoin

/// In-memory equi-join on integer keys: build side hashed, probe side
/// streamed. Integer keys cover every join in the study (dimension keys,
/// record-ids, positions).
pub struct HashJoin<'a> {
    probe: BoxedOp<'a>,
    probe_key: usize,
    /// key -> head index into `build_rows` chains.
    table: IntHashMap,
    build_rows: Vec<Tuple>,
    chain: Vec<u32>,
    bloom: Option<BloomFilter>,
    schema: OpSchema,
    /// Pending matches for the current probe tuple.
    pending: Option<(Tuple, u32)>,
}

/// `NONE` sentinel for chain termination.
const CHAIN_END: u32 = u32::MAX;

impl<'a> HashJoin<'a> {
    /// Join `probe` ⋈ `build` on `probe.probe_col == build.build_col`.
    /// Output schema: probe columns ++ build columns. When `use_bloom` a
    /// Bloom filter over build keys pre-filters probes (the System X star
    /// join feature).
    pub fn new(
        probe: BoxedOp<'a>,
        build: BoxedOp<'a>,
        probe_col: &str,
        build_col: &str,
        use_bloom: bool,
    ) -> HashJoin<'a> {
        let probe_key = probe.schema().idx(probe_col);
        let build_key = build.schema().idx(build_col);
        let schema = probe.schema().concat(build.schema());
        let build_rows = drain(build);
        let mut table = IntHashMap::with_capacity(build_rows.len());
        let mut chain = vec![CHAIN_END; build_rows.len()];
        let mut bloom = use_bloom.then(|| BloomFilter::new(build_rows.len().max(16), 0.01));
        for (i, row) in build_rows.iter().enumerate() {
            let k = row[build_key].as_int();
            if let Some(b) = bloom.as_mut() {
                b.insert(k);
            }
            // Prepend to the chain for key k.
            match table.get(k) {
                Some(head) => {
                    chain[i] = head;
                    // IntHashMap keeps first payload; emulate update via
                    // remove-free chaining: store newest head by reinserting
                    // under a fresh map. IntHashMap lacks update, so chain the
                    // other way: append at tail.
                    // (see set_head below)
                    table_set(&mut table, k, i as u32);
                }
                None => table.insert(k, i as u32),
            }
        }
        HashJoin { probe, probe_key, table, build_rows, chain, bloom, schema, pending: None }
    }
}

/// Replace the payload for `k` (IntHashMap::insert keeps the first payload,
/// so emulate an upsert by rebuilding the probe slot).
fn table_set(table: &mut IntHashMap, k: i64, v: u32) {
    table.upsert(k, v);
}

impl RowOp for HashJoin<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if let Some((probe_tuple, head)) = self.pending.take() {
                let row = &self.build_rows[head as usize];
                let mut out = probe_tuple.clone();
                out.extend(row.iter().cloned());
                let next = self.chain[head as usize];
                if next != CHAIN_END {
                    self.pending = Some((probe_tuple, next));
                }
                return Some(out);
            }
            let t = self.probe.next()?;
            let k = t[self.probe_key].as_int();
            if let Some(b) = &self.bloom {
                if !b.may_contain(k) {
                    continue;
                }
            }
            if let Some(head) = self.table.get(k) {
                self.pending = Some((t, head));
            }
        }
    }
}

// ------------------------------------------------------------- HashAgg

/// Grouped integer-sum aggregation; the only aggregate shape SSBM needs.
pub struct HashAgg<'a> {
    child: Option<BoxedOp<'a>>,
    group_cols: Vec<usize>,
    /// Per-tuple aggregate term.
    term: Box<dyn Fn(&Tuple) -> i64 + 'a>,
    out: std::vec::IntoIter<Tuple>,
    schema: OpSchema,
    started: bool,
}

impl<'a> HashAgg<'a> {
    /// Group `child` by `group_columns`, summing `term(tuple)`. The output
    /// schema is `group_columns ++ ["agg"]`.
    pub fn new(
        child: BoxedOp<'a>,
        group_columns: &[&str],
        term: impl Fn(&Tuple) -> i64 + 'a,
    ) -> HashAgg<'a> {
        let group_cols: Vec<usize> = group_columns.iter().map(|c| child.schema().idx(c)).collect();
        let mut cols: Vec<String> = group_columns.iter().map(|c| c.to_string()).collect();
        cols.push("agg".to_string());
        HashAgg {
            child: Some(child),
            group_cols,
            term: Box::new(term),
            out: Vec::new().into_iter(),
            schema: OpSchema::new(cols),
            started: false,
        }
    }
}

impl RowOp for HashAgg<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        if !self.started {
            self.started = true;
            let mut child = self.child.take().expect("agg child");
            let mut groups: std::collections::HashMap<Vec<Value>, i64> =
                std::collections::HashMap::new();
            while let Some(t) = child.next() {
                let key: Vec<Value> = self.group_cols.iter().map(|&i| t[i].clone()).collect();
                *groups.entry(key).or_insert(0) += (self.term)(&t);
            }
            let mut rows: Vec<Tuple> = groups
                .into_iter()
                .map(|(mut k, v)| {
                    k.push(Value::Int(v));
                    k
                })
                .collect();
            rows.sort();
            self.out = rows.into_iter();
        }
        self.out.next()
    }
}

// ----------------------------------------------------- Index scan ops

/// Full scan of a B+Tree: yields every `(key parts..., rid)` in key order.
pub struct IndexFullScanOp<'a> {
    iter: Box<dyn Iterator<Item = (&'a Key, u32)> + 'a>,
    schema: OpSchema,
}

impl<'a> IndexFullScanOp<'a> {
    /// Scan `tree`, naming its key parts `key_cols` and the rid column
    /// `rid_col`.
    pub fn new(
        tree: &'a BPlusTree,
        key_cols: &[&str],
        rid_col: &str,
        io: &'a IoSession,
    ) -> IndexFullScanOp<'a> {
        let mut cols: Vec<String> = key_cols.iter().map(|c| c.to_string()).collect();
        cols.push(rid_col.to_string());
        IndexFullScanOp { iter: Box::new(tree.full_scan(io)), schema: OpSchema::new(cols) }
    }
}

impl RowOp for IndexFullScanOp<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        let (key, rid) = self.iter.next()?;
        Some(index_tuple(key, rid))
    }
}

/// Range scan of a B+Tree under a [`Pred`] on the first key part.
pub struct IndexRangeScanOp {
    rows: std::vec::IntoIter<Tuple>,
    schema: OpSchema,
}

impl IndexRangeScanOp {
    /// Scan entries of `tree` whose leading key part satisfies `pred`.
    pub fn new(
        tree: &BPlusTree,
        key_cols: &[&str],
        rid_col: &str,
        pred: &Pred,
        io: &IoSession,
    ) -> IndexRangeScanOp {
        let mut cols: Vec<String> = key_cols.iter().map(|c| c.to_string()).collect();
        cols.push(rid_col.to_string());
        let entries = range_scan_pred(tree, pred, io);
        let rows: Vec<Tuple> = entries.iter().map(|(key, rid)| index_tuple(key, *rid)).collect();
        IndexRangeScanOp { rows: rows.into_iter(), schema: OpSchema::new(cols) }
    }
}

/// The tuple an index scan emits for one leaf entry: the key parts, then
/// the rid.
fn index_tuple(key: &Key, rid: u32) -> Tuple {
    let mut t = Tuple::with_capacity(key.len() + 1);
    t.extend_from_slice(key);
    t.push(Value::Int(rid as i64));
    t
}

/// Evaluate `pred` through index range scans (one per `InSet` member).
pub fn range_scan_pred<K: IndexKey>(
    tree: &BPlusTree<K>,
    pred: &Pred,
    io: &IoSession,
) -> Vec<(K, u32)> {
    let eq = |v: &Value| tree.range_scan(Some(&K::from_value(v)), Some(&K::from_value(v)), io);
    match pred {
        Pred::Eq(v) => eq(v),
        Pred::Between(lo, hi) => {
            tree.range_scan(Some(&K::from_value(lo)), Some(&K::from_value(hi)), io)
        }
        Pred::Lt(v) => {
            let bound = K::from_value(v);
            let mut entries = tree.range_scan(None, Some(&bound), io);
            entries.retain(|(k, _)| k.prefix_cmp(&bound) == std::cmp::Ordering::Less);
            entries
        }
        Pred::InSet(vs) => vs.iter().flat_map(eq).collect(),
    }
}

impl RowOp for IndexRangeScanOp {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        self.rows.next()
    }
}

// ----------------------------------------------------- Bitmap fetch

/// Fetch heap tuples for a rid set (ascending), charging the distinct pages
/// touched — the heap side of a bitmap index plan.
pub struct BitmapFetch<'a> {
    heap: &'a HeapFile,
    io: &'a IoSession,
    rids: std::vec::IntoIter<u32>,
    projection: Vec<usize>,
    schema: OpSchema,
    offsets: Vec<usize>,
}

impl<'a> BitmapFetch<'a> {
    /// Fetch `rids` (must be ascending) from `heap`, projecting `columns`.
    pub fn new(
        heap: &'a HeapFile,
        table_cols: &[&str],
        columns: &[&str],
        rids: Vec<u32>,
        io: &'a IoSession,
    ) -> BitmapFetch<'a> {
        let projection = columns
            .iter()
            .map(|c| table_cols.iter().position(|t| t == c).expect("projection column"))
            .collect();
        BitmapFetch {
            heap,
            io,
            rids: rids.into_iter(),
            projection,
            schema: OpSchema::new(columns.iter().copied()),
            offsets: Vec::new(),
        }
    }
}

impl RowOp for BitmapFetch<'_> {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Option<Tuple> {
        let rid = self.rids.next()?;
        let rec = self.heap.fetch(rid, self.io);
        let types = self.heap.types();
        rec.field_offsets(types, &mut self.offsets);
        Some(self.projection.iter().map(|&i| rec.value_at(types[i], self.offsets[i])).collect())
    }
}
