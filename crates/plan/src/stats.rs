//! Catalog statistics: what the planner knows about the data.
//!
//! Everything here is computed once from the *real* storage layer — not
//! assumed. Per column:
//!
//! * row count, min/max, and number of distinct values (NDV);
//! * an equi-depth histogram over integer columns (built from a
//!   deterministic stride sample, so catalog construction stays cheap at
//!   large scale factors);
//! * a complete value-frequency table for low-NDV string columns (the SSB
//!   dimension hierarchies all qualify), giving *exact* per-predicate
//!   fractions where the paper's queries live. A column the compressed
//!   store dictionary-encodes gets it by counting its codes: a dictionary
//!   is an exact frequency table;
//! * the **actual encoded bytes** of both storage variants, taken from the
//!   built `cvr-storage` columns (`StoredColumn::bytes`), plus the encoding
//!   shape the compressed variant chose (RLE run count, packed lanes per
//!   word) — the numbers the cost model charges against the modeled disk.
//!
//! Selectivity estimation follows the textbook rules (uniformity within
//! histogram buckets, independence across predicates, FK uniformity from
//! dimension fraction to fact fraction) — exactly the assumptions the SSB
//! generator satisfies, which is why the estimates land within tolerance of
//! the paper's Section 3 selectivity table (see the crate tests).

use std::collections::HashMap;

use cvr_core::projection::dim_sort_columns;
use cvr_core::{CStoreDb, ColumnEngine, EngineConfig};
use cvr_data::queries::{flight_fact_columns, FactPredicate, Pred, SsbQuery};
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, Strs, TableData};
use cvr_data::value::Value;
use cvr_storage::encode::{Column, IntColumn, PlainValue, StrColumn};
use cvr_storage::hash::FxHashMap;
use cvr_storage::par::{Jobs, Slot};
use cvr_storage::persist::{put_i64, put_u32, put_u64, PersistError, Reader};
use cvr_storage::rowcodec::columns_row_size;
use cvr_storage::{with_plain_values, PackedInts, StoredColumn};

/// Histogram bucket count.
const HIST_BUCKETS: usize = 64;
/// Sample-size caps keeping catalog builds cheap at large scale factors.
const HIST_SAMPLE: usize = 65_536;
const NDV_SAMPLE: usize = 262_144;
/// NDV ceiling for exact string frequency tables.
const STR_FREQ_MAX_NDV: usize = 4_096;

/// Equi-depth histogram over an integer column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket boundaries, ascending; `bounds[k]..=bounds[k+1]` holds an
    /// equal share of the sampled values.
    bounds: Vec<i64>,
}

impl Histogram {
    fn build<T: PlainValue>(values: &[T]) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        // Deterministic stride sample, then sort.
        let stride = (values.len() / HIST_SAMPLE).max(1);
        let mut sample: Vec<i64> = values.iter().step_by(stride).map(|v| v.widen()).collect();
        sample.sort_unstable();
        let b = HIST_BUCKETS.min(sample.len());
        let mut bounds = Vec::with_capacity(b + 1);
        for k in 0..=b {
            let idx = (k * (sample.len() - 1)) / b;
            bounds.push(sample[idx]);
        }
        Some(Histogram { bounds })
    }

    /// Estimated `P(x <= v)`, linear-interpolating inside buckets (integer
    /// support: a bucket `[lo, hi]` is treated as the half-open real
    /// interval `[lo, hi + 1)`).
    pub fn fraction_le(&self, v: i64) -> f64 {
        let b = self.bounds.len() - 1;
        if b == 0 {
            return if v >= self.bounds[0] { 1.0 } else { 0.0 };
        }
        if v < self.bounds[0] {
            return 0.0;
        }
        if v >= self.bounds[b] {
            return 1.0;
        }
        let mut acc = 0.0;
        for k in 0..b {
            let (lo, hi) = (self.bounds[k], self.bounds[k + 1].max(self.bounds[k]));
            let share = 1.0 / b as f64;
            if v >= hi {
                acc += share;
            } else {
                let span = (hi + 1 - lo) as f64;
                acc += share * ((v + 1 - lo) as f64 / span).clamp(0.0, 1.0);
                break;
            }
        }
        acc.min(1.0)
    }

    /// Estimated fraction of values in `lo..=hi`.
    pub fn fraction_range(&self, lo: i64, hi: i64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.fraction_le(hi) - self.fraction_le(lo - 1)).max(0.0)
    }
}

/// The encoding shape the compressed storage variant chose for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    /// Byte-minimized plain integers / plain strings.
    Plain,
    /// Run-length encoded integers.
    Rle,
    /// Frame-of-reference bit-packed integers.
    Packed,
    /// Dictionary strings with bit-packed codes.
    Dict,
}

impl EncodingKind {
    /// Short label for explain output.
    pub fn label(self) -> &'static str {
        match self {
            EncodingKind::Plain => "plain",
            EncodingKind::Rle => "rle",
            EncodingKind::Packed => "packed",
            EncodingKind::Dict => "dict",
        }
    }
}

/// Statistics for one column of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Number of distinct values (sampled above [`NDV_SAMPLE`] rows).
    pub ndv: u64,
    /// Min value (integer columns).
    pub min: Option<i64>,
    /// Max value (integer columns).
    pub max: Option<i64>,
    /// Equi-depth histogram (integer columns).
    pub histogram: Option<Histogram>,
    /// Exact `(value, count)` table, sorted by value (low-NDV string
    /// columns).
    pub str_freqs: Option<Vec<(Box<str>, u64)>>,
    /// Encoded bytes of the uncompressed storage variant, as recorded by
    /// the compressed build (`ColumnStore::plain_bytes`).
    pub plain_bytes: u64,
    /// Actual encoded bytes of the compressed storage variant.
    pub compressed_bytes: u64,
    /// Encoding the compressed variant chose.
    pub encoding: EncodingKind,
    /// Run count when [`EncodingKind::Rle`].
    pub rle_runs: Option<u64>,
    /// Lanes per 64-bit word when packed (directly, or as dictionary codes).
    pub packed_lanes: Option<u8>,
}

impl ColumnStats {
    fn build(name: &str, data: &ColumnData, comp: &StoredColumn, plain_bytes: u64) -> ColumnStats {
        let rows = data.len() as u64;
        let (min, max, histogram, ndv, str_freqs) = match data {
            ColumnData::Int(v) => {
                let range = v.min_max();
                let ndv =
                    range.map_or(0, |(lo, hi)| with_plain_values!(v, |v| sample_ndv(v, lo, hi)));
                let histogram = with_plain_values!(v, |v| Histogram::build(v));
                (range.map(|r| r.0), range.map(|r| r.1), histogram, ndv.max(1), None)
            }
            ColumnData::Str(v) => {
                let freqs = match &comp.column {
                    Column::Str(StrColumn::Dict { dict, codes }) => {
                        debug_assert_eq!(codes.len() as usize, v.len(), "{name}");
                        dict_freqs(dict, codes)
                    }
                    _ => plain_freqs(v),
                };
                let ndv = freqs.len() as u64;
                let table = (freqs.len() <= STR_FREQ_MAX_NDV).then_some(freqs);
                (None, None, None, ndv.max(1), table)
            }
        };
        let (encoding, rle_runs, packed_lanes) = match &comp.column {
            Column::Int(c @ IntColumn::Rle { .. }) => {
                (EncodingKind::Rle, Some(c.runs().len() as u64), None)
            }
            Column::Int(IntColumn::Packed { packed, .. }) => {
                (EncodingKind::Packed, None, Some(packed.lanes_per_word()))
            }
            Column::Str(StrColumn::Dict { codes, .. }) => {
                (EncodingKind::Dict, None, Some(codes.lanes_per_word()))
            }
            _ => (EncodingKind::Plain, None, None),
        };
        ColumnStats {
            name: name.to_string(),
            rows,
            ndv,
            min,
            max,
            histogram,
            str_freqs,
            plain_bytes,
            compressed_bytes: comp.bytes(),
            encoding,
            rle_runs,
            packed_lanes,
        }
    }

    /// Append this column's statistics for [`Catalog::to_bytes`].
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u64(out, self.rows);
        put_u64(out, self.ndv);
        put_opt(out, self.min, put_i64);
        put_opt(out, self.max, put_i64);
        put_opt(out, self.histogram.as_ref(), |out, h| {
            put_u32(out, h.bounds.len() as u32);
            h.bounds.iter().for_each(|&b| put_i64(out, b));
        });
        put_opt(out, self.str_freqs.as_ref(), |out, freqs| {
            put_u32(out, freqs.len() as u32);
            for (value, count) in freqs {
                put_str(out, value);
                put_u64(out, *count);
            }
        });
        put_u64(out, self.plain_bytes);
        put_u64(out, self.compressed_bytes);
        out.push(self.encoding as u8);
        put_opt(out, self.rle_runs, put_u64);
        put_opt(out, self.packed_lanes, |out, v| out.push(v));
    }

    /// Read what [`ColumnStats::put`] appended.
    fn take(r: &mut Reader<'_>) -> Result<ColumnStats, PersistError> {
        let name = take_str(r)?;
        let (rows, ndv) = (r.u64()?, r.u64()?);
        let min = take_opt(r, Reader::i64)?;
        let max = take_opt(r, Reader::i64)?;
        let histogram = take_opt(r, |r| {
            let n = r.u32()?;
            let bounds = (0..n).map(|_| r.i64()).collect::<Result<Vec<_>, _>>()?;
            match bounds.is_empty() {
                true => Err(corrupt("an empty histogram")),
                false => Ok(Histogram { bounds }),
            }
        })?;
        let str_freqs = take_opt(r, |r| {
            let n = r.u32()?;
            (0..n).map(|_| Ok((take_str(r)?.into_boxed_str(), r.u64()?))).collect()
        })?;
        let (plain_bytes, compressed_bytes) = (r.u64()?, r.u64()?);
        let encoding = match r.u8()? {
            0 => EncodingKind::Plain,
            1 => EncodingKind::Rle,
            2 => EncodingKind::Packed,
            3 => EncodingKind::Dict,
            other => return Err(corrupt(&format!("unknown encoding {other}"))),
        };
        let rle_runs = take_opt(r, Reader::u64)?;
        let packed_lanes = take_opt(r, Reader::u8)?;
        Ok(ColumnStats {
            name,
            rows,
            ndv,
            min,
            max,
            histogram,
            str_freqs,
            plain_bytes,
            compressed_bytes,
            encoding,
            rle_runs,
            packed_lanes,
        })
    }

    /// Encoded bytes of the variant serving `compressed`.
    pub fn bytes(&self, compressed: bool) -> u64 {
        if compressed {
            self.compressed_bytes
        } else {
            self.plain_bytes
        }
    }

    /// Estimated fraction of this column's rows matching `pred`.
    pub fn estimate(&self, pred: &Pred) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if let Some(freqs) = &self.str_freqs {
            // Exact arithmetic over the frequency table.
            let matched: u64 =
                freqs.iter().filter(|(v, _)| pred.matches_str(v)).map(|(_, c)| c).sum();
            return matched as f64 / self.rows as f64;
        }
        match pred {
            Pred::Eq(v) => self.estimate_eq(v),
            Pred::InSet(vs) => vs.iter().map(|v| self.estimate_eq(v)).sum::<f64>().min(1.0),
            Pred::Between(lo, hi) => match (lo, hi, &self.histogram) {
                (Value::Int(a), Value::Int(b), Some(h)) => h.fraction_range(*a, *b),
                // No histogram (string Between without freqs): guess a third.
                _ => 1.0 / 3.0,
            },
            Pred::Lt(v) => match (v, &self.histogram) {
                (Value::Int(x), Some(h)) => h.fraction_le(*x - 1),
                _ => 1.0 / 3.0,
            },
        }
    }

    /// [`ColumnStats::estimate`] of `col = v` on a column without a
    /// frequency table.
    fn estimate_eq(&self, v: &Value) -> f64 {
        match (v, self.min, self.max) {
            (Value::Int(x), Some(lo), Some(hi)) if *x >= lo && *x <= hi => 1.0 / self.ndv as f64,
            (Value::Int(_), _, _) => 0.0,
            // String column without a frequency table: uniform over NDV.
            (Value::Str(_), _, _) => 1.0 / self.ndv as f64,
        }
    }
}

/// The `(value, count)` table of a dictionary column: its codes counted
/// against the sorted dictionary, so the table comes out sorted by value.
fn dict_freqs(dict: &[Box<str>], codes: &PackedInts) -> Vec<(Box<str>, u64)> {
    let mut counts = vec![0u64; dict.len()];
    codes.for_each_in(0, codes.len(), |c| counts[c as usize] += 1);
    dict.iter().zip(counts).filter(|&(_, c)| c > 0).map(|(s, c)| (s.clone(), c)).collect()
}

/// The `(value, count)` table of a plain string column, sorted by value.
fn plain_freqs(values: &Strs) -> Vec<(Box<str>, u64)> {
    let mut freqs: FxHashMap<&str, u64> = FxHashMap::default();
    for s in values {
        *freqs.entry(s).or_default() += 1;
    }
    let mut table: Vec<(Box<str>, u64)> =
        freqs.into_iter().map(|(s, c)| (Box::from(s), c)).collect();
    table.sort_unstable();
    table
}

/// Distinct values among every `stride`-th value of `values` (the NDV
/// sample; at most [`NDV_SAMPLE`] strides), all of which lie in `[lo, hi]`.
///
/// A bitset over the span counts them when it is below 64 × the sample
/// length (then it is smaller than the sample itself); sort + dedup
/// otherwise. Both count the same.
fn sample_ndv<T: PlainValue>(values: &[T], lo: i64, hi: i64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let stride = (values.len() / NDV_SAMPLE).max(1);
    let sample = values.iter().step_by(stride).map(|v| v.widen());
    let span = hi.abs_diff(lo).saturating_add(1);
    if span < 64 * values.len().div_ceil(stride) as u64 {
        ndv_bitset(sample, lo, span)
    } else {
        ndv_sorted(sample)
    }
}

/// Distinct values of `sample`, all in `lo..lo + span`, by a bitset.
fn ndv_bitset(sample: impl Iterator<Item = i64>, lo: i64, span: u64) -> u64 {
    let mut words = vec![0u64; span.div_ceil(64) as usize];
    for x in sample {
        let d = x.abs_diff(lo);
        words[(d / 64) as usize] |= 1 << (d % 64);
    }
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Distinct values of `sample`, by sort + dedup.
fn ndv_sorted(sample: impl Iterator<Item = i64>) -> u64 {
    let mut distinct: Vec<i64> = sample.collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len() as u64
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    cols: FxHashMap<String, ColumnStats>,
}

impl TableStats {
    /// Add one job per column of `data` to `jobs`; the returned closure
    /// assembles the table once the list has run.
    fn add_jobs<'a>(
        jobs: &mut Jobs<'a>,
        data: &'a TableData,
        comp: &'a cvr_storage::ColumnStore,
    ) -> impl FnOnce() -> TableStats + 'a {
        let cols: Vec<(&str, Slot<ColumnStats>)> = data
            .schema
            .columns
            .iter()
            .zip(&data.columns)
            .map(|(def, col)| {
                let name = def.name;
                let stats = jobs.add(move || {
                    ColumnStats::build(name, col, comp.column(name), comp.plain_bytes(name))
                });
                (name, stats)
            })
            .collect();
        move || TableStats {
            name: data.schema.name.to_string(),
            rows: data.num_rows() as u64,
            cols: cols.into_iter().map(|(name, stats)| (name.to_string(), stats.take())).collect(),
        }
    }

    /// Every column's statistics, in no particular order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = &ColumnStats> {
        self.cols.values()
    }

    /// Stats for `column`, panicking on unknown names (queries are checked
    /// against the schema before they reach the planner).
    pub fn column(&self, column: &str) -> &ColumnStats {
        self.cols.get(column).unwrap_or_else(|| panic!("no statistics for {}.{column}", self.name))
    }
}

fn corrupt(detail: &str) -> PersistError {
    PersistError::Corrupt { detail: format!("catalog: {detail}") }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take_str(r: &mut Reader<'_>) -> Result<String, PersistError> {
    let len = r.u32()? as usize;
    Ok(r.utf8(len)?.to_string())
}

/// `value` behind a presence byte.
fn put_opt<T>(out: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    out.push(value.is_some() as u8);
    if let Some(v) = value {
        put(out, v);
    }
}

fn take_opt<'a, T>(
    r: &mut Reader<'a>,
    take: impl FnOnce(&mut Reader<'a>) -> Result<T, PersistError>,
) -> Result<Option<T>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => take(r).map(Some),
        other => Err(corrupt(&format!("presence byte {other}"))),
    }
}

/// Approximate on-disk sizes of the row-engine physical designs, derived
/// from sampled `rowcodec` record lengths (the same codec the heaps use).
#[derive(Debug, Clone, PartialEq)]
pub struct RowSizes {
    /// Full 17-column LINEORDER heap bytes (traditional design).
    pub fact_heap_bytes: u64,
    /// Dimension heap bytes.
    pub dim_heap_bytes: HashMap<Dim, u64>,
    /// Per-flight materialized-view heap bytes (index = flight − 1).
    pub mv_view_bytes: [u64; 4],
    /// Mean encoded record bytes of one full fact row.
    pub fact_row_bytes: f64,
}

/// Mean `rowcodec` record bytes of `columns` (every column when `None`)
/// over a deterministic row sample, sized straight from the column slices.
fn mean_record_bytes(data: &TableData, columns: Option<&[&'static str]>) -> f64 {
    let n = data.num_rows();
    if n == 0 {
        return 0.0;
    }
    let selected: Vec<&ColumnData> = match columns {
        Some(names) => names.iter().map(|name| data.column(name)).collect(),
        None => data.columns.iter().collect(),
    };
    let stride = (n / 4096).max(1);
    let sample = (0..n).step_by(stride);
    let count = sample.len();
    let total: usize = sample.map(|i| columns_row_size(&selected, i)).sum();
    total as f64 / count as f64
}

/// The planner's catalog: per-table statistics plus design-level sizes.
#[derive(Debug, PartialEq)]
pub struct Catalog {
    /// LINEORDER statistics (value stats from the logical table, encoded
    /// bytes from the sorted fact projection).
    pub fact: TableStats,
    dims: FxHashMap<Dim, TableStats>,
    /// Row-design size estimates.
    pub row_sizes: RowSizes,
    /// Fraction of DATE rows per calendar year, for partition pruning
    /// estimates (year → fraction).
    year_fractions: Vec<(i64, f64)>,
}

impl Catalog {
    /// Build the catalog from a [`ColumnEngine`]'s compressed store, which
    /// also recorded every column's uncompressed size when it was encoded:
    /// planning never makes the engine build its uncompressed store.
    ///
    /// Each column's statistics are one job of a [`Jobs`] list, run on the
    /// engine's build workers: every job reads only its own column, so the
    /// catalog is the same at any worker count.
    pub fn build(engine: &ColumnEngine) -> Catalog {
        let comp: &CStoreDb = engine.db(EngineConfig::FULL);
        let tables = comp.tables();

        // Longest first: the fact columns, then the dimensions by size.
        let mut jobs = Jobs::new();
        let fact = TableStats::add_jobs(&mut jobs, &tables.lineorder, &comp.fact);
        let mut by_size = Dim::ALL;
        by_size.sort_by_key(|&d| std::cmp::Reverse(tables.dim(d).num_rows()));
        let dims: Vec<_> = by_size
            .iter()
            .map(|&d| (d, TableStats::add_jobs(&mut jobs, tables.dim(d), &comp.dim(d).store)))
            .collect();
        jobs.run(engine.parallelism().threads);
        let fact = fact();
        let dims: FxHashMap<Dim, TableStats> =
            dims.into_iter().map(|(d, finish)| (d, finish())).collect();

        // Row-design sizes from sampled record lengths. Heap pages carry
        // slack (records never span pages); 32 KB pages over ~40-90 B rows
        // make that under 0.3%, so the mean-record estimate is plenty.
        let fact_row_bytes = mean_record_bytes(&tables.lineorder, None);
        let fact_heap_bytes = (fact_row_bytes * tables.lineorder.num_rows() as f64) as u64;
        let dim_heap_bytes = Dim::ALL
            .iter()
            .map(|&d| {
                let t = tables.dim(d);
                (d, (mean_record_bytes(t, None) * t.num_rows() as f64) as u64)
            })
            .collect();
        let mut mv_view_bytes = [0u64; 4];
        for flight in 1..=4u8 {
            // The columns each MV view holds, which its gate reads too.
            let columns = flight_fact_columns(flight).expect("a paper flight");
            let mean = mean_record_bytes(&tables.lineorder, Some(columns));
            mv_view_bytes[(flight - 1) as usize] =
                (mean * tables.lineorder.num_rows() as f64) as u64;
        }

        // Per-year DATE fractions for partition pruning estimates.
        let years = tables.date.column("d_year").ints();
        let mut counts: FxHashMap<i64, u64> = FxHashMap::default();
        with_plain_values!(years, |ys| for y in ys {
            *counts.entry(y.widen()).or_default() += 1;
        });
        let total = years.len() as f64;
        let mut year_fractions: Vec<(i64, f64)> =
            counts.into_iter().map(|(y, c)| (y, c as f64 / total)).collect();
        year_fractions.sort_unstable_by_key(|&(y, _)| y);

        Catalog {
            fact,
            dims,
            row_sizes: RowSizes { fact_heap_bytes, dim_heap_bytes, mv_view_bytes, fact_row_bytes },
            year_fractions,
        }
    }

    /// The catalog as bytes: every field exactly, `f64`s by their bits, each
    /// table's columns by name. [`Catalog::from_bytes`] reads it back equal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let tables = std::iter::once(&self.fact).chain(Dim::ALL.iter().map(|&d| self.dim(d)));
        for table in tables {
            put_str(&mut out, &table.name);
            put_u64(&mut out, table.rows);
            let mut cols: Vec<&ColumnStats> = table.cols.values().collect();
            cols.sort_unstable_by(|a, b| a.name.cmp(&b.name));
            put_u32(&mut out, cols.len() as u32);
            cols.into_iter().for_each(|c| c.put(&mut out));
        }
        let sizes = &self.row_sizes;
        put_u64(&mut out, sizes.fact_heap_bytes);
        Dim::ALL.iter().for_each(|d| put_u64(&mut out, sizes.dim_heap_bytes[d]));
        sizes.mv_view_bytes.iter().for_each(|&b| put_u64(&mut out, b));
        put_u64(&mut out, sizes.fact_row_bytes.to_bits());
        put_u32(&mut out, self.year_fractions.len() as u32);
        for &(year, fraction) in &self.year_fractions {
            put_i64(&mut out, year);
            put_u64(&mut out, fraction.to_bits());
        }
        out
    }

    /// Read back what [`Catalog::to_bytes`] wrote; bytes it did not write
    /// fail typed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Catalog, PersistError> {
        let mut r = Reader::new(bytes);
        let table = |r: &mut Reader<'_>| -> Result<TableStats, PersistError> {
            let name = take_str(r)?;
            let rows = r.u64()?;
            let n = r.u32()?;
            let mut cols = FxHashMap::default();
            for _ in 0..n {
                let c = ColumnStats::take(r)?;
                cols.insert(c.name.clone(), c);
            }
            Ok(TableStats { name, rows, cols })
        };
        let fact = table(&mut r)?;
        let mut dims = FxHashMap::default();
        for d in Dim::ALL {
            dims.insert(d, table(&mut r)?);
        }
        let fact_heap_bytes = r.u64()?;
        let mut dim_heap_bytes = HashMap::new();
        for d in Dim::ALL {
            dim_heap_bytes.insert(d, r.u64()?);
        }
        let mut mv_view_bytes = [0u64; 4];
        for b in &mut mv_view_bytes {
            *b = r.u64()?;
        }
        let fact_row_bytes = f64::from_bits(r.u64()?);
        let years = r.u32()?;
        let mut year_fractions = Vec::new();
        for _ in 0..years {
            year_fractions.push((r.i64()?, f64::from_bits(r.u64()?)));
        }
        r.done()?;
        Ok(Catalog {
            fact,
            dims,
            row_sizes: RowSizes { fact_heap_bytes, dim_heap_bytes, mv_view_bytes, fact_row_bytes },
            year_fractions,
        })
    }

    /// Statistics of dimension `d`.
    pub fn dim(&self, d: Dim) -> &TableStats {
        &self.dims[&d]
    }

    /// Fraction of DATE rows per calendar year, ascending by year.
    pub fn year_fractions(&self) -> &[(i64, f64)] {
        &self.year_fractions
    }

    /// Number of fact rows.
    pub fn fact_rows(&self) -> u64 {
        self.fact.rows
    }

    /// Estimated fraction of dimension `d`'s rows matching all of `q`'s
    /// predicates on it (independence across predicates; 1.0 when
    /// unrestricted).
    pub fn dim_selectivity(&self, q: &SsbQuery, d: Dim) -> f64 {
        let stats = self.dim(d);
        q.dim_predicates
            .iter()
            .filter(|p| p.dim == d)
            .map(|p| stats.column(p.column).estimate(&p.pred))
            .product()
    }

    /// Estimated fraction of fact rows matching one fact predicate.
    pub fn fact_pred_selectivity(&self, p: &FactPredicate) -> f64 {
        self.fact.column(p.column).estimate(&p.pred)
    }

    /// Estimated LINEORDER selectivity of `q`: dimension fractions carry to
    /// the fact table through uniform foreign keys, fact predicates apply
    /// directly, independence across all of them — the Section 3
    /// arithmetic, but driven by histograms over the generated data.
    pub fn selectivity(&self, q: &SsbQuery) -> f64 {
        let dims: f64 = Dim::ALL.iter().map(|&d| self.dim_selectivity(q, d)).product();
        let facts: f64 = q.fact_predicates.iter().map(|p| self.fact_pred_selectivity(p)).product();
        dims * facts
    }

    /// Whether `q`'s estimate rests on enough data to be statistically
    /// meaningful: every restricted dimension must have at least ~8
    /// expected matching rows in its (possibly tiny, scale-factor-shrunk)
    /// table. Below that, the *true* fraction in the generated data is
    /// itself dominated by sampling noise — e.g. two specific cities out of
    /// 250 over a 100-row SUPPLIER table — and neither the estimate nor the
    /// paper-quoted number describes the actual dataset.
    pub fn stats_supported(&self, q: &SsbQuery) -> bool {
        q.restricted_dims()
            .iter()
            .all(|&d| self.dim_selectivity(q, d) * self.dim(d).rows as f64 >= 8.0)
    }

    /// Estimated fraction of `orderdate` partitions (years) a traditional
    /// scan must touch: 1.0 without a DATE restriction, else the estimated
    /// share of DATE rows matching the date predicates, rounded *up* to
    /// whole years (a partition is scanned entirely if any of its days
    /// qualify).
    pub fn year_fraction(&self, q: &SsbQuery) -> f64 {
        self.year_fraction_at(self.dim_selectivity(q, Dim::Date))
    }

    /// [`Catalog::year_fraction`] of a statement whose DATE selectivity is
    /// `sel`.
    pub(crate) fn year_fraction_at(&self, sel: f64) -> f64 {
        if sel >= 1.0 {
            return 1.0;
        }
        // A restriction selecting fraction `sel` of days touches at least
        // ⌈sel × years⌉ partitions; clamp to one partition minimum.
        let years = self.year_fractions.len() as f64;
        ((sel * years).ceil() / years).clamp(1.0 / years, 1.0)
    }

    /// Whether `q`'s predicates on `d` are *likely* rewritable to a
    /// contiguous key range (between-predicate rewriting): single Eq /
    /// Between predicates on the dimension's sort-hierarchy columns produce
    /// contiguous position runs under hierarchy sorting.
    pub fn likely_contiguous(&self, q: &SsbQuery, d: Dim) -> bool {
        let preds = || q.dim_predicates.iter().filter(|p| p.dim == d);
        let count = preds().count();
        if count == 0 {
            return false;
        }
        let hierarchy = dim_sort_columns(d);
        // DATE is sorted by datekey; year/month predicates still select
        // contiguous datekey ranges because the calendar ascends with the
        // key.
        let date_contig = ["d_year", "d_yearmonthnum", "d_yearmonth", "d_datekey"];
        preds().all(|p| {
            let on_hierarchy = if d == Dim::Date {
                date_contig.contains(&p.column)
            } else {
                hierarchy.contains(&p.column)
            };
            on_hierarchy && matches!(p.pred, Pred::Eq(_) | Pred::Between(..))
        }) && (count == 1 || d == Dim::Date)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query};
    use std::sync::Arc;

    fn catalog() -> &'static Catalog {
        static CAT: std::sync::OnceLock<Catalog> = std::sync::OnceLock::new();
        CAT.get_or_init(|| {
            let tables = Arc::new(SsbConfig { sf: 0.05, seed: 7 }.generate());
            Catalog::build(&ColumnEngine::new(tables))
        })
    }

    #[test]
    fn bitset_and_sorted_ndv_agree_on_seeded_columns() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as i64
        };
        // (length, lowest value, span): narrow and wide spans, negative
        // values, and columns long enough that the sample strides past rows.
        let shapes: [(usize, i64, i64); 7] = [
            (1, 5, 1),
            (1_000, 0, 50),
            (5_000, -1_000, 3_000),
            (20_000, i64::MIN / 2, 1 << 20),
            (3_000, -7, 10_000_000),
            (2 * NDV_SAMPLE + 17, 19_920_101, 2_557),
            (3 * NDV_SAMPLE + 5, -500_000, 1_000_000),
        ];
        for (n, base, span) in shapes {
            let values: Vec<i64> = (0..n).map(|_| base + next().rem_euclid(span)).collect();
            let (lo, hi) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
            let stride = (n / NDV_SAMPLE).max(1);
            let sample = || values.iter().step_by(stride).copied();
            let sorted = ndv_sorted(sample());
            let width = hi.abs_diff(lo) + 1;
            assert_eq!(ndv_bitset(sample(), lo, width), sorted, "n {n}, span {span}");
            assert_eq!(sample_ndv(&values, lo, hi), sorted, "n {n}, span {span}");
            // A bitset over a wider range than the sample's counts the same.
            assert_eq!(ndv_bitset(sample(), lo - 3, width + 70), sorted, "n {n}, span {span}");
        }
        assert_eq!(sample_ndv::<i64>(&[], i64::MAX, i64::MIN), 0);
    }

    #[test]
    fn row_sizes_match_the_materialized_row_formula() {
        use cvr_storage::rowcodec::encoded_size;
        // The formula the sizes replaced: project the columns out as a
        // table, then materialize each sampled row.
        fn materialized_mean(data: &TableData, columns: Option<&[&'static str]>) -> f64 {
            let n = data.num_rows();
            let projected;
            let data = match columns {
                Some(cols) => {
                    projected = data.project(cols);
                    &projected
                }
                None => data,
            };
            let stride = (n / 4096).max(1);
            let (mut total, mut count, mut i) = (0usize, 0usize, 0);
            while i < n {
                total += encoded_size(&data.row(i));
                count += 1;
                i += stride;
            }
            total as f64 / count as f64
        }
        let tables = Arc::new(SsbConfig { sf: 0.01, seed: 3 }.generate());
        let got = Catalog::build(&ColumnEngine::new(tables.clone())).row_sizes;
        let fact = &tables.lineorder;
        let rows = fact.num_rows() as f64;
        let fact_row_bytes = materialized_mean(fact, None);
        let want = RowSizes {
            fact_heap_bytes: (fact_row_bytes * rows) as u64,
            dim_heap_bytes: Dim::ALL
                .iter()
                .map(|&d| {
                    let t = tables.dim(d);
                    (d, (materialized_mean(t, None) * t.num_rows() as f64) as u64)
                })
                .collect(),
            mv_view_bytes: std::array::from_fn(|f| {
                let columns = flight_fact_columns(f as u8 + 1).unwrap();
                (materialized_mean(fact, Some(columns)) * rows) as u64
            }),
            fact_row_bytes,
        };
        assert_eq!(got, want);
    }

    #[test]
    fn histogram_fractions_are_sane() {
        let values: Vec<i64> = (0..10_000).map(|i| i % 50 + 1).collect();
        let h = Histogram::build(&values).unwrap();
        let lt25 = h.fraction_le(24);
        assert!((lt25 - 0.48).abs() < 0.05, "P(q<25) ~ 0.48, got {lt25}");
        let between = h.fraction_range(26, 35);
        assert!((between - 0.2).abs() < 0.05, "P(26<=q<=35) ~ 0.2, got {between}");
        assert_eq!(h.fraction_range(100, 200), 0.0);
        assert_eq!(h.fraction_le(50), 1.0);
    }

    #[test]
    fn encoded_bytes_come_from_real_storage() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 11 }.generate());
        let engine = ColumnEngine::new(tables);
        let cat = Catalog::build(&engine);
        let quantity = cat.fact.column("lo_quantity");
        assert_eq!(
            quantity.compressed_bytes,
            engine.db(EngineConfig::FULL).fact.column("lo_quantity").bytes()
        );
        assert_eq!(
            quantity.plain_bytes,
            engine.db(EngineConfig::parse("tIcl")).fact.column("lo_quantity").bytes()
        );
        assert!(quantity.compressed_bytes < quantity.plain_bytes);
        assert_eq!(quantity.encoding, EncodingKind::Packed);
        // The sorted fact leads with orderdate: RLE with recorded run count.
        let od = cat.fact.column("lo_orderdate");
        assert_eq!(od.encoding, EncodingKind::Rle);
        assert!(od.rle_runs.unwrap() > 0 && od.rle_runs.unwrap() < od.rows);
    }

    #[test]
    fn string_frequency_tables_are_exact() {
        let cat = catalog();
        let region = cat.dim(Dim::Customer).column("c_region");
        let est = region.estimate(&Pred::Eq(Value::str("ASIA")));
        assert!((est - 0.2).abs() < 0.08, "region fraction ~1/5, got {est}");
        assert_eq!(region.estimate(&Pred::Eq(Value::str("ATLANTIS"))), 0.0);
    }

    #[test]
    fn per_query_selectivities_track_paper() {
        let cat = catalog();
        let mut supported = 0;
        for q in all_queries() {
            let est = cat.selectivity(&q);
            let paper = q.paper_selectivity;
            if !cat.stats_supported(&q) {
                // Dimension too small at this scale factor for the paper
                // number to describe the generated data (see
                // `Catalog::stats_supported`); the estimate still must not
                // be wildly off the mark.
                assert!(est <= paper * 40.0 + 1e-4, "{}: {est:.2e} vs {paper:.2e}", q.id);
                continue;
            }
            supported += 1;
            assert!(
                est <= paper * 2.5 + 5e-5 && est >= paper / 2.5 - 5e-7,
                "{}: estimated {est:.2e} vs paper {paper:.2e}",
                q.id
            );
        }
        assert!(supported >= 8, "only {supported}/13 queries statistically checkable");
    }

    #[test]
    fn year_fraction_prunes_partitions() {
        let cat = catalog();
        let f11 = cat.year_fraction(&query(1, 1)); // d_year = 1993
        assert!(f11 < 0.2, "one of seven years, got {f11}");
        let f21 = cat.year_fraction(&query(2, 1)); // no date restriction
        assert_eq!(f21, 1.0);
        let f31 = cat.year_fraction(&query(3, 1)); // 6 of 7 years
        assert!(f31 > 0.75 && f31 <= 1.0, "six of seven years, got {f31}");
    }

    #[test]
    fn contiguity_prediction_matches_plan_shapes() {
        let cat = catalog();
        assert!(cat.likely_contiguous(&query(3, 1), Dim::Customer)); // region Eq
        assert!(cat.likely_contiguous(&query(1, 1), Dim::Date)); // year Eq
        assert!(cat.likely_contiguous(&query(4, 1), Dim::Customer));
        assert!(!cat.likely_contiguous(&query(3, 3), Dim::Customer)); // city InSet
        assert!(!cat.likely_contiguous(&query(2, 1), Dim::Date)); // unrestricted
    }
}
