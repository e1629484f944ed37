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
//!   fractions where the paper's queries live;
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
use cvr_data::queries::{FactPredicate, Pred, SsbQuery};
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, TableData};
use cvr_data::value::Value;
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::rowcodec::encoded_size;
use cvr_storage::StoredColumn;

/// Histogram bucket count.
const HIST_BUCKETS: usize = 64;
/// Sample-size caps keeping catalog builds cheap at large scale factors.
const HIST_SAMPLE: usize = 65_536;
const NDV_SAMPLE: usize = 262_144;
/// NDV ceiling for exact string frequency tables.
const STR_FREQ_MAX_NDV: usize = 4_096;

/// Equi-depth histogram over an integer column.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries, ascending; `bounds[k]..=bounds[k+1]` holds an
    /// equal share of the sampled values.
    bounds: Vec<i64>,
}

impl Histogram {
    fn build(values: &[i64]) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        // Deterministic stride sample, then sort.
        let stride = (values.len() / HIST_SAMPLE).max(1);
        let mut sample: Vec<i64> = values.iter().step_by(stride).copied().collect();
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
#[derive(Debug, Clone)]
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
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for &x in v.iter() {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                let stride = (v.len() / NDV_SAMPLE).max(1);
                let distinct: std::collections::HashSet<i64> =
                    v.iter().step_by(stride).copied().collect();
                let ndv = distinct.len() as u64;
                let (min, max) = if v.is_empty() { (None, None) } else { (Some(lo), Some(hi)) };
                (min, max, Histogram::build(v), ndv.max(1), None)
            }
            ColumnData::Str(v) => {
                let mut freqs: HashMap<&str, u64> = HashMap::new();
                for s in v.iter() {
                    *freqs.entry(s.as_str()).or_default() += 1;
                }
                let ndv = freqs.len() as u64;
                let table = if freqs.len() <= STR_FREQ_MAX_NDV {
                    let mut t: Vec<(Box<str>, u64)> =
                        freqs.into_iter().map(|(s, c)| (Box::from(s), c)).collect();
                    t.sort();
                    Some(t)
                } else {
                    None
                };
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
            let matched: u64 = freqs
                .iter()
                .filter(|(v, _)| pred.matches(&Value::Str(v.clone())))
                .map(|(_, c)| c)
                .sum();
            return matched as f64 / self.rows as f64;
        }
        match pred {
            Pred::Eq(v) => match (v, self.min, self.max) {
                (Value::Int(x), Some(lo), Some(hi)) if *x >= lo && *x <= hi => {
                    1.0 / self.ndv as f64
                }
                (Value::Int(_), _, _) => 0.0,
                // String column without a frequency table: uniform over NDV.
                (Value::Str(_), _, _) => 1.0 / self.ndv as f64,
            },
            Pred::InSet(vs) => {
                vs.iter().map(|v| self.estimate(&Pred::Eq(v.clone()))).sum::<f64>().min(1.0)
            }
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
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    cols: HashMap<String, ColumnStats>,
}

impl TableStats {
    fn build(data: &TableData, comp: &cvr_storage::ColumnStore) -> TableStats {
        let cols = data
            .schema
            .columns
            .iter()
            .zip(&data.columns)
            .map(|(def, col)| {
                (
                    def.name.to_string(),
                    ColumnStats::build(
                        def.name,
                        col,
                        comp.column(def.name),
                        comp.plain_bytes(def.name),
                    ),
                )
            })
            .collect();
        TableStats { name: data.schema.name.to_string(), rows: data.num_rows() as u64, cols }
    }

    /// Stats for `column`, panicking on unknown names (queries are checked
    /// against the schema before they reach the planner).
    pub fn column(&self, column: &str) -> &ColumnStats {
        self.cols.get(column).unwrap_or_else(|| panic!("no statistics for {}.{column}", self.name))
    }

    /// Sum of encoded bytes over `columns` at one compression setting.
    pub fn bytes_of(&self, columns: &[&str], compressed: bool) -> u64 {
        columns.iter().map(|c| self.column(c).bytes(compressed)).sum()
    }
}

/// Approximate on-disk sizes of the row-engine physical designs, derived
/// from sampled `rowcodec` record lengths (the same codec the heaps use).
#[derive(Debug, Clone)]
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

/// Mean `rowcodec` record bytes over a deterministic row sample.
fn mean_record_bytes(data: &TableData, columns: Option<&[&'static str]>) -> f64 {
    let n = data.num_rows();
    if n == 0 {
        return 0.0;
    }
    let projected;
    let data = match columns {
        Some(cols) => {
            projected = data.project(cols);
            &projected
        }
        None => data,
    };
    let stride = (n / 4096).max(1);
    let mut total = 0usize;
    let mut count = 0usize;
    let mut i = 0;
    while i < n {
        total += encoded_size(&data.row(i));
        count += 1;
        i += stride;
    }
    total as f64 / count as f64
}

/// The planner's catalog: per-table statistics plus design-level sizes.
pub struct Catalog {
    /// LINEORDER statistics (value stats from the logical table, encoded
    /// bytes from the sorted fact projection).
    pub fact: TableStats,
    dims: HashMap<Dim, TableStats>,
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
    pub fn build(engine: &ColumnEngine) -> Catalog {
        let comp: &CStoreDb = engine.db(EngineConfig::FULL);
        let tables = &comp.tables;

        let fact = TableStats::build(&tables.lineorder, &comp.fact);
        let dims: HashMap<Dim, TableStats> = Dim::ALL
            .iter()
            .map(|&d| (d, TableStats::build(tables.dim(d), &comp.dim(d).store)))
            .collect();

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
            // One shared view definition with the enumerator's MV gate.
            let columns = crate::enumerate::mv_view_columns(flight);
            let mean = mean_record_bytes(&tables.lineorder, Some(columns));
            mv_view_bytes[(flight - 1) as usize] =
                (mean * tables.lineorder.num_rows() as f64) as u64;
        }

        // Per-year DATE fractions for partition pruning estimates.
        let years = tables.date.column("d_year").ints();
        let mut counts: HashMap<i64, u64> = HashMap::new();
        for &y in years {
            *counts.entry(y).or_default() += 1;
        }
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

    /// Statistics of dimension `d`.
    pub fn dim(&self, d: Dim) -> &TableStats {
        &self.dims[&d]
    }

    /// Number of fact rows.
    pub fn fact_rows(&self) -> u64 {
        self.fact.rows
    }

    /// Estimated fraction of dimension `d`'s rows matching all of `q`'s
    /// predicates on it (independence across predicates; 1.0 when
    /// unrestricted).
    pub fn dim_selectivity(&self, q: &SsbQuery, d: Dim) -> f64 {
        q.dim_predicates_on(d)
            .iter()
            .map(|p| self.dim(d).column(p.column).estimate(&p.pred))
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
        let sel = self.dim_selectivity(q, Dim::Date);
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
        let preds = q.dim_predicates_on(d);
        if preds.is_empty() {
            return false;
        }
        let hierarchy = dim_sort_columns(d);
        // DATE is sorted by datekey; year/month predicates still select
        // contiguous datekey ranges because the calendar ascends with the
        // key.
        let date_contig = ["d_year", "d_yearmonthnum", "d_yearmonth", "d_datekey"];
        preds.iter().all(|p| {
            let on_hierarchy = if d == Dim::Date {
                date_contig.contains(&p.column)
            } else {
                hierarchy.contains(&p.column)
            };
            on_hierarchy && matches!(p.pred, Pred::Eq(_) | Pred::Between(..))
        }) && (preds.len() == 1 || d == Dim::Date)
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
