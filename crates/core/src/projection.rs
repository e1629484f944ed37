//! C-Store physical layout: sorted projections with reassigned keys.
//!
//! Section 5.4.2's between-predicate rewriting needs two properties the
//! paper calls out explicitly, both established here at load time:
//!
//! 1. **Hierarchy-sorted dimensions.** CUSTOMER and SUPPLIER are sorted by
//!    (region, nation, city), PART by (mfgr, category, brand1), DATE by
//!    datekey — "sorting from left-to-right will result in predicates on
//!    any of those three columns producing a contiguous range output".
//! 2. **Key reassignment by dictionary encoding.** After sorting, the
//!    CUSTOMER/SUPPLIER/PART keys are rewritten to the dense sequence
//!    `0..n`, and the fact table's foreign keys are rewritten through the
//!    same dictionary — so a foreign key *is* the dimension row position
//!    and phase 3 of the invisible join becomes "a fast array look-up".
//!    DATE keeps its `yyyymmdd` keys (not dense), exactly the case where
//!    the paper says a real join must be performed.
//!
//! The fact projection is sorted by (orderdate, quantity, discount): "only
//! one of the seventeen columns in the fact table can be sorted (and two
//! others secondarily sorted)".

use std::collections::HashMap;
use std::sync::Arc;

use crate::morsel::Parallelism;
use cvr_data::gen::SsbTables;
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, TableData};
use cvr_storage::column::{ColumnStore, EncodingChoice};
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::par::{Jobs, Slot};

/// Sort hierarchy per dimension (leading columns of the projection).
pub fn dim_sort_columns(dim: Dim) -> &'static [&'static str] {
    match dim {
        Dim::Customer => &["c_region", "c_nation", "c_city", "c_custkey"],
        Dim::Supplier => &["s_region", "s_nation", "s_city", "s_suppkey"],
        Dim::Part => &["p_mfgr", "p_category", "p_brand1", "p_partkey"],
        Dim::Date => &["d_datekey"],
    }
}

/// Fact projection sort order.
pub const FACT_SORT: [&str; 3] = ["lo_orderdate", "lo_quantity", "lo_discount"];

/// One dimension's storage.
pub struct DimStore {
    /// Encoded, hierarchy-sorted columns.
    pub store: ColumnStore,
    /// Sorted logical data (used by tuple construction paths).
    pub sorted: TableData,
    /// True when keys were reassigned to the dense sequence `0..n`.
    pub dense_keys: bool,
}

/// The C-Store database: fact + dimension projections at one compression
/// setting.
pub struct CStoreDb {
    /// The logical tables this store was built from. Nothing here executes
    /// against them: `cvr-plan`'s catalog reads them for value histograms,
    /// and tests evaluate the reference answer over them. The `Arc` is the
    /// one the serving tier's store also holds (row-design builds and
    /// `SNAPSHOT` read it there), so a store pins no second copy.
    pub tables: Arc<SsbTables>,
    /// Whether RLE/dictionary encodings were applied.
    pub compression: bool,
    /// The fact projection, sorted by [`FACT_SORT`], FKs remapped.
    pub fact: ColumnStore,
    dims: HashMap<Dim, DimStore>,
}

/// Sort permutation of `table` by `columns` (lexicographic, ascending; ties
/// keep source order).
pub fn sort_permutation(table: &TableData, columns: &[&str]) -> Vec<u32> {
    let cols: Vec<&ColumnData> = columns.iter().map(|c| table.column(c)).collect();
    if let Some(perm) = packed_sort_permutation(&cols, table.num_rows()) {
        return perm;
    }
    let mut perm: Vec<u32> = (0..table.num_rows() as u32).collect();
    perm.sort_by(|&a, &b| {
        for c in &cols {
            let ord = match c {
                ColumnData::Int(v) => v[a as usize].cmp(&v[b as usize]),
                ColumnData::Str(v) => v[a as usize].cmp(&v[b as usize]),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    });
    perm
}

/// [`sort_permutation`] over integer columns whose value ranges, with the
/// row number below them, fit one `u64` (the fact order: 16 + 6 + 4 bits of
/// date, quantity and discount): sort the packed words, not the rows — no
/// comparator, no scattered reads.
fn packed_sort_permutation(cols: &[&ColumnData], n: usize) -> Option<Vec<u32>> {
    let bits_of = |span: u64| 64 - span.leading_zeros();
    let row_bits = bits_of(n as u64);
    let mut used = row_bits;
    let mut fields: Vec<(&[i64], i64, u32)> = Vec::with_capacity(cols.len());
    for col in cols {
        let ColumnData::Int(values) = col else { return None };
        let (min, max) = (*values.iter().min()?, *values.iter().max()?);
        let bits = bits_of(max.checked_sub(min)? as u64);
        used += bits;
        fields.push((values, min, bits));
    }
    if used > 64 {
        return None;
    }
    let pack = |row: usize| {
        let key = fields.iter().fold(0u64, |k, (v, min, bits)| k << bits | (v[row] - min) as u64);
        key << row_bits | row as u64
    };
    let mut keys: Vec<u64> = (0..n).map(pack).collect();
    keys.sort_unstable();
    let row_mask = (1u64 << row_bits) - 1;
    Some(keys.into_iter().map(|k| (k & row_mask) as u32).collect())
}

/// A dense dimension's key reassignment, old key → new key (= sorted row
/// position), as an array indexed by `old - base`: the fact table's foreign
/// keys go through it once per row.
struct KeyRemap {
    base: i64,
    new_keys: Vec<i64>,
}

impl KeyRemap {
    /// `old_keys[p]` is the original key of the row now at position `p`.
    fn new(old_keys: &[i64]) -> KeyRemap {
        let base = old_keys.iter().copied().min().unwrap_or(0);
        let span = old_keys.iter().copied().max().map_or(0, |max| (max - base) as usize + 1);
        let mut new_keys = vec![-1; span];
        for (pos, &old) in old_keys.iter().enumerate() {
            new_keys[(old - base) as usize] = pos as i64;
        }
        KeyRemap { base, new_keys }
    }

    fn get(&self, old: i64) -> i64 {
        let new = self.new_keys[(old - self.base) as usize];
        assert!(new >= 0, "foreign key {old} has no dimension row");
        new
    }
}

/// Hierarchy-sort one dimension and, when its keys are dense, rewrite them
/// to `0..n`, returning the rewrite for the fact side.
fn sort_dimension(src: &TableData, d: Dim) -> (TableData, Option<KeyRemap>) {
    let mut sorted = src.permuted(&sort_permutation(src, dim_sort_columns(d)));
    if !d.dense_keys() {
        return (sorted, None);
    }
    let key_idx = sorted.schema.col(d.key_column());
    let dense = ColumnData::Int((0..sorted.num_rows() as i64).collect());
    let old_keys = std::mem::replace(&mut sorted.columns[key_idx], dense);
    (sorted, Some(KeyRemap::new(old_keys.ints())))
}

/// Encode the column whose row `j` is `data[perm[j]]` (integers through
/// `remap`, when given), with its uncompressed size. Integers are gathered
/// into the one buffer the encoder then owns; strings are dictionary-coded
/// where they lie and permuted as codes.
fn encode_gathered(
    data: &ColumnData,
    perm: &[u32],
    remap: Option<&KeyRemap>,
    compress: bool,
) -> (Column, u64) {
    match data {
        ColumnData::Int(src) => {
            let values: Vec<i64> = match remap {
                Some(remap) => perm.iter().map(|&p| remap.get(src[p as usize])).collect(),
                None => perm.iter().map(|&p| src[p as usize]).collect(),
            };
            let plain = IntColumn::plain_fixed_bytes(&values);
            (Column::Int(IntColumn::encode(values, compress)), plain)
        }
        ColumnData::Str(src) => {
            let rows = perm.iter().map(|&p| p as usize);
            (Column::Str(StrColumn::encode_rows(src, rows, compress)), StrColumn::plain_bytes(src))
        }
    }
}

impl CStoreDb {
    /// Build projections over `tables` at the given compression setting, at
    /// the process-default parallelism ([`Parallelism::from_env`]).
    pub fn build(tables: Arc<SsbTables>, compression: bool) -> CStoreDb {
        CStoreDb::build_with(tables, compression, Parallelism::from_env())
    }

    /// Build projections over `tables` on up to `par.threads` workers.
    ///
    /// No table is copied to be sorted: the orders are computed first, then
    /// every column is gathered through its table's order straight into its
    /// encoder, one column per job. Jobs only encode; storage identities
    /// ([`cvr_storage::io::FileId`]s) are handed out afterwards, in schema
    /// order, so the store is the same bytes and ids at every thread count.
    pub fn build_with(tables: Arc<SsbTables>, compression: bool, par: Parallelism) -> CStoreDb {
        let choice = if compression { EncodingChoice::Auto } else { EncodingChoice::Plain };
        let fact_src = &tables.lineorder;

        // Orders. The fact order reads the three sort columns of the source
        // — none of them a reassigned key — so it runs beside the
        // dimension sorts.
        let mut jobs = Jobs::new();
        let fact_perm = jobs.add(|| sort_permutation(fact_src, &FACT_SORT));
        let sorted_dims: Vec<_> = Dim::ALL
            .iter()
            .map(|&d| {
                let src = tables.dim(d);
                jobs.add(move || sort_dimension(src, d))
            })
            .collect();
        jobs.run(par.threads);
        let fact_perm = fact_perm.take();
        let sorted_dims: Vec<(TableData, Option<KeyRemap>)> =
            sorted_dims.into_iter().map(Slot::take).collect();

        // Encoding: one job per fact column (foreign keys through their
        // dimension's reassignment), one per dimension table.
        let remap_of = |column: &str| {
            let mut dims = Dim::ALL.iter().zip(&sorted_dims);
            dims.find(|(d, _)| d.fact_fk_column() == column).and_then(|(_, (_, r))| r.as_ref())
        };
        let mut jobs = Jobs::new();
        let fact_columns: Vec<_> = fact_src
            .schema
            .columns
            .iter()
            .zip(&fact_src.columns)
            .map(|(def, data)| {
                let (perm, remap) = (&fact_perm, remap_of(def.name));
                (def.name, jobs.add(move || encode_gathered(data, perm, remap, compression)))
            })
            .collect();
        let dim_columns: Vec<_> = sorted_dims
            .iter()
            .map(|(sorted, _)| jobs.add(move || ColumnStore::encode_columns(sorted, choice)))
            .collect();
        jobs.run(par.threads);

        // Storage identities, in the order a serial build hands them out:
        // the dimensions, then the fact columns.
        let dim_columns: Vec<_> = dim_columns.into_iter().map(Slot::take).collect();
        let dims = Dim::ALL.into_iter().zip(sorted_dims).zip(dim_columns);
        let dims = dims
            .map(|((d, (sorted, _)), columns)| {
                let store =
                    ColumnStore::from_encoded(sorted.schema.name, sorted.num_rows(), columns);
                (d, DimStore { store, sorted, dense_keys: d.dense_keys() })
            })
            .collect();
        let fact_columns = fact_columns.into_iter().map(|(name, encoded)| {
            let (column, plain_bytes) = encoded.take();
            (name, column, plain_bytes)
        });
        let fact =
            ColumnStore::from_encoded(fact_src.schema.name, fact_src.num_rows(), fact_columns);

        CStoreDb { tables, compression, fact, dims }
    }

    /// Dimension storage.
    pub fn dim(&self, d: Dim) -> &DimStore {
        &self.dims[&d]
    }

    /// Number of fact rows.
    pub fn fact_rows(&self) -> usize {
        self.fact.num_rows()
    }

    /// Total encoded bytes of the fact projection.
    pub fn fact_bytes(&self) -> u64 {
        self.fact.bytes()
    }

    /// Total encoded bytes including dimensions.
    pub fn total_bytes(&self) -> u64 {
        self.fact.bytes() + Dim::ALL.iter().map(|d| self.dims[d].store.bytes()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;

    fn db(compression: bool) -> CStoreDb {
        CStoreDb::build(Arc::new(SsbConfig { sf: 0.001, seed: 11 }.generate()), compression)
    }

    #[test]
    fn dims_sorted_by_hierarchy() {
        let db = db(true);
        let cust = &db.dim(Dim::Customer).sorted;
        let regions = cust.column("c_region").strs();
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "regions must be sorted");
        // Within a region, nations sorted.
        let nations = cust.column("c_nation").strs();
        for i in 1..cust.num_rows() {
            if regions[i - 1] == regions[i] {
                assert!(nations[i - 1] <= nations[i]);
            }
        }
    }

    #[test]
    fn dense_keys_are_positions() {
        let db = db(true);
        for d in [Dim::Customer, Dim::Supplier, Dim::Part] {
            let keys = db.dim(d).sorted.column(d.key_column()).ints();
            for (p, &k) in keys.iter().enumerate() {
                assert_eq!(k, p as i64, "{d:?} key must equal its position");
            }
            assert!(db.dim(d).dense_keys);
        }
        // DATE keys stay yyyymmdd.
        let dk = db.dim(Dim::Date).sorted.column("d_datekey").ints();
        assert_eq!(dk[0], 19920101);
        assert!(!db.dim(Dim::Date).dense_keys);
    }

    #[test]
    fn fact_fks_reference_remapped_dims() {
        let db = db(true);
        let n_cust = db.dim(Dim::Customer).sorted.num_rows() as i64;
        let fks = db.fact.column("lo_custkey");
        let decoded = fks.column.as_int().decode();
        assert!(decoded.iter().all(|&k| k >= 0 && k < n_cust));
    }

    #[test]
    fn fk_remap_preserves_join_semantics() {
        // Joining through remapped keys must relate the same logical rows:
        // check via customer city strings.
        let tables = Arc::new(SsbConfig { sf: 0.001, seed: 13 }.generate());
        let db = CStoreDb::build(tables.clone(), true);
        // Original join: row i -> custkey -> city.
        let orig_fk = tables.lineorder.column("lo_custkey").ints();
        let orig_city = tables.customer.column("c_city").strs();
        let mut expected: Vec<String> = (0..tables.lineorder.num_rows())
            .map(|i| orig_city[(orig_fk[i] - 1) as usize].clone())
            .collect();
        // Projection join: sorted fact fk == position into sorted customer.
        let new_fk = db.fact.column("lo_custkey").column.as_int().decode();
        let new_city = db.dim(Dim::Customer).sorted.column("c_city").strs();
        let mut got: Vec<String> = new_fk.iter().map(|&k| new_city[k as usize].clone()).collect();
        expected.sort();
        got.sort();
        assert_eq!(expected, got);
    }

    #[test]
    fn fact_sorted_by_orderdate_then_quantity() {
        let db = db(false);
        let od = db.fact.column("lo_orderdate").column.as_int().decode();
        assert!(od.windows(2).all(|w| w[0] <= w[1]));
        let qty = db.fact.column("lo_quantity").column.as_int().decode();
        for i in 1..od.len() {
            if od[i - 1] == od[i] {
                assert!(qty[i - 1] <= qty[i]);
            }
        }
    }

    #[test]
    fn packed_sort_is_the_comparator_sort() {
        let tables = SsbConfig { sf: 0.001, seed: 5 }.generate();
        let fact = &tables.lineorder;
        let by_rows = |columns: &[&str]| {
            let cols: Vec<&[i64]> = columns.iter().map(|c| fact.column(c).ints()).collect();
            let mut perm: Vec<u32> = (0..fact.num_rows() as u32).collect();
            perm.sort_by_key(|&r| (cols.iter().map(|c| c[r as usize]).collect::<Vec<_>>(), r));
            perm
        };
        for columns in [&FACT_SORT[..], &["lo_discount"], &["lo_revenue", "lo_orderdate"]] {
            let cols: Vec<&ColumnData> = columns.iter().map(|c| fact.column(c)).collect();
            let packed = packed_sort_permutation(&cols, fact.num_rows());
            assert_eq!(packed, Some(by_rows(columns)), "{columns:?}");
            assert_eq!(sort_permutation(fact, columns), by_rows(columns));
        }
        // Strings, and ranges too wide to pack beside a row number, take the
        // comparator.
        let cust: Vec<&ColumnData> = vec![tables.customer.column("c_region")];
        assert_eq!(packed_sort_permutation(&cust, tables.customer.num_rows()), None);
        let wide = ColumnData::Int(vec![i64::MIN, 0, i64::MAX]);
        assert_eq!(packed_sort_permutation(&[&wide], 3), None);
        let wide = ColumnData::Int(vec![1 << 62, 0, 5]);
        assert_eq!(packed_sort_permutation(&[&wide], 3), None);
    }

    #[test]
    fn compression_shrinks_sorted_columns() {
        let comp = db(true);
        let plain = db(false);
        assert!(comp.fact_bytes() < plain.fact_bytes());
        // orderdate is fully sorted: RLE must be chosen.
        assert!(comp.fact.column("lo_orderdate").column.as_int().is_rle());
        assert!(!plain.fact.column("lo_orderdate").column.as_int().is_rle());
    }

    #[test]
    fn region_predicate_selects_contiguous_dim_positions() {
        let db = db(true);
        let cust = &db.dim(Dim::Customer).sorted;
        let regions = cust.column("c_region").strs();
        let matching: Vec<usize> = (0..cust.num_rows()).filter(|&i| regions[i] == "ASIA").collect();
        if matching.len() > 1 {
            assert_eq!(matching[matching.len() - 1] - matching[0] + 1, matching.len());
        }
    }
}
