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
//!
//! One layout path builds and reads every sorted store: the [`SortOrder`]
//! is computed once, every column is gathered through its table's order
//! straight into its encoder ([`CStoreDb::build_with`]), and the logical
//! tables come back through the order's inverse ([`CStoreDb::tables`]). No
//! table is copied to be sorted.
//!
//! Every store holds its order, built or adopted alike: the uncompressed
//! store is encoded through the compressed store's, the pre-joined tables of
//! [`crate::denorm`] gather through its fact permutation, and a snapshot
//! writes it as it is ([`CStoreDb::segments`]). Nothing sorts a table after
//! the build.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::morsel::Parallelism;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::schema::{star_schema, Dim, TableSchema};
use cvr_data::table::{ColumnData, PlainInts, Strs, TableData};
use cvr_data::value::DataType;
use cvr_storage::column::{ColumnStore, StoredColumn};
use cvr_storage::encode::{Column, IntColumn, PlainValue, StrColumn};
use cvr_storage::par::{Jobs, Slot};
use cvr_storage::persist::{encode_ints_segment, encode_segment, Parts, PersistError};
use cvr_storage::with_plain_values;

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
    /// True when keys were reassigned to the dense sequence `0..n`.
    pub dense_keys: bool,
}

/// The C-Store database: fact + dimension projections at one compression
/// setting, and the order they are laid out in.
pub struct CStoreDb {
    config: SsbConfig,
    /// Where each stored row came from; shared with the stores encoded in
    /// the same order.
    order: Arc<SortOrder>,
    /// The logical tables: seeded by a build with the tables it sorted,
    /// decoded from the columns on first use otherwise; see
    /// [`CStoreDb::tables`].
    tables: OnceLock<Arc<SsbTables>>,
    /// Whether RLE/dictionary encodings were applied.
    pub compression: bool,
    /// The fact projection, sorted by [`FACT_SORT`], FKs remapped.
    pub fact: ColumnStore,
    dims: HashMap<Dim, DimStore>,
}

/// Where each stored row came from: what recovers the logical tables from a
/// store's encoded columns, exactly.
#[derive(Debug, PartialEq)]
pub struct SortOrder {
    /// The logical row at each fact position.
    fact: Vec<u32>,
    /// Per dimension, in [`Dim::ALL`] order: the logical row at each
    /// position and, when its keys were reassigned, the original key at each
    /// position.
    dims: Vec<(Vec<u32>, Option<PlainInts>)>,
}

impl SortOrder {
    /// The order [`CStoreDb::build`] stores `tables` in (the sorts are
    /// deterministic), one sort a job on up to `threads` workers.
    fn of(tables: &SsbTables, threads: usize) -> SortOrder {
        let mut jobs = Jobs::new();
        let fact = jobs.add(|| sort_permutation(&tables.lineorder, &FACT_SORT));
        let dims: Vec<_> = Dim::ALL
            .iter()
            .map(|&d| {
                let src = tables.dim(d);
                jobs.add(move || {
                    let perm = sort_permutation(src, dim_sort_columns(d));
                    let keys =
                        d.dense_keys().then(|| src.column(d.key_column()).ints().gather(&perm));
                    (perm, keys)
                })
            })
            .collect();
        jobs.run(threads);
        SortOrder { fact: fact.take(), dims: dims.into_iter().map(Slot::take).collect() }
    }
}

/// Sort permutation of `table` by `columns` (lexicographic, ascending; ties
/// keep source order).
pub fn sort_permutation(table: &TableData, columns: &[&str]) -> Vec<u32> {
    let cols: Vec<&ColumnData> = columns.iter().map(|c| table.column(c)).collect();
    if let Some(perm) = packed_sort_permutation(&cols, table.num_rows()) {
        return perm;
    }
    // One comparator a column, its width dispatched once.
    type Cmp<'a> = Box<dyn Fn(usize, usize) -> Ordering + 'a>;
    let cmps: Vec<Cmp> = cols
        .iter()
        .map(|c| match c {
            ColumnData::Int(v) => {
                with_plain_values!(v, |v| Box::new(|a: usize, b: usize| v[a].cmp(&v[b])) as Cmp)
            }
            ColumnData::Str(v) => Box::new(|a: usize, b: usize| v[a].cmp(&v[b])),
        })
        .collect();
    let mut perm: Vec<u32> = (0..table.num_rows() as u32).collect();
    perm.sort_by(|&a, &b| {
        let ord = cmps.iter().map(|cmp| cmp(a as usize, b as usize)).find(|o| o.is_ne());
        ord.unwrap_or_else(|| a.cmp(&b))
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
    let mut fields: Vec<(&PlainInts, i64, u32)> = Vec::with_capacity(cols.len());
    for col in cols {
        let ColumnData::Int(values) = col else { return None };
        let (min, max) = values.min_max()?;
        let bits = bits_of(max.checked_sub(min)? as u64);
        used += bits;
        fields.push((values, min, bits));
    }
    if used > 64 {
        return None;
    }
    // Each row's key: its fields' offsets from their minimums, a column at
    // a time, then the row number.
    let mut keys = vec![0u64; n];
    for (values, min, bits) in fields {
        with_plain_values!(values, |v| for (k, x) in keys.iter_mut().zip(v) {
            *k = *k << bits | (x.widen() - min) as u64;
        });
    }
    for (row, k) in keys.iter_mut().enumerate() {
        *k = *k << row_bits | row as u64;
    }
    keys.sort_unstable();
    let row_mask = (1u64 << row_bits) - 1;
    Some(keys.into_iter().map(|k| (k & row_mask) as u32).collect())
}

/// A dimension's keys → row positions, as an array indexed by `key - base`:
/// a dense dimension's key reassignment (old key → sorted row position),
/// which the fact table's foreign keys go through once per row, or, over a
/// dimension as it lies, the join from a foreign key to its row.
pub(crate) struct KeyRemap {
    base: i64,
    new_keys: Vec<i64>,
}

impl KeyRemap {
    /// `old_keys[p]` is the original key of the row now at position `p`.
    pub(crate) fn new(old_keys: &PlainInts) -> KeyRemap {
        let (base, max) = old_keys.min_max().unwrap_or((0, -1));
        let mut new_keys = vec![-1; (max - base + 1) as usize];
        with_plain_values!(old_keys, |v| for (pos, &old) in v.iter().enumerate() {
            new_keys[(old.widen() - base) as usize] = pos as i64;
        });
        KeyRemap { base, new_keys }
    }

    pub(crate) fn get(&self, old: i64) -> i64 {
        let new = self.new_keys[(old - self.base) as usize];
        assert!(new >= 0, "foreign key {old} has no dimension row");
        new
    }

    /// The foreign keys `fks[perm[j]]`, reassigned, at the width of `fks`.
    fn gather<T: PlainValue>(&self, fks: &[T], perm: &[u32]) -> PlainInts {
        let narrow = |new: i64| T::narrow(new).expect("a row position fits the key width");
        T::ints(perm.iter().map(|&p| narrow(self.get(fks[p as usize].widen()))).collect())
    }
}

/// Encode the column whose row `j` is `data[rows[j]]` (integers through
/// `remap`, when given), with its uncompressed size. `rows` is a sort's
/// permutation, or a pre-joined table's gather that skips and repeats rows.
/// Integers are gathered at the source column's width into the one buffer
/// the encoder reads (a reassigned key is a row position, which fits the
/// width of the distinct keys it replaces); strings are dictionary-coded
/// where they lie and gathered as codes ([`StrColumn::encode_rows`]).
pub(crate) fn encode_gathered(
    data: &ColumnData,
    rows: &[u32],
    remap: Option<&KeyRemap>,
    compress: bool,
) -> (Column, u64) {
    match data {
        ColumnData::Int(src) => {
            let values = match remap {
                Some(remap) => with_plain_values!(src, |v| remap.gather(v, rows)),
                None => src.gather(rows),
            };
            let plain = IntColumn::plain_fixed_bytes(&values);
            (Column::Int(IntColumn::encode(&values, compress)), plain)
        }
        ColumnData::Str(src) => {
            let (column, plain) =
                StrColumn::encode_rows(src, rows.iter().map(|&r| r as usize), compress);
            (Column::Str(column), plain)
        }
    }
}

/// `perm`'s inverse: the position each logical row is stored at.
fn inverse(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (j, &p) in perm.iter().enumerate() {
        inv[p as usize] = j as u32;
    }
    inv
}

fn corrupt(detail: String) -> PersistError {
    PersistError::Corrupt { detail }
}

/// `store`'s columns in logical order, where the logical row `perm[j]` is
/// stored at position `j`. An integer column `originals` names holds
/// positions into those original values, which replace them.
fn logical_columns<'a>(
    store: &ColumnStore,
    perm: &[u32],
    originals: impl Fn(&str) -> Option<&'a PlainInts>,
) -> Vec<ColumnData> {
    let inv = inverse(perm);
    let column = |c: &StoredColumn| match &c.column {
        Column::Int(ints) => {
            let values = ints.clone().into_plain_ints();
            match originals(&c.name) {
                Some(keys) => {
                    let at: Vec<u32> = inv.iter().map(|&j| values.get(j as usize) as u32).collect();
                    let keys = keys.gather(&at);
                    let width = keys.narrowest_width();
                    ColumnData::Int(keys.into_width(width))
                }
                None => ColumnData::Int(values.gather(&inv)),
            }
        }
        Column::Str(strs) => {
            let strs = strs.strs_at(inv.iter().copied(), Strs::MAX_TEXT);
            ColumnData::Str(strs.expect("a stored column's text fits"))
        }
    };
    store.columns().iter().map(column).collect()
}

/// Adopt table `schema`'s encoded columns and uncompressed sizes.
fn adopt_table(parts: &mut Parts, schema: &TableSchema) -> Result<ColumnStore, PersistError> {
    let table = schema.name;
    let plain = parts.ints(&format!("{table}.plain_bytes"))?;
    if plain.len() != schema.arity() {
        return Err(corrupt(format!("{table}.plain_bytes is not one size a column")));
    }
    let mut rows = None;
    let mut columns = Vec::with_capacity(schema.arity());
    for (i, def) in schema.columns.iter().enumerate() {
        let name = format!("{table}.{}", def.name);
        let column = parts.column(&name)?;
        let dtype = match column {
            Column::Int(_) => DataType::Int,
            Column::Str(_) => DataType::Str,
        };
        if dtype != def.dtype {
            return Err(corrupt(format!("segment {name} has wrong data type")));
        }
        if *rows.get_or_insert(column.len()) != column.len() {
            return Err(corrupt(format!("segment {name} length disagrees with its table")));
        }
        columns.push((def.name, column, plain.get(i) as u64));
    }
    Ok(ColumnStore::from_encoded(table, rows.unwrap_or(0), columns))
}

/// Adopt table `table`'s order: one logical row a stored row.
fn adopt_order(parts: &mut Parts, table: &str, rows: usize) -> Result<Vec<u32>, PersistError> {
    match parts.ints(&format!("{table}.order"))? {
        PlainInts::U32(perm) if perm.len() == rows => Ok(perm),
        _ => Err(corrupt(format!("{table}.order is not one u32 row a stored row"))),
    }
}

impl CStoreDb {
    /// Build projections over `tables` at the given compression setting, at
    /// the process-default parallelism ([`Parallelism::from_env`]).
    pub fn build(tables: Arc<SsbTables>, compression: bool) -> CStoreDb {
        CStoreDb::build_with(tables, compression, Parallelism::from_env())
    }

    /// Build projections over `tables` on up to `par.threads` workers: their
    /// [`SortOrder`], the only sort, then one encode step (`CStoreDb::encode`)
    /// that gathers every column through it into its encoder.
    pub fn build_with(tables: Arc<SsbTables>, compression: bool, par: Parallelism) -> CStoreDb {
        let order = Arc::new(SortOrder::of(&tables, par.threads));
        CStoreDb::encode(tables, order, compression, par)
    }

    /// This store's tables without compression, laid out in its order, on
    /// up to `par.threads` workers: nothing is sorted.
    pub(crate) fn uncompressed(&self, par: Parallelism) -> CStoreDb {
        CStoreDb::encode(self.tables().clone(), self.order.clone(), false, par)
    }

    /// The store of `tables` laid out in `order`, on up to `par.threads`
    /// workers.
    ///
    /// No table is copied to be sorted: every column, fact and dimension
    /// alike, is gathered through its table's order straight into its
    /// encoder, one column a job ([`encode_gathered`]). The reassigned keys,
    /// a dense dimension's own key column and the fact table's foreign key
    /// into it, go through the [`KeyRemap`] of the order's original keys.
    /// Jobs only encode; storage identities ([`cvr_storage::io::FileId`]s)
    /// are handed out afterwards, in a serial build's order (the dimensions,
    /// then the fact table, each in schema order), so the store is the same
    /// bytes and ids at every thread count.
    fn encode(
        tables: Arc<SsbTables>,
        order: Arc<SortOrder>,
        compression: bool,
        par: Parallelism,
    ) -> CStoreDb {
        let remaps: Vec<Option<KeyRemap>> =
            order.dims.iter().map(|(_, keys)| keys.as_ref().map(KeyRemap::new)).collect();
        let remap_of = |column: &str| {
            let mut dims = Dim::ALL.iter().zip(&remaps);
            let holds_keys = |d: &Dim| d.key_column() == column || d.fact_fk_column() == column;
            dims.find(|(d, _)| holds_keys(d)).and_then(|(_, remap)| remap.as_ref())
        };
        // One job a column, the long ones, the fact columns, first.
        let dims = Dim::ALL.iter().zip(&order.dims).map(|(&d, (perm, _))| (tables.dim(d), perm));
        let mut jobs = Jobs::new();
        let mut encoded =
            std::iter::once((&tables.lineorder, &order.fact)).chain(dims).map(|(table, perm)| {
                let columns = table.schema.columns.iter().zip(&table.columns);
                let columns = columns.map(|(def, data)| {
                    let remap = remap_of(def.name);
                    (def.name, jobs.add(move || encode_gathered(data, perm, remap, compression)))
                });
                columns.collect::<Vec<_>>()
            });
        let fact = encoded.next().expect("the fact table");
        let dims: Vec<_> = encoded.collect();
        jobs.run(par.threads);

        let store = |table: &TableData, columns: Vec<(&'static str, Slot<(Column, u64)>)>| {
            let columns = columns.into_iter().map(|(name, encoded)| {
                let (column, plain_bytes) = encoded.take();
                (name, column, plain_bytes)
            });
            ColumnStore::from_encoded(table.schema.name, table.num_rows(), columns)
        };
        let dims = Dim::ALL.into_iter().zip(dims);
        let dims = dims
            .map(|(d, columns)| {
                (d, DimStore { store: store(tables.dim(d), columns), dense_keys: d.dense_keys() })
            })
            .collect();
        let fact = store(&tables.lineorder, fact);
        let config = tables.config;
        CStoreDb { config, order, tables: OnceLock::from(tables), compression, fact, dims }
    }

    /// Adopt a compressed store from a [`Shape::Store`] snapshot's
    /// [`Parts`], as [`CStoreDb::segments`] wrote them: the encoded columns
    /// and uncompressed sizes as they are, and the [`SortOrder`] to decode
    /// the tables from should anything need them. Nothing is decoded, sorted
    /// or encoded. Storage identities are handed out in a build's order: the
    /// dimensions, then the fact columns.
    pub fn adopt(parts: &mut Parts) -> Result<CStoreDb, PersistError> {
        let schema = star_schema();
        let mut dims = HashMap::with_capacity(Dim::ALL.len());
        let mut orders = Vec::with_capacity(Dim::ALL.len());
        for d in Dim::ALL {
            let name = schema.dim(d).name;
            let store = adopt_table(parts, schema.dim(d))?;
            let perm = adopt_order(parts, name, store.num_rows())?;
            let keys = d.dense_keys().then(|| parts.ints(&format!("{name}.keys"))).transpose()?;
            if keys.as_ref().is_some_and(|k| k.len() != store.num_rows()) {
                return Err(corrupt(format!("{name}.keys is not one key a row")));
            }
            dims.insert(d, DimStore { store, dense_keys: d.dense_keys() });
            orders.push((perm, keys));
        }
        let fact = adopt_table(parts, &schema.lineorder)?;
        let order =
            SortOrder { fact: adopt_order(parts, "lineorder", fact.num_rows())?, dims: orders };
        Ok(CStoreDb {
            config: parts.config(),
            order: Arc::new(order),
            tables: OnceLock::new(),
            compression: true,
            fact,
            dims,
        })
    }

    /// The named segment images of a [`Shape::Store`] snapshot of this
    /// (compressed) store, each framed when the iterator reaches it, in
    /// storage order: per dimension its columns, its uncompressed sizes
    /// (`{table}.plain_bytes`), its order (`{table}.order`) and, when its
    /// keys were reassigned, its original keys (`{table}.keys`); then the
    /// same for the fact table, which has no keys.
    pub fn segments(&self) -> impl Iterator<Item = (String, Vec<u8>)> + Send + '_ {
        let order = &self.order;
        let dims = Dim::ALL
            .iter()
            .zip(&order.dims)
            .map(|(d, (perm, keys))| (&self.dims[d].store, perm.as_slice(), keys.as_ref()));
        let tables = dims.chain([(&self.fact, order.fact.as_slice(), None)]);
        tables.flat_map(|(store, perm, keys)| {
            let table = store.table.as_str();
            let columns = store
                .columns()
                .iter()
                .map(move |c| (format!("{table}.{}", c.name), encode_segment(&c.column)));
            let plain: Vec<i64> =
                store.columns().iter().map(|c| store.plain_bytes(&c.name) as i64).collect();
            let layout = [
                Some((format!("{table}.plain_bytes"), encode_ints_segment(&plain))),
                Some((format!("{table}.order"), encode_ints_segment(perm))),
                keys.map(|k| {
                    (format!("{table}.keys"), with_plain_values!(k, |v| encode_ints_segment(v)))
                }),
            ];
            columns.chain(layout.into_iter().flatten())
        })
    }

    /// The logical tables: the ones a built store was built from, or, for an
    /// adopted store, decoded from its encoded columns through its
    /// [`SortOrder`] on first use (concurrent first users wait for the one
    /// decode). Only cold paths read them: the uncompressed store, the row,
    /// pre-joined and CS (Row-MV) builds, and reference checks.
    pub fn tables(&self) -> &Arc<SsbTables> {
        self.tables.get_or_init(|| Arc::new(self.decode_tables()))
    }

    /// The configuration of the tables this store holds.
    pub fn config(&self) -> SsbConfig {
        self.config
    }

    /// The logical row at each fact position.
    pub(crate) fn fact_order(&self) -> &[u32] {
        &self.order.fact
    }

    /// Whether the logical tables are held: always for a built store, and
    /// for an adopted one once [`CStoreDb::tables`] decoded them.
    pub fn holds_tables(&self) -> bool {
        self.tables.get().is_some()
    }

    /// The logical tables of this store's columns: each stored row moved back
    /// to its logical row, and each reassigned key, in a dimension or in the
    /// fact table's foreign keys, replaced by its original.
    fn decode_tables(&self) -> SsbTables {
        let (schema, order) = (star_schema(), &self.order);
        let mut dims = Dim::ALL.iter().zip(&order.dims).map(|(&d, (perm, keys))| {
            // A dense dimension's key column holds positions; its original
            // keys replace them.
            let originals = |name: &str| keys.as_ref().filter(|_| name == d.key_column());
            let columns = logical_columns(&self.dims[&d].store, perm, originals);
            TableData::new(schema.dim(d).clone(), columns)
        });
        let mut next = || dims.next().expect("one table a dimension");
        let (customer, supplier, part, date) = (next(), next(), next(), next());
        // A foreign key holds its dimension's positions; the dimension's
        // original keys replace them.
        let fk_keys = |name: &str| {
            let mut dims = Dim::ALL.iter().zip(&order.dims);
            dims.find(|(d, _)| d.fact_fk_column() == name).and_then(|(_, (_, keys))| keys.as_ref())
        };
        let lineorder = logical_columns(&self.fact, &order.fact, fk_keys);
        let lineorder = TableData::new(schema.lineorder.clone(), lineorder);
        SsbTables { config: self.config, schema, lineorder, customer, supplier, part, date }
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
        let cust = &db.dim(Dim::Customer).store;
        let regions = cust.column("c_region").column.as_str().decode();
        assert!(regions.iter().is_sorted(), "regions must be sorted");
        // Within a region, nations sorted.
        let nations = cust.column("c_nation").column.as_str().decode();
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
            let keys = db.dim(d).store.column(d.key_column()).column.as_int().decode();
            for (p, &k) in keys.iter().enumerate() {
                assert_eq!(k, p as i64, "{d:?} key must equal its position");
            }
            assert!(db.dim(d).dense_keys);
        }
        // DATE keys stay yyyymmdd.
        let dk = db.dim(Dim::Date).store.column("d_datekey").column.as_int().decode();
        assert_eq!(dk[0], 19920101);
        assert!(!db.dim(Dim::Date).dense_keys);
    }

    #[test]
    fn fact_fks_reference_remapped_dims() {
        let db = db(true);
        let n_cust = db.dim(Dim::Customer).store.num_rows() as i64;
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
        let orig_fk = tables.lineorder.column("lo_custkey").ints().decode();
        let orig_city = tables.customer.column("c_city").strs();
        let mut expected: Vec<String> = (0..tables.lineorder.num_rows())
            .map(|i| orig_city[(orig_fk[i] - 1) as usize].to_string())
            .collect();
        // Projection join: sorted fact fk == position into sorted customer.
        let new_fk = db.fact.column("lo_custkey").column.as_int().decode();
        let new_city = db.dim(Dim::Customer).store.column("c_city").column.as_str().decode();
        let mut got: Vec<String> =
            new_fk.iter().map(|&k| new_city[k as usize].to_string()).collect();
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
            let cols: Vec<Vec<i64>> =
                columns.iter().map(|c| fact.column(c).ints().decode()).collect();
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
        let wide = ColumnData::Int(vec![i64::MIN, 0, i64::MAX].into());
        assert_eq!(packed_sort_permutation(&[&wide], 3), None);
        let wide = ColumnData::Int(vec![1 << 62, 0, 5].into());
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
        let cust = &db.dim(Dim::Customer).store;
        let regions = cust.column("c_region").column.as_str().decode();
        let matching: Vec<usize> =
            (0..cust.num_rows()).filter(|&i| &*regions[i] == "ASIA").collect();
        if matching.len() > 1 {
            assert_eq!(matching[matching.len() - 1] - matching[0] + 1, matching.len());
        }
    }
}
