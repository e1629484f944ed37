//! Column-store table storage: named, encoded, metered columns.
//!
//! A [`ColumnStore`] holds one [`StoredColumn`] per table column. Each stored
//! column owns a [`FileId`] so buffer-pool residency and I/O charging work at
//! page grain, like the heap files on the row side — but here a query only
//! touches the files of the columns it reads, which is the column-store's
//! core I/O advantage.
//!
//! Charging helpers:
//! * [`StoredColumn::charge_scan`] — a full sequential read (predicate
//!   application, block iteration over a whole column);
//! * [`StoredColumn::charge_gather`] — positional extraction (late
//!   materialization): only the pages covering the requested positions are
//!   fetched, in position order.

use crate::encode::{Column, IntColumn, StrColumn, RLE_RUN_BYTES};
use crate::io::{pages_for, FileId, IoSession, PageId, PAGE_SIZE};
use cvr_data::table::TableData;

/// One encoded column plus its storage identity.
#[derive(Debug)]
pub struct StoredColumn {
    /// Column name (matches the logical schema).
    pub name: String,
    /// The encoded payload.
    pub column: Column,
    file: FileId,
    /// Lazily computed zone-map bounds (see
    /// [`StoredColumn::int_code_bounds`]): the column is immutable, so the
    /// value sweep for plain/RLE integers runs at most once per column, not
    /// once per query.
    code_bounds: std::sync::OnceLock<Option<(i64, u64)>>,
    /// Lazily computed size of a dictionary column's dictionary prefix (see
    /// [`StoredColumn::dict_bytes`]): every scan and gather charge needs it,
    /// once per morsel, and summing a thousand entries each time is not free.
    dict_bytes: std::sync::OnceLock<u64>,
}

impl StoredColumn {
    /// Wrap an encoded column under `name`.
    pub fn new(name: impl Into<String>, column: Column) -> StoredColumn {
        StoredColumn {
            name: name.into(),
            column,
            file: FileId::fresh(),
            code_bounds: std::sync::OnceLock::new(),
            dict_bytes: std::sync::OnceLock::new(),
        }
    }

    /// Bytes the dictionary occupies at the front of a dictionary column's
    /// file (a length byte plus the text of each entry), computed once.
    fn dict_bytes(&self, dict: &[Box<str>]) -> u64 {
        *self.dict_bytes.get_or_init(|| dict.iter().map(|s| 1 + s.len() as u64).sum())
    }

    /// Cached [`IntColumn::code_bounds`] of an integer column (`None` for
    /// string columns) — the zone-map header a real store keeps next to
    /// the data, computed once per column.
    pub fn int_code_bounds(&self) -> Option<(i64, u64)> {
        *self.code_bounds.get_or_init(|| match &self.column {
            Column::Int(int) => int.code_bounds(),
            Column::Str(_) => None,
        })
    }

    /// On-disk bytes.
    pub fn bytes(&self) -> u64 {
        self.column.encoded_bytes()
    }

    /// On-disk pages.
    pub fn pages(&self) -> u32 {
        pages_for(self.bytes())
    }

    /// Storage file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Every position of the column: the window a whole-column scan covers.
    pub fn positions(&self) -> std::ops::Range<u32> {
        0..self.column.len() as u32
    }

    /// Charge a full sequential scan of this column.
    pub fn charge_scan(&self, io: &IoSession) {
        io.begin_op();
        io.read_file_sequential(self.file, self.bytes());
    }

    /// Charge the slice of a sequential scan covering positions
    /// `[start, end)` of `n` total values.
    ///
    /// The byte range uses the same position → byte mapping as
    /// [`StoredColumn::charge_gather`] (run offsets for RLE, proportional
    /// share `[start·B/n, end·B/n)` otherwise), so consecutive position
    /// ranges tile the file exactly: morsel workers that split `[0, n)`
    /// among themselves charge, in aggregate and in morsel order, the same
    /// page sequence as one [`StoredColumn::charge_scan`] — shared boundary
    /// pages resolve to buffer-pool hits on replay — and a positional gather
    /// within a scanned morsel never touches a page the morsel's scan
    /// missed.
    pub fn charge_scan_range(&self, start: u32, end: u32, io: &IoSession) {
        io.begin_op();
        let n = self.column.len() as u64;
        let total = self.bytes();
        if n == 0 || total == 0 {
            // Degenerate columns still occupy one page, like charge_scan.
            if start == 0 {
                io.read_page(PageId { file: self.file, page: 0 }, total.min(PAGE_SIZE));
            }
            return;
        }
        if start >= end {
            return;
        }
        let (byte_lo, byte_hi) = match &self.column {
            // RLE: charge whole runs, matching charge_gather's offsets; a
            // run straddling a morsel boundary is charged by both sides and
            // dedups to a pool hit.
            Column::Int(rle @ IntColumn::Rle { .. }) => {
                let lo = rle.run_containing(start) as u64 * RLE_RUN_BYTES;
                let hi = (rle.run_containing(end - 1) as u64 + 1) * RLE_RUN_BYTES;
                (lo, hi.min(total))
            }
            // Packed: charge whole 8-byte words, matching charge_gather's
            // word offsets; a word shared by two morsels dedups to a hit.
            Column::Int(IntColumn::Packed { packed, .. }) => {
                let k = packed.lanes_per_word() as u64;
                let lo = start as u64 / k * 8;
                let hi = ((end - 1) as u64 / k + 1) * 8;
                (lo, hi.min(total))
            }
            // Dict: the dictionary prefix (needed to decode anything) plus
            // the word-aligned slice of the packed codes — the same offsets
            // charge_gather touches, so a gather within a scanned morsel
            // never reaches a page the morsel's scan missed. Every fragment
            // charges the dictionary; repeated pages dedup to pool hits.
            Column::Str(StrColumn::Dict { dict, codes }) => {
                let dict_bytes = self.dict_bytes(dict);
                let k = codes.lanes_per_word() as u64;
                let hi = dict_bytes + ((end - 1) as u64 / k + 1) * 8;
                if start == 0 {
                    // The code slice is contiguous with the dictionary.
                    (0, hi.min(total))
                } else {
                    if dict_bytes > 0 {
                        let last = ((dict_bytes - 1) / PAGE_SIZE) as u32;
                        for page in 0..=last {
                            let bytes = (total - page as u64 * PAGE_SIZE).min(PAGE_SIZE);
                            io.read_page(PageId { file: self.file, page }, bytes);
                        }
                    }
                    (dict_bytes + start as u64 / k * 8, hi.min(total))
                }
            }
            _ => (start as u64 * total / n, (end as u64 * total / n).min(total)),
        };
        if byte_hi <= byte_lo {
            return; // this slice of a highly-compressed column is sub-byte
        }
        let first = (byte_lo / PAGE_SIZE) as u32;
        let last = ((byte_hi - 1) / PAGE_SIZE) as u32;
        for page in first..=last {
            let bytes = (total - page as u64 * PAGE_SIZE).min(PAGE_SIZE);
            io.read_page(PageId { file: self.file, page }, bytes);
        }
    }

    /// Charge a positional gather: `positions` must be ascending. Only the
    /// distinct pages containing the positions are fetched.
    ///
    /// Page mapping per encoding:
    /// * plain ints — `pos × width`;
    /// * RLE — byte offset of the containing run (runs located by binary
    ///   search);
    /// * dictionary strings — code array offset (the dictionary itself is
    ///   charged in full once: it is small and needed to decode anything);
    /// * plain strings — approximated with the column's mean value length
    ///   (exact per-value offsets would require scanning, which positional
    ///   extraction precisely avoids).
    pub fn charge_gather(&self, positions: impl IntoIterator<Item = u32>, io: &IoSession) {
        io.begin_op();
        let mut last_page = u32::MAX;
        let mut touch = |byte_off: u64| {
            let page = (byte_off / PAGE_SIZE) as u32;
            if page != last_page {
                let bytes = (self.bytes() - page as u64 * PAGE_SIZE).min(PAGE_SIZE);
                io.read_page(PageId { file: self.file, page }, bytes);
                last_page = page;
            }
        };
        match &self.column {
            Column::Int(IntColumn::Plain(values)) => {
                let w = values.width() as u64;
                for p in positions {
                    touch(p as u64 * w);
                }
            }
            Column::Int(rle @ IntColumn::Rle { .. }) => {
                for p in positions {
                    let run = rle.run_containing(p) as u64;
                    touch(run * RLE_RUN_BYTES);
                }
            }
            Column::Int(IntColumn::Packed { packed, .. }) => {
                let k = packed.lanes_per_word() as u64;
                for p in positions {
                    touch(p as u64 / k * 8);
                }
            }
            Column::Str(StrColumn::Dict { dict, codes }) => {
                let dict_bytes = self.dict_bytes(dict);
                // Dictionary read once, at the front of the file.
                let dict_pages = pages_for(dict_bytes);
                for p in 0..dict_pages {
                    let bytes = (dict_bytes - p as u64 * PAGE_SIZE).min(PAGE_SIZE);
                    io.read_page(PageId { file: self.file, page: p }, bytes);
                }
                let k = codes.lanes_per_word() as u64;
                for p in positions {
                    touch(dict_bytes + p as u64 / k * 8);
                }
            }
            Column::Str(StrColumn::Plain { values, bytes }) => {
                let avg = if values.is_empty() { 1 } else { (*bytes / values.len() as u64).max(1) };
                for p in positions {
                    touch(p as u64 * avg);
                }
            }
        }
    }
}

/// Per-column encoding decision for a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingChoice {
    /// Let the encoder pick (RLE/dict when they shrink the column).
    Auto,
    /// Force uncompressed (the Figure 7 compression-removed runs).
    Plain,
}

/// A column-store resident table.
#[derive(Debug)]
pub struct ColumnStore {
    /// Table name.
    pub table: String,
    columns: Vec<StoredColumn>,
    /// Per column, the bytes it occupies in an uncompressed store of the
    /// same rows (see [`ColumnStore::plain_bytes`]).
    plain_bytes: Vec<u64>,
    rows: usize,
}

impl ColumnStore {
    /// Encode every column of `data` with `choice`.
    pub fn from_table(data: &TableData, choice: EncodingChoice) -> ColumnStore {
        let columns = ColumnStore::encode_columns(data, choice);
        ColumnStore::from_encoded(data.schema.name, data.num_rows(), columns)
    }

    /// The encoding half of [`ColumnStore::from_table`]: every column of
    /// `data` as `(name, encoded, uncompressed bytes)`, no storage identity
    /// yet — safe to run on any thread.
    pub fn encode_columns(
        data: &TableData,
        choice: EncodingChoice,
    ) -> Vec<(&'static str, Column, u64)> {
        let compress = choice == EncodingChoice::Auto;
        let columns = data.schema.columns.iter().zip(&data.columns);
        columns
            .map(|(def, col)| (def.name, Column::encode(col, compress), Column::plain_bytes(col)))
            .collect()
    }

    /// Assemble a store of `rows` rows from columns encoded elsewhere, each
    /// with its uncompressed size. [`FileId`]s are allocated here, in
    /// iteration order, whatever order (or thread) the columns were encoded
    /// in.
    pub fn from_encoded(
        table: &str,
        rows: usize,
        columns: impl IntoIterator<Item = (&'static str, Column, u64)>,
    ) -> ColumnStore {
        let (columns, plain_bytes) = columns
            .into_iter()
            .map(|(name, column, plain)| (StoredColumn::new(name, column), plain))
            .unzip();
        ColumnStore { table: table.to_string(), columns, plain_bytes, rows }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> &StoredColumn {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("column store {} has no column {name}", self.table))
    }

    /// All stored columns.
    pub fn columns(&self) -> &[StoredColumn] {
        &self.columns
    }

    /// Total on-disk bytes across all columns.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(StoredColumn::bytes).sum()
    }

    /// [`StoredColumn::bytes`] of column `name` in an
    /// [`EncodingChoice::Plain`] store of the same rows, recorded when this
    /// store was encoded (by [`Column::plain_bytes`], the plain encoder's own
    /// sizing) — so a compressed store answers for the uncompressed one
    /// without it being built.
    pub fn plain_bytes(&self, name: &str) -> u64 {
        let idx = self.columns.iter().position(|c| c.name == name);
        self.plain_bytes
            [idx.unwrap_or_else(|| panic!("column store {} has no column {name}", self.table))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::schema::{ColumnDef, TableSchema};
    use cvr_data::table::ColumnData;
    use cvr_data::value::DataType;

    fn table() -> TableData {
        let n = 100_000usize;
        TableData::new(
            TableSchema {
                name: "t",
                columns: vec![
                    ColumnDef { name: "sorted", dtype: DataType::Int },
                    ColumnDef { name: "random", dtype: DataType::Int },
                    ColumnDef { name: "lowcard", dtype: DataType::Str },
                ],
            },
            vec![
                ColumnData::Int((0..n as i64).map(|i| i / 1000).collect()),
                ColumnData::Int((0..n as i64).map(|i| (i * 2_654_435_761) % 1_000_000).collect()),
                ColumnData::Str((0..n).map(|i| format!("R{}", i % 5)).collect()),
            ],
        )
    }

    #[test]
    fn auto_encodings_choose_sensibly() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        assert!(cs.column("sorted").column.as_int().is_rle());
        assert!(!cs.column("random").column.as_int().is_rle());
        assert!(cs.column("lowcard").column.as_str().is_dict());
    }

    #[test]
    fn plain_choice_disables_compression() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        assert!(!cs.column("sorted").column.as_int().is_rle());
        assert!(!cs.column("lowcard").column.as_str().is_dict());
    }

    #[test]
    fn recorded_plain_bytes_are_the_plain_stores() {
        let t = table();
        let plain = ColumnStore::from_table(&t, EncodingChoice::Plain);
        for choice in [EncodingChoice::Auto, EncodingChoice::Plain] {
            let cs = ColumnStore::from_table(&t, choice);
            for c in plain.columns() {
                assert_eq!(cs.plain_bytes(&c.name), c.bytes(), "{}", c.name);
            }
        }
    }

    #[test]
    fn compressed_store_is_smaller() {
        let t = table();
        let auto = ColumnStore::from_table(&t, EncodingChoice::Auto);
        let plain = ColumnStore::from_table(&t, EncodingChoice::Plain);
        assert!(auto.bytes() < plain.bytes());
    }

    #[test]
    fn scan_charges_all_pages_of_one_column_only() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        let io = IoSession::unmetered();
        let col = cs.column("random");
        col.charge_scan(&io);
        let stats = io.stats();
        assert_eq!(stats.pages_read as u32, col.pages());
        assert_eq!(stats.bytes_read, col.bytes());
    }

    #[test]
    fn gather_touches_few_pages_for_few_positions() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        let io = IoSession::unmetered();
        let col = cs.column("random");
        col.charge_gather([5u32, 6, 7, 50_000], &io);
        let stats = io.stats();
        assert!(stats.pages_read <= 2, "read {} pages", stats.pages_read);
        assert!(stats.pages_read < col.pages() as u64);
    }

    #[test]
    fn gather_on_rle_touches_run_pages() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        let io = IoSession::unmetered();
        // 100 runs ⇒ entire RLE column is one page.
        cs.column("sorted").charge_gather((0..100u32).chain([99_999]), &io);
        assert_eq!(io.stats().pages_read, 1);
    }

    #[test]
    fn gather_on_dict_charges_dictionary_once() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        let io = IoSession::unmetered();
        cs.column("lowcard").charge_gather([0u32, 99_999], &io);
        // dict page (also containing the first codes) + maybe the final code page
        assert!(io.stats().pages_read <= 2);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        cs.column("nope");
    }

    #[test]
    fn scan_range_slices_tile_the_full_scan() {
        // Splitting [0, n) into arbitrary consecutive ranges and replaying
        // the recorded charges in order must equal one full charge_scan,
        // for every encoding.
        let t = table();
        for choice in [EncodingChoice::Auto, EncodingChoice::Plain] {
            let cs = ColumnStore::from_table(&t, choice);
            for name in ["sorted", "random", "lowcard"] {
                let col = cs.column(name);
                let n = t.num_rows() as u32;
                let serial = IoSession::unmetered();
                col.charge_scan(&serial);

                let merged = IoSession::unmetered();
                let bounds = [0u32, 1, 7_000, 7_001, 33_333, 99_999, n];
                for w in bounds.windows(2) {
                    let rec = IoSession::recording(merged.pool().clone());
                    col.charge_scan_range(w[0], w[1], &rec);
                    merged.replay(&rec.take_log());
                }
                let (a, b) = (serial.stats(), merged.stats());
                assert_eq!(a.bytes_read, b.bytes_read, "{name} bytes");
                assert_eq!(a.pages_read, b.pages_read, "{name} pages");
                assert_eq!(a.seeks, b.seeks, "{name} seeks");
            }
        }
    }
}
