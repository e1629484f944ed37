//! Row-store heap files: slotted 32 KB pages of encoded tuples.
//!
//! A [`HeapFile`] is the storage behind the row engine's sequential scans.
//! Records never span pages (SSBM rows are ≪ 32 KB); each page is filled
//! greedily, so file size reflects real slack. Iteration charges one
//! [`crate::io::IoSession::read_page`] per page entered.
//!
//! [`PartitionedHeap`] models System X's horizontal partitioning of
//! LINEORDER by `orderdate` year (Section 6.2): a scan with a year
//! restriction touches only matching partitions, which is where the paper's
//! "factor of two" partitioning advantage comes from.

use crate::io::{pages_for, FileId, IoSession, PageId, PAGE_SIZE};
use crate::rowcodec::{
    column_fields, columns_row_size, encode_columns_row, record_len, RecordView,
};
use crate::with_plain_values;
use cvr_data::ints::PlainValue;
use cvr_data::table::{ColumnData, PlainInts, TableData};
use cvr_data::value::DataType;

/// A heap file: encoded tuples packed into pages.
#[derive(Debug)]
pub struct HeapFile {
    file: FileId,
    /// Concatenated page images; page `p` is `data[p*PAGE_SIZE..]`.
    data: Vec<u8>,
    /// Byte offset of each record, in insertion order. Records never span
    /// pages, so a record's page is `offset / PAGE_SIZE`.
    records: Vec<u64>,
    /// Column types (needed to decode records).
    types: Vec<DataType>,
}

impl HeapFile {
    /// Build a heap file holding every row of `table`.
    pub fn build(table: &TableData) -> HeapFile {
        let columns: Vec<&ColumnData> = table.columns.iter().collect();
        HeapFile::from_rows(&columns, 0..table.num_rows())
    }

    /// Build a heap file holding rows `rows` of `columns` (one field per
    /// column, in order), encoded straight from the column slices: neither
    /// a partition nor a projection is copied out first, and no row is
    /// materialized.
    pub fn from_rows(
        columns: &[&ColumnData],
        rows: impl ExactSizeIterator<Item = usize>,
    ) -> HeapFile {
        let types: Vec<DataType> = columns.iter().map(|c| c.dtype()).collect();
        let fields = column_fields(columns);
        let mut data = Vec::new();
        let mut records = Vec::with_capacity(rows.len());
        let mut page_end = PAGE_SIZE as usize;
        for i in rows {
            let len = columns_row_size(columns, i);
            assert!(len as u64 <= PAGE_SIZE, "record larger than a page");
            if data.len() + len > page_end {
                // Pad out the page: slack is real I/O in a slotted layout.
                data.resize(page_end, 0);
                page_end += PAGE_SIZE as usize;
            }
            records.push(data.len() as u64);
            encode_columns_row(&fields, i, &mut data);
        }
        HeapFile { file: FileId::fresh(), data, records, types }
    }

    /// Number of rows stored.
    pub fn num_rows(&self) -> usize {
        self.records.len()
    }

    /// Total bytes (including page slack).
    pub fn bytes(&self) -> u64 {
        // The final page is charged in full only up to its used length.
        self.data.len() as u64
    }

    /// Number of pages.
    pub fn pages(&self) -> u32 {
        pages_for(self.bytes())
    }

    /// The file id (for buffer-pool keys).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Column types of stored records.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Sequentially scan all records, charging page reads to `io`.
    ///
    /// Yields `(row_id, record)` where `row_id` is the insertion ordinal —
    /// the record-id used by unclustered indexes.
    pub fn scan<'a>(&'a self, io: &'a IoSession) -> impl Iterator<Item = (u32, RecordView<'a>)> {
        let mut last_page = u32::MAX;
        self.records.iter().enumerate().map(move |(rid, &off)| {
            let page = page_of(off);
            if page != last_page {
                io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
                last_page = page;
            }
            (rid as u32, self.record_at(off))
        })
    }

    /// Fetch a single record by rid (an index lookup path): charges the
    /// containing page.
    pub fn fetch<'a>(&'a self, rid: u32, io: &IoSession) -> RecordView<'a> {
        let off = self.records[rid as usize];
        let page = page_of(off);
        io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
        self.record_at(off)
    }

    fn record_at(&self, off: u64) -> RecordView<'_> {
        let buf = &self.data[off as usize..];
        RecordView::new(&buf[..record_len(buf)])
    }

    fn page_bytes(&self, page: u32) -> u64 {
        let start = page as u64 * PAGE_SIZE;
        (self.bytes() - start).min(PAGE_SIZE)
    }
}

/// The page holding the record at byte offset `off`.
fn page_of(off: u64) -> u32 {
    (off / PAGE_SIZE) as u32
}

/// A heap horizontally partitioned by an integer key (orderdate year).
#[derive(Debug)]
pub struct PartitionedHeap {
    /// `(partition_key, heap)` pairs, ordered by key.
    pub partitions: Vec<(i64, HeapFile)>,
}

impl PartitionedHeap {
    /// Partition the rows of `columns` (one field per column, in order):
    /// row `i` goes to partition `key_of(by[i])`.
    pub fn build(
        columns: &[&ColumnData],
        by: &PlainInts,
        key_of: impl Fn(i64) -> i64,
    ) -> PartitionedHeap {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        with_plain_values!(by, |values| for (i, v) in values.iter().enumerate() {
            groups.entry(key_of(v.widen())).or_default().push(i as u32);
        });
        let partitions = groups
            .into_iter()
            .map(|(k, rows)| (k, HeapFile::from_rows(columns, rows.iter().map(|&r| r as usize))))
            .collect();
        PartitionedHeap { partitions }
    }

    /// Heaps whose partition key satisfies `keep`.
    pub fn select<'a>(&'a self, keep: impl Fn(i64) -> bool + 'a) -> Vec<&'a HeapFile> {
        self.partitions.iter().filter(|(k, _)| keep(*k)).map(|(_, h)| h).collect()
    }

    /// All heaps.
    pub fn all(&self) -> Vec<&HeapFile> {
        self.partitions.iter().map(|(_, h)| h).collect()
    }

    /// Total rows across partitions.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|(_, h)| h.num_rows()).sum()
    }

    /// Total bytes across partitions.
    pub fn bytes(&self) -> u64 {
        self.partitions.iter().map(|(_, h)| h.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoSession;
    use cvr_data::schema::{ColumnDef, TableSchema};
    use cvr_data::table::ColumnData;

    fn table(n: usize) -> TableData {
        TableData::new(
            TableSchema {
                name: "t",
                columns: vec![
                    ColumnDef { name: "k", dtype: DataType::Int },
                    ColumnDef { name: "s", dtype: DataType::Str },
                ],
            },
            vec![
                ColumnData::Int((0..n as i64).collect()),
                ColumnData::Str((0..n).map(|i| format!("val{i}")).collect()),
            ],
        )
    }

    #[test]
    fn scan_round_trips_all_rows() {
        let t = table(5_000);
        let heap = HeapFile::build(&t);
        assert_eq!(heap.num_rows(), 5_000);
        let io = IoSession::unmetered();
        let mut count = 0usize;
        for (rid, rec) in heap.scan(&io) {
            assert_eq!(rec.int_field(heap.types(), 0), rid as i64);
            assert_eq!(rec.str_field(heap.types(), 1), format!("val{rid}"));
            count += 1;
        }
        assert_eq!(count, 5_000);
        // Multi-page file: each page read exactly once, sequentially.
        let stats = io.stats();
        assert_eq!(stats.pages_read as u32, heap.pages());
        assert_eq!(stats.seeks, 1);
    }

    #[test]
    fn records_do_not_span_pages() {
        let t = table(20_000);
        let heap = HeapFile::build(&t);
        let io = IoSession::unmetered();
        for (_, rec) in heap.scan(&io) {
            // Decoding would fail if a record straddled a page boundary
            // incorrectly; also verify offsets directly.
            let _ = rec.arity();
        }
        assert!(heap.pages() > 1);
    }

    #[test]
    fn fetch_by_rid_charges_one_page() {
        let t = table(10_000);
        let heap = HeapFile::build(&t);
        let io = IoSession::unmetered();
        let rec = heap.fetch(9_999, &io);
        assert_eq!(rec.int_field(heap.types(), 0), 9_999);
        assert_eq!(io.stats().pages_read, 1);
    }

    #[test]
    fn partitioned_heap_splits_and_filters() {
        let t = table(1_000);
        // Partition by k % 4.
        let columns: Vec<&ColumnData> = t.columns.iter().collect();
        let part = PartitionedHeap::build(&columns, t.column("k").ints(), |k| k % 4);
        assert_eq!(part.partitions.len(), 4);
        assert_eq!(part.num_rows(), 1_000);
        let selected = part.select(|k| k == 2);
        assert_eq!(selected.len(), 1);
        let io = IoSession::unmetered();
        let vals: Vec<i64> =
            selected[0].scan(&io).map(|(_, r)| r.int_field(selected[0].types(), 0)).collect();
        assert_eq!(vals.len(), 250);
        assert!(vals.iter().all(|v| v % 4 == 2));
    }

    #[test]
    fn heap_bytes_include_header_overhead() {
        let t = table(100);
        let heap = HeapFile::build(&t);
        // Each record: 8 header + 4 int + 1+len string.
        let min_payload: u64 = (0..100).map(|i| 13 + format!("val{i}").len() as u64).sum();
        assert!(heap.bytes() >= min_payload);
    }

    #[test]
    fn empty_table() {
        let t = table(0);
        let heap = HeapFile::build(&t);
        assert_eq!(heap.num_rows(), 0);
        let io = IoSession::unmetered();
        assert_eq!(heap.scan(&io).count(), 0);
    }
}
