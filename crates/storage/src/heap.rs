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
use crate::rowcodec::{encode_row, record_len, RecordView};
use cvr_data::table::TableData;
use cvr_data::value::DataType;

/// A heap file: encoded tuples packed into pages.
#[derive(Debug)]
pub struct HeapFile {
    file: FileId,
    /// Concatenated page images; page `p` is `data[p*PAGE_SIZE..]`.
    data: Vec<u8>,
    /// Byte ranges of records, in insertion order: (offset, page).
    records: Vec<(u64, u32)>,
    /// Column types (needed to decode records).
    types: Vec<DataType>,
    rows: usize,
}

impl HeapFile {
    /// Build a heap file holding every row of `table`.
    pub fn build(table: &TableData) -> HeapFile {
        HeapFile::from_rows(table, 0..table.num_rows())
    }

    /// Build a heap file holding rows `rows` of `table`, in that order,
    /// encoded straight from the table (a partition is never copied out
    /// first).
    pub fn from_rows(table: &TableData, rows: impl ExactSizeIterator<Item = usize>) -> HeapFile {
        let types: Vec<DataType> = table.schema.columns.iter().map(|c| c.dtype).collect();
        let num_rows = rows.len();
        let mut data = Vec::new();
        let mut records = Vec::with_capacity(num_rows);
        let mut row_buf = Vec::with_capacity(128);
        let mut page_used: u64 = 0;
        let mut page_no: u32 = 0;
        for i in rows {
            row_buf.clear();
            encode_row(&table.row(i), &mut row_buf);
            let len = row_buf.len() as u64;
            assert!(len <= PAGE_SIZE, "record larger than a page");
            if page_used + len > PAGE_SIZE {
                // Pad out the page: slack is real I/O in a slotted layout.
                data.resize(((page_no as u64 + 1) * PAGE_SIZE) as usize, 0);
                page_no += 1;
                page_used = 0;
            }
            records.push((data.len() as u64, page_no));
            data.extend_from_slice(&row_buf);
            page_used += len;
        }
        HeapFile { file: FileId::fresh(), data, records, types, rows: num_rows }
    }

    /// Number of rows stored.
    pub fn num_rows(&self) -> usize {
        self.rows
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
        self.records.iter().enumerate().map(move |(rid, &(off, page))| {
            if page != last_page {
                io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
                last_page = page;
            }
            let buf = &self.data[off as usize..];
            let len = record_len(buf);
            (rid as u32, RecordView::new(&buf[..len]))
        })
    }

    /// Fetch a single record by rid (an index lookup path): charges the
    /// containing page.
    pub fn fetch<'a>(&'a self, rid: u32, io: &IoSession) -> RecordView<'a> {
        let (off, page) = self.records[rid as usize];
        io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
        let buf = &self.data[off as usize..];
        RecordView::new(&buf[..record_len(buf)])
    }

    fn page_bytes(&self, page: u32) -> u64 {
        let start = page as u64 * PAGE_SIZE;
        (self.bytes() - start).min(PAGE_SIZE)
    }

    /// Serialize this heap to a self-contained byte image (the payload of a
    /// raw persisted segment): column types, the page data, and the record
    /// directory. [`HeapFile::from_image`] reverses it.
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + self.records.len() * 12 + 32);
        out.extend_from_slice(&(self.types.len() as u32).to_le_bytes());
        for t in &self.types {
            out.push(match t {
                DataType::Int => 0u8,
                DataType::Str => 1u8,
            });
        }
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for &(off, page) in &self.records {
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
        }
        out
    }

    /// Rebuild a heap from a [`HeapFile::to_image`] byte image, validating
    /// the structural invariants scans rely on (record offsets in bounds
    /// and consistent with their page numbers). The rebuilt heap gets a
    /// fresh [`FileId`] — buffer-pool identity is per-process, not durable.
    pub fn from_image(image: &[u8]) -> Result<HeapFile, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let s = image.get(*pos..*pos + n).ok_or("heap image truncated")?;
            *pos += n;
            Ok(s)
        };
        let ncols = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        if ncols > 1024 {
            return Err(format!("heap image claims {ncols} columns"));
        }
        let mut types = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            types.push(match take(&mut pos, 1)?[0] {
                0 => DataType::Int,
                1 => DataType::Str,
                t => return Err(format!("heap image has unknown column type tag {t}")),
            });
        }
        let rows = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let data_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let data = take(&mut pos, data_len)?.to_vec();
        let nrecords = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        if nrecords != rows {
            return Err(format!("heap image has {nrecords} records for {rows} rows"));
        }
        let mut records = Vec::with_capacity(nrecords);
        for _ in 0..nrecords {
            let off = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let page = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            // Records are written into their containing page, so the page
            // number is derivable from the offset; a mismatch (or an
            // offset without room for a record header) is corruption.
            if off + 8 > data.len() as u64 || off / PAGE_SIZE != page as u64 {
                return Err(format!("heap record at offset {off} page {page} is out of bounds"));
            }
            records.push((off, page));
        }
        if pos != image.len() {
            return Err(format!("heap image has {} trailing bytes", image.len() - pos));
        }
        Ok(HeapFile { file: FileId::fresh(), data, records, types, rows })
    }
}

/// A heap horizontally partitioned by an integer key (orderdate year).
#[derive(Debug)]
pub struct PartitionedHeap {
    /// `(partition_key, heap)` pairs, ordered by key.
    pub partitions: Vec<(i64, HeapFile)>,
}

impl PartitionedHeap {
    /// Partition `table` by `key_of(row_index)`.
    pub fn build(table: &TableData, key_of: impl Fn(usize) -> i64) -> PartitionedHeap {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for i in 0..table.num_rows() {
            groups.entry(key_of(i)).or_default().push(i as u32);
        }
        let partitions = groups
            .into_iter()
            .map(|(k, rows)| (k, HeapFile::from_rows(table, rows.iter().map(|&r| r as usize))))
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
        let keys = t.column("k").ints().to_vec();
        let part = PartitionedHeap::build(&t, |i| keys[i] % 4);
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
    fn image_round_trip_preserves_scans() {
        let t = table(5_000);
        let heap = HeapFile::build(&t);
        let rebuilt = HeapFile::from_image(&heap.to_image()).expect("round trip");
        assert_eq!(rebuilt.num_rows(), heap.num_rows());
        assert_eq!(rebuilt.bytes(), heap.bytes());
        assert_eq!(rebuilt.types(), heap.types());
        let (io_a, io_b) = (IoSession::unmetered(), IoSession::unmetered());
        let a: Vec<i64> = heap.scan(&io_a).map(|(_, r)| r.int_field(heap.types(), 0)).collect();
        let b: Vec<i64> =
            rebuilt.scan(&io_b).map(|(_, r)| r.int_field(rebuilt.types(), 0)).collect();
        assert_eq!(a, b);
        assert_eq!(io_a.stats(), io_b.stats(), "page charges survive the round trip");
        // Truncations and garbage are structural errors, never panics.
        let image = heap.to_image();
        for cut in [0, 1, 3, 16, image.len() / 2, image.len() - 1] {
            assert!(HeapFile::from_image(&image[..cut]).is_err(), "truncated at {cut}");
        }
        assert!(HeapFile::from_image(&[0xFF; 64]).is_err());
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
