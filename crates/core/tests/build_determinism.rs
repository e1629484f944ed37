//! `CStoreDb::build_with` is one store at every worker count — and the
//! store the copy-sort-permute build it replaced produced.
//!
//! Jobs only encode; ids and positions are assigned by the coordinator. So
//! the encoded payloads, their persisted segment images, the recorded
//! uncompressed sizes and the order of the storage ids must not depend on
//! how many workers ran or which finished first.

use cvr_core::morsel::{Parallelism, DEFAULT_MORSEL_ROWS};
use cvr_core::projection::CStoreDb;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::schema::Dim;
use cvr_storage::encode::Column;
use cvr_storage::persist::{crc64, encode_segment, SegmentPayload};
use cvr_storage::{ColumnStore, FileId};
use std::sync::Arc;

/// Dimension stores in `Dim::ALL` order, then the fact store: the order a
/// build hands out storage ids in.
fn stores(db: &CStoreDb) -> Vec<&ColumnStore> {
    Dim::ALL.iter().map(|&d| &db.dim(d).store).chain([&db.fact]).collect()
}

fn segment_image(column: &Column) -> Vec<u8> {
    encode_segment(&match column.clone() {
        Column::Int(ic) => SegmentPayload::Int(ic),
        Column::Str(sc) => SegmentPayload::Str(sc),
    })
}

/// Every column's persisted image, concatenated in storage order.
fn images(db: &CStoreDb) -> Vec<u8> {
    let columns = stores(db).into_iter().flat_map(ColumnStore::columns);
    columns.flat_map(|c| segment_image(&c.column)).collect()
}

fn file_ids(db: &CStoreDb) -> Vec<FileId> {
    let columns = stores(db).into_iter().flat_map(ColumnStore::columns);
    columns.map(|c| c.file_id()).collect()
}

#[test]
fn the_store_is_the_same_at_one_two_and_four_workers() {
    // sf 0.002 is a single morsel per column; sf 0.01 is several.
    for sf in [0.002, 0.01] {
        let tables = Arc::new(SsbConfig { sf, seed: 7 }.generate());
        assert_eq!(sf > 0.005, tables.lineorder.num_rows() > 2 * DEFAULT_MORSEL_ROWS as usize);
        for compression in [true, false] {
            let build = |threads| {
                CStoreDb::build_with(
                    tables.clone(),
                    compression,
                    Parallelism::with_threads(threads),
                )
            };
            let serial = build(1);
            for threads in [2, 4] {
                let par = build(threads);
                for (a, b) in stores(&serial).into_iter().zip(stores(&par)) {
                    assert_eq!(a.num_rows(), b.num_rows());
                    for (x, y) in a.columns().iter().zip(b.columns()) {
                        let what = format!("{}.{} at {threads} workers", a.table, x.name);
                        assert_eq!(x.name, y.name, "{what}");
                        assert_eq!(x.column, y.column, "{what}: payload");
                        assert_eq!(a.plain_bytes(&x.name), b.plain_bytes(&y.name), "{what}");
                    }
                }
                assert_eq!(images(&serial), images(&par), "segment bytes at {threads} workers");
                // Ids are process-wide, so only their order can be compared:
                // ascending in schema order, one contiguous block per build.
                let ids = file_ids(&par);
                assert!(ids.windows(2).all(|w| w[1].0 == w[0].0 + 1), "{threads} workers: {ids:?}");
            }
        }
    }
}

/// CRC64 over [`images`], and `total_bytes()`, recorded from the build at
/// commit fb1c359 (clone LINEORDER, remap through `HashMap`s, sort,
/// `permuted`, `ColumnStore::from_table`).
const PARENT: [(f64, u64, bool, u64, u64); 4] = [
    (0.01, 2008, true, 0xb2ce444553df2c5f, 1723731),
    (0.01, 2008, false, 0xf140e7cfefc8201c, 4902143),
    (0.002, 7, true, 0x5f7afeed908b4450, 398463),
    (0.002, 7, false, 0x5444a94247147347, 1161000),
];

/// Same for the snapshot path, which encodes the logical tables' columns
/// with `Column::encode(_, true)`: `(sf, seed, crc, image bytes)`.
const PARENT_SNAPSHOT: [(f64, u64, u64, usize); 2] =
    [(0.01, 2008, 0xe1ab19f930778f26, 3075346), (0.002, 7, 0xd55b0e4dd97328d3, 592241)];

fn tables(sf: f64, seed: u64) -> Arc<SsbTables> {
    Arc::new(SsbConfig { sf, seed }.generate())
}

#[test]
fn encoded_columns_are_the_parents_byte_for_byte() {
    for (sf, seed, compression, crc, bytes) in PARENT {
        let db = CStoreDb::build(tables(sf, seed), compression);
        assert_eq!(db.total_bytes(), bytes, "sf {sf} seed {seed} compression {compression}");
        assert_eq!(crc64(&images(&db)), crc, "sf {sf} seed {seed} compression {compression}");
    }
}

#[test]
fn snapshot_segments_are_the_parents_byte_for_byte() {
    for (sf, seed, crc, len) in PARENT_SNAPSHOT {
        let t = tables(sf, seed);
        let parts = [&t.lineorder, &t.customer, &t.supplier, &t.part, &t.date];
        let columns = parts.iter().flat_map(|table| &table.columns);
        let image: Vec<u8> =
            columns.flat_map(|data| segment_image(&Column::encode(data, true))).collect();
        assert_eq!((crc64(&image), image.len()), (crc, len), "sf {sf} seed {seed}");
    }
}
