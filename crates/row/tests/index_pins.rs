//! The index-bearing designs' shapes and modeled I/O, pinned to the values
//! the tree-of-`Vec<Value>` B+Tree produced (recorded at commit fb1c359,
//! sf 0.01, seed 2008). The cost model reads `bytes()` and the I/O model
//! charges one page per node, so a key representation or a bulk load that
//! moved any of these would silently change plans and Figure 6.

use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::all_queries;
use cvr_index::btree::{BPlusTree, IndexKey};
use cvr_row::designs::traditional::BITMAP_COLUMNS;
use cvr_row::designs::{AiDb, RowDb, RowDesign, TraditionalDb, TraditionalOptions};
use cvr_storage::io::{IoSession, PAGE_SIZE};
use std::sync::Arc;

fn tables() -> Arc<SsbTables> {
    Arc::new(SsbConfig { sf: 0.01, seed: 2008 }.generate())
}

/// `(pages, height, entries, leaves)`; `bytes()` is one page per node.
fn shape<K: IndexKey>(tree: &BPlusTree<K>) -> (u32, usize, usize, u64) {
    assert_eq!(tree.bytes(), tree.pages() as u64 * PAGE_SIZE);
    let io = IoSession::unmetered();
    let entries = tree.full_scan(&io).count();
    assert_eq!(entries, tree.len());
    // A full scan charges each leaf once: the leaf count, hence the fill.
    (tree.pages(), tree.height(), entries, io.stats().pages_read)
}

/// 60 000 entries at 1365 per leaf (2/3 of order 2048): 44 leaves, the last
/// one partial, under one root.
const FACT_INDEX: (u32, usize, usize, u64) = (45, 2, 60_000, 44);

#[test]
fn bitmap_index_shapes_match_the_parent() {
    let db = TraditionalDb::build(
        tables(),
        TraditionalOptions { partitioned: true, bitmap_indexes: true, use_bloom: true },
    );
    for col in BITMAP_COLUMNS {
        assert_eq!(shape(db.fact_index(col).expect("built")), FACT_INDEX, "{col}");
    }
    assert!(db.fact_index("lo_revenue").is_none());
}

#[test]
fn index_only_shapes_match_the_parent() {
    let db = AiDb::build(tables());
    let mut got: Vec<_> = db.indexes().map(|(col, tree)| (col, shape(tree))).collect();
    got.sort_unstable();
    let small = |entries| (1, 1, entries, 1);
    let two_leaves = |entries| (3, 2, entries, 2);
    let want = [
        ("c_city", small(300)),
        ("c_nation", small(300)),
        ("c_region", small(300)),
        ("d_weeknuminyear", two_leaves(2557)),
        ("d_year", two_leaves(2557)),
        ("d_yearmonth", two_leaves(2557)),
        ("d_yearmonthnum", two_leaves(2557)),
        ("lo_custkey", FACT_INDEX),
        ("lo_discount", FACT_INDEX),
        ("lo_extendedprice", FACT_INDEX),
        ("lo_orderdate", FACT_INDEX),
        ("lo_partkey", FACT_INDEX),
        ("lo_quantity", FACT_INDEX),
        ("lo_revenue", FACT_INDEX),
        ("lo_suppkey", FACT_INDEX),
        ("lo_supplycost", FACT_INDEX),
        ("p_brand1", two_leaves(2000)),
        ("p_category", two_leaves(2000)),
        ("p_mfgr", two_leaves(2000)),
        ("s_city", small(20)),
        ("s_nation", small(20)),
        ("s_region", small(20)),
    ];
    assert_eq!(got, want);
    assert_eq!(db.bytes(), want.iter().map(|(_, s)| s.0 as u64 * PAGE_SIZE).sum::<u64>());
}

/// `(bytes_read, pages_read, seeks)` of the 13 paper queries, in flight
/// order, on a fresh unmetered session each.
const TB_IO: [(u64, u64, u64); 13] = [
    (6438928, 197, 7),
    (2080784, 64, 34),
    (917504, 28, 10),
    (6444711, 198, 28),
    (2528919, 78, 46),
    (1939095, 60, 29),
    (6552283, 202, 18),
    (2505419, 78, 45),
    (473803, 16, 7),
    (539339, 18, 9),
    (8254434, 253, 17),
    (7724448, 238, 44),
    (3874192, 120, 25),
];
const AI_IO: [(u64, u64, u64); 13] = [
    (4161536, 127, 8),
    (3801088, 116, 8),
    (3735552, 114, 10),
    (5996544, 183, 9),
    (5931008, 181, 8),
    (5931008, 181, 8),
    (5996544, 183, 10),
    (5996544, 183, 10),
    (5931008, 181, 8),
    (5963776, 182, 9),
    (8880128, 271, 12),
    (8945664, 273, 14),
    (8945664, 273, 14),
];

#[test]
fn index_plan_iostats_match_the_parent() {
    let tables = tables();
    for (design, want) in [(RowDesign::TraditionalBitmap, TB_IO), (RowDesign::IndexOnly, AI_IO)] {
        let db = RowDb::build(tables.clone(), design);
        for (q, want) in all_queries().iter().zip(want) {
            let io = IoSession::unmetered();
            db.execute(q, &io);
            let s = io.stats();
            assert_eq!((s.bytes_read, s.pages_read, s.seeks), want, "{} {}", design.label(), q.id);
        }
    }
}
