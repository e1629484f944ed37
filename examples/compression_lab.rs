//! Compression laboratory: what the column store's encoders choose per
//! column, what it costs on disk, and what operating directly on
//! compressed data buys (Section 5.1).
//!
//! ```text
//! cargo run --release --example compression_lab
//! ```

use cvr::core::scan::{refine, ScanPred};
use cvr::core::CStoreDb;
use cvr::core::PosList;
use cvr::data::gen::SsbConfig;
use cvr::storage::encode::{Column, IntColumn};
use cvr::storage::io::IoSession;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let tables = Arc::new(SsbConfig::with_scale(0.05).generate());
    let compressed = CStoreDb::build(tables.clone(), true);
    let plain = CStoreDb::build(tables.clone(), false);

    println!("fact projection encodings (sf 0.05, sorted by orderdate,quantity,discount):\n");
    println!("{:<20}{:>14}{:>14}{:>8}  encoding", "column", "plain B", "encoded B", "ratio");
    for col in compressed.fact.columns() {
        let plain_col = plain.fact.column(&col.name);
        let enc = match &col.column {
            Column::Int(i) if i.is_rle() => format!("RLE ({} runs)", i.runs().len()),
            Column::Int(IntColumn::Packed { packed, .. }) => {
                format!("FoR bit-packed ({} bit lanes)", packed.lane_bits())
            }
            Column::Int(_) => "plain int (byte-packed)".to_string(),
            Column::Str(s) if s.is_dict() => {
                let (dict, codes) = s.dict_parts();
                format!("dict ({} entries, {} bit lanes)", dict.len(), codes.lane_bits())
            }
            Column::Str(_) => "plain varchar".to_string(),
        };
        println!(
            "{:<20}{:>14}{:>14}{:>8.1}  {enc}",
            col.name,
            plain_col.bytes(),
            col.bytes(),
            plain_col.bytes() as f64 / col.bytes().max(1) as f64,
        );
    }

    // Direct operation on compressed data: predicate on the RLE orderdate
    // column evaluates once per run instead of once per row.
    let io = IoSession::unmetered();
    let rle_col = compressed.fact.column("lo_orderdate");
    let plain_col = plain.fact.column("lo_orderdate");
    let in_1993 = |v: i64| (19930101..=19931231).contains(&v);
    let pred = ScanPred::Test(&in_1993);
    let all = PosList::all(rle_col.positions());

    let t = Instant::now();
    let a = refine(rle_col, rle_col.positions(), &all, &pred, true, &io);
    let rle_time = t.elapsed();
    let t = Instant::now();
    let b = refine(plain_col, plain_col.positions(), &all, &pred, true, &io);
    let plain_time = t.elapsed();
    assert_eq!(a.to_vec(), b.to_vec());
    println!(
        "\npredicate `orderdate in 1993` over {} rows:\n  on RLE runs:    {:>8.1} µs\n  on plain array: {:>8.1} µs  ({:.0}x more work)",
        compressed.fact_rows(),
        rle_time.as_secs_f64() * 1e6,
        plain_time.as_secs_f64() * 1e6,
        plain_time.as_secs_f64() / rle_time.as_secs_f64().max(1e-9),
    );
    // Word-parallel kernels on truly bit-packed data: the quantity column
    // bit-packs under compression, and a range predicate over it runs as
    // SWAR compares on the packed words — versus the plain i64 scan.
    let packed_col = compressed.fact.column("lo_quantity");
    let plain_q = plain.fact.column("lo_quantity");
    if packed_col.column.as_int().is_packed() {
        let range = ScanPred::Range { lo: 1, hi: 25 };
        let t = Instant::now();
        let a = refine(packed_col, packed_col.positions(), &all, &range, true, &io);
        let packed_time = t.elapsed();
        let t = Instant::now();
        let b = refine(plain_q, plain_q.positions(), &all, &range, true, &io);
        let plain_time = t.elapsed();
        assert_eq!(a.count(), b.count());
        println!(
            "\npredicate `quantity <= 25` over {} rows:\n  SWAR on packed words: {:>8.1} µs\n  mask scan on plain:   {:>8.1} µs",
            compressed.fact_rows(),
            packed_time.as_secs_f64() * 1e6,
            plain_time.as_secs_f64() * 1e6,
        );
    }

    println!(
        "\ntotal fact bytes: compressed {:.2} MB vs plain {:.2} MB ({:.1}x)",
        compressed.fact_bytes() as f64 / 1e6,
        plain.fact_bytes() as f64 / 1e6,
        plain.fact_bytes() as f64 / compressed.fact_bytes() as f64
    );
}
