//! Component microbenchmarks for the paper's execution techniques:
//! direct operation on RLE vs decode-then-scan, block vs tuple iteration,
//! between-predicate vs hash-set probes (the invisible join's two key-test
//! paths), position-list intersection across representations, and the
//! B+Tree/hash substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cvr_core::poslist::PosList;
use cvr_core::scan::{refine, ScanPred};
use cvr_data::gen::rng::SplitMix64;
use cvr_index::bitmap::RidBitmap;
use cvr_index::btree::{ikey, BPlusTree};
use cvr_index::hashidx::IntHashSet;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn};
use cvr_storage::io::IoSession;
use std::hint::black_box;

const N: usize = 1_000_000;

fn sorted_values() -> Vec<i64> {
    (0..N as i64).map(|i| i / 400).collect()
}

fn random_values() -> Vec<i64> {
    let mut rng = SplitMix64::new(7);
    (0..N).map(|_| rng.int_range(0, 30_000)).collect()
}

/// The plain whole-column scan under a per-value test.
fn scan_where(
    col: &StoredColumn,
    test: impl Fn(i64) -> bool,
    block: bool,
    io: &IoSession,
) -> PosList {
    let all = PosList::all(col.positions());
    refine(col, col.positions(), &all, &ScanPred::Test(&test), block, io)
}

fn bench_rle_direct_vs_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rle_direct_ops");
    let rle = StoredColumn::new("c", Column::Int(IntColumn::rle(&sorted_values())));
    let plain = StoredColumn::new("c", Column::Int(IntColumn::plain_fixed(sorted_values())));
    let io = IoSession::unmetered();
    g.bench_function("predicate_on_runs", |b| {
        b.iter(|| black_box(scan_where(&rle, |v| (100..=200).contains(&v), true, &io)))
    });
    g.bench_function("predicate_after_decode", |b| {
        b.iter(|| {
            let decoded = rle.column.as_int().decode();
            let hits = decoded.iter().filter(|&&v| (100..=200).contains(&v)).count();
            black_box(hits)
        })
    });
    g.bench_function("predicate_on_plain", |b| {
        b.iter(|| black_box(scan_where(&plain, |v| (100..=200).contains(&v), true, &io)))
    });
    g.finish();
}

fn bench_block_vs_tuple(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_vs_tuple_scan");
    let col = StoredColumn::new("c", Column::Int(IntColumn::plain_fixed(random_values())));
    let io = IoSession::unmetered();
    g.bench_function("block_as_array", |b| {
        b.iter(|| black_box(scan_where(&col, |v| v < 3_000, true, &io)))
    });
    g.bench_function("tuple_get_next", |b| {
        b.iter(|| black_box(scan_where(&col, |v| v < 3_000, false, &io)))
    });
    g.finish();
}

fn bench_between_vs_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("between_vs_hash_probe");
    let fks = random_values();
    // Same selected key set both ways: keys 1000..=4000.
    let set = IntHashSet::from_keys(1000..=4000);
    g.bench_function("between_predicate", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &v in &fks {
                if (1000..=4000).contains(&v) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("hash_set_probe", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &v in &fks {
                if set.contains(v) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_poslist_intersect(c: &mut Criterion) {
    let mut g = c.benchmark_group("poslist_intersect");
    let n = N as u32;
    let range_a = PosList::Range { start: 100_000, end: 700_000, universe: n };
    let range_b = PosList::Range { start: 300_000, end: 900_000, universe: n };
    let bm_a =
        PosList::Bitmap { base: 0, bits: RidBitmap::from_rids(n, (0..n).filter(|p| p % 3 == 0)) };
    let bm_b =
        PosList::Bitmap { base: 0, bits: RidBitmap::from_rids(n, (0..n).filter(|p| p % 5 == 0)) };
    let ex_a = PosList::Explicit { positions: (0..n).step_by(101).collect(), universe: n };
    let ex_b = PosList::Explicit { positions: (0..n).step_by(103).collect(), universe: n };
    g.bench_function("range_range", |b| b.iter(|| black_box(range_a.intersect(&range_b))));
    g.bench_function("bitmap_bitmap", |b| b.iter(|| black_box(bm_a.intersect(&bm_b))));
    g.bench_function("explicit_explicit", |b| b.iter(|| black_box(ex_a.intersect(&ex_b))));
    g.bench_function("range_bitmap", |b| b.iter(|| black_box(range_a.intersect(&bm_a))));
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    let entries: Vec<_> = (0..200_000i64).map(|i| (ikey(i), i as u32)).collect();
    let tree = BPlusTree::bulk_load(entries.clone());
    let io = IoSession::unmetered();
    g.bench_function("bulk_load_200k", |b| {
        b.iter_batched(|| entries.clone(), BPlusTree::bulk_load, BatchSize::LargeInput)
    });
    g.bench_function("point_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 200_000;
            black_box(tree.lookup(&ikey(k), &io))
        })
    });
    g.bench_function("range_scan_1k", |b| {
        b.iter(|| black_box(tree.range_scan(Some(&ikey(50_000)), Some(&ikey(51_000)), &io)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rle_direct_vs_decode,
    bench_block_vs_tuple,
    bench_between_vs_hash,
    bench_poslist_intersect,
    bench_btree
);
criterion_main!(benches);
