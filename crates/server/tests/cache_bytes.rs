//! The cache budget is a byte budget: what an entry is charged is what it
//! keeps resident.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts.

use cvr_data::queries::QueryId;
use cvr_data::result::QueryOutput;
use cvr_data::value::{DataType, Value};
use cvr_server::{ColumnMeta, QueryCache, RowsResponse};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

/// Bytes requested and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// A grouped answer shaped like the paper's: `rows` groups keyed by two
/// ~10-character strings and a year.
fn response(rows: usize) -> RowsResponse {
    let key = |i: usize| {
        vec![
            Value::str(format!("UNITED KI{}", i % 10)),
            Value::str(format!("MFGR#{:04}", i)),
            Value::Int(1992 + (i % 7) as i64),
        ]
    };
    let column = |name: &str, dtype| ColumnMeta { name: name.to_string(), dtype };
    RowsResponse {
        query_id: QueryId::new(9, 1),
        plan: "tICL".to_string(),
        columns: vec![
            column("c_city", DataType::Str),
            column("p_brand1", DataType::Str),
            column("d_year", DataType::Int),
            column("SUM(lo_revenue)", DataType::Int),
        ],
        output: QueryOutput::new((0..rows).map(|i| (key(i), i as i64)).collect()),
        io: Default::default(),
        cached: false,
    }
}

#[test]
fn what_the_cache_charges_is_what_it_keeps_resident() {
    // `heap_bytes` is exactly what a copy of the output asks the allocator
    // for — and several times the encoding the budget used to be charged.
    let output = response(1000).output;
    let before = live();
    let copy = output.clone();
    let copied = live() - before;
    assert_eq!(copied, output.heap_bytes() as isize);
    assert!(output.heap_bytes() > 2 * output.to_bytes().len(), "resident rows are not wire rows");
    drop(copy);
    assert_eq!(live(), before);

    // So a cache full of answers holds what its footprint says it holds:
    // within 5 % of the allocator's count (the map grows in powers of two).
    let responses: Vec<RowsResponse> = (0..200).map(|i| response(20 + i % 60)).collect();
    let cache = QueryCache::new(64 << 20);
    cache.put_result("warm-up".to_string(), &responses[0]); // metric registrations
    let _ = cache.get_result("warm-up");
    let (before, charged_before) = (live(), cache.stats().bytes);
    for (i, r) in responses.iter().enumerate() {
        cache.put_result(format!("v0|id=Q9.{i}|dim=[]|fact=[]|group=[]|agg=SumRevenue"), r);
    }
    let (held, charged) = (live() - before, (cache.stats().bytes - charged_before) as isize);
    assert_eq!(cache.stats().evicted, 0);
    assert!((held - charged).abs() * 20 < held, "{charged} B charged for {held} B resident");

    // Hits hand out copies; the entries stay, and dropping the cache frees
    // all of it.
    let hit = cache.get_result("warm-up").expect("resident");
    assert_eq!(hit, responses[0]);
    drop(hit);
    assert_eq!(live() - before, held);
    drop(cache);
    assert!(live() < before, "the warm-up entry goes too");
}
