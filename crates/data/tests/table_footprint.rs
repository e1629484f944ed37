//! The generated logical tables cost what their values are: an integer
//! column holds each value at the narrowest byte width its values fit (a
//! fact row's 15 integers take 39 bytes, not 15 `i64`s' 120), and a string
//! column is one text buffer plus a 4-byte end offset a value, not a
//! `String` header and a heap chunk a value.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts.

use cvr_data::gen::SsbConfig;
use cvr_data::table::ColumnData;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Calls to `alloc` and `realloc`.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn generated_tables_keep_at_most_70_bytes_a_fact_row() {
    let config = SsbConfig::with_scale(0.01);
    let (live_before, allocs_before) =
        (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    let tables = config.generate();
    // Everything live now is the five tables (the generator's scratch is
    // freed); every allocation made on the way is counted.
    let live = LIVE.load(Ordering::Relaxed) - live_before;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let rows = tables.lineorder.num_rows();
    assert_eq!(rows, 60_000);

    // The bytes the values need: each integer column at the narrowest
    // width that holds its values, each string column's text and offsets.
    let five = [&tables.lineorder, &tables.customer, &tables.supplier, &tables.part, &tables.date];
    let needed: usize = five
        .iter()
        .flat_map(|t| &t.columns)
        .map(|c| match c {
            ColumnData::Int(v) => v.len() * v.narrowest_width() as usize,
            ColumnData::Str(v) => v.text_len() + 4 * v.len(),
        })
        .sum();
    let per_row = live as f64 / rows as f64;
    let needed_row = needed as f64 / rows as f64;
    eprintln!(
        "{live} bytes live ({per_row:.1} a fact row; the values need {needed_row:.1}), \
         {allocs} allocations during generate"
    );
    assert!(per_row <= 70.0, "{live} bytes live for {rows} fact rows ({per_row:.1} a row)");
    assert!(live >= needed, "{live} bytes cannot hold values that need {needed}");
    assert!(allocs <= 37_000, "{allocs} allocations to generate {rows} fact rows");
}
