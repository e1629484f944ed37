//! The generated logical tables cost what their values are: a fact row holds
//! 15 `i64`s (120 bytes) and two short strings, and a string column is one
//! text buffer plus a 4-byte end offset a value, not a `String` header and a
//! heap chunk a value.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts.

use cvr_data::gen::SsbConfig;
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
fn generated_tables_keep_at_most_170_bytes_a_fact_row() {
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

    let per_row = live as f64 / rows as f64;
    eprintln!("{live} bytes live ({per_row:.1} a fact row), {allocs} allocations during generate");
    assert!(per_row <= 170.0, "{live} bytes live for {rows} fact rows ({per_row:.1} a row)");
    // 15 i64 columns alone take 120 bytes a row.
    assert!(per_row >= 120.0, "{live} bytes cannot hold {rows} fact rows");
    assert!(allocs <= 37_000, "{allocs} allocations to generate {rows} fact rows");
}
