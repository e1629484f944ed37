//! An integer-keyed B+Tree holds an entry in 12 bytes: an `i64` key and a
//! `u32` rid in struct-of-arrays leaves, node vectors included.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts.

use cvr_index::btree::{BPlusTree, DEFAULT_ORDER};
use cvr_storage::io::IoSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn integer_keyed_bulk_load_keeps_at_most_13_bytes_an_entry() {
    const N: usize = 100_000;
    let before = LIVE.load(Ordering::Relaxed);
    // Shuffled keys with duplicates, like a fact column.
    let entries: Vec<(i64, u32)> = (0..N).map(|i| (((i * 7919) % 5000) as i64, i as u32)).collect();
    let tree = BPlusTree::bulk_load(entries);
    // The entry list was consumed; what is live now is the tree.
    let live = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(tree.len(), N);
    // The node boundaries are the order's, whatever the key type.
    assert_eq!(tree.pages() as usize, N.div_ceil(DEFAULT_ORDER * 2 / 3) + 1, "leaves plus a root");
    assert!(
        live <= 13 * N,
        "{live} bytes live for {N} entries ({:.2} an entry)",
        live as f64 / N as f64
    );
    assert!(live >= 12 * N, "{live} bytes cannot hold {N} keys and rids");
    assert_eq!(tree.full_scan(&IoSession::unmetered()).count(), N);
}
