//! `BPlusTree::bulk_load` allocates per node, not per entry.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts.

use cvr_index::btree::{ikey, BPlusTree, Key, DEFAULT_ORDER};
use cvr_storage::io::IoSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn bulk_load_of_integer_keys_allocates_per_node_not_per_entry() {
    const N: usize = 100_000;
    // Shuffled keys with duplicates, like a fact column.
    let entries: Vec<(Key, u32)> =
        (0..N).map(|i| (ikey(((i * 7919) % 5000) as i64), i as u32)).collect();
    let per_leaf = DEFAULT_ORDER * 2 / 3;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let tree = BPlusTree::bulk_load(entries);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(tree.len(), N);
    let nodes = tree.pages() as usize;
    assert_eq!(nodes, N.div_ceil(per_leaf) + 1, "leaves plus one root");
    // One vector per leaf, two per internal node, and the geometric growth
    // of the node list and of each level's (first key, node) list.
    let budget = 3 * nodes + 64;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {nodes} nodes of {N} entries (budget {budget})"
    );
    assert_eq!(tree.full_scan(&IoSession::unmetered()).count(), N);
}
