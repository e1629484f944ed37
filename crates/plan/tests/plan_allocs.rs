//! Planning allocates for the plan it returns, not per estimate.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! one test here is the only thread allocating while it counts. Run with
//! `--nocapture` to see the counts.

use cvr_core::ColumnEngine;
use cvr_data::gen::SsbConfig;
use cvr_data::queries::all_queries;
use cvr_data::workload::WorkloadConfig;
use cvr_plan::{Catalog, Planner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// What `Planner::plan` allocated over the 13 paper queries when every
/// candidate re-derived the statement's estimates and each estimate over a
/// frequency table allocated one string per entry (commit 9657e32, sf 0.01,
/// each query planned once before counting).
const UNSHARED_PAPER_PLANS: usize = 101_152;

#[test]
fn selectivity_allocates_nothing_and_planning_a_tenth_of_what_it_did() {
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 5 }.generate());
    let planner = Planner::new(Catalog::build(&ColumnEngine::new(tables)));
    let catalog = planner.catalog();
    let paper = all_queries();
    let generated = WorkloadConfig::with_count(255).generate();
    // Once each first: the first plan also fills the planner's static tables
    // of what the paper queries read.
    for q in &paper {
        planner.plan(q);
    }

    let mut selectivity = 0;
    for q in paper.iter().chain(&generated) {
        let (n, sel) = allocations(|| catalog.selectivity(q));
        assert!((0.0..=1.0).contains(&sel), "{}: {sel}", q.id);
        assert_eq!(n, 0, "{}: Catalog::selectivity allocated {n} times", q.id);
        selectivity += n;
    }
    println!("Catalog::selectivity: {selectivity} allocations over {} statements", 13 + 255);

    let mut total = 0;
    for q in &paper {
        let (n, plan) = allocations(|| planner.plan(q));
        println!("{} plan={} allocations={n}", q.id, plan.choice.label());
        total += n;
    }
    let bound = UNSHARED_PAPER_PLANS / 10;
    println!("Planner::plan: {total} allocations over the paper queries (bound {bound})");
    assert!(total <= bound, "{total} allocations planning the paper queries (bound {bound})");
}
