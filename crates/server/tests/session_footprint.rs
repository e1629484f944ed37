//! A built session holds at most 115 bytes a fact row, and serving stays
//! within what it holds once it is built: the serving planner ranks only the
//! column plan shapes (`Planner::for_serving`), so running the paper queries
//! and a generated mix builds no row design on the way, and the mix's
//! transient bytes (its peak less what the built session holds) stay at most
//! 27 a fact row.
//!
//!
//! A reloaded session adopts its snapshot's encoded store and order, and
//! holds at most the bytes that snapshot wrote: no logical tables.
//!
//! Its own test binary: the counting allocator is process-global, so the
//! tests here take turns on [`TURN`] and each is the only one allocating
//! while it counts (the session's morsel workers and scheduler allocate on
//! its behalf, and count too).

use cvr_core::morsel::Parallelism;
use cvr_data::gen::SsbConfig;
use cvr_data::queries::all_queries;
use cvr_data::workload::WorkloadConfig;
use cvr_server::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

struct Counting;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks may be live while the contents move.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

#[test]
fn serving_a_mix_adds_at_most_27_bytes_a_fact_row_to_the_built_session() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    // What is live before this test (another test's leftovers) is not the
    // session's.
    let before = LIVE.load(Ordering::Relaxed);
    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    let rows = tables.lineorder.num_rows() as f64;
    let session = Session::with_cache_budget(tables, Parallelism::with_threads(2), 0);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let built = live.saturating_sub(before);

    let mix = all_queries().into_iter().chain(WorkloadConfig::with_count(255).generate());
    for q in mix {
        session.run(&q);
    }
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let (built_row, peak_row) = (built as f64 / rows, peak as f64 / rows);
    let transient_row = peak_row - built_row;
    eprintln!(
        "{built} bytes live after the build ({built_row:.1} a fact row), \
         {peak} at the peak of the mix ({peak_row:.1} a fact row, \
         {transient_row:.1} above the build)"
    );
    // A ratchet on what the built session holds: its logical tables' integers
    // at their byte widths, its encoded store and its catalog.
    assert!(built_row <= 115.0, "the built session holds {built_row:.1} bytes a fact row");
    // The mix's own transient, bounded apart from what the session holds,
    // so a cut to the session cannot fail it. 23.5 bytes a fact row at sf
    // 0.01 when the bound was set; 27 is what a peak of 1.25x the built
    // session then allowed.
    assert!(
        transient_row <= 27.0,
        "the mix peaked {transient_row:.1} bytes a fact row above the built session \
         ({peak_row:.1} against {built_row:.1})"
    );
}

#[test]
fn a_reloaded_session_holds_no_more_than_its_snapshot() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("cvr-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = LIVE.load(Ordering::Relaxed);
    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    let rows = tables.lineorder.num_rows() as f64;
    // The session holds the only reference: the reload frees the tables.
    let session = Session::with_cache_budget(tables, Parallelism::with_threads(2), 0);
    session.set_data_dir(Some(dir.clone()));
    let snapshot = session.snapshot().expect("snapshot");
    session.reload().expect("reload");
    for q in all_queries() {
        session.run(&q);
    }
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before) as f64 / rows;
    let written = snapshot.bytes as f64 / rows;
    eprintln!(
        "{held:.1} bytes a fact row held after SNAPSHOT, RELOAD and the paper queries; \
         the snapshot wrote {written:.1}"
    );
    assert!(!session.holds_tables(), "no logical table was decoded");
    // What the in-memory forms add to their images: RLE runs at 16 bytes (12
    // on disk), an allocation a dictionary entry, the catalog's maps and the
    // plans. 4.9 bytes a fact row at sf 0.01 when the bound was set; a
    // reloaded session that held its logical tables as well read 107.
    assert!(held <= written + 6.0, "held {held:.1} bytes a fact row, the snapshot {written:.1}");
    let _ = std::fs::remove_dir_all(&dir);
}
