//! Golden I/O of every system: what each design charged, byte for byte, and
//! that it answered like the reference. Every fixture runs through one
//! [`Stores`] and one printer and checker (`fixtures/mod.rs`), as does
//! `tests/differential.rs::iostats_match_the_pinned_fixture`.
//!
//! `tests/fixtures/row_iostats.txt` holds, for the 13 paper queries and 30
//! generated statements, every row design that the planner admits for the
//! statement, run once on an unmetered pool and once on a fresh 64 KiB
//! buffer pool: bytes read, pages read and seeks. The small pool evicts, so
//! its cells also pin the *order* in which a plan charges its pages — a
//! refactor that opens the same files in another order fails here even when
//! the totals agree. Every answer in the same loop must equal
//! [`reference::evaluate`].
//!
//! `tests/fixtures/row_mv_iostats.txt` does the same for the 13 paper
//! queries on CS (Row-MV) (Section 6.1's tuples stored as strings in one
//! column) and the three pre-joined tables of Figure 8.
//!
//! `tests/fixtures/column_iostats.txt` does the same for the column engine's
//! cells no other fixture pins: the ten configurations that
//! `iostats_serial.txt` leaves out on the 13 paper queries, and the six plan
//! shapes it pins on the 30 generated statements (what `adhoc_stream`
//! serves), at 1 and 4 workers.
//!
//! Print the current text with
//! `cargo test --test row_fixture print_row_iostats -- --ignored --nocapture`
//! (and `print_row_mv_iostats`, `print_column_iostats`).

mod fixtures;

use cvr::core::morsel::Parallelism;
use cvr::core::{DenormVariant, ExecOptions};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, Design, Planner, Stores};
use fixtures::{assert_pinned, Printer};
use std::sync::Arc;

/// The fixtures' inputs: the tables, the generated statements, the pool.
const TABLES: SsbConfig = SsbConfig { sf: 0.002, seed: 30 };
const WORKLOAD: WorkloadConfig = WorkloadConfig { seed: 0x504C_414E, count: 30 };
const POOL_BYTES: u64 = 64 << 10;

fn stores() -> Stores {
    Stores::new(Arc::new(TABLES.generate()), Parallelism::from_env())
}

/// The text of `row_iostats.txt` (without its `#` header).
fn row_iostats() -> String {
    let stores = stores();
    let planner = Planner::new(Catalog::build(stores.engine()));
    let mut out = Printer::new(&stores, POOL_BYTES);
    for q in all_queries().into_iter().chain(WORKLOAD.generate()) {
        let want = reference::evaluate(stores.tables(), &q);
        for design in planner.applicable_row_designs(&q) {
            out.cell(&q, &want, Design::Row(design), &ExecOptions::default());
        }
    }
    out.text()
}

/// The text of `row_mv_iostats.txt` (without its `#` header).
fn row_mv_iostats() -> String {
    let stores = stores();
    let designs = [Design::RowMv].into_iter().chain(DenormVariant::ALL.map(Design::PreJoined));
    let designs: Vec<Design> = designs.collect();
    let mut out = Printer::new(&stores, POOL_BYTES);
    for q in all_queries() {
        let want = reference::evaluate(stores.tables(), &q);
        for &design in &designs {
            out.cell(&q, &want, design, &ExecOptions::default());
        }
    }
    out.text()
}

/// The text of `column_iostats.txt` (without its `#` header) at `threads`
/// workers: on the paper queries the configurations `iostats_serial.txt`
/// leaves out, then on the generated statements the ones it pins.
fn column_iostats(threads: usize) -> String {
    let stores = stores();
    let shapes = Design::plan_shapes();
    let others: Vec<Design> = Design::columns().filter(|d| !shapes.contains(d)).collect();
    let paper = all_queries().into_iter().map(|q| (q, &others));
    let opts = ExecOptions { par: Parallelism::with_threads(threads), ..ExecOptions::default() };
    let mut out = Printer::new(&stores, POOL_BYTES);
    for (q, designs) in paper.chain(WORKLOAD.generate().into_iter().map(|q| (q, &shapes))) {
        let want = reference::evaluate(stores.tables(), &q);
        for &design in designs {
            out.cell(&q, &want, design, &opts);
        }
    }
    out.text()
}

// Cells (statement × design) and how many of them read differently through
// the 64 KiB pool, as each fixture was recorded.

#[test]
fn row_iostats_match_the_pinned_fixture() {
    assert_pinned(include_str!("fixtures/row_iostats.txt"), &row_iostats(), 214, 20);
}

#[test]
fn row_mv_iostats_match_the_pinned_fixture() {
    assert_pinned(include_str!("fixtures/row_mv_iostats.txt"), &row_mv_iostats(), 52, 10);
}

#[test]
fn column_iostats_match_the_pinned_fixture() {
    for threads in [1, 4] {
        let got = column_iostats(threads);
        assert_pinned(include_str!("fixtures/column_iostats.txt"), &got, 310, 45);
    }
}

#[test]
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_row_iostats() {
    print!("{}", row_iostats());
}

#[test]
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_row_mv_iostats() {
    print!("{}", row_mv_iostats());
}

#[test]
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_column_iostats() {
    print!("{}", column_iostats(1));
}
