//! Golden I/O of the row-store designs, and of the column store's row-style
//! designs: what each design charged, byte for byte, and that it answered
//! like the reference.
//!
//! `tests/fixtures/row_iostats.txt` holds, for the 13 paper queries and 30
//! generated statements, every design of [`RowDesign::EXTENDED`] that the
//! planner admits for the statement, run once on an unmetered pool and once
//! on a fresh 64 KiB [`BufferPool`]: bytes read, pages read and seeks. The
//! small pool evicts, so its cells also pin the *order* in which a plan
//! charges its pages — a refactor that opens the same files in another
//! order fails here even when the totals agree. Every answer in the same
//! loop must equal [`reference::evaluate`].
//!
//! `tests/fixtures/row_mv_iostats.txt` does the same for the 13 paper
//! queries on CS (Row-MV) (Section 6.1's tuples stored as strings in one
//! column) and the three pre-joined tables of Figure 8.
//!
//! Print the current text with
//! `cargo test --test row_fixture print_row_iostats -- --ignored --nocapture`
//! (and `print_row_mv_iostats`).

use cvr::core::{ColumnEngine, DenormDb, DenormVariant, EngineConfig, ExecOptions, RowMvDb};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::result::QueryOutput;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, Planner};
use cvr::row::designs::{RowDb, RowDesign};
use cvr::storage::io::{BufferPool, IoSession};
use std::fmt::Write as _;
use std::sync::Arc;

/// The fixture's inputs: the tables, the generated statements, the pool.
const TABLES: SsbConfig = SsbConfig { sf: 0.002, seed: 30 };
const WORKLOAD: WorkloadConfig = WorkloadConfig { seed: 0x504C_414E, count: 30 };
const POOL_BYTES: u64 = 64 << 10;

/// Run one cell on both pools, check each answer against `want`, and
/// append its two lines, `id design pool bytes_read pages_read seeks`, the
/// unmetered one first.
fn cells(
    out: &mut String,
    id: impl std::fmt::Display,
    label: &str,
    want: &QueryOutput,
    run: impl Fn(&IoSession) -> QueryOutput,
) {
    for (pool, io) in [
        ("unmetered", IoSession::unmetered()),
        ("64KiB", IoSession::new(BufferPool::new(POOL_BYTES))),
    ] {
        assert_eq!(&run(&io), want, "{label} on {id} ({pool})");
        let s = io.stats();
        let _ = writeln!(out, "{id} {label} {pool} {} {} {}", s.bytes_read, s.pages_read, s.seeks);
    }
}

/// The text of `row_iostats.txt` (without its `#` header).
fn row_iostats() -> String {
    let tables = Arc::new(TABLES.generate());
    let planner = Planner::new(Catalog::build(&ColumnEngine::new(tables.clone())));
    let statements: Vec<_> = all_queries().into_iter().chain(WORKLOAD.generate()).collect();
    let dbs: Vec<RowDb> =
        RowDesign::EXTENDED.into_iter().map(|d| RowDb::build(tables.clone(), d)).collect();
    let mut out = String::new();
    for q in &statements {
        let want = reference::evaluate(&tables, q);
        let admitted = planner.applicable_row_designs(q);
        for db in dbs.iter().filter(|db| admitted.contains(&db.design())) {
            cells(&mut out, q.id, db.design().label(), &want, |io| db.execute(q, io));
        }
    }
    out
}

/// The text of `row_mv_iostats.txt` (without its `#` header). Labels drop
/// their spaces so that every line splits into six fields.
fn row_mv_iostats() -> String {
    let tables = Arc::new(TABLES.generate());
    let row_mv = RowMvDb::build(tables.clone());
    let denorm: Vec<DenormDb> = [
        DenormVariant::NoCompression,
        DenormVariant::IntCompression,
        DenormVariant::MaxCompression,
    ]
    .into_iter()
    .map(|v| DenormDb::build(tables.clone(), v))
    .collect();
    let opts = ExecOptions::default();
    let mut out = String::new();
    for q in all_queries() {
        let want = reference::evaluate(&tables, &q);
        cells(&mut out, q.id, "CS(Row-MV)", &want, |io| row_mv.run(&q, &opts, io).unwrap());
        for db in &denorm {
            let label = db.variant.label().replace(' ', "");
            cells(&mut out, q.id, &label, &want, |io| {
                db.run(&q, EngineConfig::FULL, &opts, io).unwrap()
            });
        }
    }
    out
}

/// Assert `got` equals `fixture` line by line, that it has `cells` cells,
/// and that `evicting` of its bounded cells read differently from their
/// unmetered twins, so the fixture keeps exercising eviction.
fn assert_pinned(fixture: &str, got: &str, cells: usize, evicting: usize) {
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = got.lines().collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(g, w, "fixture line {} (after the header) differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "line count");
    let stats = |l: &str| l.split_whitespace().skip(3).map(str::to_owned).collect::<Vec<_>>();
    let differ = want.chunks(2).filter(|pair| stats(pair[0]) != stats(pair[1])).count();
    assert_eq!(want.len(), 2 * cells, "cells");
    assert_eq!(differ, evicting, "bounded cells that differ from their unmetered twin");
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
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_row_iostats() {
    print!("{}", row_iostats());
}

#[test]
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_row_mv_iostats() {
    print!("{}", row_mv_iostats());
}
