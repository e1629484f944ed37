//! Golden I/O of the row-store designs: what each design charged, byte for
//! byte, and that it answered like the reference.
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
//! Print the current text with
//! `cargo test --test row_fixture -- --ignored --nocapture`.

use cvr::core::ColumnEngine;
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
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

/// The fixture text (without its `#` header): one line a cell,
/// `id design pool bytes_read pages_read seeks`, the unmetered cell first.
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
            let label = db.design().label();
            for (pool, io) in [
                ("unmetered", IoSession::unmetered()),
                ("64KiB", IoSession::new(BufferPool::new(POOL_BYTES))),
            ] {
                assert_eq!(db.execute(q, &io), want, "{label} on {} ({pool})", q.id);
                let s = io.stats();
                let _ = writeln!(
                    out,
                    "{} {label} {pool} {} {} {}",
                    q.id, s.bytes_read, s.pages_read, s.seeks
                );
            }
        }
    }
    out
}

#[test]
fn row_iostats_match_the_pinned_fixture() {
    let fixture = include_str!("fixtures/row_iostats.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let got = row_iostats();
    let got: Vec<&str> = got.lines().collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(g, w, "fixture line {} (after the header) differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "line count");
    // Each unmetered cell is followed by its bounded twin; count the twins
    // whose numbers differ, so the fixture keeps exercising eviction.
    let stats = |l: &str| l.split_whitespace().skip(3).map(str::to_owned).collect::<Vec<_>>();
    let evicting = want.chunks(2).filter(|pair| stats(pair[0]) != stats(pair[1])).count();
    assert_eq!(want.len(), 2 * CELLS, "cells");
    assert_eq!(evicting, EVICTING, "bounded cells that differ from their unmetered twin");
}

/// Cells (statement × admitted design) and how many of them read
/// differently through the 64 KiB pool, as the fixture was recorded.
const CELLS: usize = 214;
const EVICTING: usize = 20;

#[test]
#[ignore = "prints the fixture text; run with --ignored --nocapture"]
fn print_row_iostats() {
    print!("{}", row_iostats());
}
