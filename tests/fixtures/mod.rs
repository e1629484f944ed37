//! The one printer and checker of the I/O fixtures in this directory. A
//! fixture line is one cell on one pool, `id design pool bytes_read
//! pages_read seeks`: each cell runs on an unmetered pool, then on a fresh
//! bounded pool that evicts, so its second line also pins the *order* in
//! which the plan charges its pages.

use cvr::core::ExecOptions;
use cvr::data::queries::SsbQuery;
use cvr::data::result::QueryOutput;
use cvr::plan::{Design, Stores};
use cvr::storage::io::{BufferPool, IoSession};
use std::fmt::Write as _;

/// Runs cells through one [`Stores`] and prints their lines.
pub struct Printer<'a> {
    stores: &'a Stores,
    /// The bounded pool's bytes.
    bounded: u64,
    text: String,
}

impl<'a> Printer<'a> {
    /// A printer running on `stores`, its bounded pool `bounded` bytes.
    pub fn new(stores: &'a Stores, bounded: u64) -> Printer<'a> {
        Printer { stores, bounded, text: String::new() }
    }

    /// Run `design` on `q` as `opts` says on both pools, check each answer
    /// against `want`, and append the cell's two lines, the unmetered one
    /// first. A row design's label drops its `row:` prefix, and every label
    /// its spaces, so that each line splits into six fields.
    pub fn cell(&mut self, q: &SsbQuery, want: &QueryOutput, design: Design, opts: &ExecOptions) {
        let label = design.label().trim_start_matches("row:").replace(' ', "");
        let bounded = match self.bounded {
            b if b % (1 << 20) == 0 => format!("{}MiB", b >> 20),
            b => format!("{}KiB", b >> 10),
        };
        let pools = [
            ("unmetered".to_string(), IoSession::unmetered()),
            (bounded, IoSession::new(BufferPool::new(self.bounded))),
        ];
        for (pool, io) in pools {
            let got = self.stores.run(design, q, opts, &io).expect("unbounded lifecycle");
            assert_eq!(&got, want, "{label} on {} ({pool})", q.id);
            let s = io.stats();
            let (id, bytes, pages, seeks) = (q.id, s.bytes_read, s.pages_read, s.seeks);
            let _ = writeln!(self.text, "{id} {label} {pool} {bytes} {pages} {seeks}");
        }
    }

    /// The lines printed so far.
    pub fn text(self) -> String {
        self.text
    }
}

/// Assert `got` equals `fixture` (less its `#` header) line by line, that it
/// has `cells` cells, and that `evicting` of its bounded cells read
/// differently from their unmetered twins, so the fixture keeps exercising
/// eviction.
pub fn assert_pinned(fixture: &str, got: &str, cells: usize, evicting: usize) {
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
