//! The harness's own tracing: one span per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Spans are recorded from *outside* the layers (around public calls), so
//! turning them on changes no code inside the program under test. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use cvr_core::SpanRecord;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module.call` (the per-layer metric's prefix).
    pub name: &'static str,
    /// Nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace's epoch; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one statement share this identifier.
    pub stmt: u64,
}

/// An in-memory span store.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace { epoch: Instant::now(), spans: Vec::new() }
    }
}

/// Metric prefix for an engine operator name (the explain-tree vocabulary
/// `cvr_core::trace` records).
pub fn core_op_name(op: &str) -> &'static str {
    match op {
        "scan" => "core.scan",
        "probe" => "core.probe",
        "hash-join" => "core.hash_join",
        "extract-aggregate" => "core.extract_aggregate",
        "filter-replay" => "core.filter_replay",
        "materialize" => "core.materialize",
        "pipeline" => "core.pipeline",
        "column-plan" | "row-plan" => "core.plan_root",
        "result-cache" => "server.cache.result_hit",
        _ => "core.other",
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span with explicit bounds.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        stmt: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, stmt });
        self.spans.len() - 1
    }

    /// Open a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, stmt: u64) -> usize {
        let now = self.now();
        self.push(name, now, now, parent, stmt)
    }

    /// Close the span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span and return its result with the span's id.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, stmt);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Attach the engine's measured span tree under `parent`. A
    /// [`SpanRecord`] carries durations but no start times, so siblings are
    /// laid end to end from their parent's start (clipped to its end) — the
    /// order the engine opened them in.
    pub fn import(&mut self, rec: &SpanRecord, parent: usize) {
        let (start, end, stmt) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.stmt)
        };
        self.import_at(rec, parent, start, end, stmt);
    }

    fn import_at(&mut self, rec: &SpanRecord, parent: usize, start: u64, limit: u64, stmt: u64) {
        let end = (start + rec.wall.as_nanos() as u64).min(limit);
        let id = self.push(core_op_name(&rec.op), start, end, Some(parent), stmt);
        let mut at = start;
        for child in &rec.children {
            self.import_at(child, id, at, end, stmt);
            at = (at + child.wall.as_nanos() as u64).min(end);
        }
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals (clipped to the span), so overlapping children are not
    /// subtracted twice.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        let mut out = Vec::with_capacity(self.spans.len());
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            out.push((s.end_ns - s.start_ns) - covered);
        }
        out
    }

    /// Self time per layer name: `(total ns, per-statement sums in ns)`.
    /// A statement contributes one entry per name it has spans of.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, Vec<f64>)> {
        let mut per_stmt: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *per_stmt.entry((s.name, s.stmt)).or_default() += ns;
        }
        let mut out: BTreeMap<&'static str, (u64, Vec<f64>)> = BTreeMap::new();
        for ((name, _), ns) in per_stmt {
            let e = out.entry(name).or_default();
            e.0 += ns;
            e.1.push(ns as f64);
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "stmt": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.stmt
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let mut t = Trace::default();
        let root = t.push("stmt", 0, 100, None, 1);
        let mid = t.push("server.session.execute", 10, 90, Some(root), 1);
        t.push("core.scan", 20, 50, Some(mid), 1);
        assert_eq!(t.self_ns(), vec![20, 50, 30]);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        let mut t = Trace::default();
        let root = t.push("stmt", 0, 100, None, 1);
        t.push("a", 10, 60, Some(root), 1);
        t.push("b", 40, 80, Some(root), 1); // overlaps a by 20
        t.push("c", 50, 55, Some(root), 1); // inside both
        t.push("d", 90, 140, Some(root), 1); // runs past the parent: clipped
        assert_eq!(t.self_ns()[root], 100 - 70 - 10);
    }

    #[test]
    fn self_times_group_by_name_and_statement() {
        let mut t = Trace::default();
        for stmt in [1, 2] {
            let root = t.push("stmt", 0, 100, None, stmt);
            t.push("core.scan", 0, 10, Some(root), stmt);
            t.push("core.scan", 10, 30, Some(root), stmt);
        }
        let by = t.self_by_name();
        assert_eq!(by["core.scan"], (60, vec![30.0, 30.0]));
        assert_eq!(by["stmt"], (140, vec![70.0, 70.0]));
        assert_eq!(t.durations("core.scan"), vec![10.0, 20.0, 10.0, 20.0]);
    }

    #[test]
    fn imported_engine_spans_are_laid_end_to_end_inside_their_parent() {
        let ms = Duration::from_millis;
        let leaf = |op: &str, wall| SpanRecord { op: op.into(), wall, ..SpanRecord::default() };
        let rec = SpanRecord {
            op: "column-plan".into(),
            wall: ms(10),
            children: vec![leaf("scan", ms(2)), leaf("probe", ms(3)), leaf("mystery", ms(40))],
            ..SpanRecord::default()
        };
        let mut t = Trace::default();
        let exec = t.push("server.session.execute", 1_000_000, 12_000_000, None, 7);
        t.import(&rec, exec);
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["server.session.execute", "core.plan_root", "core.scan", "core.probe", "core.other"]
        );
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1_000_000, 3_000_000));
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (3_000_000, 6_000_000));
        // The over-long child is clipped to the root's end.
        assert_eq!((t.spans[4].start_ns, t.spans[4].end_ns), (6_000_000, 11_000_000));
        assert!(t.spans.iter().all(|s| s.stmt == 7));
        // execute: 11 ms − 10 ms root; root: 10 ms fully covered.
        assert_eq!(t.self_ns(), vec![1_000_000, 0, 2_000_000, 3_000_000, 5_000_000]);
    }
}
