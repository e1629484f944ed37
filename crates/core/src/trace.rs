//! Per-query execution tracing: a span tree of what each operator actually
//! did.
//!
//! A [`Tracer`] is attached to a [`QueryCtx`](crate::QueryCtx) before
//! execution; engines then open [`Span`]s around their phases (and record
//! one-shot [`Tracer::leaf`] entries for work measured after the fact: the
//! operators of a fused morsel fan-out, whose rows, busy time and I/O are
//! summed over morsels once the fan-out has merged). Each closed span
//! captures the operator name, wall time, output rows, bytes materialized,
//! the [`IoStats`] **delta** over the span, and — for parallel fan-outs —
//! the per-worker busy breakdown the morsel pool reports.
//!
//! Two invariants keep tracing honest:
//!
//! * **Observation only.** Spans snapshot `io.stats()` at open and close;
//!   they never charge the session or the query's memory budget, so a
//!   traced execution is byte-identical — output *and* accounting — to an
//!   untraced one (the differential harness pins this).
//! * **Near-zero cost when off.** Without an attached tracer,
//!   `QueryCtx::span` is one atomic load returning a no-op guard; no
//!   strings are built, no locks taken.
//!
//! Span `op` names deliberately reuse the planner's explain-tree vocabulary
//! (`"probe"`, `"scan"`, `"hash-join"`, `"extract-aggregate"`, ...) so the
//! server can zip estimates with actuals for `EXPLAIN ANALYZE`.

use cvr_storage::io::{IoSession, IoStats};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One closed span: an operator's measured actuals, with children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// Operator name; matches the explain tree's `op` vocabulary where the
    /// execution has a corresponding phase.
    pub op: String,
    /// Short discriminator (typically the column the operator touched).
    pub detail: String,
    /// Wall time between open and close.
    pub wall: Duration,
    /// Rows flowing out of the operator, when the engine reported them.
    pub rows_out: Option<u64>,
    /// Bytes of intermediates the engine reported materializing.
    pub bytes: u64,
    /// I/O charged on the measured session during the span (a delta — the
    /// span itself charges nothing).
    pub io: IoStats,
    /// Per-worker busy CPU time of morsel fan-outs inside this span
    /// (index 0 is the coordinator).
    pub workers: Vec<Duration>,
    /// Morsels executed by fan-outs inside this span.
    pub morsels: u64,
    /// Nested spans, in open order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Pre-order flattening (self first), for estimate/actual zipping.
    pub fn flatten(&self) -> Vec<&SpanRecord> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.flatten());
        }
        out
    }

    /// Indented text rendering, one line per span.
    pub fn render(&self, indent: usize) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{}{}", "  ".repeat(indent), self.op);
        if !self.detail.is_empty() {
            let _ = write!(out, ": {}", self.detail);
        }
        if let Some(rows) = self.rows_out {
            let _ = write!(out, " [rows={rows}]");
        }
        let _ = write!(out, " [wall={}us]", self.wall.as_micros());
        if self.io != IoStats::default() {
            let _ = write!(out, " [io={}p/{}B]", self.io.pages_read, self.io.bytes_read);
        }
        if self.bytes > 0 {
            let _ = write!(out, " [bytes={}]", self.bytes);
        }
        if !self.workers.is_empty() {
            let _ = write!(out, " [workers={} morsels={}]", self.workers.len(), self.morsels);
        }
        out.push('\n');
        for c in &self.children {
            out.push_str(&c.render(indent + 1));
        }
        out
    }

    /// Stable JSON encoding, mirroring the explain tree's hand-rolled
    /// style: fixed field names, `null` for unreported rows.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"op\": ");
        write_json_string(out, &self.op);
        out.push_str(", \"detail\": ");
        write_json_string(out, &self.detail);
        let _ = write!(out, ", \"wall_us\": {}", self.wall.as_micros());
        match self.rows_out {
            Some(r) => {
                let _ = write!(out, ", \"rows_out\": {r}");
            }
            None => out.push_str(", \"rows_out\": null"),
        }
        let _ = write!(out, ", \"bytes\": {}", self.bytes);
        let _ = write!(
            out,
            ", \"io\": {{\"pages_read\": {}, \"bytes_read\": {}, \"seeks\": {}, \"pool_hits\": {}}}",
            self.io.pages_read, self.io.bytes_read, self.io.seeks, self.io.pool_hits
        );
        out.push_str(", \"workers_us\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", w.as_micros());
        }
        let _ = write!(out, "], \"morsels\": {}", self.morsels);
        out.push_str(", \"children\": [");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Write `s` as a JSON string literal (same escaping as the explain tree).
fn write_json_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[derive(Debug, Default)]
struct TracerInner {
    /// Open spans, innermost last; children accumulate in the top entry.
    stack: Vec<SpanRecord>,
    /// Closed top-level spans.
    roots: Vec<SpanRecord>,
}

/// A per-query span collector. Spans open and close on the coordinator
/// thread (engines are span-free inside morsel workers), so one mutex is
/// uncontended; fan-out worker breakdowns arrive through
/// [`Tracer::on_fanout`] after the workers have joined.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A fresh tracer, ready to attach to a `QueryCtx`.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn open(&self, op: &str, detail: &str) {
        let mut inner = self.lock();
        inner.stack.push(SpanRecord {
            op: op.to_string(),
            detail: detail.to_string(),
            ..SpanRecord::default()
        });
    }

    pub(crate) fn close(&self, wall: Duration, io: IoStats, rows: Option<u64>, bytes: u64) {
        let mut inner = self.lock();
        let Some(mut span) = inner.stack.pop() else { return };
        span.wall = wall;
        span.io = io;
        span.rows_out = rows;
        span.bytes = bytes;
        match inner.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => inner.roots.push(span),
        }
    }

    /// Record a one-shot span measured by the caller (used when actuals are
    /// only known after a fused fan-out finishes, so a guard cannot wrap
    /// the work). For an operator of a fused fan-out, `wall` is its busy
    /// time summed over morsels — across workers it can exceed the fused
    /// span's wall — and `io` is the share of the fused span's I/O that
    /// the operator's ops charged in the op-major replay.
    pub fn leaf(&self, op: &str, detail: &str, rows: Option<u64>, wall: Duration, io: IoStats) {
        let mut inner = self.lock();
        let span = SpanRecord {
            op: op.to_string(),
            detail: detail.to_string(),
            wall,
            rows_out: rows,
            io,
            ..SpanRecord::default()
        };
        match inner.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => inner.roots.push(span),
        }
    }

    /// Attach one morsel fan-out's per-worker busy times (`busy[0]` is the
    /// coordinator) and morsel count to the innermost open span.
    pub fn on_fanout(&self, busy: &[Duration], morsels: u64) {
        let mut inner = self.lock();
        if let Some(top) = inner.stack.last_mut() {
            top.workers.extend_from_slice(busy);
            top.morsels += morsels;
        }
    }

    /// Take the completed trace: the single root span when exactly one
    /// top-level span closed (the usual shape — the session wraps the whole
    /// execution), otherwise a synthetic `"query"` root holding whatever
    /// closed. Returns `None` when nothing was recorded.
    pub fn take_root(&self) -> Option<SpanRecord> {
        let mut inner = self.lock();
        // Close any spans a mid-execution abort left open, so the partial
        // trace of a failed query is still a well-formed tree.
        while let Some(span) = inner.stack.pop() {
            match inner.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => inner.roots.push(span),
            }
        }
        let mut roots = std::mem::take(&mut inner.roots);
        match roots.len() {
            0 => None,
            1 => Some(roots.remove(0)),
            _ => {
                Some(SpanRecord { op: "query".to_string(), children: roots, ..Default::default() })
            }
        }
    }
}

/// RAII span guard returned by [`QueryCtx::span`](crate::QueryCtx::span).
/// Annotate with [`Span::rows`] / [`Span::add_bytes`]; measurement happens
/// on drop. The disabled form is a `None` and costs nothing.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    tracer: Arc<Tracer>,
    io: &'a IoSession,
    start: Instant,
    io0: IoStats,
    rows: Option<u64>,
    bytes: u64,
}

impl<'a> Span<'a> {
    /// The disabled guard: records nothing.
    pub fn disabled() -> Span<'a> {
        Span { inner: None }
    }

    /// An active guard over `io` (called by `QueryCtx::span`).
    pub(crate) fn active(
        tracer: Arc<Tracer>,
        op: &str,
        detail: &str,
        io: &'a IoSession,
    ) -> Span<'a> {
        tracer.open(op, detail);
        let io0 = io.stats();
        Span {
            inner: Some(SpanInner { tracer, io, start: Instant::now(), io0, rows: None, bytes: 0 }),
        }
    }

    /// Report the operator's output cardinality.
    pub fn rows(&mut self, n: u64) {
        if let Some(inner) = &mut self.inner {
            inner.rows = Some(n);
        }
    }

    /// Report bytes of materialized intermediates.
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(inner) = &mut self.inner {
            inner.bytes += n;
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let io = inner.io.stats().delta(&inner.io0);
            inner.tracer.close(inner.start.elapsed(), io, inner.rows, inner.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_leaves_attach_to_the_open_span() {
        let tracer = Tracer::new();
        let io = IoSession::unmetered();
        {
            let mut root = Span::active(tracer.clone(), "column-plan", "tICL", &io);
            root.rows(7);
            {
                let mut probe = Span::active(tracer.clone(), "probe", "lo_custkey", &io);
                probe.rows(100);
            }
            tracer.leaf("scan", "lo_discount", Some(42), Duration::ZERO, IoStats::default());
        }
        let root = tracer.take_root().expect("one root");
        assert_eq!(root.op, "column-plan");
        assert_eq!(root.rows_out, Some(7));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].op, "probe");
        assert_eq!(root.children[0].rows_out, Some(100));
        assert_eq!(root.children[1].op, "scan");
        assert_eq!(root.children[1].rows_out, Some(42));
        assert!(tracer.take_root().is_none(), "take_root drains");
    }

    #[test]
    fn fanout_breakdown_lands_on_the_innermost_span() {
        let tracer = Tracer::new();
        let io = IoSession::unmetered();
        {
            let _s = Span::active(tracer.clone(), "extract-aggregate", "", &io);
            tracer.on_fanout(&[Duration::from_micros(5), Duration::from_micros(9)], 4);
            tracer.on_fanout(&[Duration::from_micros(1)], 2);
        }
        let root = tracer.take_root().expect("root");
        assert_eq!(root.workers.len(), 3);
        assert_eq!(root.morsels, 6);
    }

    #[test]
    fn abandoned_spans_still_form_a_tree() {
        let tracer = Tracer::new();
        tracer.open("a", "");
        tracer.open("b", "");
        // No closes (as after a mid-span `?` unwound past forget-like
        // misuse); take_root still folds the stack into a tree.
        let root = tracer.take_root().expect("root");
        assert_eq!(root.op, "a");
        assert_eq!(root.children[0].op, "b");
    }

    #[test]
    fn render_and_json_carry_the_measured_fields() {
        let span = SpanRecord {
            op: "probe".into(),
            detail: "lo_custkey".into(),
            wall: Duration::from_micros(1234),
            rows_out: Some(99),
            bytes: 8,
            io: IoStats { pages_read: 3, bytes_read: 4096, seeks: 1, pool_hits: 2 },
            workers: vec![Duration::from_micros(10), Duration::from_micros(20)],
            morsels: 2,
            children: vec![SpanRecord { op: "scan".into(), ..Default::default() }],
        };
        let text = span.render(0);
        assert!(text.contains("probe: lo_custkey [rows=99] [wall=1234us] [io=3p/4096B]"), "{text}");
        assert!(text.contains("\n  scan"), "{text}");
        let json = span.to_json();
        for needle in [
            "\"op\": \"probe\"",
            "\"wall_us\": 1234",
            "\"rows_out\": 99",
            "\"pages_read\": 3",
            "\"workers_us\": [10, 20]",
            "\"morsels\": 2",
            "\"children\": [{\"op\": \"scan\"",
        ] {
            assert!(json.contains(needle), "{json} missing {needle}");
        }
        assert!(span.children[0].to_json().contains("\"rows_out\": null"));
        assert_eq!(span.flatten().len(), 2);
    }
}
