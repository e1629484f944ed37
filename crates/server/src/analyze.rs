//! `EXPLAIN ANALYZE`: zip the planner's estimate tree with the measured
//! span tree of the execution that just ran.
//!
//! The planner's [`Explain`] tree and the tracer's
//! [`SpanRecord`](cvr_core::SpanRecord) tree share an operator vocabulary
//! (`"probe"`, `"scan"`, `"hash-join"`, `"extract-aggregate"`, ...), but
//! not a shape: fused morsel pipelines report their operators as post-hoc
//! leaf records, and row plans trace only the plan root. So the zip is an
//! *assignment*, not a tree walk:
//!
//! 1. both trees flatten pre-order;
//! 2. each explain node takes the first unclaimed span with the same `op`
//!    whose `detail` is empty or a prefix of the node's detail (span
//!    details are bare column names, node details start with them);
//! 3. still-unmatched nodes take any unclaimed span with the same `op`
//!    (details diverge cosmetically for `materialize`/`pipeline`);
//! 4. nodes left without a span render `actual: -`; spans left without a
//!    node (the synthetic `"query"` root) are listed separately so no
//!    measurement is silently dropped.
//!
//! The text form mirrors [`Plan::render`]; the JSON mirrors
//! [`Plan::to_json`] field-for-field, adding an `"actual"` object (or
//! `null`) per tree node and a top-level `"trace"` with the raw span tree.

use cvr_core::SpanRecord;
use cvr_plan::{Explain, Plan};
use std::fmt::Write as _;

/// Render the analyzed plan: `(text, json)`, both carrying estimates and
/// actuals. `root` is `None` when the execution recorded no spans.
pub(crate) fn render(plan: &Plan, root: Option<&SpanRecord>) -> (String, String) {
    let spans: Vec<&SpanRecord> = root.map(SpanRecord::flatten).unwrap_or_default();
    let nodes = flatten(&plan.explain);
    let assigned = assign(&nodes, &spans);
    (render_text(plan, &nodes, &spans, &assigned), render_json(plan, root, &assigned))
}

/// Pre-order flattening of an explain tree (mirrors `SpanRecord::flatten`).
fn flatten(node: &Explain) -> Vec<&Explain> {
    let mut out = vec![node];
    for c in &node.children {
        out.extend(flatten(c));
    }
    out
}

/// Assign spans to explain nodes: a detail-compatible pass, then an
/// op-only fallback. Each span is claimed at most once.
fn assign<'a>(nodes: &[&Explain], spans: &[&'a SpanRecord]) -> Vec<Option<&'a SpanRecord>> {
    let mut used = vec![false; spans.len()];
    let mut out: Vec<Option<&SpanRecord>> = vec![None; nodes.len()];
    for (ni, node) in nodes.iter().enumerate() {
        for (si, span) in spans.iter().enumerate() {
            let compatible = span.detail.is_empty() || node.detail.starts_with(&span.detail);
            if !used[si] && span.op == node.op && compatible {
                used[si] = true;
                out[ni] = Some(span);
                break;
            }
        }
    }
    for (ni, node) in nodes.iter().enumerate() {
        if out[ni].is_some() {
            continue;
        }
        for (si, span) in spans.iter().enumerate() {
            if !used[si] && span.op == node.op {
                used[si] = true;
                out[ni] = Some(span);
                break;
            }
        }
    }
    out
}

/// The spans no explain node claimed, in trace order.
fn unclaimed<'a>(
    spans: &[&'a SpanRecord],
    assigned: &[Option<&SpanRecord>],
) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| !assigned.iter().any(|a| a.is_some_and(|m| std::ptr::eq(m, **s))))
        .copied()
        .collect()
}

/// One span's actuals in the compact text form.
fn actual_text(span: &SpanRecord) -> String {
    let mut out = String::from("(actual:");
    if let Some(rows) = span.rows_out {
        let _ = write!(out, " rows={rows}");
    }
    let _ = write!(out, " wall={}us", span.wall.as_micros());
    if span.io != Default::default() {
        let _ = write!(out, " io={}p/{}B", span.io.pages_read, span.io.bytes_read);
    }
    if !span.workers.is_empty() {
        let _ = write!(out, " workers={} morsels={}", span.workers.len(), span.morsels);
    }
    out.push(')');
    out
}

fn render_text(
    plan: &Plan,
    nodes: &[&Explain],
    spans: &[&SpanRecord],
    assigned: &[Option<&SpanRecord>],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} plan={} order={:?} est={:.4}s sel={:.2e}",
        plan.query_id,
        plan.choice.label(),
        plan.fact_order,
        plan.seconds,
        plan.est_selectivity,
    );
    // Walk the tree recursively so indentation survives, consuming the
    // pre-order assignment in step.
    let mut at = 0usize;
    render_node(&plan.explain, 1, &mut at, assigned, &mut out);
    debug_assert_eq!(at, nodes.len());
    let extra = unclaimed(spans, assigned);
    if !extra.is_empty() {
        let _ = writeln!(out, "  spans outside the plan tree:");
        for s in extra {
            out.push_str(&s.render(2));
        }
    }
    out
}

fn render_node(
    node: &Explain,
    indent: usize,
    at: &mut usize,
    assigned: &[Option<&SpanRecord>],
    out: &mut String,
) {
    let _ = write!(out, "{}{}: {}", "  ".repeat(indent), node.op, node.detail);
    if let Some(rows) = node.est_rows {
        let _ = write!(out, " [~{rows} rows]");
    }
    if let Some(secs) = node.est_cost_seconds {
        let _ = write!(out, " [{secs:.4}s]");
    }
    match assigned[*at] {
        Some(span) => {
            let _ = write!(out, " {}", actual_text(span));
        }
        None => out.push_str(" (actual: -)"),
    }
    out.push('\n');
    *at += 1;
    for c in &node.children {
        render_node(c, indent + 1, at, assigned, out);
    }
}

/// JSON mirroring `Plan::to_json` field-for-field, with the tree annotated
/// (`"actual"` per node) and the raw span tree appended as `"trace"`.
fn render_json(plan: &Plan, root: Option<&SpanRecord>, assigned: &[Option<&SpanRecord>]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"query\": \"{}\", \"plan\": ", plan.query_id);
    json_string(&mut out, &plan.choice.label());
    let _ = write!(
        out,
        ", \"fact_order\": {:?}, \"est_seconds\": {:.6}, \"est_cpu_seconds\": {:.6}, \
         \"est_io_bytes\": {}, \"est_seeks\": {}, \"est_selectivity\": {:.6e}, \"tree\": ",
        plan.fact_order,
        plan.seconds,
        plan.est.cpu_seconds,
        plan.est.io_bytes,
        plan.est.seeks,
        plan.est_selectivity,
    );
    let mut at = 0usize;
    node_json(&plan.explain, &mut at, assigned, &mut out);
    out.push_str(", \"candidates\": [");
    for (i, (label, secs)) in plan.ranking.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"plan\": ");
        json_string(&mut out, label);
        let _ = write!(out, ", \"est_seconds\": {secs:.6}}}");
    }
    out.push_str("], \"trace\": ");
    match root {
        Some(r) => out.push_str(&r.to_json()),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

fn node_json(node: &Explain, at: &mut usize, assigned: &[Option<&SpanRecord>], out: &mut String) {
    out.push_str("{\"op\": ");
    json_string(out, node.op);
    out.push_str(", \"detail\": ");
    json_string(out, &node.detail);
    match node.est_rows {
        Some(r) => {
            let _ = write!(out, ", \"est_rows\": {r}");
        }
        None => out.push_str(", \"est_rows\": null"),
    }
    match node.est_cost_seconds {
        Some(s) => {
            let _ = write!(out, ", \"est_cost_seconds\": {s:.6}");
        }
        None => out.push_str(", \"est_cost_seconds\": null"),
    }
    out.push_str(", \"actual\": ");
    match assigned[*at] {
        Some(span) => {
            match span.rows_out {
                Some(r) => {
                    let _ = write!(out, "{{\"rows\": {r}");
                }
                None => out.push_str("{\"rows\": null"),
            }
            let _ = write!(
                out,
                ", \"wall_us\": {}, \"io_pages\": {}, \"io_bytes\": {}, \"bytes\": {}, \
                 \"workers\": {}, \"morsels\": {}}}",
                span.wall.as_micros(),
                span.io.pages_read,
                span.io.bytes_read,
                span.bytes,
                span.workers.len(),
                span.morsels,
            );
        }
        None => out.push_str("null"),
    }
    *at += 1;
    out.push_str(", \"children\": [");
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        node_json(c, at, assigned, out);
    }
    out.push_str("]}");
}

/// JSON string literal (same escaping as the explain tree's encoder).
fn json_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(op: &str, detail: &str, rows: u64) -> SpanRecord {
        SpanRecord {
            op: op.into(),
            detail: detail.into(),
            rows_out: Some(rows),
            wall: Duration::from_micros(10),
            ..Default::default()
        }
    }

    #[test]
    fn assignment_prefers_detail_prefix_then_falls_back_to_op() {
        let probe_cust = Explain::node("probe", "lo_custkey (dict, 0.5 MB)");
        let probe_supp = Explain::node("probe", "lo_suppkey (dict, 0.5 MB)");
        let mat = Explain::node("materialize", "16 fact column(s) up front");
        let nodes = vec![&probe_cust, &probe_supp, &mat];
        let s1 = span("probe", "lo_suppkey", 11);
        let s2 = span("probe", "lo_custkey", 22);
        let s3 = span("materialize", "fact columns up front", 33);
        let spans = vec![&s1, &s2, &s3];
        let got = assign(&nodes, &spans);
        // Details route probes to the right dimension regardless of order;
        // the materialize span matches by op alone (details diverge).
        assert_eq!(got[0].unwrap().rows_out, Some(22));
        assert_eq!(got[1].unwrap().rows_out, Some(11));
        assert_eq!(got[2].unwrap().rows_out, Some(33));
    }

    #[test]
    fn each_span_is_claimed_at_most_once() {
        let a = Explain::node("scan", "lo_discount sel 1e-1");
        let b = Explain::node("scan", "lo_discount sel 1e-1");
        let nodes = vec![&a, &b];
        let s = span("scan", "lo_discount", 5);
        let spans = vec![&s];
        let got = assign(&nodes, &spans);
        assert!(got[0].is_some());
        assert!(got[1].is_none(), "one span must not annotate two nodes");
    }
}
