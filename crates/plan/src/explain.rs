//! Structured explain trees.
//!
//! [`Explain`] used to be a debug-print helper: one free-form label per
//! node. Serving plans over a wire protocol needs something sturdier — a
//! tree with **stable field names** (`op`, `detail`, `est_rows`,
//! `est_cost_seconds`, `children`) that renders identically everywhere it
//! is shown: the `--explain` flag of the CLI binaries, the `EXPLAIN`
//! payload of the server protocol, and test assertions all go through
//! [`Explain::render`] / [`Explain::to_json`] on the same value.
//!
//! The JSON encoder is hand-rolled (the build environment has no serde):
//! field names are part of the wire contract and pinned by tests.

use cvr_core::trace::write_json_string;
use std::fmt::Write as _;

/// One node of an explain tree: a stable operator name, a human detail
/// string, and optional per-node estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Stable operator name (`"probe"`, `"scan"`, `"hash-join"`, ...).
    /// Part of the wire contract: renderers and clients match on this.
    pub op: &'static str,
    /// Free-form description (column names, sizes, modes).
    pub detail: String,
    /// Estimated rows flowing out of this operator, when the model has one.
    pub est_rows: Option<u64>,
    /// Estimated modeled seconds attributable to this operator, when the
    /// model prices it as a discrete step.
    pub est_cost_seconds: Option<f64>,
    /// Sub-operators.
    pub children: Vec<Explain>,
}

impl Explain {
    /// A leaf node with no estimates.
    pub fn node(op: &'static str, detail: impl Into<String>) -> Explain {
        Explain {
            op,
            detail: detail.into(),
            est_rows: None,
            est_cost_seconds: None,
            children: Vec::new(),
        }
    }

    /// Builder: attach an estimated output cardinality.
    pub fn rows(mut self, rows: u64) -> Explain {
        self.est_rows = Some(rows);
        self
    }

    /// Builder: attach an estimated per-operator cost.
    pub fn cost(mut self, seconds: f64) -> Explain {
        self.est_cost_seconds = Some(seconds);
        self
    }

    /// Append a child node.
    pub fn push(&mut self, child: Explain) {
        self.children.push(child);
    }

    /// Indented tree rendering — the one text form of an explain tree,
    /// shared by the CLI binaries and the wire protocol's `EXPLAIN` text.
    pub fn render(&self, indent: usize) -> String {
        let mut out = format!("{}{}: {}", "  ".repeat(indent), self.op, self.detail);
        if let Some(rows) = self.est_rows {
            let _ = write!(out, " [~{rows} rows]");
        }
        if let Some(secs) = self.est_cost_seconds {
            let _ = write!(out, " [{secs:.4}s]");
        }
        out.push('\n');
        for c in &self.children {
            out.push_str(&c.render(indent + 1));
        }
        out
    }

    /// Stable JSON encoding. Field names (`op`, `detail`, `est_rows`,
    /// `est_cost_seconds`, `children`) are the wire contract; optional
    /// estimates encode as `null` when absent so the shape is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"op\": ");
        write_json_string(out, self.op);
        out.push_str(", \"detail\": ");
        write_json_string(out, &self.detail);
        match self.est_rows {
            Some(r) => {
                let _ = write!(out, ", \"est_rows\": {r}");
            }
            None => out.push_str(", \"est_rows\": null"),
        }
        match self.est_cost_seconds {
            Some(s) => {
                let _ = write!(out, ", \"est_cost_seconds\": {s:.6}");
            }
            None => out.push_str(", \"est_cost_seconds\": null"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Explain {
        let mut root = Explain::node("plan", "column tICL (invisible join)");
        root.push(Explain::node("probe", "lo_custkey (dict, 0.5 MB)").rows(1200).cost(0.002));
        root.push(Explain::node("aggregate", "2 group col(s)").rows(56));
        root
    }

    #[test]
    fn render_shows_ops_estimates_and_nesting() {
        let s = tree().render(0);
        assert!(s.contains("plan: column tICL"), "{s}");
        assert!(s.contains("  probe: lo_custkey"), "{s}");
        assert!(s.contains("[~1200 rows]"), "{s}");
        assert!(s.contains("[0.0020s]"), "{s}");
        assert!(s.contains("[~56 rows]"), "{s}");
    }

    #[test]
    fn json_has_stable_field_names() {
        let j = tree().to_json();
        for field in
            ["\"op\"", "\"detail\"", "\"est_rows\"", "\"est_cost_seconds\"", "\"children\""]
        {
            assert!(j.contains(field), "{j} missing {field}");
        }
        assert!(j.contains("\"est_rows\": 1200"), "{j}");
        assert!(j.contains("\"est_cost_seconds\": null"), "{j}");
    }
}
