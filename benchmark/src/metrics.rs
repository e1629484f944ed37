//! The benchmark's vocabulary — workloads, end-to-end metrics, per-layer
//! metrics — read from `BENCHMARK.json`, the one place that lists it, and
//! the rules its names obey.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One metric: name, unit, which direction is better, and for an
/// end-to-end metric the share of the parent's median it may worsen by.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    /// Workload names, in the file's order.
    pub workloads: Vec<String>,
    /// What a user of the server sees. Measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// One number per layer boundary, from the `--trace 1` pass. The layer
    /// is the metric's prefix (`crate.module`); README.md maps each to the
    /// end-to-end metric it should move.
    pub per_layer: Vec<MetricDef>,
}

impl Vocabulary {
    /// Read and check `BENCHMARK.json`: the working directory's (the driver
    /// runs the benchmark from the root of a checkout), else the one beside
    /// the source tree this binary was built from.
    pub fn load() -> Result<Vocabulary, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found")?;
        let vocabulary = Vocabulary::parse(&text)?;
        vocabulary.validate()?;
        Ok(vocabulary)
    }

    pub fn parse(text: &str) -> Result<Vocabulary, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no {key} list"))
        };
        let field = |v: &Value, key: &str| -> Result<String, String> {
            let s = v.get(key).and_then(Value::as_str);
            s.map(str::to_string).ok_or(format!("BENCHMARK.json: {v} has no {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            let defs = list(key)?.iter().map(|d| {
                Ok(MetricDef {
                    name: field(d, "name")?,
                    unit: field(d, "unit")?,
                    better: field(d, "better")?,
                    bound: d.get("bound").and_then(Value::as_f64),
                })
            });
            defs.collect()
        };
        Ok(Vocabulary {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// A metric or workload name: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// A unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

impl Vocabulary {
    /// Check the vocabulary against the benchmark contract's shape: four
    /// workloads, at most 16 end-to-end and 128 per-layer metrics (at least
    /// one each), valid names used once, valid units, a direction, a bound of
    /// at most 0.25 on every end-to-end metric and none below, and a
    /// `setup_s` in seconds that is better lower.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.len() != 4 {
            return Err(format!("{} workloads, expected 4", self.workloads.len()));
        }
        if !(1..=16).contains(&self.end_to_end.len()) {
            return Err(format!("{} end-to-end metrics, allowed 1..=16", self.end_to_end.len()));
        }
        if !(1..=128).contains(&self.per_layer.len()) {
            return Err(format!("{} per-layer metrics, allowed 1..=128", self.per_layer.len()));
        }
        let mut seen = std::collections::BTreeSet::new();
        let metrics = self.end_to_end.iter().chain(&self.per_layer);
        for name in self.workloads.iter().chain(metrics.clone().map(|d| &d.name)) {
            if !valid_name(name) {
                return Err(format!("invalid name {name:?}"));
            }
            if !seen.insert(name) {
                return Err(format!("name {name:?} used twice"));
            }
        }
        for d in metrics {
            if !valid_unit(&d.unit) {
                return Err(format!("{}: invalid unit {:?}", d.name, d.unit));
            }
            if d.better != "lower" && d.better != "higher" {
                return Err(format!("{}: better must be lower or higher", d.name));
            }
        }
        for d in &self.end_to_end {
            if !d.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
                return Err(format!("{}: needs a bound in (0, 0.25]", d.name));
            }
        }
        if let Some(d) = self.per_layer.iter().find(|d| d.bound.is_some()) {
            return Err(format!("{}: a per-layer metric has no bound", d.name));
        }
        let is_setup = |d: &MetricDef| d.name == "setup_s" && d.unit == "s" && d.better == "lower";
        if !self.end_to_end.iter().any(is_setup) {
            return Err("end-to-end metrics must include setup_s in s, better lower".to_string());
        }
        Ok(())
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result object a run prints as its last line: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding every metric of
/// `defs` — a missing or unknown one means the harness and `BENCHMARK.json`
/// disagree, and no result is printed.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<Value, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("measured {extra:?}, which BENCHMARK.json does not declare"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name.as_str())
            .ok_or_else(|| format!("metric {:?} is declared but was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {:?} is {v}", d.name));
        }
        let entry = Value::obj([("value", Value::Num(v)), ("unit", Value::str(&d.unit))]);
        metrics.push((d.name.clone(), entry));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, unit: &str, better: &str, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            unit: unit.to_string(),
            better: better.to_string(),
            bound,
        }
    }

    fn many(n: usize, bound: Option<f64>) -> Vec<MetricDef> {
        (0..n).map(|i| m(&format!("m{i}"), "ms", "lower", bound)).collect()
    }

    /// A smallest valid vocabulary for the rejection cases to break.
    fn small() -> Vocabulary {
        Vocabulary {
            workloads: ["a", "b", "c", "d"].map(str::to_string).to_vec(),
            end_to_end: vec![m("setup_s", "s", "lower", Some(0.25))],
            per_layer: vec![m("layer_us", "us", "lower", None)],
        }
    }

    #[test]
    fn names_are_letters_digits_underscore_dot_dash() {
        for ok in
            ["p50_ms", "q1.1.p50_ms", "core.hash_join.self_ms", "a-b", "9lives", &"x".repeat(64)]
        {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/ed", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn the_shipped_benchmark_json_is_valid_and_names_the_workloads() {
        let shipped = Vocabulary::load().unwrap();
        assert_eq!(shipped.workloads, crate::workloads::Workload::ALL.map(|w| w.name()));
    }

    #[test]
    fn parse_reads_names_units_directions_and_bounds() {
        let text = r#"{"workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]}"#;
        let v = Vocabulary::parse(text).unwrap();
        assert_eq!(v.workloads, ["a"]);
        assert_eq!(v.end_to_end, [m("setup_s", "s", "lower", Some(0.2))]);
        assert_eq!(v.per_layer, [m("hits", "count", "higher", None)]);
        assert!(Vocabulary::parse(r#"{"workloads": []}"#).is_err(), "lists missing");
        assert!(Vocabulary::parse(&text.replace(r#""unit": "s", "#, "")).is_err(), "no unit");
    }

    #[test]
    fn validator_rejects_each_broken_shape() {
        small().validate().unwrap();
        let broken = |change: &dyn Fn(&mut Vocabulary)| {
            let mut v = small();
            change(&mut v);
            v.validate().is_err()
        };
        assert!(broken(&|v| v.workloads.truncate(3)), "three workloads");
        let mut most = small();
        most.end_to_end.extend(many(15, Some(0.1)));
        most.validate().expect("16 end-to-end is the limit");
        assert!(broken(&|v| v.end_to_end.extend(many(16, Some(0.1)))), "17 end-to-end");
        assert!(broken(&|v| v.per_layer = many(129, None)), "129 per-layer");
        assert!(broken(&|v| v.per_layer.clear()), "no per-layer");
        assert!(broken(&|v| v.per_layer.push(m("setup_s", "s", "lower", None))), "duplicate");
        assert!(broken(&|v| v.per_layer.push(m("a", "us", "lower", None))), "workload's name");
        assert!(broken(&|v| v.per_layer.push(m("bad name", "ms", "lower", None))));
        assert!(broken(&|v| v.per_layer.push(m("x", "m s", "lower", None))), "unit");
        assert!(broken(&|v| v.per_layer.push(m("x", "ms", "sideways", None))), "direction");
        assert!(broken(&|v| v.per_layer.push(m("x", "ms", "lower", Some(0.1)))), "layer bound");
        assert!(broken(&|v| v.end_to_end.push(m("x", "ms", "lower", None))), "no bound");
        assert!(broken(&|v| v.end_to_end.push(m("x", "ms", "lower", Some(0.3)))), "bound > 0.25");
        assert!(broken(&|v| v.end_to_end[0].unit = "ms".to_string()), "setup_s not in s");
    }

    #[test]
    fn result_line_needs_exactly_the_declared_metrics() {
        let defs = [m("p50_ms", "ms", "lower", None), m("qps", "1/s", "higher", None)];
        let mut values = Values::new();
        values.insert("p50_ms", 1.25);
        assert!(result_line(&defs, &values, 10, 0).is_err(), "qps missing");
        values.insert("qps", 800.5);
        let line = result_line(&defs, &values, 10, 1).unwrap().to_string();
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 10, "failed": 1, "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}, "qps": {"value": 800.5, "unit": "1/s"}}}"#
        );
        values.insert("stray", 1.0);
        assert!(result_line(&defs, &values, 10, 0).is_err(), "undeclared metric");
    }
}
