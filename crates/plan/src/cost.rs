//! The cost model: catalog statistics → modeled seconds.
//!
//! Costs are split the same way the benchmark harness splits measurements
//! (`cvr-bench`): a CPU term and a modeled-disk term,
//!
//! ```text
//! total = cpu_seconds × cpu_scale + io_bytes / bandwidth + seeks × latency
//! ```
//!
//! so an estimated cost is directly comparable to a measured
//! `Measurement::seconds()`. The disk side reuses the storage layer's own
//! [`DiskModel`]; bytes come from the catalog's *actual* per-encoding
//! column sizes and a standard distinct-page estimate for positional
//! gathers. The CPU side prices the operations the engines actually
//! perform — SWAR word compares, scalar block kernels, RLE run walks,
//! tuple-at-a-time `get_next` calls, hash probes, per-tuple row-engine
//! pipeline steps — with per-unit rates that can be recalibrated from
//! `BENCH_kernels.json` (the scan-kernel measurement `paper kernels`
//! writes) or from a quick in-process micro-measurement.

use cvr_storage::io::{DiskModel, PAGE_SIZE};

/// Per-unit CPU costs, in seconds. Defaults describe a contemporary core;
/// the *ratios* (SWAR ≪ scalar ≪ tuple-at-a-time) matter far more than the
/// absolute values, because plan choices compare candidates under the same
/// model.
#[derive(Debug, Clone, Copy)]
pub struct CpuRates {
    /// One 64-lane SWAR word: compare + mask bank.
    pub swar_word: f64,
    /// One value of a plain (byte-aligned) column through the block range
    /// kernel; also one scalar compare in a row-style pipeline.
    /// Recalibratable from `BENCH_kernels.json` (`kernel_ns_per_value` of
    /// the `plain_*` `refine` rows).
    pub scalar_value: f64,
    /// One RLE run through the run-at-a-time scan.
    pub rle_run: f64,
    /// One value through the tuple-at-a-time `get_next` interface.
    pub tuple_value: f64,
    /// One hash-set/map probe (the join probes on non-dense keys, the row
    /// engine's joins) or insertion on the build side.
    pub hash_probe: f64,
    /// One value through a full-window *hash* membership scan (unpack +
    /// open-addressing lookup) — a join on non-dense keys (DATE) whose
    /// matching keys are not contiguous.
    pub probe_scan_value: f64,
    /// One value of a *packed* column through a full-window dense-key
    /// membership scan (unpack + one flag look-up): the invisible join's
    /// fallback and the late join's first probe over reassigned keys, where
    /// the key is the dimension position. Recalibratable from
    /// `BENCH_kernels.json` (`bits_ns_per_value` of the `packed_*` rows).
    pub key_bits_value: f64,
    /// The same over a *plain* column: the look-up alone, nothing to unpack
    /// (`bits_ns_per_value` of the `plain_*` rows).
    pub plain_key_value: f64,
    /// One candidate position tested on its own (positional fetch +
    /// compare) — what a predicate pays per surviving position once earlier
    /// predicates have thinned the morsel below the word kernel's
    /// break-even. Recalibratable from `BENCH_kernels.json`
    /// (`get_ns_per_candidate`).
    pub candidate_value: f64,
    /// One positionally gathered value (late materialization).
    pub gather_value: f64,
    /// One tuple through a row-engine operator (scan parse / filter step).
    pub row_tuple: f64,
    /// One row-engine hash-join probe (tuple clone + table lookup).
    pub row_join_probe: f64,
    /// One aggregated row through the Value-keyed reference grouper
    /// (group-key vector allocation + clones + hash update) — the row
    /// engine's tail, and the column engines' only when a group column has
    /// no code space.
    pub agg_row: f64,
    /// One aggregated row through the code-level aggregator (compose a
    /// `u64` group id from extracted codes, bump a direct slot or `u64`
    /// hash entry) — the column engines' tail. Recalibratable from
    /// `BENCH_agg.json`.
    pub agg_code_row: f64,
    /// One `Value` clone during early-materialization tuple stitching.
    pub value_clone: f64,
    /// One B+Tree leaf entry scanned (index-only plans).
    pub index_entry: f64,
    /// One B+Tree leaf entry *streamed* by a key-range scan (clone the
    /// key, push the rid, set a bitmap bit). Cheaper than `index_entry`
    /// — a range scan walks leaves in order with no per-entry descent —
    /// but still an allocation-bearing entry copy, not a bare load.
    pub index_leaf_entry: f64,
    /// One position materialized into an explicit intermediate list (the
    /// late-materialized join's `to_vec`/clone/re-intersect traffic; the
    /// invisible join stays on bitmap words and never pays this).
    pub poslist_touch: f64,
}

impl Default for CpuRates {
    fn default() -> Self {
        CpuRates {
            // Effective rates, calibrated against serial warm-pool
            // measurements of the repo's own engines at sf 0.02 (the
            // per-candidate costs `paper planner` measures): they fold in
            // the surrounding machinery — mask banking and position
            // accumulation for SWAR words, run lookups for RLE — not just
            // the arithmetic.
            swar_word: 6.0e-9,
            // In situ over 16 Ki-row windows (`paper kernels`): 0.32 ns a
            // value at two bytes, 0.50 at four — the widths SSB's plain fact
            // columns have.
            scalar_value: 0.4e-9,
            rle_run: 4.0e-9,
            tuple_value: 1.2e-8,
            // Open-addressing tables, one multiply-shift hash per probe; the
            // rate is the pipelined in-loop cost, not a cold lookup's.
            hash_probe: 1.5e-9,
            probe_scan_value: 5.0e-9,
            // The dense-key path really is array-backed: one flag per key,
            // behind a lane unpack (2.0–2.5 ns) or a plain load (0.62–0.85).
            key_bits_value: 2.1e-9,
            plain_key_value: 0.75e-9,
            candidate_value: 3.5e-9,
            gather_value: 3.0e-9,
            row_tuple: 1.5e-7,
            row_join_probe: 1.2e-7,
            agg_row: 6.0e-8,
            agg_code_row: 4.0e-9,
            value_clone: 1.5e-8,
            index_entry: 1.5e-7,
            index_leaf_entry: 9.0e-8,
            poslist_touch: 1.5e-8,
        }
    }
}

impl CpuRates {
    /// Recalibrate the kernel-layer rates from a `BENCH_kernels.json`
    /// written by `paper kernels` on this machine. Only the
    /// fields that file measures move (`swar_word`, and — when the report
    /// has `refine` and `membership` rows — `scalar_value`,
    /// `candidate_value`, `key_bits_value` and `plain_key_value`); the rest
    /// keep their defaults. Returns `None` when the string does not look
    /// like a kernels report.
    pub fn from_kernel_bench_json(json: &str) -> Option<CpuRates> {
        if !json.contains("\"bench\": \"kernels\"") {
            return None;
        }
        // Minimal field scraper (the workspace vendors no JSON parser): the
        // kernels report has one result object per line with known keys.
        let mut word = Vec::new();
        let mut plain = Vec::new();
        let mut candidate = Vec::new();
        let mut key_bits = Vec::new();
        let mut plain_key = Vec::new();
        for line in json.lines() {
            let grab = |key: &str| -> Option<f64> {
                let at = line.find(key)? + key.len();
                let rest = &line[at..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            };
            // Each rate from the rows of the layout it prices: the SWAR
            // word, `PackedInts::get` and the unpacking probe from packed
            // rows, the block kernel and the bare look-up from plain ones.
            if line.contains("\"encoding\": \"plain_") {
                plain.extend(grab("\"kernel_ns_per_value\":"));
                plain_key.extend(grab("\"bits_ns_per_value\":"));
            } else {
                word.extend(grab("\"word_ns_per_value\":"));
                candidate.extend(grab("\"get_ns_per_candidate\":"));
                key_bits.extend(grab("\"bits_ns_per_value\":"));
            }
        }
        if word.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let d = CpuRates::default();
        let measured =
            |v: &[f64], default: f64| if v.is_empty() { default } else { mean(v) * 1e-9 };
        Some(CpuRates {
            candidate_value: measured(&candidate, d.candidate_value),
            key_bits_value: measured(&key_bits, d.key_bits_value),
            plain_key_value: measured(&plain_key, d.plain_key_value),
            scalar_value: measured(&plain, d.scalar_value),
            // word_ns_per_value is per *value*; a word carries ~8 lanes at
            // the benchmark's mid widths, and the engine wraps the raw
            // kernel in mask banking + position accumulation (~3× the bare
            // compare in the serial engine measurements).
            swar_word: mean(&word) * 1e-9 * 8.0 * 3.0,
            ..d
        })
    }

    /// Recalibrate the aggregation-tail rates from a `BENCH_agg.json`
    /// written by `paper agg` on this machine: `agg_row` from the
    /// measured Value-keyed grouper, `agg_code_row` from the code-level
    /// aggregator, each averaged across the report's cells. Returns `None`
    /// when the string does not look like an agg report.
    pub fn from_agg_bench_json(json: &str) -> Option<CpuRates> {
        if !json.contains("\"bench\": \"agg\"") {
            return None;
        }
        let mut value = Vec::new();
        let mut code = Vec::new();
        for line in json.lines() {
            let grab = |key: &str| -> Option<f64> {
                let at = line.find(key)? + key.len();
                let rest = &line[at..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            };
            if let Some(v) = grab("\"value_ns_per_row\":") {
                value.push(v);
            }
            if let Some(v) = grab("\"code_ns_per_row\":") {
                code.push(v);
            }
        }
        if value.is_empty() || code.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Some(CpuRates {
            agg_row: mean(&value) * 1e-9,
            agg_code_row: mean(&code) * 1e-9,
            ..CpuRates::default()
        })
    }
}

/// Everything needed to turn a [`CostBreakdown`] into seconds, mirroring
/// the harness's `cpu × cpu_scale + DiskModel::io_time` arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// The modeled disk (defaults to the paper's 200 MB/s, 4 ms seeks).
    pub disk: DiskModel,
    /// CPU multiplier, matching the harness `--cpu-scale` (default 5).
    pub cpu_scale: f64,
    /// Per-operation CPU rates.
    pub rates: CpuRates,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams { disk: DiskModel::default(), cpu_scale: 5.0, rates: CpuRates::default() }
    }
}

/// The union working set of a plan: per-file bytes touched, each file
/// counted once at the *largest* touch (a full scan subsumes any gather).
/// A file is a `(kind, name)` pair: `("", column)` for a stored column,
/// `("heap", table)`, `("idx", column)` or `("vp", column)` for a row
/// design's. A plan touches a few dozen files at most, so they sit in a
/// list.
#[derive(Debug, Clone, Default)]
pub struct WorkingSet<'a>(Vec<((&'static str, &'a str), u64)>);

impl<'a> WorkingSet<'a> {
    /// Record `bytes` touched of `file` (max-merged per file).
    pub fn touch(&mut self, file: (&'static str, &'a str), bytes: u64) {
        match self.0.iter_mut().find(|(f, _)| *f == file) {
            Some((_, slot)) => *slot = (*slot).max(bytes),
            None => self.0.push((file, bytes)),
        }
    }

    /// Total distinct bytes.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|(_, bytes)| bytes).sum()
    }
}

/// An estimated cost: CPU seconds plus modeled disk traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Estimated CPU seconds (before `cpu_scale`).
    pub cpu_seconds: f64,
    /// Estimated bytes read from the modeled disk.
    pub io_bytes: u64,
    /// Estimated positioning seeks.
    pub seeks: u64,
}

impl CostBreakdown {
    /// Accumulate another term.
    pub fn add(&mut self, other: CostBreakdown) {
        self.cpu_seconds += other.cpu_seconds;
        self.io_bytes += other.io_bytes;
        self.seeks += other.seeks;
    }

    /// Pure-CPU term.
    pub fn cpu(seconds: f64) -> CostBreakdown {
        CostBreakdown { cpu_seconds: seconds, ..CostBreakdown::default() }
    }

    /// Modeled seconds under `params` — comparable to a measured
    /// `Measurement::seconds()`.
    pub fn seconds(&self, params: &CostParams) -> f64 {
        let transfer = self.io_bytes as f64 / params.disk.seq_bandwidth;
        let seeks = params.disk.seek_latency.as_secs_f64() * self.seeks as f64;
        self.cpu_seconds * params.cpu_scale + transfer + seeks
    }
}

/// Expected distinct pages touched when gathering `k` roughly uniform
/// positions from a file of `pages` pages (the classic Cardenas/Yao
/// approximation `P·(1 − (1 − 1/P)^k)`, in its exp form).
pub fn pages_touched(k: u64, pages: u64) -> u64 {
    if pages == 0 || k == 0 {
        return 0;
    }
    let p = pages as f64;
    (p * (1.0 - (-(k as f64) / p).exp())).ceil().min(p) as u64
}

/// Cost of a full sequential scan of a file of `bytes` bytes: one
/// positioning seek, then pure transfer.
pub fn seq_scan(bytes: u64) -> CostBreakdown {
    CostBreakdown { cpu_seconds: 0.0, io_bytes: bytes, seeks: 1 }
}

/// Cost of gathering `k` positions out of `n` from a column of `bytes`
/// bytes: distinct pages at page grain, each treated as a seek (positions
/// are sparse once `k ≪ n`), plus per-value decode CPU.
pub fn gather(k: u64, n: u64, bytes: u64, rates: &CpuRates) -> CostBreakdown {
    if n == 0 || k == 0 {
        return CostBreakdown::default();
    }
    let pages = bytes.div_ceil(PAGE_SIZE).max(1);
    let touched = pages_touched(k.min(n), pages);
    // Positions ascend, so touched pages are visited in order: a page is a
    // *seek* only when the previous touched page was not its neighbor.
    // Expected skips = touched × (1 − touched/pages); dense gathers that
    // touch every page degrade to one positioning seek, like a scan.
    let skip_fraction = 1.0 - touched as f64 / pages as f64;
    let seeks = 1 + (touched as f64 * skip_fraction).round() as u64;
    CostBreakdown {
        cpu_seconds: k as f64 * rates.gather_value,
        io_bytes: touched * PAGE_SIZE.min(bytes),
        seeks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_mirror_harness_arithmetic() {
        let p = CostParams::default();
        let c = CostBreakdown { cpu_seconds: 0.01, io_bytes: 200 * 1024 * 1024, seeks: 10 };
        // 0.01×5 + 1.0s transfer + 0.04s seeks
        let s = c.seconds(&p);
        assert!((s - 1.09).abs() < 1e-9, "{s}");
    }

    #[test]
    fn pages_touched_saturates() {
        assert_eq!(pages_touched(0, 100), 0);
        assert_eq!(pages_touched(1, 100), 1);
        assert!(pages_touched(50, 100) <= 50);
        assert_eq!(pages_touched(1_000_000, 100), 100);
    }

    #[test]
    fn gather_cheaper_than_scan_when_sparse() {
        let rates = CpuRates::default();
        let scan = seq_scan(10 * 1024 * 1024);
        let g = gather(10, 1_000_000, 10 * 1024 * 1024, &rates);
        assert!(g.io_bytes < scan.io_bytes);
    }

    #[test]
    fn kernel_json_recalibration() {
        let json = r#"{
  "bench": "kernels",
  "n": 1024,
  "results": [
    {"kernel": "int_range", "encoding": "packed_b6", "selectivity": 0.01, "scalar_ns_per_value": 2.0, "word_ns_per_value": 0.25, "speedup": 8.0},
    {"kernel": "int_range", "encoding": "plain_u16", "selectivity": 0.01, "scalar_ns_per_value": 1.0, "word_ns_per_value": 0.1, "speedup": 10.0},
    {"kernel": "refine", "encoding": "packed_w6", "candidate_density": 0.05, "kernel_ns_per_value": 1.2, "window_ns_per_value": 1.3, "refine_ns_per_value": 0.3, "get_ns_per_candidate": 3.0},
    {"kernel": "refine", "encoding": "packed_w17", "candidate_density": 0.2, "kernel_ns_per_value": 1.3, "window_ns_per_value": 1.3, "refine_ns_per_value": 0.8, "get_ns_per_candidate": 4.0},
    {"kernel": "refine", "encoding": "plain_u16", "candidate_density": 0.2, "kernel_ns_per_value": 0.3, "window_ns_per_value": 0.3, "refine_ns_per_value": 0.4, "get_ns_per_candidate": 2.0},
    {"kernel": "refine", "encoding": "plain_u32", "candidate_density": 0.2, "kernel_ns_per_value": 0.5, "window_ns_per_value": 0.5, "refine_ns_per_value": 0.6, "get_ns_per_candidate": 2.0},
    {"kernel": "membership", "encoding": "packed_w13", "key_fraction": 0.01, "hash_ns_per_value": 5.0, "bits_ns_per_value": 2.0, "hash_ns_per_candidate": 4.5, "bits_ns_per_candidate": 3.2},
    {"kernel": "membership", "encoding": "plain_u16", "key_fraction": 0.01, "hash_ns_per_value": 4.0, "bits_ns_per_value": 0.8, "hash_ns_per_candidate": 3.5, "bits_ns_per_candidate": 1.7}
  ]
}"#;
        let rates = CpuRates::from_kernel_bench_json(json).expect("parses");
        // Packed rows price the packed rates, plain rows the plain ones.
        assert!((rates.swar_word - 0.25e-9 * 8.0 * 3.0).abs() < 1e-12);
        assert!((rates.candidate_value - 3.5e-9).abs() < 1e-12);
        assert!((rates.key_bits_value - 2.0e-9).abs() < 1e-12);
        assert!((rates.scalar_value - 0.4e-9).abs() < 1e-12);
        assert!((rates.plain_key_value - 0.8e-9).abs() < 1e-12);
        // A report from before the refine/membership rows keeps the defaults.
        let old = json.lines().filter(|l| !l.contains("_per_candidate")).collect::<Vec<_>>();
        let rates = CpuRates::from_kernel_bench_json(&old.join("\n")).expect("parses");
        let d = CpuRates::default();
        assert_eq!(rates.candidate_value, d.candidate_value);
        assert_eq!(rates.key_bits_value, d.key_bits_value);
        assert_eq!(
            (rates.scalar_value, rates.plain_key_value),
            (d.scalar_value, d.plain_key_value)
        );
        assert!(CpuRates::from_kernel_bench_json("{}").is_none());
    }

    #[test]
    fn agg_json_recalibration() {
        let json = r#"{
  "bench": "agg",
  "results": [
    {"cell": "Q2.1", "rows": 1000, "groups": 70, "value_ns_per_row": 80.0, "code_ns_per_row": 5.0, "speedup": 16.0},
    {"cell": "Q3.1", "rows": 1000, "groups": 150, "value_ns_per_row": 120.0, "code_ns_per_row": 7.0, "speedup": 17.1}
  ]
}"#;
        let rates = CpuRates::from_agg_bench_json(json).expect("parses");
        assert!((rates.agg_row - 100.0e-9).abs() < 1e-12);
        assert!((rates.agg_code_row - 6.0e-9).abs() < 1e-12);
        assert!(CpuRates::from_agg_bench_json("{}").is_none());
        // The kernels parser must not eat agg reports and vice versa.
        assert!(CpuRates::from_kernel_bench_json(json).is_none());
    }
}
