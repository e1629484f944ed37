//! # cvr-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! through one binary, `paper`. Each reproduction subcommand builds the
//! physical designs it needs over a generated SSBM database, runs the
//! thirteen queries (one warm-up, `runs` measured executions), and prints
//! the paper's published numbers alongside the measured ones. Subcommands
//! given together run in order over one generated database:
//!
//! ```text
//! cargo run --release -p cvr-bench --bin paper -- selectivity figure5 figure7 --sf 0.02
//! ```
//!
//! ## Cost model: the modeled-2006-disk reproduction
//!
//! Each measured execution reports:
//! * **cpu** — wall-clock of the query execution (all in-memory compute);
//! * **io** — bytes/pages/seeks charged by the storage layer to the query's
//!   [`IoSession`];
//! * **model** — `cpu × cpu_scale + DiskModel::io_time(io)`: the simulated
//!   elapsed time on the paper's testbed. The disk side models the 200 MB/s
//!   4 ms-seek array; `cpu_scale` (default 5) re-balances modern per-byte
//!   CPU speed against the paper's 2.8 GHz 2006-era Pentium so the
//!   CPU-vs-I/O cost structure matches the paper's — without it, CPU-side
//!   optimizations (block iteration, between-predicate rewriting) would be
//!   invisible behind modeled I/O (DESIGN.md §4).
//!
//! Absolute seconds are not comparable to the paper (different scale
//! factor, different decade of hardware); the *ratios between systems* are
//! the reproduction target.
//!
//! ## Subcommands
//!
//! | Subcommand | Regenerates |
//! |---|---|
//! | `figure5` | Fig. 5 — RS / RS (MV) / CS / CS (Row-MV) |
//! | `figure6` | Fig. 6 — T / T(B) / MV / VP / AI |
//! | `figure7` | Fig. 7 — tICL … Ticl optimization removal |
//! | `figure8` | Fig. 8 — Base vs denormalized (No C / Int C / Max C) |
//! | `selectivity` | §3's per-query LINEORDER selectivities |
//! | `storage-sizes` | §6.2's storage-size arithmetic |
//! | `partitioning` | §6.1's partitioning factor-of-two claim |
//! | `ablation` | §6.3.2's between-predicate-rewriting attribution, isolated |
//! | `super-tuples` | §7's row-store prescription (Halverson et al.), implemented |
//!
//! Three more are calibrations and a gate, not reproductions:
//!
//! | Subcommand | Measures | Fails when |
//! |---|---|---|
//! | `kernels` | scan kernels, scalar vs word-parallel per encoding × selectivity; writes `BENCH_kernels.json` | a word kernel is slower than its scalar reference |
//! | `agg` | the aggregation tail, `Value`-keyed vs code-level; writes `BENCH_agg.json` | the best flight-2/3 speedup is below `--min-speedup` |
//! | `planner` | the cost-based planner's regret against the measured best of its grid | a paper query's regret exceeds `--max-regret` |
//!
//! [`build_planner`] reads the two JSON files back as the planner's CPU rates.
//!
//! ## Threads
//!
//! The column engine executes queries with morsel-driven parallelism
//! (`cvr_core::morsel`). `--threads N` sets the worker count; unset, the
//! `CVR_THREADS` environment variable and then the machine's available
//! parallelism decide. The knob governs `ColumnEngine`, CS (Row-MV) and
//! pre-joined-table (`DenormDb`) executions only — the row-store designs
//! reproduce the paper's single-threaded System X and always run serial —
//! and `--threads 1` reproduces the paper's single-threaded column-store
//! measurements. Results and I/O accounting are byte-identical at any
//! thread count — only CPU time changes
//! (`tests/differential.rs::thread_counts_are_byte_identical`).

#![warn(missing_docs)]

pub mod paper;

use cvr_core::morsel::Parallelism;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_storage::io::{BufferPool, DiskModel, IoSession, IoStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `paper` binary's subcommands that make up the modeled-2006-disk
/// reproduction.
pub const REPRODUCTION: [&str; 9] = [
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "selectivity",
    "storage-sizes",
    "partitioning",
    "ablation",
    "super-tuples",
];

/// Its other subcommands: the calibrations and the planner's regret gate.
const CALIBRATIONS: [&str; 3] = ["kernels", "agg", "planner"];

/// The `paper` binary's usage text.
pub const USAGE: &str = "\
usage: paper <subcommand>... [options]

Subcommands run in the order given, over one generated database.

The modeled-2006-disk reproduction (measured cpu x --cpu-scale + a simulated
200 MB/s, 4 ms-seek disk; compare ratios between systems, not seconds):
  figure5 figure6 figure7 figure8   the paper's Figures 5-8
  selectivity                       Section 3's LINEORDER selectivities
  storage-sizes                     Section 6.2's storage sizes, scaled to SF 10
  partitioning                      Section 6.1's partitioning ablation
  ablation                          Section 6.3.2's between-predicate rewriting
  super-tuples                      Section 7's super-tuple VP design

Calibrations and the planner's gate:
  kernels   scan kernels, scalar vs word-parallel; writes BENCH_kernels.json;
            fails when a word kernel is slower than its scalar reference
  agg       aggregation tail, Value-keyed vs code-level; writes BENCH_agg.json;
            fails below --min-speedup on flights 2-3
  planner   planner regret vs the measured best of its grid, paper + generated
            queries; fails above --max-regret on a paper query

options:
  --sf F             scale factor (default 0.02)
  --seed N           generator seed
  --runs N           measured runs per cell, best kept (default 3)
  --pool-fraction F  buffer pool / raw fact bytes (default 0.08)
  --cpu-scale F      modeled cpu multiplier (default 5.0)
  --threads N        column-engine workers (default CVR_THREADS, else all cores)
  --explain          print the planner's plan for each paper query
  --queries N        generated queries `planner` adds (default 30)
  --max-regret F     `planner` gate (default 1.5)
  --n N              values per `kernels` cell (default 1048576) or rows per
                     synthetic `agg` cell (default 262144)
  --min-speedup F    `agg` gate (default 3.0)";

/// Command-line options shared by the `paper` binary's subcommands.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// The subcommands to run, in order (each one [`USAGE`] lists).
    pub commands: Vec<String>,
    /// SSBM scale factor (default 0.02 ⇒ 120 k fact rows).
    pub sf: f64,
    /// Generator seed.
    pub seed: u64,
    /// Measured runs per query (after one warm-up). The minimum is kept.
    pub runs: usize,
    /// Buffer-pool size as a fraction of the raw fact-table bytes
    /// (default 0.08, mirroring the paper's 500 MB pool vs ~6 GB table).
    pub pool_fraction: f64,
    /// Multiplier applied to measured CPU time in the modeled total
    /// (default 5.0: modern cores process these workloads roughly 5x
    /// faster per byte than the paper's 2.8 GHz Pentium D).
    pub cpu_scale: f64,
    /// Worker threads for the column engine's morsel-driven execution
    /// (default: `CVR_THREADS`, else available parallelism).
    pub threads: usize,
    /// Print the cost-based planner's chosen plan and estimate breakdown
    /// per query alongside the measured numbers (`--explain`).
    pub explain: bool,
    /// Number of generated ad-hoc queries `planner` adds to the 13 paper
    /// queries (`--queries`, default 30).
    pub queries: usize,
    /// Regret gate for `planner`: fail when the planner's measured cost
    /// exceeds this multiple of the best-of-grid measured cost on any paper
    /// query (`--max-regret`, default 1.5).
    pub max_regret: f64,
    /// Values per `kernels` cell (default 1 Mi) or rows per synthetic `agg`
    /// cell (default 256 Ki) (`--n`).
    pub n: Option<u32>,
    /// Gate for `agg`: fail when the best flight-2/3 code-level speedup is
    /// below this (`--min-speedup`, default 3).
    pub min_speedup: f64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            commands: Vec::new(),
            sf: 0.02,
            seed: 0x55B0_2008,
            runs: 3,
            pool_fraction: 0.08,
            cpu_scale: 5.0,
            threads: Parallelism::from_env().threads,
            explain: false,
            queries: 30,
            max_regret: 1.5,
            n: None,
            min_speedup: 3.0,
        }
    }
}

impl HarnessArgs {
    /// Parse the process arguments (see [`HarnessArgs::parse_from`]).
    pub fn parse() -> HarnessArgs {
        HarnessArgs::parse_from(std::env::args().skip(1).collect())
    }

    /// Parse subcommands and flags, in any order: every word that is not a
    /// flag or a flag's value is a subcommand. A tiny hand-rolled parser;
    /// an unknown flag or subcommand aborts, `--help` prints [`USAGE`].
    fn parse_from(argv: Vec<String>) -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let mut i = 0;
        while i < argv.len() {
            let take = |i: &mut usize| -> String {
                *i += 1;
                argv.get(*i).unwrap_or_else(|| panic!("missing value for {}", argv[*i - 1])).clone()
            };
            match argv[i].as_str() {
                "--sf" => args.sf = take(&mut i).parse().expect("--sf takes a float"),
                "--seed" => args.seed = take(&mut i).parse().expect("--seed takes an int"),
                "--runs" => args.runs = take(&mut i).parse().expect("--runs takes an int"),
                "--pool-fraction" => {
                    args.pool_fraction = take(&mut i).parse().expect("--pool-fraction float")
                }
                "--cpu-scale" => {
                    args.cpu_scale = take(&mut i).parse().expect("--cpu-scale takes a float")
                }
                "--threads" => {
                    args.threads =
                        take(&mut i).parse::<usize>().expect("--threads takes an int").max(1)
                }
                "--explain" => args.explain = true,
                "--queries" => args.queries = take(&mut i).parse().expect("--queries takes an int"),
                "--max-regret" => {
                    args.max_regret = take(&mut i).parse().expect("--max-regret takes a float")
                }
                "--n" => args.n = Some(take(&mut i).parse().expect("--n takes an int")),
                "--min-speedup" => {
                    args.min_speedup = take(&mut i).parse().expect("--min-speedup takes a float")
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                flag if flag.starts_with('-') => panic!("unknown flag {flag}; try --help"),
                command if REPRODUCTION.contains(&command) || CALIBRATIONS.contains(&command) => {
                    args.commands.push(command.into())
                }
                other => panic!("unknown subcommand {other}; try --help"),
            }
            i += 1;
        }
        args
    }

    /// Generate the SSBM database for these options.
    pub fn tables(&self) -> Arc<SsbTables> {
        Arc::new(SsbConfig { sf: self.sf, seed: self.seed }.generate())
    }

    /// The [`Parallelism`] these options select.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::with_threads(self.threads)
    }
}

/// One measured query execution.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock CPU time of the fastest measured run.
    pub cpu: Duration,
    /// I/O charged during that run.
    pub io: IoStats,
    /// `cpu x cpu_scale + modeled I/O time`.
    pub modeled: Duration,
}

impl Measurement {
    /// Modeled seconds (the number printed in the figures).
    pub fn seconds(&self) -> f64 {
        self.modeled.as_secs_f64()
    }
}

/// A harness over one generated database: shared buffer pool + disk model.
pub struct Harness {
    /// The generated tables.
    pub tables: Arc<SsbTables>,
    /// Harness options.
    pub args: HarnessArgs,
    pool: Arc<BufferPool>,
    disk: DiskModel,
}

impl Harness {
    /// Build a harness; the buffer pool is sized from the raw fact bytes.
    pub fn new(args: HarnessArgs) -> Harness {
        let tables = args.tables();
        // Raw (uncompressed row) fact bytes ≈ rows × ~90 B.
        let raw_bytes = tables.lineorder.num_rows() as u64 * 90;
        let pool_bytes = ((raw_bytes as f64 * args.pool_fraction) as u64).max(1 << 20);
        Harness { tables, args, pool: BufferPool::new(pool_bytes), disk: DiskModel::default() }
    }

    /// The disk model used for `modeled` times.
    pub fn disk(&self) -> DiskModel {
        self.disk
    }

    /// Run `exec` for one query: one warm-up + `runs` measured executions;
    /// returns the best measurement and the query output (verified identical
    /// across runs).
    pub fn measure(&self, exec: impl Fn(&IoSession) -> QueryOutput) -> (Measurement, QueryOutput) {
        // Warm-up (also populates the buffer pool the way the paper's warm
        // runs do).
        let warm_io = IoSession::new(self.pool.clone());
        let reference = exec(&warm_io);

        let mut best: Option<Measurement> = None;
        for _ in 0..self.args.runs.max(1) {
            let io = IoSession::new(self.pool.clone());
            let start = Instant::now();
            let out = exec(&io);
            let cpu = start.elapsed();
            assert_eq!(out, reference, "non-deterministic query result");
            let stats = io.stats();
            let scaled_cpu = cpu.mul_f64(self.args.cpu_scale);
            let m = Measurement { cpu, io: stats, modeled: scaled_cpu + self.disk.io_time(&stats) };
            best = Some(match best {
                None => m,
                Some(b) if m.modeled < b.modeled => m,
                Some(b) => b,
            });
        }
        (best.unwrap(), reference)
    }

    /// Measure a full 13-query series; returns per-query measurements.
    pub fn measure_series(
        &self,
        exec: impl Fn(&SsbQuery, &IoSession) -> QueryOutput,
    ) -> Vec<Measurement> {
        all_queries().iter().map(|q| self.measure(|io| exec(q, io)).0).collect()
    }
}

/// Build a cost-based planner over `engine`, weighing CPU against modeled
/// I/O exactly the way this harness weighs measurements (`--cpu-scale`),
/// and recalibrating the kernel CPU rates from a `BENCH_kernels.json` and
/// the aggregation-tail rates from a `BENCH_agg.json` in the working
/// directory when they exist (the `kernels`/`agg` subcommands' output on
/// *this* machine beats the built-in defaults).
pub fn build_planner(args: &HarnessArgs, engine: &cvr_core::ColumnEngine) -> cvr_plan::Planner {
    let mut rates = std::fs::read_to_string("BENCH_kernels.json")
        .ok()
        .and_then(|s| cvr_plan::CpuRates::from_kernel_bench_json(&s))
        .unwrap_or_default();
    // Compose the aggregation-tail calibration on top: each report file
    // moves only the rates it measures.
    if let Some(agg) = std::fs::read_to_string("BENCH_agg.json")
        .ok()
        .and_then(|s| cvr_plan::CpuRates::from_agg_bench_json(&s))
    {
        rates.agg_row = agg.agg_row;
        rates.agg_code_row = agg.agg_code_row;
    }
    // Plan for *cold* (first-touch) I/O: the `planner` subcommand measures every
    // cell against a fresh pool precisely so that costs are reproducible,
    // and near the capacity cliff of a small warm pool the measured cost is
    // decided by CLOCK eviction history — bimodal and unmodelable.
    let params =
        cvr_plan::CostParams { disk: DiskModel::default(), cpu_scale: args.cpu_scale, rates };
    cvr_plan::Planner::with_params(cvr_plan::Catalog::build(engine), params)
}

/// Print the planner's chosen plan and cost breakdown for every paper query
/// (what `--explain` adds to the reproduction subcommands).
pub fn print_explains(args: &HarnessArgs, engine: &cvr_core::ColumnEngine) {
    let planner = build_planner(args, engine);
    println!("\nPlanner explain (estimated costs; `paper planner` measures regret)");
    println!("------------------------------------------------------------------");
    for q in all_queries() {
        print!("{}", planner.plan(&q).render());
    }
}

/// Render a figure-style table: one row per system, one column per query
/// plus AVG; paper numbers interleaved for comparison.
pub fn render_figure(
    title: &str,
    ours: &[(String, Vec<Measurement>)],
    paper_series: &[paper::PaperSeries],
    sf: f64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = writeln!(
        out,
        "modeled-2006-disk reproduction: modeled seconds at SF {sf} (scaled cpu + simulated \
         200 MB/s disk); paper ran SF 10\n"
    );
    let _ = write!(out, "{:<22}", "system");
    for q in paper::QUERY_LABELS {
        let _ = write!(out, "{q:>10}");
    }
    let _ = writeln!(out, "{:>10}", "AVG");
    for (label, series) in ours {
        let _ = write!(out, "{:<22}", format!("{label} (ours)"));
        let mut sum = 0.0;
        for m in series {
            let s = m.seconds();
            sum += s;
            let _ = write!(out, "{:>10}", significant4(s));
        }
        let _ = writeln!(out, "{:>10}", significant4(sum / series.len() as f64));
        if let Some(p) = paper_series.iter().find(|p| p.label == label.as_str()) {
            let _ = write!(out, "{:<22}", format!("{label} (paper)"));
            for t in p.times {
                let _ = write!(out, "{t:>10.1}");
            }
            let _ = writeln!(out, "{:>10.1}", p.avg());
        }
    }
    // Normalized comparison: each system relative to the first row.
    if ours.len() > 1 && !ours[0].1.is_empty() {
        let _ = writeln!(out, "\naverage relative to {} (ours vs paper):", ours[0].0);
        let base_ours: f64 =
            ours[0].1.iter().map(Measurement::seconds).sum::<f64>() / ours[0].1.len() as f64;
        let base_paper =
            paper_series.iter().find(|p| p.label == ours[0].0).map(paper::PaperSeries::avg);
        for (label, series) in ours {
            let avg = series.iter().map(Measurement::seconds).sum::<f64>() / series.len() as f64;
            let ours_rel = avg / base_ours;
            let paper_rel =
                match (paper_series.iter().find(|p| p.label == label.as_str()), base_paper) {
                    (Some(p), Some(b)) => format!("{:.2}x", p.avg() / b),
                    _ => "-".to_string(),
                };
            let _ = writeln!(out, "  {label:<18} ours {ours_rel:>7.2}x   paper {paper_rel}");
        }
    }
    out
}

/// `x` at four significant digits, so a figure's small-scale seconds
/// (Max C reads ~0.003 s at SF 0.02) still show a move of a few percent.
fn significant4(x: f64) -> String {
    let decimals = if x == 0.0 || !x.is_finite() {
        3
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::queries::query;
    use cvr_row::designs::{RowDb, RowDesign};

    #[test]
    fn figure_seconds_keep_four_significant_digits() {
        let cases = [
            (0.0031274, "0.003127"),
            (0.0426, "0.04260"),
            (1.23456, "1.235"),
            (12.5, "12.50"),
            (4321.9, "4322"),
            (0.0, "0.000"),
        ];
        for (x, want) in cases {
            assert_eq!(significant4(x), want, "{x}");
        }
    }

    #[test]
    fn harness_measures_deterministically() {
        let args = HarnessArgs { sf: 0.001, runs: 2, ..HarnessArgs::default() };
        let h = Harness::new(args);
        let db = RowDb::build(h.tables.clone(), RowDesign::Traditional);
        let q = query(1, 1);
        let (m, out) = h.measure(|io| db.execute(&q, io));
        assert!(m.modeled >= m.cpu);
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn render_contains_all_queries() {
        let args = HarnessArgs { sf: 0.001, runs: 1, ..HarnessArgs::default() };
        let h = Harness::new(args);
        let db = RowDb::build(h.tables.clone(), RowDesign::MaterializedViews);
        let series = h.measure_series(|q, io| db.execute(q, io));
        let s = render_figure("Test", &[("MV".to_string(), series)], &paper::figure6(), 0.001);
        for q in paper::QUERY_LABELS {
            assert!(s.contains(q));
        }
        assert!(s.contains("MV (ours)"));
        assert!(s.contains("MV (paper)"));
    }

    #[test]
    fn subcommands_and_flags_parse_in_any_order() {
        let argv = "figure5 --sf 0.001 ablation --runs 1 kernels --n 4096";
        let args = HarnessArgs::parse_from(argv.split(' ').map(String::from).collect());
        assert_eq!(args.commands, ["figure5", "ablation", "kernels"]);
        assert_eq!((args.sf, args.runs, args.n), (0.001, 1, Some(4096)));
    }

    #[test]
    #[should_panic(expected = "unknown subcommand all")]
    fn unknown_subcommands_are_refused() {
        HarnessArgs::parse_from(vec!["all".into()]);
    }
}
