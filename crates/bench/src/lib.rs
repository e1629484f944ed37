//! # cvr-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! Each binary builds the physical designs it needs over a generated SSBM
//! database, runs the thirteen queries (one warm-up, `runs` measured
//! executions), and prints the paper's published numbers alongside the
//! measured ones.
//!
//! ## Cost model
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
//! ## Binaries
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `figure5` | Fig. 5 — RS / RS (MV) / CS / CS (Row-MV) |
//! | `figure6` | Fig. 6 — T / T(B) / MV / VP / AI |
//! | `figure7` | Fig. 7 — tICL … Ticl optimization removal |
//! | `figure8` | Fig. 8 — Base vs denormalized (No C / Int C / Max C) |
//! | `selectivity` | §3's per-query LINEORDER selectivities |
//! | `storage_sizes` | §6.2's storage-size arithmetic |
//! | `partitioning` | §6.1's partitioning factor-of-two claim |
//! | `ablation` | §6.3.2's between-predicate-rewriting attribution, isolated |
//! | `super_tuples` | §7's row-store prescription (Halverson et al.), implemented |
//! | `scaling` | morsel-driven parallelism: threads-vs-speedup over the 13 queries |
//! | `kernels` | scan kernels: scalar vs word-parallel per encoding × selectivity (emits `BENCH_kernels.json`) |
//! | `planner` | cost-based planner regret vs the measured best-of-grid, paper + generated queries (emits `BENCH_planner.json`) |
//! | `server_bench` | closed-loop TCP client harness against `cvr-server`: N connections, p50/p99 latency, QPS, concurrent-vs-serial byte-identity (emits `BENCH_server.json`) |
//! | `chaos` | fault-injection harness: drives the server with I/O faults, worker panics, stalls, and frame truncation armed; gates availability, byte-identity, cancel latency, and zero hangs (emits `BENCH_chaos.json`) |
//! | `all` | the full evaluation in one run |
//!
//! ## Threads
//!
//! The column engine executes queries with morsel-driven parallelism
//! (`cvr_core::morsel`). Every binary accepts `--threads N`; unset, the
//! `CVR_THREADS` environment variable and then the machine's available
//! parallelism decide. The knob governs `ColumnEngine` executions only —
//! the row-store designs reproduce the paper's single-threaded System X and
//! always run serial — and `--threads 1` reproduces the paper's
//! single-threaded column-store measurements. Results and I/O accounting
//! are byte-identical at any thread count — only CPU time changes. The `scaling` binary sweeps thread
//! counts {1, 2, 4, 8} over the 13-query flight set and prints a
//! threads-vs-speedup table; because CI containers often pin a single core,
//! it reports **critical-path CPU time** (serial coordinator time plus the
//! busiest worker's CPU time per fan-out) next to wall-clock, and verifies
//! outputs and I/O stats against the `--threads 1` run.

#![warn(missing_docs)]

pub mod paper;

use cvr_core::morsel::Parallelism;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_storage::io::{BufferPool, DiskModel, IoSession, IoStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
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
    /// (default: `CVR_THREADS`, else available parallelism). The `scaling`
    /// binary sweeps thread counts from {1, 2, 4, 8} up to
    /// `max(threads, 4)` — it never sweeps below 4, so the scaling table
    /// stays meaningful even where the default resolves to 1.
    pub threads: usize,
    /// Print the cost-based planner's chosen plan and estimate breakdown
    /// per query alongside the measured numbers (`--explain`).
    pub explain: bool,
    /// Number of generated ad-hoc queries the `planner` binary adds to the
    /// 13 paper queries (`--queries`, default 30).
    pub queries: usize,
    /// Regret gate for the `planner` binary: fail when the planner's
    /// measured cost exceeds this multiple of the best-of-grid measured
    /// cost on any paper query (`--max-regret`, default 1.5).
    pub max_regret: f64,
    /// Concurrent client connections for the `server_bench` binary
    /// (`--connections`, default 8).
    pub connections: usize,
    /// SQL statements each `server_bench` connection issues
    /// (`--statements`, default 64).
    pub statements: usize,
    /// Cache hit-rate gate for the `server_bench` binary: fail when the
    /// concurrent repeated-workload run's result-cache hit-rate falls below
    /// this fraction (`--min-hit-rate`, default 0.0 ⇒ no gate).
    pub min_hit_rate: f64,
    /// Fault spec the `chaos` binary arms during its workload phase
    /// (`--fault`, [`cvr_storage::fault::FaultConfig::parse`] grammar).
    pub fault: String,
    /// Watchdog for the `chaos` binary: the process exits 2 when the run
    /// has not finished after this many seconds (`--watchdog`) — a hang is
    /// a gate failure, not a stuck CI job.
    pub watchdog: u64,
    /// Availability gate for the `chaos` binary: fail when fewer than this
    /// fraction of statements eventually produce a byte-identical answer
    /// (`--min-availability`, default 0.99).
    pub min_availability: f64,
    /// Cancel-latency gate for the `chaos` binary: fail when the p99 of
    /// cancel-to-ERROR latency exceeds this many milliseconds
    /// (`--max-cancel-p99-ms`, default 50; gated only when ≥ 10 probes
    /// produce a sample).
    pub max_cancel_p99_ms: f64,
    /// Cancel probes the `chaos` binary fires (`--cancels`, default 24).
    pub cancels: usize,
    /// `server_bench --trace-overhead`: measure per-statement latency with
    /// tracing off vs on over a cache-disabled session, write
    /// `BENCH_obs.json`, and gate the p50 overhead.
    pub trace_overhead: bool,
    /// Overhead gate for `--trace-overhead`: fail when traced p50 exceeds
    /// untraced p50 by more than this fraction (`--max-trace-overhead`,
    /// default 0.05).
    pub max_trace_overhead: f64,
    /// Keep the `server_bench` server (and its metrics endpoint, when
    /// `CVR_METRICS_ADDR` bound one) alive this many milliseconds after
    /// the run, so an external prober can scrape it (`--hold-ms`,
    /// default 0).
    pub hold_ms: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            sf: 0.02,
            seed: 0x55B0_2008,
            runs: 3,
            pool_fraction: 0.08,
            cpu_scale: 5.0,
            threads: Parallelism::from_env().threads,
            explain: false,
            queries: 30,
            max_regret: 1.5,
            connections: 8,
            statements: 64,
            min_hit_rate: 0.0,
            fault: "io:0.00001,panic:0.001,stall:0.1:2,trunc:0.02".to_string(),
            watchdog: 120,
            min_availability: 0.99,
            max_cancel_p99_ms: 50.0,
            cancels: 24,
            trace_overhead: false,
            max_trace_overhead: 0.05,
            hold_ms: 0,
        }
    }
}

impl HarnessArgs {
    /// Parse `--sf`, `--seed`, `--runs`, `--pool-fraction` from the process
    /// arguments (tiny hand-rolled parser; unknown flags abort with usage).
    pub fn parse() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
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
                "--connections" => {
                    args.connections =
                        take(&mut i).parse::<usize>().expect("--connections takes an int").max(1)
                }
                "--statements" => {
                    args.statements =
                        take(&mut i).parse::<usize>().expect("--statements takes an int").max(1)
                }
                "--min-hit-rate" => {
                    args.min_hit_rate = take(&mut i).parse().expect("--min-hit-rate takes a float")
                }
                "--fault" => args.fault = take(&mut i),
                "--watchdog" => {
                    args.watchdog = take(&mut i).parse().expect("--watchdog takes seconds")
                }
                "--min-availability" => {
                    args.min_availability =
                        take(&mut i).parse().expect("--min-availability takes a float")
                }
                "--max-cancel-p99-ms" => {
                    args.max_cancel_p99_ms =
                        take(&mut i).parse().expect("--max-cancel-p99-ms takes a float")
                }
                "--cancels" => args.cancels = take(&mut i).parse().expect("--cancels takes an int"),
                "--trace-overhead" => args.trace_overhead = true,
                "--max-trace-overhead" => {
                    args.max_trace_overhead =
                        take(&mut i).parse().expect("--max-trace-overhead takes a float")
                }
                "--hold-ms" => {
                    args.hold_ms = take(&mut i).parse().expect("--hold-ms takes milliseconds")
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--sf F] [--seed N] [--runs N] [--pool-fraction F] [--cpu-scale F] [--threads N]\n\
                         \x20      [--explain] [--queries N] [--max-regret F] [--connections N] [--statements N]\n\
                         \x20      [--min-hit-rate F] [--fault SPEC] [--watchdog SECS] [--min-availability F]\n\
                         \x20      [--max-cancel-p99-ms F] [--cancels N] [--trace-overhead]\n\
                         \x20      [--max-trace-overhead F] [--hold-ms MS]\n\
                         defaults: --sf 0.02 --runs 3 --pool-fraction 0.08 --cpu-scale 5.0 --threads CVR_THREADS|auto\n\
                         \x20         --queries 30 --max-regret 1.5 --connections 8 --statements 64 --min-hit-rate 0.0\n\
                         \x20         --fault io:0.00001,panic:0.001,stall:0.1:2,trunc:0.02 --watchdog 120\n\
                         \x20         --min-availability 0.99 --max-cancel-p99-ms 50 --cancels 24\n\
                         \x20         --max-trace-overhead 0.05 --hold-ms 0"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
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
/// directory when they exist (the `kernels`/`agg` binaries' output on
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
    // Plan for *cold* (first-touch) I/O: the planner binary measures every
    // cell against a fresh pool precisely so that costs are reproducible,
    // and near the capacity cliff of a small warm pool the measured cost is
    // decided by CLOCK eviction history — bimodal and unmodelable. (Set
    // `pool_bytes` on `CostParams` to plan for a warm harness instead.)
    let params = cvr_plan::CostParams {
        disk: DiskModel::default(),
        cpu_scale: args.cpu_scale,
        rates,
        pool_bytes: None,
    };
    cvr_plan::Planner::with_params(cvr_plan::Catalog::build(engine), params)
}

/// Print the planner's explain output for every query in `queries` (the
/// figure binaries call this under `--explain`).
pub fn print_explains(planner: &cvr_plan::Planner, queries: &[SsbQuery]) {
    println!("\nPlanner explain (estimated costs; see BENCH_planner.json for measured regret)");
    println!("----------------------------------------------------------------------------");
    for q in queries {
        print!("{}", planner.plan(q).render());
    }
}

/// The one-line `--explain` hook every figure binary calls after building
/// (or being handed) a column engine: under `--explain`, build the planner
/// and print each paper query's chosen plan and cost breakdown.
pub fn maybe_explain(args: &HarnessArgs, engine: &cvr_core::ColumnEngine) {
    if args.explain {
        print_explains(&build_planner(args, engine), &all_queries());
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
        "modeled seconds at SF {sf} (scaled cpu + simulated 200 MB/s disk); paper ran SF 10\n"
    );
    let _ = write!(out, "{:<22}", "system");
    for q in paper::QUERY_LABELS {
        let _ = write!(out, "{q:>9}");
    }
    let _ = writeln!(out, "{:>9}", "AVG");
    for (label, series) in ours {
        let _ = write!(out, "{:<22}", format!("{label} (ours)"));
        let mut sum = 0.0;
        for m in series {
            let s = m.seconds();
            sum += s;
            let _ = write!(out, "{s:>9.3}");
        }
        let _ = writeln!(out, "{:>9.3}", sum / series.len() as f64);
        if let Some(p) = paper_series.iter().find(|p| p.label == label.as_str()) {
            let _ = write!(out, "{:<22}", format!("{label} (paper)"));
            for t in p.times {
                let _ = write!(out, "{t:>9.1}");
            }
            let _ = writeln!(out, "{:>9.1}", p.avg());
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

/// Format an [`IoStats`] snippet for verbose output.
pub fn fmt_io(io: &IoStats) -> String {
    format!(
        "{:.1} MB / {} pages / {} seeks",
        io.bytes_read as f64 / (1024.0 * 1024.0),
        io.pages_read,
        io.seeks
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::queries::query;
    use cvr_row::designs::{RowDb, RowDesign};

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
}
