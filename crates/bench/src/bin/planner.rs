//! Planner regret: the cost-based planner's pick vs. the measured best
//! over the whole physical-design grid.
//!
//! For every query — the 13 paper queries plus `--queries` generated
//! ad-hoc ones (`cvr_data::workload`) — this binary:
//!
//! 1. asks `cvr-plan` for a plan (engine + configuration + fact-predicate
//!    order) from catalog statistics alone;
//! 2. measures **every** candidate in the planner's search space: the six
//!    column-engine configurations and each applicable row design;
//! 3. reports *regret* — the planner's measured modeled-seconds divided by
//!    the best measured cell — and verifies the planned execution is
//!    **byte-identical** (output rows and `IoStats`) to hand-running the
//!    same configuration with the same predicate order;
//! 4. emits `BENCH_planner.json` and exits nonzero when regret on any
//!    paper query exceeds `--max-regret` (default 1.5), the CI gate.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin planner -- --sf 0.02
//! cargo run --release -p cvr-bench --bin planner -- --sf 0.02 --explain
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use cvr_bench::{build_planner, Harness, HarnessArgs, Measurement};
use cvr_core::{ColumnEngine, ExecOptions};
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::workload::WorkloadConfig;
use cvr_plan::{PhysicalChoice, Planner};
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::io::{BufferPool, DiskModel, IoSession};
use std::time::Instant;

/// Measure `exec` with deterministic *first-touch* I/O: one warm-up (code
/// and allocator effects), then `runs` measured executions, each against a
/// fresh unbounded pool so every distinct page is charged exactly once and
/// no eviction history leaks from one grid cell into the next. Near the
/// capacity cliff of the small warm harness pool, measured cost is decided
/// by CLOCK eviction order — bimodal noise that would swamp regret ratios.
fn measure_cold(
    args: &HarnessArgs,
    disk: DiskModel,
    exec: impl Fn(&IoSession) -> QueryOutput,
) -> Measurement {
    let reference = exec(&IoSession::unmetered());
    let mut best: Option<Measurement> = None;
    for _ in 0..args.runs.max(1) {
        let io = IoSession::new(BufferPool::unbounded());
        let start = Instant::now();
        let out = exec(&io);
        let cpu = start.elapsed();
        assert_eq!(out, reference, "non-deterministic query result");
        let stats = io.stats();
        let m = Measurement {
            cpu,
            io: stats,
            modeled: cpu.mul_f64(args.cpu_scale) + disk.io_time(&stats),
        };
        best = Some(match best {
            Some(b) if b.modeled <= m.modeled => b,
            _ => m,
        });
    }
    best.unwrap()
}

/// One query's regret record.
struct Record {
    id: String,
    paper: bool,
    picked: String,
    est_seconds: f64,
    picked_seconds: f64,
    best: String,
    best_seconds: f64,
    /// What the cost model *estimated* for the measured-best cell — when
    /// regret is high and this is close to `est_seconds`, the model thinks
    /// the two cells tie and the tail is a coin-flip at the crossover, not
    /// a structural mis-model.
    est_best_seconds: f64,
    regret: f64,
}

fn main() {
    let args = HarnessArgs::parse();
    let harness = Harness::new(args.clone());
    let par = args.parallelism();
    eprintln!("# building column engine + catalog (sf {}) ...", args.sf);
    let engine = ColumnEngine::new(harness.tables.clone());
    let planner: Planner = build_planner(&args, &engine);

    let mut queries: Vec<(SsbQuery, bool)> = all_queries().into_iter().map(|q| (q, true)).collect();
    let workload = WorkloadConfig { seed: args.seed ^ 0xAD_0C, count: args.queries.min(255) };
    queries.extend(workload.generate().into_iter().map(|q| (q, false)));
    eprintln!("# 13 paper queries + {} generated", queries.len() - 13);

    // Row designs built lazily, shared across queries.
    let mut row_dbs: HashMap<RowDesign, RowDb> = HashMap::new();

    let mut records: Vec<Record> = Vec::new();
    let mut verified = 0usize;
    for (q, paper) in &queries {
        let plan = planner.plan(q);
        if args.explain {
            print!("{}", plan.render());
        }

        // Measure every candidate in the search space (keeping each cell's
        // cost-model estimate next to its measurement).
        let mut grid: Vec<(String, f64, Measurement)> = Vec::new();
        for cand in planner.candidates(q) {
            let m = match cand.choice {
                PhysicalChoice::Column(cfg) => {
                    measure_cold(&args, harness.disk(), |io| engine.execute_with(q, cfg, par, io))
                }
                PhysicalChoice::Row(design) => {
                    let db = row_dbs.entry(design).or_insert_with(|| {
                        eprintln!("#   building row design {} ...", design.label());
                        RowDb::build(harness.tables.clone(), design)
                    });
                    measure_cold(&args, harness.disk(), |io| db.execute(q, io))
                }
            };
            if std::env::var("CVR_PLANNER_DEBUG").is_ok() {
                eprintln!(
                    "# {} {:<8} est {:.4}s (cpu {:.4}s, {:.2} MB, {} seeks) measured {:.4}s (cpu {:.4}s, {})",
                    q.id,
                    cand.choice.label(),
                    cand.seconds,
                    cand.est.cpu_seconds,
                    cand.est.io_bytes as f64 / (1024.0 * 1024.0),
                    cand.est.seeks,
                    m.seconds(),
                    m.cpu.as_secs_f64(),
                    cvr_bench::fmt_io(&m.io)
                );
            }
            grid.push((cand.choice.label(), cand.seconds, m));
        }
        let (best, est_best_seconds, best_m) = grid
            .iter()
            .min_by(|a, b| a.2.seconds().partial_cmp(&b.2.seconds()).unwrap())
            .expect("grid is never empty")
            .clone();

        // The planner's own cell, measured with its predicate order
        // applied.
        let planned = |cfg, io: &IoSession| {
            let opts =
                ExecOptions { par, fact_order: Some(&plan.fact_order), ..ExecOptions::default() };
            engine.run(q, cfg, &opts, io).expect("unbounded lifecycle")
        };
        let picked_m = match plan.choice {
            PhysicalChoice::Column(cfg) => {
                measure_cold(&args, harness.disk(), |io| planned(cfg, io))
            }
            PhysicalChoice::Row(design) => {
                let db = &row_dbs[&design];
                measure_cold(&args, harness.disk(), |io| {
                    db.execute_planned(q, &plan.fact_order, io)
                })
            }
        };

        // Byte-identity: the planned execution must equal hand-running the
        // same configuration with the same (hand-permuted) query — output
        // rows and I/O accounting both.
        let hand_q = q.with_fact_order(&plan.fact_order);
        let (planned_io, hand_io) = (IoSession::unmetered(), IoSession::unmetered());
        let (planned_out, hand_out) = match plan.choice {
            PhysicalChoice::Column(cfg) => {
                (planned(cfg, &planned_io), engine.execute_with(&hand_q, cfg, par, &hand_io))
            }
            PhysicalChoice::Row(design) => {
                let db = &row_dbs[&design];
                (
                    db.execute_planned(q, &plan.fact_order, &planned_io),
                    db.execute(&hand_q, &hand_io),
                )
            }
        };
        assert_eq!(planned_out, hand_out, "{}: planned output differs from hand-picked", q.id);
        let (a, b) = (planned_io.stats(), hand_io.stats());
        assert_eq!(
            (a.bytes_read, a.pages_read, a.seeks),
            (b.bytes_read, b.pages_read, b.seeks),
            "{}: planned IoStats differ from hand-picked",
            q.id
        );
        verified += 1;

        records.push(Record {
            id: q.id.to_string(),
            paper: *paper,
            picked: plan.choice.label(),
            est_seconds: plan.seconds,
            picked_seconds: picked_m.seconds(),
            best,
            best_seconds: best_m.seconds(),
            est_best_seconds,
            regret: picked_m.seconds() / best_m.seconds().max(1e-12),
        });
    }

    // ---- Report ----
    println!("\nPlanner regret vs best-of-grid (sf {}, {} runs/cell)", args.sf, args.runs);
    println!("======================================================\n");
    println!(
        "{:<8}{:<10}{:>10}{:>12}{:<10}{:>12}{:>9}",
        "query", "picked", "est(s)", "measured(s)", "  best", "best(s)", "regret"
    );
    for r in &records {
        println!(
            "{:<8}{:<10}{:>10.4}{:>12.4}  {:<8}{:>12.4}{:>8.2}x",
            r.id, r.picked, r.est_seconds, r.picked_seconds, r.best, r.best_seconds, r.regret
        );
    }
    let summary = |paper: bool| {
        let rs: Vec<f64> = records.iter().filter(|r| r.paper == paper).map(|r| r.regret).collect();
        let mean = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
        let max = rs.iter().cloned().fold(0.0f64, f64::max);
        (mean, max, rs.len())
    };
    let (paper_mean, paper_max, _) = summary(true);
    let (gen_mean, gen_max, gen_n) = summary(false);
    println!("\npaper queries:     mean regret {paper_mean:.2}x, max {paper_max:.2}x");
    if gen_n > 0 {
        println!(
            "generated queries: mean regret {gen_mean:.2}x, max {gen_max:.2}x ({gen_n} queries)"
        );
    }
    println!("byte-identity verified for {verified}/{} planned executions", records.len());

    // ---- BENCH_planner.json ----
    let mut json = String::from("{\n  \"bench\": \"planner\",\n");
    let _ = writeln!(json, "  \"sf\": {},", args.sf);
    let _ = writeln!(json, "  \"generated_queries\": {gen_n},");
    let _ = writeln!(json, "  \"paper_mean_regret\": {paper_mean:.4},");
    let _ = writeln!(json, "  \"paper_max_regret\": {paper_max:.4},");
    let _ = writeln!(json, "  \"generated_mean_regret\": {gen_mean:.4},");
    let _ = writeln!(json, "  \"generated_max_regret\": {gen_max:.4},");
    let _ = writeln!(json, "  \"byte_identical\": {verified},");
    // Only paper queries are gated; the generated tail is reported. The
    // historical worst (Q9.3, ~2.6x) was a column-vs-row:T(B) cell priced
    // against a fantasy executor. The model now mirrors the real one (see
    // `enumerate.rs`): only BITMAP_COLUMNS predicates enter the bitmap;
    // restricted dims with <= 2000 matching keys thin it through FK-index
    // probes priced as a Cardenas-Yao gather over the index's leaf pages
    // (one 32 KB page per node); the heap fetch gathers over the whole
    // orderkey-ordered file with a run credit for per-order restrictions
    // (lo_orderdate / lo_custkey) — per-line thinning (measures,
    // lo_partkey / lo_suppkey) breaks runs and pays per-seed seeks.
    json.push_str(
        "  \"notes\": \"Only paper queries are gated (--max-regret); the generated-query tail \
         is reported. row:T(B) is priced against the real executor: only indexed fact \
         predicates enter the bitmap, dim restrictions thin it via FK-index probes priced \
         as a leaf-page gather, and the heap fetch gathers over the whole orderkey-ordered \
         heap with a run credit for per-order (date/customer) restrictions only. This \
         fixed the historical Q9.3 regret tail (~2.6x from a ~10x overpriced fetch) \
         without underpricing probe-heavy bitmap plans.\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ =
            write!(
            json,
            "    {{\"query\": \"{}\", \"paper\": {}, \"picked\": \"{}\", \"est_seconds\": {:.6}, \
             \"measured_seconds\": {:.6}, \"best\": \"{}\", \"best_seconds\": {:.6}, \
             \"est_best_seconds\": {:.6}, \"regret\": {:.4}}}",
            r.id, r.paper, r.picked, r.est_seconds, r.picked_seconds, r.best, r.best_seconds,
            r.est_best_seconds, r.regret
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    eprintln!("\n# wrote BENCH_planner.json");

    // ---- Gate ----
    if paper_max > args.max_regret {
        eprintln!(
            "FAIL: paper-query regret {paper_max:.2}x exceeds --max-regret {:.2}x",
            args.max_regret
        );
        std::process::exit(1);
    }
    println!("\nOK: paper-query regret {paper_max:.2}x within the {:.2}x gate", args.max_regret);
}
