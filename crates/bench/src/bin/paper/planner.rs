//! `paper planner`: the cost-based planner's pick vs. the measured best
//! over the whole physical-design grid.
//!
//! For every query — the 13 paper queries plus `--queries` generated
//! ad-hoc ones (`cvr_data::workload`) — this subcommand asks `cvr-plan` for
//! a plan (engine + configuration + fact-predicate order) from catalog
//! statistics alone, measures **every** candidate in the planner's search
//! space (the six column-engine configurations and each applicable row
//! design), and reports *regret*: the planner's measured modeled-seconds
//! divided by the best measured cell. It fails when regret on any paper
//! query exceeds `--max-regret` (default 1.5).
//!
//! After the regret table it reports whether each row design pays for what
//! it holds over the reference mix (`cvr_plan::advisor`): the share of the
//! mix's best column-plan time it saves, the share of the column store's
//! bytes it adds, and the verdict. A served session ranks no row design
//! (`Planner::for_serving`); this is where the finding is shown.
//!
//! That a planned execution is byte-identical (output rows and `IoStats`)
//! to hand-running the same configuration with the same predicate order is
//! `tests/differential.rs::planner_picked_plans_are_byte_identical_to_hand_picked`.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin paper -- planner --sf 0.02
//! cargo run --release -p cvr-bench --bin paper -- planner --sf 0.02 --explain
//! ```

use crate::Db;
use cvr_bench::{build_planner, HarnessArgs, Measurement};
use cvr_core::ExecOptions;
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::workload::WorkloadConfig;
use cvr_plan::advisor;
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

/// Measure the grid for every query, print the regret table, and gate.
pub fn run(db: &Db) -> Result<(), String> {
    let (args, harness, stores) = (&db.args, db.harness(), db.stores());
    let par = args.parallelism();
    let planner = build_planner(args, stores.engine());

    let mut queries: Vec<(SsbQuery, bool)> = all_queries().into_iter().map(|q| (q, true)).collect();
    let workload = WorkloadConfig { seed: args.seed ^ 0xAD_0C, count: args.queries.min(255) };
    queries.extend(workload.generate().into_iter().map(|q| (q, false)));
    eprintln!("# planner: 13 paper queries + {} generated", queries.len() - 13);

    let mut records: Vec<Record> = Vec::new();
    for (q, paper) in &queries {
        let plan = planner.plan(q);
        if args.explain {
            print!("{}", plan.render());
        }

        // Measure every candidate in the search space (keeping each cell's
        // cost-model estimate next to its measurement), each design built by
        // its first cell.
        let run = |opts: &ExecOptions<'_>, design| {
            measure_cold(args, harness.disk(), |io| {
                stores.run(design, q, opts, io).expect("unbounded lifecycle")
            })
        };
        let declared = ExecOptions { par, ..ExecOptions::default() };
        let grid: Vec<(String, f64, Measurement)> = planner
            .candidates(q)
            .into_iter()
            .map(|c| (c.choice.label(), c.seconds, run(&declared, c.choice.into())))
            .collect();
        let (best, est_best_seconds, best_m) = grid
            .iter()
            .min_by(|a, b| a.2.seconds().partial_cmp(&b.2.seconds()).unwrap())
            .expect("grid is never empty")
            .clone();

        // The planner's own cell, measured with its predicate order applied.
        let planned = ExecOptions { fact_order: Some(&plan.fact_order), ..declared };
        let picked_m = run(&planned, plan.choice.into());

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

    println!("\nPlanner regret vs best-of-grid (sf {}, {} runs/cell)", args.sf, args.runs);
    println!("======================================================\n");
    println!(
        "{:<8}{:<10}{:>10}{:>12}{:<10}{:>12}{:>13}{:>9}",
        "query", "picked", "est(s)", "measured(s)", "  best", "best(s)", "best est(s)", "regret"
    );
    for r in &records {
        println!(
            "{:<8}{:<10}{:>10.4}{:>12.4}  {:<8}{:>12.4}{:>13.4}{:>8.2}x",
            r.id,
            r.picked,
            r.est_seconds,
            r.picked_seconds,
            r.best,
            r.best_seconds,
            r.est_best_seconds,
            r.regret
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

    println!(
        "\nRow designs over the reference mix (13 paper + {} generated statements)",
        advisor::REFERENCE_GENERATED
    );
    for v in advisor::verdicts(&planner) {
        println!(
            "  {:<6} saved {:>7.2}%  held {:>8.2}%  {}",
            v.design.label(),
            v.saved_share * 100.0,
            v.held_share * 100.0,
            if v.served { "served" } else { "refused" }
        );
    }

    // Only paper queries are gated; the generated tail is reported.
    if paper_max > args.max_regret {
        return Err(format!(
            "paper-query regret {paper_max:.2}x exceeds --max-regret {:.2}x",
            args.max_regret
        ));
    }
    println!("\nOK: paper-query regret {paper_max:.2}x within the {:.2}x gate", args.max_regret);
    Ok(())
}
