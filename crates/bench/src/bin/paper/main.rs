//! `paper` — the paper's evaluation section, one subcommand per figure or
//! table, plus the two calibrations the planner reads and its regret gate.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin paper -- selectivity figure5 figure6 figure7 figure8 ablation --sf 0.001 --runs 1
//! cargo run --release -p cvr-bench --bin paper -- kernels --n 262144 --runs 3
//! cargo run --release -p cvr-bench --bin paper -- planner --sf 0.005 --queries 30 --runs 2
//! ```
//!
//! Subcommands run in the order given, over one generated database and one
//! column engine, each built by the first subcommand that needs it. A gate
//! that fails (`kernels`, `agg`, `planner`) does not stop the ones after
//! it; the binary exits 1 once all have run. `--help` lists everything.

mod agg;
mod figures;
mod kernels;
mod planner;

use cvr_bench::{Harness, HarnessArgs, REPRODUCTION, USAGE};
use cvr_core::ColumnEngine;
use std::cell::OnceCell;

/// What the subcommands share: the options, and the database and column
/// engine, built on first use.
pub struct Db {
    args: HarnessArgs,
    harness: OnceCell<Harness>,
    engine: OnceCell<ColumnEngine>,
}

impl Db {
    fn harness(&self) -> &Harness {
        self.harness.get_or_init(|| {
            eprintln!("# generating the database (sf {}) ...", self.args.sf);
            Harness::new(self.args.clone())
        })
    }

    fn engine(&self) -> &ColumnEngine {
        self.engine.get_or_init(|| {
            let tables = self.harness().tables.clone();
            eprintln!("# building the column store ...");
            ColumnEngine::new(tables)
        })
    }
}

fn main() {
    let args = HarnessArgs::parse();
    if args.commands.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let db = Db { args, harness: OnceCell::new(), engine: OnceCell::new() };
    if db.args.explain && db.args.commands.iter().any(|c| REPRODUCTION.contains(&c.as_str())) {
        cvr_bench::print_explains(&db.args, db.engine());
    }
    let mut failed = false;
    for command in &db.args.commands {
        let outcome = match command.as_str() {
            "figure5" => figures::figure5(&db),
            "figure6" => figures::figure6(&db),
            "figure7" => figures::figure7(&db),
            "figure8" => figures::figure8(&db),
            "selectivity" => figures::selectivity(&db),
            "storage-sizes" => figures::storage_sizes(&db),
            "partitioning" => figures::partitioning(&db),
            "ablation" => figures::ablation(&db),
            "super-tuples" => figures::super_tuples(&db),
            "kernels" => kernels::run(&db.args),
            "agg" => agg::run(&db),
            "planner" => planner::run(&db),
            other => unreachable!("parse_from admits no subcommand {other}"),
        };
        if let Err(failure) = outcome {
            eprintln!("FAIL ({command}): {failure}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
