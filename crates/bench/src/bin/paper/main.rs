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
//! store set (`cvr_plan::Stores`), made with its column engine by the first
//! subcommand that needs a store, and each other store built by the first
//! subcommand that needs it. A gate
//! that fails (`kernels`, `agg`, `planner`) does not stop the ones after
//! it; the binary exits 1 once all have run. `--help` lists everything.

mod agg;
mod figures;
mod kernels;
mod planner;

use cvr_bench::{Harness, HarnessArgs, REPRODUCTION, USAGE};
use cvr_core::morsel::Parallelism;
use cvr_plan::Stores;
use std::cell::OnceCell;

/// What the subcommands share: the options, the database, and every
/// design's store over it, each built on first use.
pub struct Db {
    args: HarnessArgs,
    harness: OnceCell<Harness>,
    stores: OnceCell<Stores>,
}

impl Db {
    fn harness(&self) -> &Harness {
        self.harness.get_or_init(|| {
            eprintln!("# generating the database (sf {}) ...", self.args.sf);
            Harness::new(self.args.clone())
        })
    }

    fn stores(&self) -> &Stores {
        let tables = || self.harness().tables.clone();
        self.stores.get_or_init(|| Stores::new(tables(), Parallelism::from_env()))
    }

    /// Drop every built store but the column engine's.
    fn release(&mut self) {
        if let Some(stores) = self.stores.get_mut() {
            stores.release();
        }
    }
}

fn main() {
    let args = HarnessArgs::parse();
    if args.commands.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let mut db = Db { args, harness: OnceCell::new(), stores: OnceCell::new() };
    if db.args.explain && db.args.commands.iter().any(|c| REPRODUCTION.contains(&c.as_str())) {
        cvr_bench::print_explains(&db.args, db.stores().engine());
    }
    let mut failed = false;
    for command in db.args.commands.clone() {
        let outcome = match command.as_str() {
            "figure5" => figures::figure(&mut db, 5),
            "figure6" => figures::figure(&mut db, 6),
            "figure7" => figures::figure(&mut db, 7),
            "figure8" => figures::figure(&mut db, 8),
            "selectivity" => figures::selectivity(&db),
            "storage-sizes" => figures::storage_sizes(&db),
            "partitioning" => figures::partitioning(&db),
            "ablation" => figures::ablation(&db),
            "super-tuples" => figures::super_tuples(&mut db),
            "kernels" => kernels::run(&db.args),
            "agg" => agg::run(&db),
            "planner" => planner::run(&db),
            other => unreachable!("parse_from admits no subcommand {other}"),
        };
        // The next subcommand shares the column engine, and no other store.
        db.release();
        if let Err(failure) = outcome {
            eprintln!("FAIL ({command}): {failure}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
