//! Ablation: how much of the invisible join's advantage is
//! between-predicate rewriting?
//!
//! Section 6.3.2 claims the gap between the invisible join and the classic
//! late-materialized join "is largely due to the between-predicate
//! rewriting optimization". This binary isolates it with three runs:
//!
//! 1. invisible join with rewriting (the `tICL` baseline);
//! 2. invisible join with rewriting disabled (phase 1 always builds a key
//!    hash set — a column-oriented semijoin);
//! 3. the classic late-materialized join (`tiCL`).
//!
//! ```text
//! cargo run --release -p cvr-bench --bin ablation -- --sf 0.05
//! ```

use cvr_bench::{paper, Harness, HarnessArgs, Measurement};
use cvr_core::morsel::Parallelism;
use cvr_core::{ColumnEngine, EngineConfig, ExecOptions};

fn main() {
    let args = HarnessArgs::parse();
    let harness = Harness::new(args.clone());
    eprintln!("# building column engine (sf {}) ...", args.sf);
    let engine = ColumnEngine::new(harness.tables.clone());

    // One worker throughout, like the paper's single-threaded C-Store.
    let series = |cfg: EngineConfig, between_rewriting: bool| -> Vec<Measurement> {
        let opts =
            ExecOptions { par: Parallelism::serial(), between_rewriting, ..ExecOptions::default() };
        harness.measure_series(|q, io| engine.run(q, cfg, &opts, io).expect("unbounded lifecycle"))
    };
    let a = series(EngineConfig::FULL, true);
    let b = series(EngineConfig::FULL, false);
    let c = series(EngineConfig::parse("tiCL"), true);

    println!("\nAblation: between-predicate rewriting inside the invisible join (sf {})", args.sf);
    println!("=======================================================================\n");
    println!("{:<8}{:>14}{:>16}{:>14}", "query", "IJ+rewrite", "IJ hash-only", "LM join");
    let (mut sa, mut sb, mut sc) = (0.0, 0.0, 0.0);
    for i in 0..13 {
        let (x, y, z) = (a[i].seconds(), b[i].seconds(), c[i].seconds());
        sa += x;
        sb += y;
        sc += z;
        println!("Q{:<7}{x:>14.3}{y:>16.3}{z:>14.3}", paper::QUERY_LABELS[i]);
    }
    println!("{:<8}{:>14.3}{:>16.3}{:>14.3}", "AVG", sa / 13.0, sb / 13.0, sc / 13.0);
    println!(
        "\nrewriting buys {:.2}x within the invisible join; the remaining IJ-vs-LM\n\
         gap ({:.2}x) is deferred extraction (paper: the rewriting dominates).",
        sb / sa,
        sc / sb
    );
}
