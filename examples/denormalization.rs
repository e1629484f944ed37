//! Denormalization vs the invisible join (Section 6.3.3 / Figure 8):
//! pre-joining the star schema into one wide table and querying it
//! join-free, at the paper's three compression levels.
//!
//! ```text
//! cargo run --release --example denormalization
//! ```

use cvr::core::{ColumnEngine, DenormDb, DenormVariant, EngineConfig, ExecOptions};
use cvr::data::{gen::SsbConfig, queries};
use cvr::storage::io::{DiskModel, IoSession};
use cvr_bench::paper;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    let disk = DiskModel::default();
    // Q3.1: two predicates + three group-by columns from dimensions, so a
    // pre-joined table inlines three dimension attributes.
    let q = queries::query(3, 1);

    println!("SSBM Q3.1: invisible join vs pre-joined tables (sf 0.01)\n");
    println!(
        "{:<14}{:>14}{:>14}{:>12}{:>12}",
        "variant", "stored MB", "MB read", "cpu ms", "model s"
    );

    let engine = ColumnEngine::new(tables.clone());
    let io = IoSession::unmetered();
    let start = Instant::now();
    let base_out = engine.run(&q, EngineConfig::FULL, &ExecOptions::default(), &io).unwrap();
    let cpu = start.elapsed();
    let stats = io.stats();
    let base_s = (cpu + disk.io_time(&stats)).as_secs_f64();
    println!(
        "{:<14}{:>14.2}{:>14.2}{:>12.1}{:>12.4}",
        "Base (IJ)",
        engine.db(EngineConfig::FULL).fact_bytes() as f64 / 1e6,
        stats.bytes_read as f64 / 1e6,
        cpu.as_secs_f64() * 1e3,
        base_s
    );

    let mut ratios = Vec::new();

    for variant in DenormVariant::ALL {
        let db = DenormDb::build(engine.db(EngineConfig::FULL), variant);
        let io = IoSession::unmetered();
        let start = Instant::now();
        let out = db.run(&q, &ExecOptions::default(), &io).unwrap();
        let cpu = start.elapsed();
        assert_eq!(out, base_out, "denormalized variants must agree with the join");
        let stats = io.stats();
        let model_s = (cpu + disk.io_time(&stats)).as_secs_f64();
        println!(
            "{:<14}{:>14.2}{:>14.2}{:>12.1}{:>12.4}",
            variant.label(),
            db.bytes() as f64 / 1e6,
            stats.bytes_read as f64 / 1e6,
            cpu.as_secs_f64() * 1e3,
            model_s
        );
        ratios.push((variant.label(), model_s / base_s));
    }

    // The measured ratios next to the paper's, and whether each variant
    // lands on the same side of the invisible join.
    println!("\nmodeled seconds relative to Base (IJ): this run vs Figure 8 (Q3.1, SF 10)");
    let figure = paper::figure8();
    let slot = queries::all_queries().iter().position(|x| x.id == q.id).expect("a paper query");
    let paper_s = |label: &str| {
        let series = figure.iter().find(|s| s.label == label);
        series.unwrap_or_else(|| panic!("Figure 8 has no {label:?} row")).times[slot]
    };
    let mut differ = Vec::new();
    for (label, ours) in &ratios {
        let paper = paper_s(label) / paper_s("Base");
        let side = |r: f64| if r < 1.0 { "faster" } else { "slower" };
        println!("  {label:<12} ours {ours:>6.2}x   paper {paper:>5.2}x");
        if side(*ours) != side(paper) {
            differ.push(format!("{label} is {} here, {} in the paper", side(*ours), side(paper)));
        }
    }
    if differ.is_empty() {
        println!("This run agrees with Figure 8 on which variants beat the invisible join.");
    } else {
        println!("This run disagrees with Figure 8: {}.", differ.join("; "));
    }
}
