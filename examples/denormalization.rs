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
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    let disk = DiskModel::default();
    // Q3.1: two predicates + three group-by columns from dimensions — the
    // kind of query where the paper found denormalization *loses*.
    let q = queries::query(3, 1);

    println!("SSBM Q3.1: invisible join vs pre-joined tables (sf 0.01)\n");
    println!(
        "{:<14}{:>14}{:>14}{:>12}{:>12}",
        "variant", "stored MB", "MB read", "cpu ms", "model s"
    );

    let engine = ColumnEngine::new(tables.clone());
    let io = IoSession::unmetered();
    let start = Instant::now();
    let base_out = engine.execute(&q, EngineConfig::FULL, &io);
    let cpu = start.elapsed();
    let stats = io.stats();
    println!(
        "{:<14}{:>14.2}{:>14.2}{:>12.1}{:>12.3}",
        "Base (IJ)",
        engine.db(EngineConfig::FULL).fact_bytes() as f64 / 1e6,
        stats.bytes_read as f64 / 1e6,
        cpu.as_secs_f64() * 1e3,
        (cpu + disk.io_time(&stats)).as_secs_f64()
    );

    for variant in
        [DenormVariant::NoCompression, DenormVariant::IntCompression, DenormVariant::MaxCompression]
    {
        let db = DenormDb::build(tables.clone(), variant);
        let io = IoSession::unmetered();
        let start = Instant::now();
        let out = db.run(&q, EngineConfig::FULL, &ExecOptions::default(), &io).unwrap();
        let cpu = start.elapsed();
        assert_eq!(out, base_out, "denormalized variants must agree with the join");
        let stats = io.stats();
        println!(
            "{:<14}{:>14.2}{:>14.2}{:>12.1}{:>12.3}",
            variant.label(),
            db.bytes() as f64 / 1e6,
            stats.bytes_read as f64 / 1e6,
            cpu.as_secs_f64() * 1e3,
            (cpu + disk.io_time(&stats)).as_secs_f64()
        );
    }
    println!(
        "\nThe paper's conclusion: \"denormalization is actually not very useful\n\
         in column-stores\" — the invisible join makes joins cheap enough that\n\
         inlining dimension values mostly just widens the scans."
    );
}
