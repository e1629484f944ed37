//! Quickstart: generate a small SSBM database, run one query on both
//! engines, and compare results and simulated I/O.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cvr::core::{morsel::Parallelism, EngineConfig, ExecOptions};
use cvr::data::{gen::SsbConfig, queries};
use cvr::plan::{Design, Stores};
use cvr::row::designs::RowDesign;
use cvr::storage::io::{DiskModel, IoSession};
use std::sync::Arc;

fn main() {
    // 1. Generate: SF 0.01 = 60 000 LINEORDER rows (the paper ran SF 10).
    let tables = Arc::new(SsbConfig::with_scale(0.01).generate());
    println!(
        "generated SSBM sf=0.01: lineorder={} customer={} supplier={} part={} date={}",
        tables.lineorder.num_rows(),
        tables.customer.num_rows(),
        tables.supplier.num_rows(),
        tables.part.num_rows(),
        tables.date.num_rows()
    );

    // 2. One store set over the same logical data: each system's store is
    //    built by its first query.
    let stores = Stores::new(tables.clone(), Parallelism::from_env());

    // 3. Run SSBM Q3.1 — the paper's running example:
    //    revenue of ASIA customers buying from ASIA suppliers, 1992-1997,
    //    grouped by (customer nation, supplier nation, year).
    let q = queries::query(3, 1);

    let run = |design| {
        let io = IoSession::unmetered();
        let out =
            stores.run(design, &q, &ExecOptions::default(), &io).expect("unbounded lifecycle");
        (out, io)
    };
    let (cs, io_cs) = run(Design::Column(EngineConfig::FULL));
    let (rs, io_rs) = run(Design::Row(RowDesign::Traditional));
    assert_eq!(cs, rs, "engines must agree");

    println!("\nQ3.1 → {} groups (first 5):", cs.len());
    for (key, revenue) in cs.rows.iter().take(5) {
        let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
        println!("  {:<40} revenue = {revenue}", parts.join(" / "));
    }

    // 4. The whole point of the paper, in two lines of I/O accounting:
    let disk = DiskModel::default();
    let (cs_io, rs_io) = (io_cs.stats(), io_rs.stats());
    println!("\nsimulated I/O for Q3.1 (200 MB/s disk model):");
    println!(
        "  column store: {:>8.2} MB read  → {:>6.3}s modeled I/O",
        cs_io.bytes_read as f64 / 1e6,
        disk.io_time(&cs_io).as_secs_f64()
    );
    println!(
        "  row store:    {:>8.2} MB read  → {:>6.3}s modeled I/O",
        rs_io.bytes_read as f64 / 1e6,
        disk.io_time(&rs_io).as_secs_f64()
    );
    println!(
        "\nthe column store read {:.1}x less data — and the executor-level\n\
         optimizations (Figure 7) stack on top of that.",
        rs_io.bytes_read as f64 / cs_io.bytes_read as f64
    );
}
