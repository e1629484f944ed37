//! The modeled-2006-disk reproduction: one function per figure or table of
//! the paper's evaluation section. Each prints its table and cannot fail.

use crate::Db;
use cvr_bench::{paper, render_figure, Measurement};
use cvr_core::morsel::Parallelism;
use cvr_core::{CStoreDb, EngineConfig, ExecOptions};
use cvr_data::queries::all_queries;
use cvr_data::reference::measured_selectivity;
use cvr_plan::Design;
use cvr_row::designs::{RowDesign, TraditionalDb, TraditionalOptions, VpDb};

/// Measure each of `designs` on the 13 paper queries at `--threads`,
/// releasing its store before the next design's is built. The column
/// engine stays built.
fn measure(db: &mut Db, designs: &[(&str, Design)]) -> Vec<(String, Vec<Measurement>)> {
    let opts = ExecOptions { par: db.args.parallelism(), ..ExecOptions::default() };
    let mut ours = Vec::new();
    for &(label, design) in designs {
        eprintln!("# {label}: building + running on {} thread(s) ...", opts.par.threads);
        let (h, stores) = (db.harness(), db.stores());
        let series = h
            .measure_series(|q, io| stores.run(design, q, &opts, io).expect("unbounded lifecycle"));
        ours.push((label.to_string(), series));
        db.release();
    }
    ours
}

/// The titles of Figures 5–8.
const TITLES: [&str; 4] = [
    "Baseline performance of C-Store and System X",
    "Row-store physical design variants",
    "C-Store optimization removal study",
    "Denormalization study (pre-joined fact table)",
];

/// Figure `n` (5–8): measure the systems of its `Design` list and print them
/// beside the paper's series.
pub fn figure(db: &mut Db, n: usize) -> Result<(), String> {
    let (designs, series): (Vec<_>, _) = match n {
        5 => (Design::figure5().into(), paper::figure5()),
        6 => (Design::figure6().into(), paper::figure6()),
        7 => (Design::figure7().into(), paper::figure7()),
        _ => (Design::figure8().into(), paper::figure8()),
    };
    let title = format!("Figure {n}: {}", TITLES[n - 5]);
    println!("{}", render_figure(&title, &measure(db, &designs), &series, db.args.sf));
    Ok(())
}

/// Section 3's per-query LINEORDER selectivity table: paper vs measured vs
/// the planner's histogram-driven estimate.
pub fn selectivity(db: &Db) -> Result<(), String> {
    let tables = &db.harness().tables;
    let planner = cvr_bench::build_planner(&db.args, db.stores().engine());
    println!("\nSection 3: LINEORDER selectivities (sf {})", db.args.sf);
    println!("==========================================\n");
    println!("{:<8}{:>14}{:>14}{:>14}{:>10}", "query", "paper", "measured", "estimate", "ratio");
    let rows = tables.lineorder.num_rows() as f64;
    for (q, label) in all_queries().iter().zip(paper::QUERY_LABELS) {
        let measured = measured_selectivity(tables, q);
        let estimate = planner.estimate_selectivity(q);
        let ratio = if measured > 0.0 { measured / q.paper_selectivity } else { 0.0 };
        let note =
            if q.paper_selectivity * rows < 20.0 { "  (few expected rows at this sf)" } else { "" };
        println!(
            "Q{label:<7}{:>14.2e}{measured:>14.2e}{estimate:>14.2e}{ratio:>10.2}{note}",
            q.paper_selectivity
        );
    }
    Ok(())
}

/// Section 6.2's storage-size arithmetic: per-column and whole-table bytes
/// under each physical layout, scaled up to the paper's SF 10 for comparison
/// against its quoted numbers (0.7-1.1 GB per VP column table, 240 MB per
/// C-Store int column, ~6 GB / ~4 GB traditional, 2.3 GB compressed
/// C-Store).
pub fn storage_sizes(db: &Db) -> Result<(), String> {
    let tables = &db.harness().tables;
    let scale_to_sf10 = 10.0 / db.args.sf;
    let gb = |bytes: u64| bytes as f64 * scale_to_sf10 / (1024.0 * 1024.0 * 1024.0);

    println!("\nSection 6.2: storage sizes (built at sf {}, scaled to SF 10)", db.args.sf);
    println!("=============================================================\n");

    let trad = TraditionalDb::build(
        tables.clone(),
        TraditionalOptions { partitioned: false, bitmap_indexes: false, use_bloom: false },
    );
    println!(
        "traditional lineorder heap: {:>7.2} GB   (paper: ~6 GB uncompressed)",
        gb(trad.fact_bytes())
    );

    let vp = VpDb::build(tables.clone());
    println!(
        "VP all 17 column tables:    {:>7.2} GB   (paper: 17 x 0.7-1.1 GB)",
        gb(vp.fact_bytes())
    );
    for col in ["lo_orderkey", "lo_quantity", "lo_revenue", "lo_orderdate"] {
        println!(
            "  VP column table {col:<16}: {:>6.2} GB   (paper: 0.7-1.1 GB each)",
            gb(vp.fact_column_bytes(col))
        );
    }

    let cs_plain = CStoreDb::build(tables.clone(), false);
    let cs_comp = db.stores().engine().db(EngineConfig::FULL);
    println!("C-Store fact uncompressed:  {:>7.2} GB", gb(cs_plain.fact_bytes()));
    println!(
        "C-Store fact compressed:    {:>7.2} GB   (paper: 2.3 GB whole table)",
        gb(cs_comp.fact_bytes())
    );
    let int_col = cs_plain.fact.column("lo_revenue");
    println!(
        "C-Store single int column:  {:>7.3} GB   (paper: 240 MB = 0.234 GB)",
        gb(int_col.bytes())
    );
    let od = cs_comp.fact.column("lo_orderdate");
    println!("C-Store RLE orderdate col:  {:>9.5} GB (paper: < 64 KB at SF 10)", gb(od.bytes()));
    let rows = tables.lineorder.num_rows() as f64;
    println!(
        "\nper-row footprints: traditional {:.1} B/row, VP {:.1} B/row-per-column,\n\
         C-Store int column {:.1} B/value (paper: ~93 B, ~16 B, 4 B)",
        trad.fact_bytes() as f64 / rows,
        vp.fact_column_bytes("lo_revenue") as f64 / rows,
        int_col.bytes() as f64 / rows,
    );
    Ok(())
}

/// Section 6.1's partitioning ablation: "partitioning gives System X a
/// factor of two advantage (though this varied by query)".
pub fn partitioning(db: &Db) -> Result<(), String> {
    let h = db.harness();
    eprintln!("# partitioning: building partitioned + unpartitioned traditional designs ...");
    let build = |partitioned| {
        let options = TraditionalOptions { partitioned, bitmap_indexes: false, use_bloom: true };
        TraditionalDb::build(h.tables.clone(), options)
    };
    let (part, whole) = (build(true), build(false));
    let with = h.measure_series(|q, io| part.execute(q, io));
    let without = h.measure_series(|q, io| whole.execute(q, io));

    println!("\nSection 6.1: orderdate-year partitioning ablation (sf {})", db.args.sf);
    println!("==========================================================\n");
    println!("{:<8}{:>14}{:>16}{:>10}", "query", "partitioned", "unpartitioned", "speedup");
    let mut sums = (0.0, 0.0);
    for (i, label) in paper::QUERY_LABELS.iter().enumerate() {
        let (a, b) = (with[i].seconds(), without[i].seconds());
        sums.0 += a;
        sums.1 += b;
        println!("Q{label:<7}{a:>14.3}{b:>16.3}{:>9.2}x", b / a);
    }
    println!(
        "{:<8}{:>14.3}{:>16.3}{:>9.2}x   (paper: ~2x on average)",
        "AVG",
        sums.0 / 13.0,
        sums.1 / 13.0,
        sums.1 / sums.0
    );
    Ok(())
}

/// Section 6.3.2 claims the gap between the invisible join and the classic
/// late-materialized join "is largely due to the between-predicate
/// rewriting optimization". Three runs isolate it: the invisible join with
/// rewriting (the `tICL` baseline), the invisible join with rewriting
/// disabled (phase 1 always builds a key hash set — a column-oriented
/// semijoin), and the classic late-materialized join (`tiCL`).
pub fn ablation(db: &Db) -> Result<(), String> {
    let (h, cs) = (db.harness(), db.stores().engine());
    // One worker throughout, like the paper's single-threaded C-Store.
    let series = |cfg: EngineConfig, between_rewriting: bool| -> Vec<Measurement> {
        let opts =
            ExecOptions { par: Parallelism::serial(), between_rewriting, ..ExecOptions::default() };
        h.measure_series(|q, io| cs.run(q, cfg, &opts, io).expect("unbounded lifecycle"))
    };
    let a = series(EngineConfig::FULL, true);
    let b = series(EngineConfig::FULL, false);
    let c = series(EngineConfig::parse("tiCL"), true);

    println!(
        "\nAblation: between-predicate rewriting inside the invisible join (sf {})",
        db.args.sf
    );
    println!("=======================================================================\n");
    println!("{:<8}{:>14}{:>16}{:>14}", "query", "IJ+rewrite", "IJ hash-only", "LM join");
    let (mut sa, mut sb, mut sc) = (0.0, 0.0, 0.0);
    for (i, label) in paper::QUERY_LABELS.iter().enumerate() {
        let (x, y, z) = (a[i].seconds(), b[i].seconds(), c[i].seconds());
        sa += x;
        sb += y;
        sc += z;
        println!("Q{label:<7}{x:>14.3}{y:>16.3}{z:>14.3}");
    }
    println!("{:<8}{:>14.3}{:>16.3}{:>14.3}", "AVG", sa / 13.0, sb / 13.0, sc / 13.0);
    println!(
        "\nrewriting buys {:.2}x within the invisible join; the remaining IJ-vs-LM\n\
         gap ({:.2}x) is deferred extraction (paper: the rewriting dominates).",
        sb / sa,
        sc / sb
    );
    Ok(())
}

/// Extension: "super tuples" (Halverson et al. \[13\]) applied to the
/// vertical-partitioning design. The paper's conclusion lists "reduced tuple
/// overhead" and "virtual record-ids" among the row-store changes needed to
/// make column-oriented physical designs viable. Super-tuple VP stores each
/// column as packed values (4 B/int, no per-tuple headers, positions
/// virtual) but keeps the tuple-at-a-time row executor — so the comparison
/// isolates storage overhead from executor architecture.
pub fn super_tuples(db: &mut Db) -> Result<(), String> {
    let cs = Design::Column(EngineConfig::FULL);
    let rows = [RowDesign::Traditional, RowDesign::VerticalPartitioning, RowDesign::SuperVp];
    let [t, vp, sup] = rows.map(|d| (d.label(), Design::Row(d)));
    let ours = measure(db, &[t, vp, sup, ("CS", cs)]);
    println!(
        "\nExtension: super-tuple VP vs plain VP vs traditional vs column store (sf {})",
        db.args.sf
    );
    println!("===========================================================================\n");
    println!("{:<8}{:>12}{:>12}{:>14}{:>12}", "query", "T", "VP", "super-VP", "CS (tICL)");
    let mut sums = [0.0f64; 4];
    for (i, label) in paper::QUERY_LABELS.iter().enumerate() {
        let row = [0, 1, 2, 3].map(|s| ours[s].1[i].seconds());
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
        println!("Q{label:<7}{:>12.3}{:>12.3}{:>14.3}{:>12.3}", row[0], row[1], row[2], row[3]);
    }
    println!(
        "{:<8}{:>12.3}{:>12.3}{:>14.3}{:>12.3}",
        "AVG",
        sums[0] / 13.0,
        sums[1] / 13.0,
        sums[2] / 13.0,
        sums[3] / 13.0
    );
    println!(
        "\nsuper tuples close {:.0}% of the VP-vs-traditional gap on bytes alone,\n\
         but the column store stays {:.1}x ahead of super-VP: the rest of the\n\
         paper's Figure 7 stack (late materialization, direct operation on\n\
         compressed data, the invisible join) lives in the executor.",
        (1.0 - (sums[2] - sums[0]).max(0.0) / (sums[1] - sums[0]).max(1e-9)) * 100.0,
        sums[2] / sums[3]
    );
    Ok(())
}
