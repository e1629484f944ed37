//! I/O-accounting invariants: the deterministic half of the paper's claims.
//!
//! Timing depends on the machine, but *bytes moved* do not — and most of
//! the paper's Figure 5/6 story is bytes. These tests pin the byte-level
//! orderings that the performance results rest on.

use cvr::core::{ColumnEngine, EngineConfig, ExecOptions, RowMvDb};
use cvr::data::gen::{SsbConfig, SsbTables};
use cvr::data::queries::{all_queries, query};
use cvr::row::designs::{RowDb, RowDesign, TraditionalDb, TraditionalOptions, VpDb};
use cvr::storage::io::{BufferPool, IoSession};
use std::sync::Arc;

fn tables() -> Arc<SsbTables> {
    Arc::new(SsbConfig { sf: 0.004, seed: 6 }.generate())
}

/// Cold-cache bytes for one execution.
fn cold_bytes(exec: impl Fn(&IoSession)) -> u64 {
    let io = IoSession::new(BufferPool::new(1 << 20)); // 32 pages: scans always spill
    exec(&io);
    io.stats().bytes_read
}

#[test]
fn column_store_reads_less_than_row_store() {
    let t = tables();
    let row = RowDb::build(t.clone(), RowDesign::Traditional);
    let col = ColumnEngine::new(t.clone());
    for q in all_queries() {
        let rs = cold_bytes(|io| {
            row.execute(&q, io);
        });
        let cs = cold_bytes(|io| {
            col.run(&q, EngineConfig::FULL, &ExecOptions::default(), io).unwrap();
        });
        assert!(cs < rs, "{}: CS read {cs} vs RS {rs}", q.id);
    }
}

#[test]
fn compression_reduces_column_store_io() {
    let t = tables();
    let col = ColumnEngine::new(t.clone());
    for q in all_queries() {
        let compressed = cold_bytes(|io| {
            col.run(&q, EngineConfig::parse("tICL"), &ExecOptions::default(), io).unwrap();
        });
        let plain = cold_bytes(|io| {
            col.run(&q, EngineConfig::parse("tIcL"), &ExecOptions::default(), io).unwrap();
        });
        assert!(compressed <= plain, "{}: {compressed} vs {plain}", q.id);
    }
}

#[test]
fn late_materialization_reads_less_than_early() {
    let t = tables();
    let col = ColumnEngine::new(t.clone());
    for q in all_queries() {
        let late = cold_bytes(|io| {
            col.run(&q, EngineConfig::parse("tIcL"), &ExecOptions::default(), io).unwrap();
        });
        let early = cold_bytes(|io| {
            col.run(&q, EngineConfig::parse("Ticl"), &ExecOptions::default(), io).unwrap();
        });
        // EM decodes every needed column in full; LM only extracts
        // surviving positions. (Equal only if a query selects everything.)
        assert!(late <= early, "{}: late {late} vs early {early}", q.id);
    }
}

#[test]
fn mv_reads_less_than_traditional_everywhere() {
    let t = tables();
    let trad = RowDb::build(t.clone(), RowDesign::Traditional);
    let mv = RowDb::build(t.clone(), RowDesign::MaterializedViews);
    for q in all_queries() {
        let a = cold_bytes(|io| {
            mv.execute(&q, io);
        });
        let b = cold_bytes(|io| {
            trad.execute(&q, io);
        });
        assert!(a <= b, "{}: MV {a} vs T {b}", q.id);
    }
}

#[test]
fn vp_reads_more_than_cstore_per_column() {
    // The §6.2 size claim: a VP column table costs ~16 bytes/row on disk
    // against ≤4 for a C-Store column.
    let t = tables();
    let vp = VpDb::build(t.clone());
    let col = ColumnEngine::new(t.clone());
    let rows = t.lineorder.num_rows() as u64;
    let vp_bytes = vp.fact_column_bytes("lo_revenue");
    let cs_bytes = col.db(EngineConfig::FULL).fact.column("lo_revenue").bytes();
    assert!(vp_bytes >= rows * 15, "VP per-row overhead missing: {vp_bytes}");
    assert!(cs_bytes <= rows * 4, "C-Store column too fat: {cs_bytes}");
    assert!(vp_bytes / cs_bytes >= 3, "paper's 4x overhead ratio lost");
}

#[test]
fn partition_pruning_reduces_io_for_date_restricted_queries() {
    let t = tables();
    let part = TraditionalDb::build(
        t.clone(),
        TraditionalOptions { partitioned: true, bitmap_indexes: false, use_bloom: true },
    );
    let whole = TraditionalDb::build(
        t.clone(),
        TraditionalOptions { partitioned: false, bitmap_indexes: false, use_bloom: true },
    );
    // Q1.1 restricts to one year of seven.
    let q = query(1, 1);
    let pruned = cold_bytes(|io| {
        part.execute(&q, io);
    });
    let full = cold_bytes(|io| {
        whole.execute(&q, io);
    });
    assert!(
        (pruned as f64) < full as f64 * 0.5,
        "pruning should skip most partitions: {pruned} vs {full}"
    );
    // Q2.1 has no date restriction: no pruning possible.
    let q = query(2, 1);
    let a = cold_bytes(|io| {
        part.execute(&q, io);
    });
    let b = cold_bytes(|io| {
        whole.execute(&q, io);
    });
    assert!(a as f64 > b as f64 * 0.9, "unpruned scan should read it all");
}

#[test]
fn row_mv_reads_at_least_row_store_mv_bytes() {
    // "CS (Row-MV)" reads the same logical data as "RS (MV)" — stored as
    // strings it is, if anything, bigger.
    let t = tables();
    let row_mv = RowDb::build(t.clone(), RowDesign::MaterializedViews);
    let cs_row_mv = RowMvDb::build(&t);
    for q in all_queries() {
        let rs = cold_bytes(|io| {
            row_mv.execute(&q, io);
        });
        let cs = cold_bytes(|io| {
            cs_row_mv.run(&q, &ExecOptions::default(), io).unwrap();
        });
        assert!(cs * 3 > rs, "{}: Row-MV bytes implausibly small", q.id);
    }
}

#[test]
fn invisible_join_reads_only_touched_columns() {
    let t = tables();
    let col = ColumnEngine::new(t.clone());
    // Q1.1 touches 4 fact columns; bytes must be well under the whole
    // uncompressed fact table.
    let q = query(1, 1);
    let bytes = cold_bytes(|io| {
        col.run(&q, EngineConfig::parse("tIcL"), &ExecOptions::default(), io).unwrap();
    });
    let whole = col.db(EngineConfig::parse("tIcL")).fact_bytes();
    assert!(bytes < whole / 3, "Q1.1 should read ~4/17 of the fact table: {bytes} vs {whole}");
}
