//! The study's correctness backbone: every engine, every physical design,
//! every optimization configuration must return byte-identical results for
//! all thirteen SSBM queries on the same generated data.
//!
//! This is what makes the performance comparisons meaningful — the paper's
//! systems all answer the same queries; ours provably do.

use cvr::core::{ColumnEngine, DenormDb, DenormVariant, EngineConfig, ExecOptions, RowMvDb};
use cvr::data::gen::{SsbConfig, SsbTables};
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::result::QueryOutput;
use cvr::row::designs::{RowDb, RowDesign};
use cvr::storage::io::IoSession;
use std::sync::Arc;

fn tables() -> Arc<SsbTables> {
    Arc::new(SsbConfig { sf: 0.0015, seed: 2008 }.generate())
}

fn expected(tables: &SsbTables) -> Vec<QueryOutput> {
    all_queries().iter().map(|q| reference::evaluate(tables, q)).collect()
}

#[test]
fn row_designs_match_reference() {
    let t = tables();
    let exp = expected(&t);
    let io = IoSession::unmetered();
    for design in RowDesign::ALL {
        let db = RowDb::build(t.clone(), design);
        for (q, e) in all_queries().iter().zip(&exp) {
            assert_eq!(&db.execute(q, &io), e, "{} on {}", design.label(), q.id);
        }
    }
}

#[test]
fn column_configs_match_reference() {
    let t = tables();
    let exp = expected(&t);
    let engine = ColumnEngine::new(t.clone());
    let io = IoSession::unmetered();
    for cfg in EngineConfig::all() {
        for (q, e) in all_queries().iter().zip(&exp) {
            assert_eq!(&engine.execute(q, cfg, &io), e, "{} on {}", cfg.code(), q.id);
        }
    }
}

#[test]
fn row_mv_matches_reference() {
    let t = tables();
    let exp = expected(&t);
    let db = RowMvDb::build(t.clone());
    let io = IoSession::unmetered();
    for (q, e) in all_queries().iter().zip(&exp) {
        assert_eq!(&db.run(q, &ExecOptions::default(), &io).unwrap(), e, "Row-MV on {}", q.id);
    }
}

#[test]
fn denormalized_variants_match_reference() {
    let t = tables();
    let exp = expected(&t);
    let io = IoSession::unmetered();
    for variant in
        [DenormVariant::NoCompression, DenormVariant::IntCompression, DenormVariant::MaxCompression]
    {
        let db = DenormDb::build(t.clone(), variant);
        for (q, e) in all_queries().iter().zip(&exp) {
            assert_eq!(
                &db.run(q, EngineConfig::FULL, &ExecOptions::default(), &io).unwrap(),
                e,
                "{} on {}",
                variant.label(),
                q.id
            );
        }
    }
}

#[test]
fn engines_agree_across_seeds() {
    // Different data, same invariant: row T == column tICL == column Ticl.
    let io = IoSession::unmetered();
    for seed in [1u64, 99, 777] {
        let t = Arc::new(SsbConfig { sf: 0.001, seed }.generate());
        let row = RowDb::build(t.clone(), RowDesign::Traditional);
        let col = ColumnEngine::new(t.clone());
        for q in all_queries() {
            let a = row.execute(&q, &io);
            let b = col.execute(&q, EngineConfig::FULL, &io);
            let c = col.execute(&q, EngineConfig::STRIPPED, &io);
            assert_eq!(a, b, "seed {seed} {}", q.id);
            assert_eq!(b, c, "seed {seed} {}", q.id);
        }
    }
}
