//! The catalog is the same however many workers build it.
//!
//! `Catalog::build` computes each column's statistics as one job of a
//! `cvr_storage::par::Jobs` list at the engine's build parallelism. Every
//! field of every column's statistics, the row-design sizes and the per-year
//! DATE fractions must come out identical at 1, 2 and 4 workers, and so must
//! the row-design verdicts (`advisor::verdicts`), which read only the catalog.
//! A snapshot's catalog, adopted on reload, is the built one.

use cvr_core::morsel::Parallelism;
use cvr_core::{CStoreDb, ColumnEngine, EngineConfig};
use cvr_data::gen::SsbConfig;
use cvr_data::schema::Dim;
use cvr_data::table::TableData;
use cvr_plan::advisor::{self, held_bytes};
use cvr_plan::{Catalog, Planner, TableStats};
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::persist::{self, Shape};
use std::sync::Arc;

fn assert_same_columns(data: &TableData, one: &TableStats, other: &TableStats, at: &str) {
    assert_eq!((one.name.as_str(), one.rows), (other.name.as_str(), other.rows), "{at}");
    for def in &data.schema.columns {
        assert_eq!(one.column(def.name), other.column(def.name), "{at}: {}.{}", one.name, def.name);
    }
}

#[test]
fn catalog_is_identical_at_1_2_and_4_workers() {
    for sf in [0.002, 0.01] {
        let tables = Arc::new(SsbConfig { sf, seed: 17 }.generate());
        let build = |threads| {
            let par = Parallelism::with_threads(threads);
            Catalog::build(&ColumnEngine::with_parallelism(tables.clone(), par))
        };
        let one = build(1);
        for threads in [2, 4] {
            let other = build(threads);
            let at = format!("sf {sf}, 1 vs {threads} workers");
            assert_same_columns(&tables.lineorder, &one.fact, &other.fact, &at);
            for d in Dim::ALL {
                assert_same_columns(tables.dim(d), one.dim(d), other.dim(d), &at);
            }
            assert_eq!(one.row_sizes, other.row_sizes, "{at}");
            let bits = |c: &Catalog| -> Vec<(i64, u64)> {
                c.year_fractions().iter().map(|&(y, f)| (y, f.to_bits())).collect()
            };
            assert_eq!(bits(&one), bits(&other), "{at}");
            assert_eq!(one.year_fractions().len(), 7, "{at}: 1992–1998");
        }
    }
}

/// A snapshot's catalog, adopted, is the catalog `Catalog::build` makes
/// over the built engine at 1, 2 and 4 workers: every field, `f64`s to the
/// bit.
#[test]
fn an_adopted_catalog_is_the_built_one_at_1_2_and_4_workers() {
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 17 }.generate());
    let dir = std::env::temp_dir().join(format!("cvr-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial =
        Catalog::build(&ColumnEngine::with_parallelism(tables.clone(), Parallelism::serial()));
    for threads in [1, 2, 4] {
        let engine =
            ColumnEngine::with_parallelism(tables.clone(), Parallelism::with_threads(threads));
        let built = Catalog::build(&engine);
        let db = engine.db(EngineConfig::FULL);
        let catalog = ("catalog".to_string(), persist::encode_bytes_segment(&built.to_bytes()));
        let segments = db.segments().chain([catalog]);
        persist::write_generation(&dir, db.config(), Shape::Store, segments).unwrap();
        let (adopted, _) = persist::load_latest_store(&dir, |parts| {
            CStoreDb::adopt(parts)?;
            Catalog::from_bytes(&parts.bytes("catalog")?)
        })
        .unwrap();
        assert_eq!(adopted, built, "{threads} workers");
        assert_eq!(adopted, serial, "{threads} workers against 1");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verdicts_are_identical_at_1_2_and_4_workers() {
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 17 }.generate());
    let verdicts = |threads| {
        let par = Parallelism::with_threads(threads);
        let engine = ColumnEngine::with_parallelism(tables.clone(), par);
        advisor::verdicts(&Planner::new(Catalog::build(&engine)))
    };
    let one = verdicts(1);
    assert_eq!(one.len(), RowDesign::EXTENDED.len());
    for threads in [2, 4] {
        assert_eq!(one, verdicts(threads), "1 vs {threads} workers");
    }
}

/// The verdict's held bytes are a lower bound on what each design holds
/// once built, so the rule never refuses a design for bytes it does not
/// take.
#[test]
fn held_bytes_bound_each_built_design_from_below() {
    let tables = Arc::new(SsbConfig { sf: 0.01, seed: 17 }.generate());
    let catalog = Catalog::build(&ColumnEngine::new(tables.clone()));
    let mut over = Vec::new();
    for design in RowDesign::EXTENDED {
        let built = match RowDb::build(tables.clone(), design) {
            RowDb::Traditional(db) | RowDb::TraditionalBitmap(db) => db.fact_bytes(),
            RowDb::Mv(db) => db.bytes(),
            RowDb::Vp(db) => db.fact_bytes(),
            RowDb::Ai(db) => db.bytes(),
            RowDb::SuperVp(db) => db.fact_bytes(),
        };
        let bound = held_bytes(&catalog, design);
        eprintln!("{:>5}: bound {bound} B, built {built} B", design.label());
        if bound == 0 || bound > built {
            over.push(format!("{}: bound {bound} B, built {built} B", design.label()));
        }
    }
    assert!(over.is_empty(), "{over:?}");
}
