//! The uncompressed column store is built by the first execution that asks
//! for it — and nobody else can tell.
//!
//! One test function: the `cvr_store_plain_built` gauge is process-wide, so
//! this binary builds its engines one after another.

use cvr_core::projection::CStoreDb;
use cvr_core::{ColumnEngine, EngineConfig};
use cvr_data::gen::SsbConfig;
use cvr_data::queries::all_queries;
use cvr_data::reference;
use cvr_data::schema::Dim;
use cvr_plan::{Catalog, Planner};
use cvr_storage::io::IoSession;
use std::sync::Arc;

fn gauge() -> Option<u64> {
    let samples = cvr_obs::global().samples();
    samples.into_iter().find(|(name, _)| name == "cvr_store_plain_built").map(|(_, v)| v)
}

#[test]
fn the_lazy_plain_store_is_invisible() {
    for seed in [11, 4242] {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed }.generate());
        let engine = ColumnEngine::new(tables.clone());
        let catalog = Catalog::build(&engine);
        assert!(!engine.plain_built(), "building the statistics must not build the plain store");

        // The recorded sizes are the plain store's, column for column, so
        // every uncompressed candidate the enumerator costs is unchanged.
        let plain = CStoreDb::build(tables.clone(), false);
        let comp = engine.db(EngineConfig::FULL);
        for c in plain.fact.columns() {
            assert_eq!(comp.fact.plain_bytes(&c.name), c.bytes(), "lineorder.{}", c.name);
            assert_eq!(catalog.fact.column(&c.name).plain_bytes, c.bytes(), "lineorder.{}", c.name);
            assert_eq!(catalog.fact.column(&c.name).bytes(false), c.bytes());
        }
        for d in Dim::ALL {
            for c in plain.dim(d).store.columns() {
                let (name, want) = (c.name.as_str(), c.bytes());
                assert_eq!(comp.dim(d).store.plain_bytes(name), want, "{d:?}.{name}");
                assert_eq!(catalog.dim(d).column(name).plain_bytes, want, "{d:?}.{name}");
            }
        }

        // Planning and every compressed configuration leave it unbuilt.
        let planner = Planner::new(catalog);
        let io = IoSession::unmetered();
        let queries = all_queries();
        let expected: Vec<_> = queries.iter().map(|q| reference::evaluate(&tables, q)).collect();
        for (q, want) in queries.iter().zip(&expected) {
            planner.plan(q);
            for cfg in EngineConfig::all().into_iter().filter(|cfg| cfg.compression) {
                assert_eq!(&engine.execute(q, cfg, &io), want, "{} under {}", q.id, cfg.code());
            }
        }
        assert!(!engine.plain_built());
        assert_eq!(gauge(), Some(0));

        // The first uncompressed execution builds it; answers are the
        // reference's, and the store is the one a direct build makes.
        let tiny = EngineConfig::parse("tIcl");
        assert_eq!(&engine.execute(&queries[0], tiny, &io), &expected[0]);
        assert!(engine.plain_built());
        assert_eq!(gauge(), Some(1));
        for (q, want) in queries.iter().zip(&expected) {
            for cfg in EngineConfig::all().into_iter().filter(|cfg| !cfg.compression) {
                assert_eq!(&engine.execute(q, cfg, &io), want, "{} under {}", q.id, cfg.code());
            }
        }
        let lazy = engine.db(tiny);
        assert!(!lazy.compression);
        for (a, b) in lazy.fact.columns().iter().zip(plain.fact.columns()) {
            assert_eq!(a.column, b.column, "lineorder.{}", a.name);
        }
    }
}
