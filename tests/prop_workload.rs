//! Property tests over the whole stack: for *arbitrary* generator seeds and
//! scales, the engines must agree with the brute-force reference evaluator.
//!
//! These run fewer cases than the unit-level property tests (each case
//! builds several physical designs), but they exercise the full pipeline —
//! generation → storage → plans → execution — under randomized data.

use cvr::core::{ColumnEngine, EngineConfig, ExecOptions};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, PhysicalChoice, Planner};
use cvr::row::designs::{RowDb, RowDesign};
use cvr::storage::io::IoSession;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn column_engine_matches_reference_on_random_data(
        seed in any::<u64>(),
        sf in 0.0004f64..0.0012,
    ) {
        let tables = Arc::new(SsbConfig { sf, seed }.generate());
        let engine = ColumnEngine::new(tables.clone());
        let io = IoSession::unmetered();
        for q in all_queries() {
            let expected = reference::evaluate(&tables, &q);
            prop_assert_eq!(
                engine.execute(&q, EngineConfig::FULL, &io),
                expected.clone(),
                "tICL {} seed {}", q.id, seed
            );
            prop_assert_eq!(
                engine.execute(&q, EngineConfig::parse("tiCL"), &io),
                expected,
                "tiCL {} seed {}", q.id, seed
            );
        }
    }

    #[test]
    fn row_engine_matches_reference_on_random_data(
        seed in any::<u64>(),
        sf in 0.0004f64..0.0012,
    ) {
        let tables = Arc::new(SsbConfig { sf, seed }.generate());
        let io = IoSession::unmetered();
        let trad = RowDb::build(tables.clone(), RowDesign::Traditional);
        let vp = RowDb::build(tables.clone(), RowDesign::VerticalPartitioning);
        for q in all_queries() {
            let expected = reference::evaluate(&tables, &q);
            prop_assert_eq!(trad.execute(&q, &io), expected.clone(), "T {} seed {}", q.id, seed);
            prop_assert_eq!(vp.execute(&q, &io), expected, "VP {} seed {}", q.id, seed);
        }
    }

    /// Randomly *generated* queries — not just the 13 paper queries — run
    /// through both engines under planner-chosen configurations and must
    /// match the brute-force reference evaluator.
    #[test]
    fn generated_queries_match_reference_under_planned_configs(
        seed in any::<u64>(),
        sf in 0.0004f64..0.0012,
    ) {
        let tables = Arc::new(SsbConfig { sf, seed }.generate());
        let engine = ColumnEngine::new(tables.clone());
        let planner = Planner::new(Catalog::build(&engine));
        let io = IoSession::unmetered();
        // Row builds are the expensive part: share one db per design used.
        let mut row_dbs: std::collections::HashMap<RowDesign, RowDb> =
            std::collections::HashMap::new();
        for q in (WorkloadConfig { seed, count: 12 }).generate() {
            let expected = reference::evaluate(&tables, &q);
            let plan = planner.plan(&q);
            let opts = ExecOptions { fact_order: Some(&plan.fact_order), ..ExecOptions::default() };
            let planned = |cfg| engine.run(&q, cfg, &opts, &io).expect("unbounded lifecycle");
            // The planner's overall pick.
            let got = match plan.choice {
                PhysicalChoice::Column(cfg) => planned(cfg),
                PhysicalChoice::Row(design) => row_dbs
                    .entry(design)
                    .or_insert_with(|| RowDb::build(tables.clone(), design))
                    .execute_planned(&q, &plan.fact_order, &io),
            };
            prop_assert_eq!(got, expected.clone(), "planned {} seed {}", q.id, seed);
            // The column engine under the best *column* candidate...
            let col_cfg = planner
                .candidates(&q)
                .into_iter()
                .find_map(|c| match c.choice {
                    PhysicalChoice::Column(cfg) => Some(cfg),
                    PhysicalChoice::Row(_) => None,
                })
                .expect("column candidates always exist");
            prop_assert_eq!(
                planned(col_cfg),
                expected.clone(),
                "column {} seed {}", q.id, seed
            );
            // ... and the row engine under the best applicable row design.
            if let Some(design) = planner.applicable_row_designs(&q).first().copied() {
                let db = row_dbs
                    .entry(design)
                    .or_insert_with(|| RowDb::build(tables.clone(), design));
                prop_assert_eq!(
                    db.execute_planned(&q, &plan.fact_order, &io),
                    expected,
                    "row {} {} seed {}", design.label(), q.id, seed
                );
            }
        }
    }
}
