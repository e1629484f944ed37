//! Property tests over the whole stack: for *arbitrary* generator seeds and
//! scales, the engines must agree with the brute-force reference evaluator.
//!
//! These run fewer cases than the unit-level property tests (each case
//! builds several physical designs), but they exercise the full pipeline —
//! generation → storage → plans → execution — under randomized data.

use cvr::core::morsel::Parallelism;
use cvr::core::{ColumnEngine, EngineConfig, ExecOptions};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, Design, Planner, Stores};
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
            for code in ["tICL", "tiCL"] {
                let got = engine.run(&q, EngineConfig::parse(code), &ExecOptions::default(), &io);
                prop_assert_eq!(got, Ok(expected.clone()), "{} {} seed {}", code, q.id, seed);
            }
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
        // Row builds are the expensive part: each design is built once.
        let stores = Stores::new(tables.clone(), Parallelism::from_env());
        let planner = Planner::new(Catalog::build(stores.engine()));
        let io = IoSession::unmetered();
        for q in (WorkloadConfig { seed, count: 12 }).generate() {
            let expected = reference::evaluate(&tables, &q);
            let plan = planner.plan(&q);
            let opts = ExecOptions { fact_order: Some(&plan.fact_order), ..ExecOptions::default() };
            // The planner's overall pick, the best *column* candidate and the
            // best applicable row design.
            let mut candidates = planner.candidates(&q).into_iter().map(|c| Design::from(c.choice));
            let column = candidates.find(|d| matches!(d, Design::Column(_)));
            let row = planner.applicable_row_designs(&q).first().copied().map(Design::Row);
            let picked = [Some(plan.choice.into()), column, row];
            prop_assert!(picked[1].is_some(), "column candidates always exist");
            for design in picked.into_iter().flatten() {
                let got = stores.run(design, &q, &opts, &io);
                let at = format!("{} {} seed {seed}", design.label(), q.id);
                prop_assert_eq!(got, Ok(expected.clone()), "{}", at);
            }
        }
    }
}
