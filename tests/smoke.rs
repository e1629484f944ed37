//! Workspace smoke test: the cross-engine contract, end to end, in seconds.
//!
//! CI runs this on every push. It asserts the full catalog of thirteen SSBM
//! queries agrees between the column engine and the brute-force reference
//! evaluator at a tiny scale factor — generation → physical design → plan →
//! execution, the whole pipeline. `tests/cross_engine.rs` covers every
//! engine × design × configuration combination more thoroughly; this file
//! is the fast canary whose failure message should be the first thing a
//! broken PR sees.

use cvr::core::{ColumnEngine, EngineConfig, ExecOptions};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::storage::io::IoSession;
use std::sync::Arc;

#[test]
fn all_thirteen_queries_agree_with_reference_at_tiny_scale() {
    let tables = Arc::new(SsbConfig { sf: 0.0008, seed: 42 }.generate());
    let engine = ColumnEngine::new(tables.clone());
    let io = IoSession::unmetered();

    let queries = all_queries();
    assert_eq!(queries.len(), 13, "SSBM is four flights totalling 13 queries");

    for q in &queries {
        let expected = reference::evaluate(&tables, q);
        assert_eq!(
            engine.run(q, EngineConfig::FULL, &ExecOptions::default(), &io),
            Ok(expected),
            "ColumnEngine disagrees with the reference evaluator on {}",
            q.id
        );
    }
}
