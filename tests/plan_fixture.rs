//! Golden plans: the planner's every decision and estimate, bit for bit.
//!
//! `tests/fixtures/plans.txt` holds, for the 13 paper queries and 100
//! generated descriptors, the winning plan, its fact-predicate order, its
//! `seconds` / `est_selectivity` / `cpu_seconds` as `f64::to_bits` hex, its
//! modeled I/O, and the whole candidate ranking with each estimate's bits;
//! each paper query also carries its `render()` tree. Any change to how the
//! planner computes an estimate that moves one bit of one candidate fails
//! here, so restructuring the cost model is checked against the estimates it
//! replaced, not against itself.

use cvr::core::ColumnEngine;
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Catalog, Planner};
use std::fmt::Write as _;
use std::sync::Arc;

/// The fixture's inputs: the tables, and the generated descriptors' seed.
const TABLES: SsbConfig = SsbConfig { sf: 0.01, seed: 30 };
const WORKLOAD_SEED: u64 = 0x504C_414E;
const GENERATED: usize = 100;

/// The fixture text (without its `#` header) as the planner computes it now.
fn plans() -> String {
    let tables = Arc::new(TABLES.generate());
    let planner = Planner::new(Catalog::build(&ColumnEngine::new(tables)));
    let paper = all_queries();
    let generated = WorkloadConfig { seed: WORKLOAD_SEED, count: GENERATED }.generate();
    let mut out = String::new();
    for q in paper.iter().chain(&generated) {
        let plan = planner.plan(q);
        let _ = write!(
            out,
            "{} {} order={:?} seconds={:016x} sel={:016x} cpu={:016x} io={} seeks={} ranking=",
            q.id,
            plan.choice.label(),
            plan.fact_order,
            plan.seconds.to_bits(),
            plan.est_selectivity.to_bits(),
            plan.est.cpu_seconds.to_bits(),
            plan.est.io_bytes,
            plan.est.seeks,
        );
        let ranking: Vec<String> =
            plan.ranking.iter().map(|(label, s)| format!("{label}:{:016x}", s.to_bits())).collect();
        out.push_str(&ranking.join(","));
        out.push('\n');
    }
    for q in &paper {
        let _ = writeln!(out, "== {}", q.id);
        out.push_str(&planner.plan(q).render());
    }
    out
}

#[test]
fn plans_match_the_pinned_fixture() {
    let fixture = include_str!("fixtures/plans.txt");
    let want: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let got = plans();
    let got: Vec<&str> = got.lines().collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(g, w, "fixture line {} (after the header) differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "line count");
    // 113 plan lines, then 13 rendered trees.
    assert_eq!(want.iter().filter(|l| l.starts_with("== ")).count(), 13);
    assert_eq!(want.iter().take_while(|l| !l.starts_with("== ")).count(), 13 + GENERATED);
}

/// Print the fixture text as the planner computes it now, for a change
/// meant to move an estimate (the `#` header is kept by hand):
/// `cargo test --test plan_fixture print_plans -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_plans() {
    print!("{}", plans());
}
