//! Whether each row design pays for what it holds: the Figure 6 finding,
//! priced.
//!
//! Figure 6's row designs each buy speed on some queries by holding more
//! bytes: a whole-heap copy and six B+Trees (`T(B)`), per-flight views
//! (`MV`), per-column heaps (`VP`, `VP(S)`), indexes (`AI`). [`verdicts`]
//! prices each at one stated exchange rate:
//!
//! * `saved_share` — over the [`reference_mix`], the sum of how much the
//!   design's estimate undercuts the best column-engine candidate (0 where
//!   it does not), divided by the sum of the best column candidates;
//! * `held_share` — a lower bound on the design's bytes ([`held_bytes`]),
//!   divided by the compressed bytes of every column in the catalog;
//! * a design **pays** iff `saved_share ≥ held_share`: it must save at
//!   least the share of the mix's time that it adds to the store's bytes.
//!   Build time follows bytes, so the one term prices both.
//!
//! Both shares are under the planner's own `CostParams`, and every sum runs
//! in statement order, so the verdicts depend only on the catalog. This is
//! the offline half of a storage advisor for a hybrid store: the reference
//! mix stands in for the traced one. From sf 0.0001 up no design pays. No
//! store build prices the mix: [`Planner::for_serving`] ranks no row design,
//! and `paper planner` reports these verdicts.

use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::workload::WorkloadConfig;
use cvr_row::designs::RowDesign;

use crate::enumerate::{column_file_value_bytes, PhysicalChoice, Planner, INDEX_ENTRY_BYTES};
use crate::stats::Catalog;

/// Seed of the reference mix's generated statements. Fixed once; it is not
/// the seed of any benchmark stream.
pub const REFERENCE_SEED: u64 = 0x5EED_F16E;

/// Generated statements in the reference mix, after the 13 paper queries.
pub const REFERENCE_GENERATED: usize = 255;

/// One design's price over the reference mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignVerdict {
    /// The design.
    pub design: RowDesign,
    /// Share of the mix's best column-plan seconds the design saves.
    pub saved_share: f64,
    /// [`held_bytes`] over the compressed bytes of every catalog column.
    pub held_share: f64,
    /// `saved_share ≥ held_share`: the design pays for what it holds.
    pub served: bool,
}

/// The statements every design is priced over: the 13 paper queries, then
/// [`REFERENCE_GENERATED`] statements drawn at [`REFERENCE_SEED`], each of
/// weight 1.
pub fn reference_mix() -> Vec<SsbQuery> {
    let mut mix = all_queries();
    mix.extend(WorkloadConfig { seed: REFERENCE_SEED, count: REFERENCE_GENERATED }.generate());
    mix
}

/// A lower bound on the bytes `design` holds once built over the tables
/// `catalog` describes: its fact heap (`T`, `T(B)`), its four views (`MV`),
/// or per-value bytes times rows over the fact columns it stores — a column
/// file's value or record (`VP(S)`, `VP`), the leaf entry the cost model
/// charges (`AI`). Indexes, dimension heaps and page slack are left out, so
/// the bound errs toward serving a design.
pub fn held_bytes(catalog: &Catalog, design: RowDesign) -> u64 {
    let sizes = &catalog.row_sizes;
    let rows = catalog.fact_rows() as f64;
    match design {
        RowDesign::Traditional | RowDesign::TraditionalBitmap => sizes.fact_heap_bytes,
        RowDesign::MaterializedViews => sizes.mv_view_bytes.iter().sum(),
        RowDesign::VerticalPartitioning | RowDesign::SuperVp => catalog
            .fact
            .columns()
            .map(|stats| (rows * column_file_value_bytes(design, stats)) as u64)
            .sum(),
        RowDesign::IndexOnly => {
            let columns = cvr_data::queries::paper_columns().fact.len() as f64;
            (columns * rows * INDEX_ENTRY_BYTES) as u64
        }
    }
}

/// The verdict on each design of [`RowDesign::EXTENDED`], in that order,
/// under `planner`'s parameters. `planner` must rank the full grid
/// ([`Planner::new`] or [`Planner::with_params`]).
pub fn verdicts(planner: &Planner) -> Vec<DesignVerdict> {
    let designs = RowDesign::EXTENDED;
    let mut column_seconds = 0.0;
    let mut saved = [0.0f64; RowDesign::EXTENDED.len()];
    for q in reference_mix() {
        // Cheapest first, and the column grid is never empty.
        let candidates = planner.candidates(&q);
        let best_column = candidates
            .iter()
            .find(|c| matches!(c.choice, PhysicalChoice::Column(_)))
            .map_or(0.0, |c| c.seconds);
        column_seconds += best_column;
        for c in &candidates {
            if let PhysicalChoice::Row(design) = c.choice {
                let slot = designs.iter().position(|&d| d == design).expect("a known design");
                saved[slot] += (best_column - c.seconds).max(0.0);
            }
        }
    }
    let catalog = planner.catalog();
    let store_bytes: u64 = std::iter::once(&catalog.fact)
        .chain(cvr_data::schema::Dim::ALL.iter().map(|&d| catalog.dim(d)))
        .flat_map(|table| table.columns())
        .map(|stats| stats.bytes(true))
        .sum();
    designs
        .iter()
        .zip(saved)
        .map(|(&design, saved)| {
            let saved_share = if column_seconds > 0.0 { saved / column_seconds } else { 0.0 };
            let held_share = held_bytes(catalog, design) as f64 / store_bytes.max(1) as f64;
            DesignVerdict { design, saved_share, held_share, served: saved_share >= held_share }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::ColumnEngine;
    use cvr_data::gen::SsbConfig;
    use std::sync::Arc;

    /// The rule decides both ways on generated data. At sf 0.00005 (300
    /// fact rows) the fixed-size DATE dimension dominates the column store's
    /// bytes, so `T(B)`'s heap pays for itself while `T`, over the same
    /// heap, saves too little; at sf 0.005 no design pays. The serving
    /// planner ranks no row design either way.
    #[test]
    fn verdicts_decide_both_ways_and_a_serving_planner_ranks_no_row_design() {
        let mix = reference_mix();
        assert_eq!(mix.len(), 13 + REFERENCE_GENERATED);
        assert_eq!(format!("{:?}", &mix[..13]), format!("{:?}", all_queries()));
        for (sf, expected) in [(0.00005, vec![RowDesign::TraditionalBitmap]), (0.005, vec![])] {
            let tables = Arc::new(SsbConfig::with_scale(sf).generate());
            let catalog = || Catalog::build(&ColumnEngine::new(tables.clone()));
            let full = Planner::new(catalog());
            let verdicts = verdicts(&full);
            assert_eq!(verdicts.iter().map(|v| v.design).collect::<Vec<_>>(), RowDesign::EXTENDED);
            for v in &verdicts {
                assert!((0.0..=1.0).contains(&v.saved_share), "{v:?}");
                assert!(v.held_share > 0.0, "{v:?}");
                assert_eq!(v.served, v.saved_share >= v.held_share, "{v:?}");
            }
            let served: Vec<_> = verdicts.iter().filter(|v| v.served).map(|v| v.design).collect();
            assert_eq!(served, expected, "sf {sf}: {verdicts:?}");
            let serving = Planner::for_serving(catalog());
            assert_eq!(full.applicable_row_designs(&mix[3]).len(), RowDesign::EXTENDED.len());
            let mut refused = 0;
            for q in &mix {
                assert_eq!(serving.applicable_row_designs(q), [], "{}", q.id);
                let full_pick = full.plan(q).choice;
                refused += usize::from(
                    matches!(full_pick, PhysicalChoice::Row(d) if !served.contains(&d)),
                );
            }
            // The full grid would have planned designs that do not pay.
            assert!(refused > 0, "sf {sf}");
        }
    }
}
