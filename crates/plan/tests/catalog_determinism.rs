//! The catalog is the same however many workers build it.
//!
//! `Catalog::build` computes each column's statistics as one job of a
//! `cvr_storage::par::Jobs` list at the engine's build parallelism. Every
//! field of every column's statistics, the row-design sizes and the per-year
//! DATE fractions must come out identical at 1, 2 and 4 workers.

use cvr_core::morsel::Parallelism;
use cvr_core::ColumnEngine;
use cvr_data::gen::SsbConfig;
use cvr_data::schema::Dim;
use cvr_data::table::TableData;
use cvr_plan::{Catalog, TableStats};
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
