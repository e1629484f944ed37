//! The study's correctness backbone: every system of the paper's Figures
//! 5–8 — each column-engine configuration, row design, pre-joined table and
//! CS (Row-MV), one `Design` list — must return the reference evaluator's
//! answer for every statement its store holds, on every dataset.
//!
//! This is what makes the performance comparisons meaningful — the paper's
//! systems all answer the same queries; ours provably do.
//!
//! [`engines_agree_across_seeds`] checks the whole list on five datasets;
//! one test per kind of system checks that kind alone on a sixth, so a
//! failure names the kind at once. No (design, dataset, statement) cell is
//! checked twice: the other reference tests (`differential.rs`'s grid and
//! each engine's in-file test) own their datasets.

use cvr::core::morsel::Parallelism;
use cvr::core::{DenormVariant, ExecOptions};
use cvr::data::gen::SsbConfig;
use cvr::data::queries::all_queries;
use cvr::data::reference;
use cvr::data::workload::WorkloadConfig;
use cvr::plan::{Design, Stores};
use cvr::row::designs::traditional::BITMAP_COLUMNS;
use cvr::row::designs::RowDesign;
use cvr::storage::io::IoSession;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Five datasets at scale factors 0.001–0.002, so that sort orders,
/// dictionary layouts and run structures all vary; the largest first, and
/// first of all the one that also runs the generated statements.
const DATASETS: [SsbConfig; 5] = [
    GENERATED,
    SsbConfig { sf: 0.0015, seed: 53 },
    SsbConfig { sf: 0.001, seed: 1 },
    SsbConfig { sf: 0.001, seed: 99 },
    SsbConfig { sf: 0.001, seed: 777 },
];

/// The dataset that also runs 100 generated statements, among them empty
/// and near-empty selections, with measure predicates on indexed and
/// unindexed fact columns.
const GENERATED: SsbConfig = SsbConfig { sf: 0.002, seed: 31 };

/// Every (design, dataset, statement) cell whose design answers the
/// statement: the 26 designs on the 13 paper queries of every dataset, and
/// the designs that hold what each generated statement reads.
const CELLS: usize = 3_910;

/// Check every design that answers each statement on `config`: the paper
/// queries, and on [`GENERATED`] the generated statements too. Returns the
/// cells checked, and how many generated statements select nothing and how
/// many filter an indexed fact column.
fn check(config: SsbConfig) -> [usize; 3] {
    let stores = Stores::new(Arc::new(config.generate()), Parallelism::serial());
    let generated = if (config.sf, config.seed) == (GENERATED.sf, GENERATED.seed) {
        WorkloadConfig::with_count(100).generate()
    } else {
        Vec::new()
    };
    let mut counts = [0; 3];
    for (i, q) in all_queries().iter().chain(&generated).enumerate() {
        let want = reference::evaluate(stores.tables(), q);
        for design in Design::all().into_iter().filter(|d| d.answers(q)) {
            let got = stores.run(design, q, &ExecOptions::default(), &IoSession::unmetered());
            assert_eq!(got.as_ref(), Ok(&want), "{} on {} ({config:?})", design.label(), q.id);
            counts[0] += 1;
        }
        if i >= 13 {
            counts[1] += usize::from(want.rows.is_empty());
            counts[2] +=
                usize::from(q.fact_predicates.iter().any(|p| BITMAP_COLUMNS.contains(&p.column)));
        }
    }
    counts
}

/// The dataset of the one-kind tests.
const KIND_DATASET: SsbConfig = SsbConfig { sf: 0.0015, seed: 2008 };

/// Every paper query through each of `designs` on [`KIND_DATASET`],
/// against the reference evaluator.
fn designs_match_reference(designs: impl IntoIterator<Item = Design>) {
    let stores = Stores::new(Arc::new(KIND_DATASET.generate()), Parallelism::serial());
    let want: Vec<_> =
        all_queries().iter().map(|q| reference::evaluate(stores.tables(), q)).collect();
    for design in designs {
        for (q, want) in all_queries().iter().zip(&want) {
            let got = stores.run(design, q, &ExecOptions::default(), &IoSession::unmetered());
            assert_eq!(got.as_ref(), Ok(want), "{} on {}", design.label(), q.id);
        }
    }
}

#[test]
fn row_designs_match_reference() {
    designs_match_reference(RowDesign::ALL.map(Design::Row));
}

#[test]
fn column_configs_match_reference() {
    designs_match_reference(Design::columns());
}

#[test]
fn row_mv_matches_reference() {
    designs_match_reference([Design::RowMv]);
}

#[test]
fn denormalized_variants_match_reference() {
    designs_match_reference(DenormVariant::ALL.map(Design::PreJoined));
}

#[test]
fn engines_agree_across_seeds() {
    // The datasets are independent: check them on `CVR_THREADS` workers.
    let next = AtomicUsize::new(0);
    let workers = Parallelism::from_env().threads.min(DATASETS.len());
    let [cells, empty, indexed] = std::thread::scope(|s| {
        let worker = || {
            let mut counts = [0; 3];
            while let Some(&config) = DATASETS.get(next.fetch_add(1, Ordering::Relaxed)) {
                let more = check(config);
                counts = [0, 1, 2].map(|i| counts[i] + more[i]);
            }
            counts
        };
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let counts = handles.into_iter().map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)));
        counts.fold([0; 3], |a, b| [0, 1, 2].map(|i| a[i] + b[i]))
    });
    println!("{cells} (design, dataset, statement) cells");
    assert!(empty > 0 && indexed > 0, "{empty} empty results, {indexed} indexed predicates");
    assert_eq!(cells, CELLS);
}
