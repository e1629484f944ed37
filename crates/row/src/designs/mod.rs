//! The five row-store physical designs of Section 4 / Figure 6, plus `VP(S)`.
//!
//! | Code  | Design                     | Type            | Holds | Plan builder |
//! |-------|----------------------------|-----------------|-------|--------------|
//! | T     | traditional                | [`TraditionalDb`] (`execute`) | year-partitioned fact heap, dimension heaps | star join |
//! | T(B)  | traditional, bitmap-biased | [`TraditionalDb`] (`execute_bitmap`) | whole fact heap, six `i64`-keyed fact B+Trees, dimension heaps | bitmap fetch, then the star join |
//! | MV    | materialized views         | [`MvDb`] | one year-partitioned view per flight, each built by its flight's first statement; dimension heaps | star join |
//! | VP    | vertical partitioning      | [`VpDb`] | a `(position, value)` heap per column | position join |
//! | VP(S) | VP over super tuples       | [`SuperVpDb`] | packed values per column, positions virtual | position join |
//! | AI    | index-only ("all indexes") | [`AiDb`] | a [`Key`](cvr_index::btree::Key)-keyed B+Tree per needed column | rid joins of index pieces |
//!
//! The designs differ in storage, not in plans, so each plan shape is
//! written once: the star join in `common::star_join` (fed by
//! `common::pruned_fact_scan` in `T` and `MV`), and the position join in
//! [`vp::PositionJoinDb`], generic over how one column file is stored
//! ([`vp::ColumnFile`]).
//!
//! [`RowDesign`] + [`RowDb`] build and run any of them; `cvr_plan::Stores`
//! builds each on first use beside the other systems of Figures 5–8.

pub mod ai;
pub mod common;
pub mod mv;
pub mod traditional;
pub mod vp;
pub mod vp_super;

pub use ai::AiDb;
pub use mv::MvDb;
pub use traditional::{TraditionalDb, TraditionalOptions};
pub use vp::VpDb;
pub use vp_super::SuperVpDb;

use cvr_data::gen::SsbTables;
use cvr_data::queries::{flight_fact_columns, paper_columns, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_storage::io::IoSession;
use std::sync::Arc;

/// The five design codes used in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowDesign {
    /// `T` — traditional row tables, orderdate-partitioned.
    Traditional,
    /// `T(B)` — traditional with plans biased to bitmap access paths.
    TraditionalBitmap,
    /// `MV` — per-flight materialized views.
    MaterializedViews,
    /// `VP` — full vertical partitioning.
    VerticalPartitioning,
    /// `AI` — index-only plans.
    IndexOnly,
    /// `VP(S)` — vertical partitioning over super-tuple (packed, headerless)
    /// column files: the Section 7 row-store prescription. Not part of
    /// Figure 6 (hence absent from [`RowDesign::ALL`]), but part of the
    /// physical-design space the cost-based planner searches.
    SuperVp,
}

impl RowDesign {
    /// All designs, in Figure 6 column order.
    pub const ALL: [RowDesign; 5] = [
        RowDesign::Traditional,
        RowDesign::TraditionalBitmap,
        RowDesign::MaterializedViews,
        RowDesign::VerticalPartitioning,
        RowDesign::IndexOnly,
    ];

    /// The full searchable design space: Figure 6 plus the super-tuple VP
    /// extension. This is what the planner enumerates.
    pub const EXTENDED: [RowDesign; 6] = [
        RowDesign::Traditional,
        RowDesign::TraditionalBitmap,
        RowDesign::MaterializedViews,
        RowDesign::VerticalPartitioning,
        RowDesign::IndexOnly,
        RowDesign::SuperVp,
    ];

    /// The label used in Figure 6 (and `VP(S)` for the extension).
    pub fn label(self) -> &'static str {
        match self {
            RowDesign::Traditional => "T",
            RowDesign::TraditionalBitmap => "T(B)",
            RowDesign::MaterializedViews => "MV",
            RowDesign::VerticalPartitioning => "VP",
            RowDesign::IndexOnly => "AI",
            RowDesign::SuperVp => "VP(S)",
        }
    }

    /// Whether this design's build holds what `q` reads. `MV` holds a view
    /// of each paper flight with the fact columns its queries read, and `AI`
    /// indexes the columns some paper query reads; the other designs store
    /// every column. The planner admits a design for `q` on this alone.
    pub fn answers(self, q: &SsbQuery) -> bool {
        match self {
            RowDesign::MaterializedViews => flight_fact_columns(q.id.flight)
                .is_some_and(|view| q.fact_columns().iter().all(|c| view.contains(c))),
            RowDesign::IndexOnly => {
                let paper = paper_columns();
                q.fact_columns().iter().all(|c| paper.fact.contains(c))
                    && q.dim_predicates.iter().all(|p| paper.dims.contains(&(p.dim, p.column)))
                    && q.group_by.iter().all(|g| paper.dims.contains(&(g.dim, g.column)))
            }
            _ => true,
        }
    }
}

/// A built design, ready to execute queries.
pub enum RowDb {
    /// Traditional (serves both `T` and, when built with bitmap indexes,
    /// `T(B)`).
    Traditional(TraditionalDb),
    /// Bitmap-biased traditional.
    TraditionalBitmap(TraditionalDb),
    /// Materialized views.
    Mv(MvDb),
    /// Vertical partitioning.
    Vp(VpDb),
    /// Index-only.
    Ai(AiDb),
    /// Super-tuple vertical partitioning.
    SuperVp(SuperVpDb),
}

impl RowDb {
    /// Build `design` over `tables`.
    pub fn build(tables: Arc<SsbTables>, design: RowDesign) -> RowDb {
        match design {
            RowDesign::Traditional => RowDb::Traditional(TraditionalDb::build(
                tables,
                TraditionalOptions { partitioned: true, bitmap_indexes: false, use_bloom: true },
            )),
            // The bitmap plan reads only the whole heap its rids address.
            RowDesign::TraditionalBitmap => RowDb::TraditionalBitmap(TraditionalDb::build(
                tables,
                TraditionalOptions { partitioned: false, bitmap_indexes: true, use_bloom: true },
            )),
            RowDesign::MaterializedViews => RowDb::Mv(MvDb::build(tables)),
            RowDesign::VerticalPartitioning => RowDb::Vp(VpDb::build(tables)),
            RowDesign::IndexOnly => RowDb::Ai(AiDb::build(tables)),
            RowDesign::SuperVp => RowDb::SuperVp(SuperVpDb::build(tables)),
        }
    }

    /// The design this database was built as.
    pub fn design(&self) -> RowDesign {
        match self {
            RowDb::Traditional(_) => RowDesign::Traditional,
            RowDb::TraditionalBitmap(_) => RowDesign::TraditionalBitmap,
            RowDb::Mv(_) => RowDesign::MaterializedViews,
            RowDb::Vp(_) => RowDesign::VerticalPartitioning,
            RowDb::Ai(_) => RowDesign::IndexOnly,
            RowDb::SuperVp(_) => RowDesign::SuperVp,
        }
    }

    /// Execute one statement, which the design must answer
    /// ([`RowDesign::answers`]).
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let design = self.design();
        assert!(design.answers(q), "row design {} cannot answer {}: {q:?}", design.label(), q.id);
        match self {
            RowDb::Traditional(db) => db.execute(q, io),
            RowDb::TraditionalBitmap(db) => db.execute_bitmap(q, io),
            RowDb::Mv(db) => db.execute(q, io),
            RowDb::Vp(db) => db.execute(q, io),
            RowDb::Ai(db) => db.execute(q, io),
            RowDb::SuperVp(db) => db.execute(q, io),
        }
    }

    /// "Permute by `fact_order` (see `SsbQuery::with_fact_order`), then
    /// [`RowDb::execute`]": how `cvr_plan::Stores::run` and
    /// `benchmark/src/layers.rs` run a planned row statement.
    pub fn execute_planned(
        &self,
        q: &SsbQuery,
        fact_order: &[usize],
        io: &IoSession,
    ) -> QueryOutput {
        self.execute(&q.with_fact_order(fact_order), io)
    }
}
