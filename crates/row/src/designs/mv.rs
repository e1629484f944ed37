//! The materialized-view design (Figure 6 `MV`).
//!
//! One view per query flight, holding *exactly* the fact columns that
//! flight's queries need — "the optimal view for a given flight has only the
//! columns needed to answer queries in that flight. We do not pre-join
//! columns from different tables in these views" (Section 4). Views are
//! partitioned by `orderdate` year like the traditional design ("System X is
//! able to partition each materialized view optimally").
//!
//! Plans are the traditional plans with the scan retargeted at the view:
//! `common::pruned_fact_scan` over the view's partitions, then
//! `common::star_join`, the builders `T` runs. So the design's entire
//! advantage is I/O: a flight-1 view row is ~24 bytes against ~90 for the
//! full 17-column tuple.
//!
//! A view is built by the first statement of its flight, so a workload that
//! only runs flight 1 through this design pays for flight 1's view alone.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::designs::common::{pruned_fact_scan, star_join};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{flight_fact_columns, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::ColumnData;
use cvr_storage::heap::{HeapFile, PartitionedHeap};
use cvr_storage::io::IoSession;

/// One per-flight materialized view.
pub struct MaterializedView {
    /// Fact columns stored in the view ([`flight_fact_columns`]).
    pub columns: &'static [&'static str],
    /// The view's storage, partitioned by `orderdate` year.
    pub heap: PartitionedHeap,
}

impl MaterializedView {
    /// Project and partition `flight`'s view straight from the fact columns.
    fn build(tables: &SsbTables, flight: u8) -> MaterializedView {
        let columns = flight_fact_columns(flight).expect("views exist for the paper flights");
        let fact = &tables.lineorder;
        let data: Vec<&ColumnData> = columns.iter().map(|c| fact.column(c)).collect();
        let dates = fact.column("lo_orderdate").ints();
        let heap = PartitionedHeap::build(&data, dates, |d| d / 10_000);
        MaterializedView { columns, heap }
    }
}

/// The MV design: per-flight views plus the dimension heaps.
pub struct MvDb {
    tables: Arc<SsbTables>,
    /// Views indexed by flight number − 1, each built on first use.
    views: [OnceLock<MaterializedView>; 4],
    dims: HashMap<Dim, HeapFile>,
}

impl MvDb {
    /// Build the dimension heaps; each flight's view is built by the first
    /// [`MvDb::view`] of that flight.
    pub fn build(tables: Arc<SsbTables>) -> MvDb {
        let dims = Dim::ALL.iter().map(|&d| (d, HeapFile::build(tables.dim(d)))).collect();
        MvDb { tables, views: Default::default(), dims }
    }

    /// The view serving `flight` (1..=4), built on first use.
    pub fn view(&self, flight: u8) -> &MaterializedView {
        self.views[(flight - 1) as usize]
            .get_or_init(|| MaterializedView::build(&self.tables, flight))
    }

    /// Total bytes across all four views (Section 6.2 accounting), building
    /// any not built yet.
    pub fn bytes(&self) -> u64 {
        (1..=4).map(|flight| self.view(flight).heap.bytes()).sum()
    }

    /// Execute `q` against its flight's view.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let view = self.view(q.id.flight);
        let fact = pruned_fact_scan(&self.tables, &view.heap, view.columns, q, io);
        star_join(&self.tables, &self.dims, q, fact, &[], true, io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::query;

    #[test]
    fn a_flight_builds_only_its_view_and_bytes_count_all_four() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 31 }.generate());
        let db = MvDb::build(tables.clone());
        let built = |db: &MvDb| db.views.iter().map(|v| v.get().is_some()).collect::<Vec<_>>();
        assert_eq!(built(&db), [false; 4], "no view before a statement");
        db.execute(&query(1, 2), &IoSession::unmetered());
        assert_eq!(built(&db), [true, false, false, false]);
        // The eager sum: each view projected out as a table, then partitioned.
        let dates = tables.lineorder.column("lo_orderdate").ints();
        let eager: u64 = (1..=4)
            .map(|f| {
                let projected = tables.lineorder.project(flight_fact_columns(f).unwrap());
                let columns: Vec<&ColumnData> = projected.columns.iter().collect();
                PartitionedHeap::build(&columns, dates, |d| d / 10_000).bytes()
            })
            .sum();
        assert_eq!(db.bytes(), eager);
        assert_eq!(built(&db), [true; 4]);
    }
}
