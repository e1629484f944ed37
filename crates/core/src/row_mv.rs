//! "CS (Row-MV)": row-oriented materialized views stored *inside* the
//! column store (Section 6.1).
//!
//! "One might expect the C-Store storage manager to be unable to store data
//! in rows ... However, this can be done easily by using tables that have a
//! single column of type 'string'. The values in this column are entire
//! tuples." This module holds that storage; queries run early
//! materialization's pipeline ([`crate::em`]) with its second tuple source:
//! the flight view's string rows, each tuple parsed as it is read (the
//! row-store attribute-extraction cost, paid in full), where the `l`
//! configurations stitch tuples from decoded columns. The dimension join
//! tables are built from parsed dimension rows.
//!
//! This is the configuration that shows the *cost* of row-oriented
//! processing inside C-Store: same bytes read as the row-store MV case,
//! slower execution.

use crate::ctx::{catch_injected, QueryError};
use crate::em::{self, dim_row_columns, DimTable, Parsed, RowPlan};
use crate::engine::ExecOptions;
use crate::projection::dim_sort_columns;
use cvr_data::gen::SsbTables;
use cvr_data::queries::{flight_fact_columns, paper_columns, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::TableData;
use cvr_data::value::{DataType, Value};
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, StrColumn};
use cvr_storage::io::IoSession;
use std::collections::HashMap;

/// Field separator in serialized tuples.
const SEP: char = '|';

/// One row-oriented table stored as a single string column.
pub struct RowMvTable {
    /// Column names of the serialized fields, in order.
    pub columns: Vec<&'static str>,
    /// Field types (for parsing).
    pub types: Vec<DataType>,
    /// The single-string-column storage.
    pub store: StoredColumn,
}

impl RowMvTable {
    /// Serialize `table` (projected to `columns`) into a row-MV table.
    pub fn build(table: &TableData, columns: &[&'static str]) -> RowMvTable {
        let types: Vec<DataType> =
            columns.iter().map(|c| table.schema.columns[table.schema.col(c)].dtype).collect();
        let mut rows = Vec::with_capacity(table.num_rows());
        let mut buf = String::new();
        for i in 0..table.num_rows() {
            buf.clear();
            for (j, c) in columns.iter().enumerate() {
                if j > 0 {
                    buf.push(SEP);
                }
                match table.value(i, c) {
                    Value::Int(v) => buf.push_str(&v.to_string()),
                    Value::Str(s) => buf.push_str(&s),
                }
            }
            rows.push(buf.clone());
        }
        RowMvTable {
            columns: columns.to_vec(),
            types,
            store: StoredColumn::new("rows", Column::Str(StrColumn::plain(rows))),
        }
    }

    /// Parse field `idx` out of a serialized tuple.
    pub(crate) fn parse_field(&self, row: &str, idx: usize) -> Value {
        let field = row.split(SEP).nth(idx).expect("field count");
        match self.types[idx] {
            DataType::Int => Value::Int(field.parse().expect("int field")),
            DataType::Str => Value::str(field),
        }
    }

    /// The positions of `columns` among the serialized fields.
    pub(crate) fn fields(&self, columns: &[&str]) -> Vec<usize> {
        columns.iter().map(|c| self.columns.iter().position(|f| f == c).expect("stored")).collect()
    }

    /// Scan: parse every tuple, yielding the requested fields. Charges the
    /// full string column.
    pub fn scan<'a>(
        &'a self,
        fields: &'a [usize],
        io: &IoSession,
    ) -> impl Iterator<Item = Vec<Value>> + 'a {
        self.store.charge_scan(io);
        let values = self.store.column.as_str().plain_strs();
        values.iter().map(move |row| fields.iter().map(|&f| self.parse_field(row, f)).collect())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.store.column.len()
    }

    /// Stored bytes.
    pub fn bytes(&self) -> u64 {
        self.store.bytes()
    }
}

/// The Row-MV database: per-flight fact views + row-serialized dimensions.
pub struct RowMvDb {
    views: Vec<RowMvTable>,
    dims: HashMap<Dim, RowMvTable>,
}

impl RowMvDb {
    /// Build per-flight row-MV tables mirroring the row engine's MV design:
    /// each view holds its flight's [`flight_fact_columns`], each dimension
    /// its [`dim_columns`].
    pub fn build(tables: &SsbTables) -> RowMvDb {
        let views = (1..=4)
            .map(|f| RowMvTable::build(&tables.lineorder, flight_fact_columns(f).unwrap()))
            .collect();
        let dims = Dim::ALL
            .iter()
            .map(|&d| (d, RowMvTable::build(tables.dim(d), &dim_columns(d))))
            .collect();
        RowMvDb { views, dims }
    }

    /// Whether the views and dimension tables hold every column `q` reads:
    /// its flight's view every fact column, and each dimension table every
    /// column [`dim_row_columns`] reads of it.
    pub fn answers(q: &SsbQuery) -> bool {
        let holds = |held: &[&str], read: &[&str]| read.iter().all(|c| held.contains(c));
        flight_fact_columns(q.id.flight).is_some_and(|view| holds(view, &q.fact_columns()))
            && q.touched_dims().into_iter().all(|d| holds(&dim_columns(d), &dim_row_columns(q, d)))
    }

    /// The view serving `flight`, when it is one of the paper's four.
    pub fn view(&self, flight: u8) -> Option<&RowMvTable> {
        self.views.get(usize::from(flight).checked_sub(1)?)
    }

    /// Total stored bytes of the fact views.
    pub fn bytes(&self) -> u64 {
        self.views.iter().map(RowMvTable::bytes).sum()
    }

    /// Execute `q` as `opts` says: parse-scan each touched dimension into
    /// its join table, charge the flight view, then run early
    /// materialization's pipeline over the view's parsed tuples.
    /// `opts.fact_order` permutes the fact predicates; `opts.ctx` is
    /// polled between dimension scans and at every morsel boundary.
    /// Lifecycle aborts and injected storage faults ([`QueryError::Io`])
    /// surface as typed errors. Panics, naming the statement, when the
    /// views and dimension tables do not hold every column `q` reads.
    pub fn run(
        &self,
        q: &SsbQuery,
        opts: &ExecOptions<'_>,
        io: &IoSession,
    ) -> Result<QueryOutput, QueryError> {
        let permuted = opts.fact_order.map(|order| q.with_fact_order(order));
        let q = permuted.as_ref().unwrap_or(q);
        let view = self.view(q.id.flight).filter(|_| RowMvDb::answers(q)).unwrap_or_else(|| {
            panic!("CS (Row-MV) cannot answer {}: {q:?}", q.id);
        });
        catch_injected(|| {
            let mut dims = HashMap::new();
            for d in q.touched_dims() {
                opts.ctx.check()?;
                let table = &self.dims[&d];
                let fields = table.fields(&dim_row_columns(q, d));
                dims.insert(d, DimTable::from_rows(q, d, table.scan(&fields, io)));
            }
            view.store.charge_scan(io);
            let tuples = Parsed { view, fields: view.fields(&q.fact_columns()) };
            let plan = RowPlan::new(q, dims);
            em::run_pipeline(q, &plan, &tuples, opts, io, "row-style over parsed view tuples")
        })?
    }
}

/// The columns CS (Row-MV)'s table of `d` holds: its key, its hierarchy and
/// the [`paper_columns`] on it.
fn dim_columns(d: Dim) -> Vec<&'static str> {
    let mut cols: Vec<&'static str> = vec![d.key_column()];
    let paper = paper_columns().dims.iter().filter(|(pd, _)| *pd == d);
    for &c in dim_sort_columns(d).iter().chain(paper.map(|(_, c)| c)) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query, QueryId};
    use cvr_data::reference;

    fn tables() -> SsbTables {
        SsbConfig { sf: 0.002, seed: 43 }.generate()
    }

    fn db() -> RowMvDb {
        RowMvDb::build(&tables())
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let tables = tables();
        let (db, io) = (RowMvDb::build(&tables), IoSession::unmetered());
        for q in all_queries() {
            let expected = reference::evaluate(&tables, &q);
            let got = db.run(&q, &ExecOptions::default(), &io).expect("unbounded lifecycle");
            assert_eq!(got, expected, "Row-MV disagrees on {}", q.id);
        }
    }

    #[test]
    fn rows_serialized_as_strings() {
        let db = db();
        let view = db.view(1).expect("flight 1");
        assert!(view.num_rows() > 0);
        // The storage really is one string column.
        assert!(matches!(view.store.column, Column::Str(StrColumn::Plain { .. })));
        let io = IoSession::unmetered();
        let first: Vec<Vec<Value>> = view.scan(&[0], &io).take(1).collect();
        assert_eq!(first.len(), 1);
    }

    #[test]
    fn scan_charges_string_bytes() {
        let db = db();
        let io = IoSession::unmetered();
        let view = db.view(1).expect("flight 1");
        let fields = [0usize];
        let _rows: Vec<_> = view.scan(&fields, &io).collect();
        assert_eq!(io.stats().bytes_read, view.bytes());
    }

    #[test]
    #[should_panic(expected = "cannot answer")]
    fn refuses_a_statement_outside_the_paper_flights_by_name() {
        let q = SsbQuery { id: QueryId::new(0, 1), ..query(2, 1) };
        let _ = db().run(&q, &ExecOptions::default(), &IoSession::unmetered());
    }
}
