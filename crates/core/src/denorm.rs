//! Denormalized (pre-joined) fact tables — the Figure 8 experiment.
//!
//! Section 6.3.3 widens the fact table so "instead of containing a foreign
//! key into the dimension table, the fact table contains all of the values
//! found in the dimension table repeated for each fact table record", then
//! compares three compression levels:
//!
//! * **PJ, No C** — dimension strings inlined unmodified and stored plain;
//! * **PJ, Int C** — strings "dictionary encoded into integers before
//!   denormalization" (codes stored as plain integers, predicates become
//!   integer comparisons);
//! * **PJ, Max C** — full C-Store compression on the widened table (RLE on
//!   the sorted prefix, bit-packed dictionaries elsewhere).
//!
//! Queries run join-free: every dimension predicate becomes a direct
//! predicate on a denormalized column and group-by attributes are read
//! straight from the fact table — exactly why the paper expected
//! denormalization to win, and the baseline invisible join mostly still
//! beats it. Execution is one task of the shared morsel driver
//! ([`crate::morsel::run_fused`]), like the other late-materialized plan
//! shapes: per morsel the predicates refine the window, then phase 3's
//! extract→aggregate kernel ([`crate::agg::AggWorker`]) runs at the
//! survivors' fact positions.
//!
//! The pre-joined table takes the fact projection's layout, through the
//! same path ([`crate::projection`]): its rows are in the compressed
//! store's own fact order ([`FACT_SORT`], ties by fact row), so "PJ, Max C"
//! finds the baseline's runs. No widened table is materialised or sorted:
//! each fact column is gathered through the store's fact permutation into
//! its encoder, and each inlined dimension column through the joined
//! dimension row of the fact row at each position, into the same encoder.

use crate::agg::{AggStrategy, CodeDecoder};
use crate::ctx::{catch_injected, QueryError};
use crate::engine::ExecOptions;
use crate::extract::CodeSpace;
use crate::morsel::{load_survivors, run_fused, Morsel, Operator};
use crate::poslist::PosList;
use crate::projection::{encode_gathered, CStoreDb, KeyRemap, FACT_SORT};
use crate::scan::{refine, CodePred, ScanPred};
use cvr_data::queries::{paper_columns, Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, PlainInts};
use cvr_data::value::Value;
use cvr_storage::column::ColumnStore;
use cvr_storage::encode::{dict_codes_of_rows, Column, PlainValue, StrColumn};
use cvr_storage::io::IoSession;
use cvr_storage::with_plain_values;
use std::collections::HashMap;
use std::time::Instant;

/// The three denormalized variants of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenormVariant {
    /// "PJ, No C": strings inlined, no compression.
    NoCompression,
    /// "PJ, Int C": strings dictionary-encoded into plain integers.
    IntCompression,
    /// "PJ, Max C": full compression.
    MaxCompression,
}

impl DenormVariant {
    /// The three variants, in Figure 8's order.
    pub const ALL: [Self; 3] = [Self::NoCompression, Self::IntCompression, Self::MaxCompression];

    /// Figure 8 label.
    pub fn label(self) -> &'static str {
        match self {
            DenormVariant::NoCompression => "PJ, No C",
            DenormVariant::IntCompression => "PJ, Int C",
            DenormVariant::MaxCompression => "PJ, Max C",
        }
    }
}

/// A pre-joined fact table at one compression level.
pub struct DenormDb {
    /// Which variant this is.
    pub variant: DenormVariant,
    store: ColumnStore,
    /// For [`DenormVariant::IntCompression`]: per string column, the sorted
    /// dictionary its integer codes index, which translates string
    /// predicates into code predicates and decodes group outputs.
    dicts: HashMap<&'static str, Vec<Box<str>>>,
}

/// How one predicate narrows a morsel of the pre-joined table.
enum Filter<'q> {
    /// A logical predicate on the column as stored.
    Logical(&'q Pred),
    /// A string predicate compiled once to dictionary codes: those of a
    /// "PJ, Int C" dictionary, stored as plain integers, or a "PJ, Max C"
    /// dictionary column's own.
    Codes(CodePred),
    /// A "PJ, Int C" string predicate that no code satisfies. Its
    /// dictionary is held beside the table, so the column is never read.
    Nothing,
}

/// The fact columns the paper workload reads, without the foreign keys the
/// inlined dimension columns replace but with the sort columns (the paper
/// queries read every one of them).
fn fact_columns() -> impl Iterator<Item = &'static str> {
    let is_fk = |c: &str| Dim::ALL.iter().any(|d| d.fact_fk_column() == c);
    paper_columns().fact.iter().copied().filter(move |c| FACT_SORT.contains(c) || !is_fk(c))
}

impl DenormDb {
    /// Whether the pre-joined tables hold every column `q` reads: its fact
    /// predicates' and aggregate's among [`fact_columns`], and every
    /// dimension column it filters or groups on among the inlined ones.
    pub fn answers(q: &SsbQuery) -> bool {
        let aggregated = q.aggregate.fact_columns().iter().copied();
        let mut facts = q.fact_predicates.iter().map(|p| p.column).chain(aggregated);
        let grouped = q.group_by.iter().map(|g| (g.dim, g.column));
        let mut dims = q.dim_predicates.iter().map(|p| (p.dim, p.column)).chain(grouped);
        facts.all(|c| fact_columns().any(|f| f == c))
            && dims.all(|d| paper_columns().dims.contains(&d))
    }

    /// Build the denormalized table for `variant` from `db`'s tables: the
    /// fact columns the paper workload reads, then every dimension column it
    /// touches, inlined per fact row, all in `db`'s fact order.
    pub fn build(db: &CStoreDb, variant: DenormVariant) -> DenormDb {
        let (tables, perm) = (db.tables(), db.fact_order());
        let fact = &tables.lineorder;
        let compress = variant == DenormVariant::MaxCompression;
        let encode = |name, data: &ColumnData, rows: &[u32], compress| {
            let (column, plain_bytes) = encode_gathered(data, rows, None, compress);
            (name, column, plain_bytes)
        };
        let mut columns: Vec<_> =
            fact_columns().map(|c| encode(c, fact.column(c), perm, compress)).collect();
        // Per dimension, the row joined to the fact row at each position.
        let joined: HashMap<Dim, Vec<u32>> = Dim::ALL
            .iter()
            .map(|&d| {
                let row_of = KeyRemap::new(tables.dim(d).column(d.key_column()).ints());
                let fks = fact.column(d.fact_fk_column()).ints();
                let rows = with_plain_values!(fks, |f| perm
                    .iter()
                    .map(|&p| row_of.get(f[p as usize].widen()) as u32)
                    .collect());
                (d, rows)
            })
            .collect();
        let mut dicts = HashMap::new();
        for &(dim, col) in &paper_columns().dims {
            let (src, rows) = (tables.dim(dim).column(col), &joined[&dim]);
            columns.push(match src {
                // "PJ, Int C": the column's sorted-dictionary codes, stored
                // as *plain* integers.
                ColumnData::Str(strs) if variant == DenormVariant::IntCompression => {
                    let (dict, codes, _) =
                        dict_codes_of_rows(strs, rows.iter().map(|&r| r as usize));
                    dicts.insert(col, dict);
                    encode(col, &ColumnData::Int(PlainInts::U32(codes)), rows, false)
                }
                _ => encode(col, src, rows, compress),
            });
        }
        let store = ColumnStore::from_encoded("denorm", fact.num_rows(), columns);
        DenormDb { variant, store, dicts }
    }

    /// Total stored bytes.
    pub fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// Execute `q` join-free over the pre-joined table as `opts` says, with
    /// block iteration: one [`run_fused`] task in which, per morsel, every
    /// fact predicate and then every inlined dimension predicate refines the
    /// morsel's window,
    /// and the survivors' group columns are extracted at their fact
    /// positions and aggregated with the measures. `opts.fact_order`
    /// permutes the fact predicates; `opts.ctx` is polled at every morsel
    /// boundary and charged each morsel's survivors and gathered arrays.
    /// Lifecycle aborts and injected storage faults ([`QueryError::Io`])
    /// surface as typed errors.
    pub fn run(
        &self,
        q: &SsbQuery,
        opts: &ExecOptions<'_>,
        io: &IoSession,
    ) -> Result<QueryOutput, QueryError> {
        let permuted = opts.fact_order.map(|order| q.with_fact_order(order));
        let q = permuted.as_ref().unwrap_or(q);
        let fact_preds = q.fact_predicates.iter().map(|p| (p.column, &p.pred));
        let dim_preds = q.dim_predicates.iter().map(|p| (p.column, &p.pred));
        let filters: Vec<(&'static str, Filter)> = fact_preds
            .chain(dim_preds)
            .map(|(column, pred)| {
                let filter = match (self.dicts.get(column), &self.store.column(column).column) {
                    (Some(dict), _) => match CodePred::compile(dict, pred) {
                        CodePred::Empty => Filter::Nothing,
                        codes => Filter::Codes(codes),
                    },
                    (None, Column::Str(StrColumn::Dict { dict, .. })) => {
                        Filter::Codes(CodePred::compile(dict, pred))
                    }
                    _ => Filter::Logical(pred),
                };
                (column, filter)
            })
            .collect();
        let operators: Vec<Operator> = filters
            .iter()
            .map(|(column, filter)| Operator {
                op: "scan",
                detail: column,
                log_ops: usize::from(!matches!(filter, Filter::Nothing)),
            })
            .collect();

        // Code-level wherever every group column has a code space, "PJ,
        // Int C"'s integer codes decoding through their dictionaries; "PJ,
        // No C"'s plain strings have none and take the `Value`-keyed tail.
        let strat = AggStrategy::of_columns(q.group_by.iter().map(|g| {
            let col = self.store.column(g.column);
            let space = CodeSpace::of(col)?;
            let decoder = match (self.dicts.get(g.column), space) {
                (Some(dict), CodeSpace::Int { reference, domain }) => {
                    CodeDecoder::Dict(&dict[reference as usize..][..domain as usize])
                }
                _ => space.decoder(col),
            };
            Some((space, decoder))
        }));
        // Each morsel's survivors and the group and measure values gathered
        // at them.
        let width = (q.group_by.len() + q.aggregate.fact_columns().len()).max(1);

        let task = |m: Morsel<'_, '_>| {
            let Morsel { range, io: rio, actuals, agg, scratch } = m;
            let mut pos = PosList::all(range.clone());
            for ((column, filter), slot) in filters.iter().zip(actuals.iter_mut()) {
                let started = Instant::now();
                let col = self.store.column(column);
                let scan = |pred: &ScanPred<'_>| refine(col, range.clone(), &pos, pred, true, rio);
                pos = match filter {
                    Filter::Logical(pred) => scan(&ScanPred::Logical(pred)),
                    Filter::Codes(codes) => scan(&ScanPred::Codes(codes)),
                    Filter::Nothing => PosList::empty(range.len() as u32),
                };
                slot.record(pos.count(), started);
            }
            let positions = &mut scratch.positions;
            load_survivors(&pos, positions, agg);
            opts.ctx.charge(positions.len().saturating_mul(8 * width))?;
            for (gi, g) in q.group_by.iter().enumerate() {
                agg.extract(gi, self.store.column(g.column), positions, rio);
            }
            agg.aggregate(q, &self.store, positions, rio);
            Ok(())
        };
        let rows = self.store.num_rows() as u32;
        let run = || run_fused(rows, opts.par, &opts.ctx, io, &strat, q, &operators, &[], task);
        let out = catch_injected(run)??;
        if strat.is_code_level() || self.dicts.is_empty() {
            return Ok(out);
        }
        // "PJ, Int C" under the `Value` tail (group domains too wide for a
        // `u64` id) grouped on dictionary codes: decode them now.
        let decode = |(mut key, sum): (Vec<Value>, i64)| {
            for (v, g) in key.iter_mut().zip(&q.group_by) {
                if let Some(dict) = self.dicts.get(g.column) {
                    *v = Value::Str(dict[v.as_int() as usize].clone());
                }
            }
            (key, sum)
        };
        Ok(QueryOutput::new(out.rows.into_iter().map(decode).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::QueryCtx;
    use crate::morsel::Parallelism;
    use cvr_data::gen::{SsbConfig, SsbTables};
    use cvr_data::queries::{all_queries, query};
    use cvr_data::reference;
    use std::sync::Arc;

    fn tables() -> Arc<SsbTables> {
        Arc::new(SsbConfig { sf: 0.002, seed: 47 }.generate())
    }

    /// The compressed store the pre-joined tables are built from.
    fn store(t: &Arc<SsbTables>) -> CStoreDb {
        CStoreDb::build(t.clone(), true)
    }

    /// Small morsels so even this tiny scale factor fans out.
    fn at(threads: usize) -> ExecOptions<'static> {
        ExecOptions { par: Parallelism { threads, morsel_rows: 512 }, ..ExecOptions::default() }
    }

    #[test]
    fn all_variants_match_reference() {
        let t = tables();
        let (io, store) = (IoSession::unmetered(), store(&t));
        for variant in DenormVariant::ALL {
            let db = DenormDb::build(&store, variant);
            for q in all_queries() {
                let expected = reference::evaluate(&t, &q);
                let got = db.run(&q, &ExecOptions::default(), &io);
                assert_eq!(got, Ok(expected), "{} disagrees on {}", variant.label(), q.id);
            }
        }
    }

    #[test]
    fn traced_scans_carry_rows_and_io_at_every_thread_count() {
        // The tree every fused plan shape emits: the fused span, then one
        // `scan` leaf per predicate whose rows and I/O do not depend on the
        // grid. Q3.1's three dimension predicates run on "PJ, Int C"'s
        // integer codes.
        let t = tables();
        let db = DenormDb::build(&store(&t), DenormVariant::IntCompression);
        let q = query(3, 1);
        let passing = reference::measured_selectivity(&t, &q) * t.lineorder.num_rows() as f64;
        let mut seen = Vec::new();
        for threads in [1, 4] {
            let ctx = QueryCtx::unbounded();
            ctx.attach_tracer(crate::trace::Tracer::new());
            let opts = ExecOptions { ctx: ctx.clone(), ..at(threads) };
            db.run(&q, &opts, &IoSession::unmetered()).expect("unbounded");
            let root = ctx.tracer().unwrap().take_root().expect("traced");
            let spans = root.flatten();
            let ops: Vec<&str> = spans.iter().map(|s| s.op.as_str()).collect();
            assert_eq!(ops, ["query", "extract-aggregate", "scan", "scan", "scan"]);
            assert!(spans[1].morsels > 1, "{:?}", spans[1]);
            for leaf in &spans[2..] {
                assert!(leaf.io.pages_read > 0, "{leaf:?}");
            }
            let rows: Vec<u64> = spans[2..].iter().map(|s| s.rows_out.expect("rows")).collect();
            assert!(rows.windows(2).all(|w| w[0] >= w[1]), "survivors only fall: {rows:?}");
            assert_eq!(rows.last().copied(), Some(passing.round() as u64));
            seen.push(spans[2..].iter().map(|s| (s.rows_out, s.io)).collect::<Vec<_>>());
        }
        assert_eq!(seen[0], seen[1], "per-operator actuals must not depend on threads");
    }

    #[test]
    fn a_cancelled_context_aborts_every_variant() {
        let store = store(&tables());
        for variant in DenormVariant::ALL {
            let db = DenormDb::build(&store, variant);
            let opts = at(2);
            opts.ctx.cancel();
            let got = db.run(&query(2, 1), &opts, &IoSession::unmetered());
            assert_eq!(got, Err(QueryError::Cancelled), "{}", variant.label());
        }
    }

    #[test]
    fn int_c_decodes_its_codes_under_the_value_tail() {
        // Sixteen copies of one group column compose a group-id domain past
        // `u64`, so every variant aggregates `Value`-keyed; "PJ, Int C"'s
        // nation codes must still come back as nation names.
        let t = tables();
        let mut q = query(3, 1);
        q.group_by = vec![q.group_by[0]; 16];
        let (want, store) = (reference::evaluate(&t, &q), store(&t));
        for variant in DenormVariant::ALL {
            let db = DenormDb::build(&store, variant);
            let got = db.run(&q, &at(2), &IoSession::unmetered());
            assert_eq!(got.as_ref(), Ok(&want), "{}", variant.label());
        }
    }

    #[test]
    fn size_ordering_noc_largest() {
        let store = store(&tables());
        let noc = DenormDb::build(&store, DenormVariant::NoCompression);
        let intc = DenormDb::build(&store, DenormVariant::IntCompression);
        let maxc = DenormDb::build(&store, DenormVariant::MaxCompression);
        assert!(noc.bytes() > intc.bytes(), "string inlining must be largest");
        assert!(intc.bytes() > maxc.bytes(), "full compression must be smallest");
    }

    /// Per variant, CRC64 over the store's persisted column images in
    /// storage order, and `bytes()`, recorded from the build that joined,
    /// sorted and copied the whole pre-joined table (`TableData::permuted`,
    /// `ColumnStore::from_table`): `(variant, sf, seed, crc, bytes)`.
    const PARENT: [(DenormVariant, f64, u64, u64, u64); 6] = [
        (DenormVariant::NoCompression, 0.01, 2008, 0x7e834e5230e58f00, 7340579),
        (DenormVariant::IntCompression, 0.01, 2008, 0x1419bada9f6e76fe, 4560000),
        (DenormVariant::MaxCompression, 0.01, 2008, 0xdc1437d4be0998bf, 1240104),
        (DenormVariant::NoCompression, 0.002, 7, 0x0ba036feb27fbd34, 1469826),
        (DenormVariant::IntCompression, 0.002, 7, 0xd899764a4d2e9ff6, 912000),
        (DenormVariant::MaxCompression, 0.002, 7, 0x9fc5d5468ba3cecb, 252411),
    ];

    /// Built over a store built from the generated tables, and over that
    /// store snapshotted and adopted, whose order was read back and whose
    /// tables decode on demand.
    #[test]
    fn pre_joined_tables_are_the_parents_byte_for_byte() {
        use cvr_storage::persist::{self, crc64, encode_segment, Shape};
        let dir = std::env::temp_dir().join(format!("cvr-pre-joined-{}", std::process::id()));
        for (variant, sf, seed, crc, bytes) in PARENT {
            let built = store(&Arc::new(SsbConfig { sf, seed }.generate()));
            let _ = std::fs::remove_dir_all(&dir);
            persist::write_generation(&dir, built.config(), Shape::Store, built.segments())
                .unwrap();
            let (adopted, _) = persist::load_latest_store(&dir, CStoreDb::adopt).unwrap();
            assert!(!adopted.holds_tables());
            for (from, store) in [("built", &built), ("adopted", &adopted)] {
                let db = DenormDb::build(store, variant);
                let columns = db.store.columns().iter();
                let image: Vec<u8> = columns.flat_map(|c| encode_segment(&c.column)).collect();
                let what = (variant.label(), sf, seed, from);
                assert_eq!((crc64(&image), db.bytes()), (crc, bytes), "{what:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn denorm_wider_than_normalized_fact() {
        let t = tables();
        let noc = DenormDb::build(&store(&t), DenormVariant::NoCompression);
        let base = CStoreDb::build(t, false);
        assert!(noc.bytes() > base.fact_bytes());
    }
}
