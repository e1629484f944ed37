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
//! beats it.

use crate::agg::{aggregate_columns, AggStrategy, CodeDecoder, GroupLayout};
use crate::config::EngineConfig;
use crate::ctx::{QueryCtx, QueryError};
use crate::extract::{gather_ints, gather_values, CodeSpace};
use crate::poslist::PosList;
use crate::projection::{sort_permutation, FACT_SORT};
use crate::scan::{refine, ScanPred};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{paper_columns, Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::{ColumnDef, TableSchema};
use cvr_data::table::{ColumnData, TableData};
use cvr_data::value::{DataType, Value};
use cvr_storage::column::{ColumnStore, EncodingChoice};
use cvr_storage::io::IoSession;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Original logical tables.
    pub tables: Arc<SsbTables>,
    /// Which variant this is.
    pub variant: DenormVariant,
    store: ColumnStore,
    rows: usize,
    /// For [`DenormVariant::IntCompression`]: per-column sorted dictionaries
    /// used to translate string predicates into code predicates and decode
    /// group outputs.
    dicts: HashMap<&'static str, Vec<Box<str>>>,
}

impl DenormDb {
    /// Build the denormalized table for `variant`.
    pub fn build(tables: Arc<SsbTables>, variant: DenormVariant) -> DenormDb {
        let fact = &tables.lineorder;
        let n = fact.num_rows();

        // Measure + fact predicate columns every query might need.
        let fact_cols: Vec<&'static str> = vec![
            "lo_quantity",
            "lo_extendedprice",
            "lo_discount",
            "lo_revenue",
            "lo_supplycost",
            "lo_orderdate",
        ];

        let mut defs: Vec<ColumnDef> = Vec::new();
        let mut cols: Vec<ColumnData> = Vec::new();
        for c in &fact_cols {
            defs.push(ColumnDef { name: c, dtype: DataType::Int });
            cols.push(fact.column(c).clone());
        }
        // Inline, per fact row, every dimension attribute the paper
        // workload touches.
        for &(dim, col) in &paper_columns().dims {
            let dim_table = tables.dim(dim);
            let keys = dim_table.column(dim.key_column()).ints();
            let key_to_row: HashMap<i64, usize> =
                keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            let fks = fact.column(dim.fact_fk_column()).ints();
            let src = dim_table.column(col);
            let dtype = src.dtype();
            let data = match src {
                ColumnData::Int(v) => {
                    ColumnData::Int(fks.iter().map(|k| v[key_to_row[k]]).collect())
                }
                ColumnData::Str(v) => {
                    let rows: Vec<u32> = fks.iter().map(|k| key_to_row[k] as u32).collect();
                    ColumnData::Str(v.gather(&rows))
                }
            };
            defs.push(ColumnDef { name: col, dtype });
            cols.push(data);
        }
        let mut table = TableData::new(TableSchema { name: "denorm", columns: defs }, cols);

        // Same sort order as the baseline projection so MaxC's RLE
        // opportunities match.
        let perm = sort_permutation(&table, &FACT_SORT[..]);
        table = table.permuted(&perm);

        let mut dicts = HashMap::new();
        let (store, rows) = match variant {
            DenormVariant::NoCompression => {
                (ColumnStore::from_table(&table, EncodingChoice::Plain), n)
            }
            DenormVariant::MaxCompression => {
                (ColumnStore::from_table(&table, EncodingChoice::Auto), n)
            }
            DenormVariant::IntCompression => {
                // Replace every string column with its sorted-dictionary
                // codes stored as *plain* integers.
                let mut defs2 = Vec::new();
                let mut cols2 = Vec::new();
                for (def, col) in table.schema.columns.iter().zip(&table.columns) {
                    match col {
                        ColumnData::Int(v) => {
                            defs2.push(def.clone());
                            cols2.push(ColumnData::Int(v.clone()));
                        }
                        ColumnData::Str(v) => {
                            let mut dict: Vec<Box<str>> = v.iter().map(Box::from).collect();
                            dict.sort_unstable();
                            dict.dedup();
                            let codes: Vec<i64> = v
                                .iter()
                                .map(|s| dict.binary_search_by(|d| (**d).cmp(s)).unwrap() as i64)
                                .collect();
                            dicts.insert(def.name, dict);
                            defs2.push(ColumnDef { name: def.name, dtype: DataType::Int });
                            cols2.push(ColumnData::Int(codes));
                        }
                    }
                }
                let t2 = TableData::new(TableSchema { name: "denorm", columns: defs2 }, cols2);
                (ColumnStore::from_table(&t2, EncodingChoice::Plain), n)
            }
        };
        DenormDb { tables, variant, store, rows, dicts }
    }

    /// Total stored bytes.
    pub fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// Translate a string predicate into code space for `column`
    /// (IntCompression only). Returns `None` when no code matches.
    fn code_pred(&self, column: &'static str, pred: &Pred) -> Option<(i64, i64, Vec<bool>)> {
        let dict = &self.dicts[column];
        let matches: Vec<bool> = dict.iter().map(|d| pred.matches_str(d)).collect();
        let lo = matches.iter().position(|&m| m)? as i64;
        let hi = matches.iter().rposition(|&m| m).unwrap() as i64;
        Some((lo, hi, matches))
    }

    /// Execute `q` join-free over the denormalized table.
    pub fn execute(&self, q: &SsbQuery, cfg: EngineConfig, io: &IoSession) -> QueryOutput {
        self.try_execute(q, cfg, io, &QueryCtx::unbounded())
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible [`DenormDb::execute`]: checks `ctx` between predicate scans
    /// and charges the position list plus the gathered group/measure arrays
    /// against its memory budget.
    pub fn try_execute(
        &self,
        q: &SsbQuery,
        cfg: EngineConfig,
        io: &IoSession,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, QueryError> {
        let n = self.rows as u32;
        let block = cfg.block_iteration;
        // Every predicate refines the positions the previous ones left.
        let mut pos = PosList::all(0..n);

        // Fact predicates.
        for p in &q.fact_predicates {
            ctx.check()?;
            let mut span = ctx.span("scan", p.column, io);
            let col = self.store.column(p.column);
            pos = refine(col, 0..n, &pos, &ScanPred::Logical(&p.pred), block, io);
            span.rows(pos.count() as u64);
        }
        // Dimension predicates, now direct column predicates.
        for p in &q.dim_predicates {
            ctx.check()?;
            let mut span = ctx.span("scan", p.column, io);
            let col = self.store.column(p.column);
            pos = if self.variant == DenormVariant::IntCompression
                && self.dicts.contains_key(p.column)
            {
                match self.code_pred(p.column, &p.pred) {
                    None => PosList::empty(n),
                    Some((lo, hi, matches)) => {
                        let listed = |v: i64| matches[v as usize];
                        let pred = if matches[lo as usize..=hi as usize].iter().all(|&m| m) {
                            ScanPred::Range { lo, hi }
                        } else {
                            ScanPred::Test(&listed)
                        };
                        refine(col, 0..n, &pos, &pred, block, io)
                    }
                }
            } else {
                refine(col, 0..n, &pos, &ScanPred::Logical(&p.pred), block, io)
            };
            span.rows(pos.count() as u64);
        }
        let mut agg_span = ctx.span("extract-aggregate", "", io);
        // The gathers below materialize one value per passing row per group
        // column and measure; charge them up front, before allocating.
        let width = (q.group_by.len() + q.aggregate.fact_columns().len()).max(1);
        ctx.charge((pos.count() as usize).saturating_mul(8 * width))?;

        // Group columns + measures straight off the fact table. Dictionary
        // and integer-code columns aggregate at the code level (decoding
        // through the denormalization dictionaries once per group at
        // finish); plain inlined strings (PJ, No C) fall back to the
        // interned-dictionary path inside [`aggregate_columns`].
        let code_plan: Option<Vec<(CodeSpace, CodeDecoder)>> = q
            .group_by
            .iter()
            .map(|g| {
                let col = self.store.column(g.column);
                let space = CodeSpace::of(col)?;
                let decoder = match self.dicts.get(g.column) {
                    // "PJ, Int C": the column stores dictionary codes as
                    // plain integers; codes decode through the dict.
                    Some(dict) => {
                        let CodeSpace::Int { reference, domain } = space else {
                            unreachable!("dict-translated columns are integers")
                        };
                        let first = reference as usize;
                        CodeDecoder::Dict(&dict[first..first + domain as usize])
                    }
                    None => space.decoder(col),
                };
                Some((space, decoder))
            })
            .collect();
        // Compose the layout *before* charging any gathers, so an overflow
        // fallback never double-reads the group columns.
        let layout = code_plan.and_then(|plan| {
            let (spaces, cols): (Vec<CodeSpace>, Vec<(u64, CodeDecoder)>) =
                plan.into_iter().map(|(s, d)| (s, (s.domain(), d))).unzip();
            GroupLayout::try_new(cols).map(|layout| (layout, spaces))
        });
        match layout {
            Some((layout, spaces)) => {
                // The plan shapes' phase-3 kernel, at fact positions.
                let strat = AggStrategy::Code { layout, spaces };
                let positions = pos.to_vec();
                let mut agg = strat.worker();
                agg.begin(positions.len());
                for (gi, g) in q.group_by.iter().enumerate() {
                    agg.extract(gi, self.store.column(g.column), &positions, io);
                }
                agg.aggregate(q, &self.store, &positions, io);
                let out = strat.finish([agg.into_partial()], q);
                agg_span.rows(out.len() as u64);
                Ok(out)
            }
            None => {
                let group_cols: Vec<Vec<Value>> = q
                    .group_by
                    .iter()
                    .map(|g| {
                        let vals = gather_values(self.store.column(g.column), &pos, io);
                        // "PJ, Int C" group columns hold dictionary codes;
                        // translate back to strings here too, so the
                        // Value-keyed fallback stays byte-identical.
                        if self.variant == DenormVariant::IntCompression {
                            if let Some(dict) = self.dicts.get(g.column) {
                                return vals
                                    .into_iter()
                                    .map(|v| Value::Str(dict[v.as_int() as usize].clone()))
                                    .collect();
                            }
                        }
                        vals
                    })
                    .collect();
                let measures: Vec<Vec<i64>> = q
                    .aggregate
                    .fact_columns()
                    .iter()
                    .map(|c| gather_ints(self.store.column(c), &pos, io))
                    .collect();
                let mut inputs = vec![0i64; measures.len()];
                let terms: Vec<i64> = (0..pos.count() as usize)
                    .map(|i| {
                        for (j, m) in measures.iter().enumerate() {
                            inputs[j] = m[i];
                        }
                        q.aggregate.term(&inputs)
                    })
                    .collect();
                let out = aggregate_columns(q, &group_cols, &terms);
                agg_span.rows(out.len() as u64);
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::all_queries;
    use cvr_data::reference;

    fn tables() -> Arc<SsbTables> {
        Arc::new(SsbConfig { sf: 0.002, seed: 47 }.generate())
    }

    #[test]
    fn all_variants_match_reference() {
        let t = tables();
        let io = IoSession::unmetered();
        for variant in [
            DenormVariant::NoCompression,
            DenormVariant::IntCompression,
            DenormVariant::MaxCompression,
        ] {
            let db = DenormDb::build(t.clone(), variant);
            for q in all_queries() {
                let expected = reference::evaluate(&t, &q);
                assert_eq!(
                    db.execute(&q, EngineConfig::FULL, &io),
                    expected,
                    "{} disagrees on {}",
                    variant.label(),
                    q.id
                );
            }
        }
    }

    #[test]
    fn size_ordering_noc_largest() {
        let t = tables();
        let noc = DenormDb::build(t.clone(), DenormVariant::NoCompression);
        let intc = DenormDb::build(t.clone(), DenormVariant::IntCompression);
        let maxc = DenormDb::build(t.clone(), DenormVariant::MaxCompression);
        assert!(noc.bytes() > intc.bytes(), "string inlining must be largest");
        assert!(intc.bytes() > maxc.bytes(), "full compression must be smallest");
    }

    #[test]
    fn denorm_wider_than_normalized_fact() {
        let t = tables();
        let noc = DenormDb::build(t.clone(), DenormVariant::NoCompression);
        let base = crate::projection::CStoreDb::build(t, false);
        assert!(noc.bytes() > base.fact_bytes());
    }
}
