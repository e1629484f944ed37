//! Plan enumeration: search the physical-design space both engines expose,
//! cost every candidate, keep the cheapest.
//!
//! The space is exactly what the repo's engines can execute today:
//!
//! * **column engine** — plan shape (invisible join / late-materialized
//!   join / early materialization) × compression (on / off), with the
//!   fact-predicate evaluation order chosen from the statistics (most
//!   selective first, unless the estimates say the declared order is
//!   already best);
//! * **row engine** — the Figure 6 physical designs plus the super-tuple
//!   VP extension (`RowDesign::EXTENDED`), with per-design applicability
//!   rules: materialized views exist only for the four paper flights, and
//!   index-only plans only cover columns some paper query indexes.
//!
//! Every candidate gets a [`CostBreakdown`] from the statistics in
//! [`Catalog`]; the winner is returned as a [`Plan`] together with an
//! [`Explain`] tree that prints the estimate the way `EXPLAIN` would.

use cvr_core::EngineConfig;
use cvr_data::queries::{QueryId, SsbQuery};
use cvr_data::schema::Dim;
use cvr_row::designs::RowDesign;

use crate::cost::{gather, seq_scan, CostBreakdown, CostParams, WorkingSet};
use crate::explain::{write_json_string, Explain};
use crate::stats::{Catalog, ColumnStats, EncodingKind};

/// Entries per B+Tree leaf page in the row engine's indexes: bulk loads
/// fill leaves to ~2/3 of the default order (2048), and every node
/// occupies one full 32 KB page regardless of payload.
const INDEX_ENTRIES_PER_LEAF: f64 = 2048.0 * 2.0 / 3.0;

/// I/O a B+Tree range scan charges for `entries` consecutive leaf
/// entries: whole leaf pages at the bulk-load fill factor, plus a
/// two-page root descent. The 16-byte entry payload underprices this by
/// ~1.6x — the executor reads node *pages*, not packed entries.
fn index_scan_bytes(entries: f64) -> u64 {
    (((entries / INDEX_ENTRIES_PER_LEAF).ceil() + 2.0) * cvr_storage::io::PAGE_SIZE as f64) as u64
}

/// The physical half of a plan: which engine, in which configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalChoice {
    /// Column engine under an ablation-letter configuration.
    Column(EngineConfig),
    /// Row engine under a physical design.
    Row(RowDesign),
}

impl PhysicalChoice {
    /// Short label: the ablation letters (`tICL`) or the Figure 6 design
    /// code prefixed `row:` (`row:MV`).
    pub fn label(&self) -> String {
        match self {
            PhysicalChoice::Column(cfg) => cfg.code(),
            PhysicalChoice::Row(d) => format!("row:{}", d.label()),
        }
    }
}

/// One costed point in the search space.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Engine + configuration.
    pub choice: PhysicalChoice,
    /// Fact-predicate evaluation order (indices into
    /// `SsbQuery::fact_predicates`).
    pub fact_order: Vec<usize>,
    /// Estimated cost terms.
    pub est: CostBreakdown,
    /// Estimated modeled seconds under the planner's [`CostParams`].
    pub seconds: f64,
    /// Estimate tree (one per candidate, the winner's is shown by
    /// `--explain`).
    pub explain: Explain,
}

/// A chosen plan: the cheapest [`Candidate`] plus the full ranking.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The query this plan answers.
    pub query_id: QueryId,
    /// Winning engine + configuration.
    pub choice: PhysicalChoice,
    /// Winning fact-predicate order.
    pub fact_order: Vec<usize>,
    /// Winning estimate.
    pub est: CostBreakdown,
    /// Winning estimated seconds.
    pub seconds: f64,
    /// Estimated LINEORDER selectivity.
    pub est_selectivity: f64,
    /// The winner's estimate tree.
    pub explain: Explain,
    /// Every candidate's `(label, estimated seconds)`, cheapest first.
    pub ranking: Vec<(String, f64)>,
}

impl Plan {
    /// The column-engine configuration when the winner is the column
    /// engine.
    pub fn engine_config(&self) -> Option<EngineConfig> {
        match self.choice {
            PhysicalChoice::Column(cfg) => Some(cfg),
            PhysicalChoice::Row(_) => None,
        }
    }

    /// The row design when the winner is the row engine.
    pub fn row_design(&self) -> Option<RowDesign> {
        match self.choice {
            PhysicalChoice::Column(_) => None,
            PhysicalChoice::Row(d) => Some(d),
        }
    }

    /// Multi-line explain rendering: chosen plan, cost breakdown, and the
    /// candidate ranking.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} plan={} order={:?} est={:.4}s (cpu {:.4}s, io {:.2} MB, {} seeks) sel={:.2e}",
            self.query_id,
            self.choice.label(),
            self.fact_order,
            self.seconds,
            self.est.cpu_seconds,
            self.est.io_bytes as f64 / (1024.0 * 1024.0),
            self.est.seeks,
            self.est_selectivity,
        );
        out.push_str(&self.explain.render(1));
        let _ = writeln!(out, "  candidates (estimated):");
        for (label, secs) in &self.ranking {
            let _ = writeln!(out, "    {label:<8} {secs:>9.4}s");
        }
        out
    }

    /// Stable JSON encoding of the whole plan — the `EXPLAIN` payload the
    /// server protocol ships. Field names are part of the wire contract.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"query\": \"{}\", \"plan\": ", self.query_id);
        write_json_string(&mut out, &self.choice.label());
        let _ = write!(
            out,
            ", \"fact_order\": {:?}, \"est_seconds\": {:.6}, \"est_cpu_seconds\": {:.6}, \
             \"est_io_bytes\": {}, \"est_seeks\": {}, \"est_selectivity\": {:.6e}, \"tree\": {}",
            self.fact_order,
            self.seconds,
            self.est.cpu_seconds,
            self.est.io_bytes,
            self.est.seeks,
            self.est_selectivity,
            self.explain.to_json(),
        );
        out.push_str(", \"candidates\": [");
        for (i, (label, secs)) in self.ranking.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"plan\": ");
            write_json_string(&mut out, label);
            let _ = write!(out, ", \"est_seconds\": {secs:.6}}}");
        }
        out.push_str("]}");
        out
    }
}

/// The planner: a catalog plus cost parameters.
pub struct Planner {
    catalog: Catalog,
    params: CostParams,
}

/// The columns the paper's 13 queries touch (what `AiDb::QueryNeeded`
/// indexes), computed once — the paper set is constant.
type PaperNeeded = (Vec<&'static str>, Vec<(Dim, &'static str)>);

fn paper_needed() -> &'static PaperNeeded {
    static NEEDED: std::sync::OnceLock<PaperNeeded> = std::sync::OnceLock::new();
    NEEDED.get_or_init(|| {
        let mut fact: Vec<&'static str> = Vec::new();
        let mut dims: Vec<(Dim, &'static str)> = Vec::new();
        for q in cvr_data::queries::all_queries() {
            for c in q.fact_columns() {
                if !fact.contains(&c) {
                    fact.push(c);
                }
            }
            for p in &q.dim_predicates {
                if !dims.contains(&(p.dim, p.column)) {
                    dims.push((p.dim, p.column));
                }
            }
            for g in &q.group_by {
                if !dims.contains(&(g.dim, g.column)) {
                    dims.push((g.dim, g.column));
                }
            }
        }
        (fact, dims)
    })
}

/// Union of fact columns the paper queries of `flight` (1..=4) need — the
/// MV design's view definition. One shared definition serves both the
/// applicability gate and the catalog's view-size estimate
/// (`Catalog::build`), so they cannot drift apart.
pub(crate) fn mv_view_columns(flight: u8) -> &'static [&'static str] {
    static VIEWS: std::sync::OnceLock<[Vec<&'static str>; 4]> = std::sync::OnceLock::new();
    &VIEWS.get_or_init(|| {
        std::array::from_fn(|i| {
            let flight = (i + 1) as u8;
            let mut columns: Vec<&'static str> = Vec::new();
            for q in cvr_data::queries::all_queries().iter().filter(|q| q.id.flight == flight) {
                for c in q.fact_columns() {
                    if !columns.contains(&c) {
                        columns.push(c);
                    }
                }
            }
            columns
        })
    })[(flight - 1) as usize]
}

impl Planner {
    /// A planner over `catalog` with explicit parameters.
    pub fn with_params(catalog: Catalog, params: CostParams) -> Planner {
        Planner { catalog, params }
    }

    /// A planner over `catalog` with default parameters (paper disk model,
    /// `cpu_scale` 5, default CPU rates).
    pub fn new(catalog: Catalog) -> Planner {
        Planner::with_params(catalog, CostParams::default())
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Estimated LINEORDER selectivity of `q` (delegates to the catalog).
    pub fn estimate_selectivity(&self, q: &SsbQuery) -> f64 {
        self.catalog.selectivity(q)
    }

    /// The fact-predicate evaluation order the statistics recommend: most
    /// selective first (ties keep declaration order).
    pub fn fact_order(&self, q: &SsbQuery) -> Vec<usize> {
        let mut order: Vec<usize> = (0..q.fact_predicates.len()).collect();
        let sels: Vec<f64> =
            q.fact_predicates.iter().map(|p| self.catalog.fact_pred_selectivity(p)).collect();
        order.sort_by(|&a, &b| sels[a].partial_cmp(&sels[b]).unwrap().then(a.cmp(&b)));
        order
    }

    /// Row designs applicable to `q`.
    pub fn applicable_row_designs(&self, q: &SsbQuery) -> Vec<RowDesign> {
        let (paper_fact, paper_dim) = paper_needed();
        RowDesign::EXTENDED
            .into_iter()
            .filter(|d| match d {
                // Views exist per *paper* flight and hold only the columns
                // those queries read.
                RowDesign::MaterializedViews => {
                    (1..=4).contains(&q.id.flight) && {
                        let view = mv_view_columns(q.id.flight);
                        q.fact_columns().iter().all(|c| view.contains(c))
                    }
                }
                // Index-only plans need every touched column indexed; the
                // build indexes what some paper query touches.
                RowDesign::IndexOnly => {
                    q.fact_columns().iter().all(|c| paper_fact.contains(c))
                        && q.dim_predicates.iter().all(|p| paper_dim.contains(&(p.dim, p.column)))
                        && q.group_by.iter().all(|g| paper_dim.contains(&(g.dim, g.column)))
                }
                // The super-tuple VP planner asserts at least one
                // restriction.
                RowDesign::SuperVp => !q.dim_predicates.is_empty() || !q.fact_predicates.is_empty(),
                _ => true,
            })
            .collect()
    }

    /// Every applicable candidate, costed, cheapest first.
    pub fn candidates(&self, q: &SsbQuery) -> Vec<Candidate> {
        let order = self.fact_order(q);
        let mut out = Vec::new();
        for shape in [PlanShape::Invisible, PlanShape::LateJoin, PlanShape::Early] {
            for compressed in [true, false] {
                let (est, mut explain, ws) = self.cost_column(q, shape, compressed, &order);
                // Distinct bytes, not summed charges: a page is read from
                // the modeled disk once per run however many phases touch
                // it.
                let est = CostBreakdown { io_bytes: ws.total(), ..est };
                let est = self.params.pool_adjust(est, ws.total());
                let seconds = est.seconds(&self.params);
                explain.est_cost_seconds = Some(seconds);
                out.push(Candidate {
                    choice: PhysicalChoice::Column(shape.config(compressed)),
                    fact_order: order.clone(),
                    seconds,
                    est,
                    explain,
                });
            }
        }
        for design in self.applicable_row_designs(q) {
            let (est, mut explain, ws) = self.cost_row(q, design, &order);
            let est = CostBreakdown { io_bytes: ws.total(), ..est };
            let est = self.params.pool_adjust(est, ws.total());
            let seconds = est.seconds(&self.params);
            explain.est_cost_seconds = Some(seconds);
            out.push(Candidate {
                choice: PhysicalChoice::Row(design),
                fact_order: order.clone(),
                seconds,
                est,
                explain,
            });
        }
        out.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap());
        out
    }

    /// Pick the cheapest candidate for `q`.
    pub fn plan(&self, q: &SsbQuery) -> Plan {
        let candidates = self.candidates(q);
        let ranking: Vec<(String, f64)> =
            candidates.iter().map(|c| (c.choice.label(), c.seconds)).collect();
        let best = candidates.into_iter().next().expect("search space is never empty");
        Plan {
            query_id: q.id,
            choice: best.choice,
            fact_order: best.fact_order,
            est: best.est,
            seconds: best.seconds,
            est_selectivity: self.estimate_selectivity(q),
            explain: best.explain,
            ranking,
        }
    }

    // ---------------------------------------------------------------------
    // Column-engine costing
    // ---------------------------------------------------------------------

    /// Sequential scan of one stored column, CPU priced by its encoding
    /// (word-parallel kernels over packed words, run-at-a-time over RLE):
    /// every position is a candidate.
    fn scan_col(
        &self,
        stats: &ColumnStats,
        compressed: bool,
        ws: &mut WorkingSet,
    ) -> CostBreakdown {
        self.refine_col(stats, compressed, ValueTest::Interval, stats.rows as f64, ws)
    }

    /// One predicate applied to a stored column with `candidates` positions
    /// still alive (`cvr_core::scan::refine`). The column is read — and
    /// charged — in full whatever the candidates; the CPU pays the cheaper
    /// of the window kernel and one test per candidate, which is the choice
    /// the executor makes word by word.
    fn refine_col(
        &self,
        stats: &ColumnStats,
        compressed: bool,
        test: ValueTest,
        candidates: f64,
        ws: &mut WorkingSet,
    ) -> CostBreakdown {
        let r = &self.params.rates;
        ws.touch(&stats.name, stats.bytes(compressed));
        let mut c = seq_scan(stats.bytes(compressed));
        let rows = stats.rows as f64;
        let window = if compressed && stats.encoding == EncodingKind::Rle {
            // Run-at-a-time whatever the test: one verdict per run.
            let per_run = match test {
                ValueTest::Interval => r.rle_run,
                ValueTest::KeyBits | ValueTest::HashSet => r.rle_run + r.hash_probe,
            };
            stats.rle_runs.unwrap_or(stats.rows) as f64 * per_run
        } else {
            match test {
                ValueTest::Interval
                    if compressed
                        && matches!(stats.encoding, EncodingKind::Packed | EncodingKind::Dict) =>
                {
                    let lanes = stats.packed_lanes.unwrap_or(8).max(1) as f64;
                    (rows / lanes) * r.swar_word
                }
                ValueTest::Interval => rows * r.scalar_value,
                ValueTest::KeyBits if compressed && stats.encoding == EncodingKind::Packed => {
                    rows * r.key_bits_value
                }
                ValueTest::KeyBits => rows * r.plain_key_value,
                ValueTest::HashSet => rows * r.probe_scan_value,
            }
        };
        let per_candidate = match test {
            ValueTest::Interval | ValueTest::KeyBits => r.candidate_value,
            ValueTest::HashSet => r.candidate_value + r.hash_probe,
        };
        c.cpu_seconds += window.min(candidates * per_candidate);
        c
    }

    /// Positional gather from one stored column, recorded in the working
    /// set at its touched-page footprint. `span` is the fraction of the
    /// file the positions can fall in: the fact projection is sorted by
    /// `lo_orderdate`, so a date-restricted query's surviving positions
    /// cluster inside the qualifying date range instead of scattering over
    /// the whole file (pass 1.0 when unrestricted).
    fn gather_col(
        &self,
        stats: &ColumnStats,
        compressed: bool,
        k: u64,
        rows: u64,
        span: f64,
        ws: &mut WorkingSet,
    ) -> CostBreakdown {
        let bytes = ((stats.bytes(compressed) as f64) * span.clamp(0.0, 1.0)).ceil() as u64;
        let g = gather(k, ((rows as f64) * span).ceil() as u64, bytes, &self.params.rates);
        ws.touch(&stats.name, g.io_bytes.min(stats.bytes(compressed)));
        g
    }

    /// The fraction of the (orderdate-sorted) fact files a query's
    /// surviving positions can span.
    fn fact_span(&self, q: &SsbQuery) -> f64 {
        self.catalog.dim_selectivity(q, Dim::Date).clamp(0.0, 1.0)
    }

    /// Phase-1 work for one restricted dimension: predicate scans over the
    /// (small) dimension columns, plus key collection when the match set is
    /// not expected to be contiguous.
    fn dim_phase1(
        &self,
        q: &SsbQuery,
        d: Dim,
        compressed: bool,
        build_keys: bool,
        ws: &mut WorkingSet,
    ) -> (CostBreakdown, bool) {
        let r = &self.params.rates;
        let stats = self.catalog.dim(d);
        let mut c = CostBreakdown::default();
        for p in q.dim_predicates_on(d) {
            c.add(self.scan_col(stats.column(p.column), compressed, ws));
        }
        let contiguous = self.catalog.likely_contiguous(q, d);
        if build_keys || !contiguous {
            let k = (self.catalog.dim_selectivity(q, d) * stats.rows as f64).ceil() as u64;
            let key = stats.column(match d {
                Dim::Customer => "c_custkey",
                Dim::Supplier => "s_suppkey",
                Dim::Part => "p_partkey",
                Dim::Date => "d_datekey",
            });
            let rows = stats.rows;
            c.add(self.gather_col(key, compressed, k, rows, 1.0, ws));
            c.cpu_seconds += k as f64 * r.hash_probe; // build the key set
        }
        (c, contiguous)
    }

    /// Group/measure extraction shared by the two late-materialized shapes:
    /// gather FKs and measures at the `k` surviving positions, extract the
    /// group attributes, aggregate.
    fn phase3(
        &self,
        q: &SsbQuery,
        k: u64,
        compressed: bool,
        ws: &mut WorkingSet,
        explain: &mut Explain,
    ) -> CostBreakdown {
        let r = &self.params.rates;
        let n = self.catalog.fact_rows();
        let span = self.fact_span(q);
        let mut c = CostBreakdown::default();
        let mut seen: Vec<Dim> = Vec::new();
        for g in &q.group_by {
            if !seen.contains(&g.dim) {
                seen.push(g.dim);
                let fk = self.catalog.fact.column(g.dim.fact_fk_column());
                c.add(self.gather_col(fk, compressed, k, n, span, ws));
                if g.dim == Dim::Date {
                    // Non-dense keys: build the key → position join map.
                    let rows = self.catalog.dim(Dim::Date).rows;
                    c.cpu_seconds += (rows + k) as f64 * r.hash_probe;
                }
            }
            let dstats = self.catalog.dim(g.dim);
            let col = dstats.column(g.column);
            let rows = dstats.rows;
            // Group columns extract as dictionary/FoR *codes* (no value
            // clones); the gather itself is priced inside gather_col. The
            // engine opens each group column's decode table even when the
            // estimate says no row survives, so charge at least one page
            // touch per group column (k = 0 priced these files as free,
            // which made every near-empty column plan look cheaper than
            // it measures).
            c.add(self.gather_col(col, compressed, k.min(rows).max(1), rows, 1.0, ws));
        }
        for m in q.aggregate.fact_columns() {
            let col = self.catalog.fact.column(m);
            c.add(self.gather_col(col, compressed, k, n, span, ws));
        }
        // The aggregation tail. Code-level (compose a u64 group id per
        // row, bump a direct slot / u64 hash entry — recalibratable from
        // BENCH_agg.json) whenever every group column has a code space:
        // integer columns always, string columns only when dictionary-
        // encoded. Plain-string group columns fall back to the Value-keyed
        // grouper, which pays a key clone per row on top of the Value
        // extraction clones. Group decoding happens once per group, which
        // is noise next to the per-row terms.
        let code_level = q.group_by.iter().all(|g| {
            let cs = self.catalog.dim(g.dim).column(g.column);
            let is_int = cs.histogram.is_some();
            is_int || (compressed && cs.encoding == EncodingKind::Dict)
        });
        c.cpu_seconds += if code_level {
            k as f64 * r.agg_code_row
        } else {
            k as f64 * (r.agg_row + 2.0 * q.group_by.len() as f64 * r.value_clone)
        };
        explain.push(
            Explain::node(
                "extract-aggregate",
                format!(
                    "{}: {} group col(s), {} measure(s)",
                    if code_level { "code-level" } else { "value-keyed" },
                    q.group_by.len(),
                    q.aggregate.fact_columns().len()
                ),
            )
            .rows(k)
            .cost(c.seconds(&self.params)),
        );
        c
    }

    fn cost_column(
        &self,
        q: &SsbQuery,
        shape: PlanShape,
        compressed: bool,
        order: &[usize],
    ) -> (CostBreakdown, Explain, WorkingSet) {
        let mut ws = WorkingSet::default();
        let r = self.params.rates;
        let n = self.catalog.fact_rows();
        let sel_total = self.catalog.selectivity(q);
        let k_final = ((n as f64 * sel_total).ceil() as u64).min(n);
        let mut explain = Explain::node(
            "column-plan",
            format!(
                "{} ({}, {})",
                shape.config(compressed).code(),
                shape.name(),
                if compressed { "compressed" } else { "plain" }
            ),
        )
        .rows(k_final);
        let mut c = CostBreakdown::default();
        match shape {
            PlanShape::Invisible => {
                // Each predicate refines the positions its predecessors
                // left: rows are running survivors, and a probe costs the
                // cheaper of its window kernel and a test per candidate.
                let mut running = n as f64;
                for d in q.restricted_dims() {
                    let (dc, contiguous) = self.dim_phase1(q, d, compressed, false, &mut ws);
                    c.add(dc);
                    let fk = self.catalog.fact.column(d.fact_fk_column());
                    let test = ValueTest::of_join(d, contiguous);
                    let probe = self.refine_col(fk, compressed, test, running, &mut ws);
                    let d_sel = self.catalog.dim_selectivity(q, d);
                    running *= d_sel;
                    explain.push(
                        Explain::node(
                            "probe",
                            format!(
                                "{} ({}, {:.2} MB, {}) sel {:.2e}",
                                d.fact_fk_column(),
                                if compressed { fk.encoding.label() } else { "plain" },
                                fk.bytes(compressed) as f64 / (1024.0 * 1024.0),
                                test.label(),
                                d_sel,
                            ),
                        )
                        .rows(running.ceil() as u64)
                        .cost(probe.seconds(&self.params)),
                    );
                    c.add(probe);
                }
                for &i in order {
                    let p = &q.fact_predicates[i];
                    let col = self.catalog.fact.column(p.column);
                    let sel = self.catalog.fact_pred_selectivity(p);
                    let sc =
                        self.refine_col(col, compressed, ValueTest::Interval, running, &mut ws);
                    running *= sel;
                    explain.push(
                        Explain::node("scan", format!("{} sel {sel:.2e}", p.column))
                            .rows(running.ceil() as u64)
                            .cost(sc.seconds(&self.params)),
                    );
                    c.add(sc);
                }
                let p3 = self.phase3(q, k_final, compressed, &mut ws, &mut explain);
                c.add(p3);
            }
            PlanShape::LateJoin => {
                let mut running = n as f64;
                // Unlike the invisible join (which stays on bitmap words),
                // the late join materializes explicit position vectors
                // between steps; charge every intermediate position.
                let mut poslist_positions = 0.0;
                for &i in order {
                    let p = &q.fact_predicates[i];
                    let col = self.catalog.fact.column(p.column);
                    let sc =
                        self.refine_col(col, compressed, ValueTest::Interval, running, &mut ws);
                    running *= self.catalog.fact_pred_selectivity(p);
                    poslist_positions += running;
                    explain.push(
                        Explain::node("scan", p.column)
                            .rows(running.ceil() as u64)
                            .cost(sc.seconds(&self.params)),
                    );
                    c.add(sc);
                }
                // Restricted dims, most selective first (the engine's own
                // order).
                let mut dims = q.restricted_dims();
                dims.sort_by(|&a, &b| {
                    self.catalog
                        .dim_selectivity(q, a)
                        .partial_cmp(&self.catalog.dim_selectivity(q, b))
                        .unwrap()
                });
                let mut first = q.fact_predicates.is_empty();
                let span = self.fact_span(q);
                for d in dims {
                    // The late join always materializes the matching keys
                    // to build its hash table, contiguous or not.
                    let (dc, _) = self.dim_phase1(q, d, compressed, true, &mut ws);
                    c.add(dc);
                    let dstats = self.catalog.dim(d);
                    let k_d = (self.catalog.dim_selectivity(q, d) * dstats.rows as f64).ceil();
                    c.cpu_seconds += k_d * r.hash_probe; // build side
                    let fk = self.catalog.fact.column(d.fact_fk_column());
                    if first {
                        // A membership scan of the whole FK column (never
                        // rewritten to an interval), then the matched keys
                        // read back as dimension positions.
                        let test = ValueTest::of_join(d, false);
                        c.add(self.refine_col(fk, compressed, test, running, &mut ws));
                        c.cpu_seconds +=
                            running * self.catalog.dim_selectivity(q, d) * r.gather_value;
                        first = false;
                    } else {
                        c.add(self.gather_col(
                            fk,
                            compressed,
                            running.ceil() as u64,
                            n,
                            span,
                            &mut ws,
                        ));
                        c.cpu_seconds += running * r.hash_probe;
                    }
                    running *= self.catalog.dim_selectivity(q, d);
                    poslist_positions += running;
                    explain.push(
                        Explain::node("hash-join", d.fact_fk_column()).rows(running.ceil() as u64),
                    );
                }
                c.cpu_seconds += poslist_positions * r.poslist_touch;
                let p3 = self.phase3(q, k_final, compressed, &mut ws, &mut explain);
                c.add(p3);
            }
            PlanShape::Early => {
                let cols = q.fact_columns();
                for col in &cols {
                    let stats = self.catalog.fact.column(col);
                    ws.touch(&stats.name, stats.bytes(compressed));
                    let mut s = seq_scan(stats.bytes(compressed));
                    s.cpu_seconds += n as f64 * r.gather_value; // decode_all
                    c.add(s);
                }
                explain.push(
                    Explain::node("materialize", format!("{} fact column(s) up front", cols.len()))
                        .rows(n)
                        .cost(c.seconds(&self.params)),
                );
                for d in q.touched_dims() {
                    let dstats = self.catalog.dim(d);
                    let mut dim_cols: Vec<&str> = vec![match d {
                        Dim::Customer => "c_custkey",
                        Dim::Supplier => "s_suppkey",
                        Dim::Part => "p_partkey",
                        Dim::Date => "d_datekey",
                    }];
                    for p in q.dim_predicates_on(d) {
                        dim_cols.push(p.column);
                    }
                    for g in q.group_by.iter().filter(|g| g.dim == d) {
                        dim_cols.push(g.column);
                    }
                    for col in dim_cols {
                        ws.touch(&dstats.column(col).name, dstats.column(col).bytes(compressed));
                        let mut s = seq_scan(dstats.column(col).bytes(compressed));
                        s.cpu_seconds += dstats.rows as f64 * r.gather_value;
                        c.add(s);
                    }
                    c.cpu_seconds += dstats.rows as f64 * r.hash_probe;
                }
                // Row-style pipeline over early-stitched tuples.
                let width = cols.len() as f64;
                c.cpu_seconds += n as f64
                    * (width * r.value_clone
                        + q.touched_dims().len() as f64 * r.hash_probe
                        + q.fact_predicates.len() as f64 * r.scalar_value);
                // Even the row-style pipeline aggregates on composed group
                // ids now (interned per-dimension-row codes).
                c.cpu_seconds += k_final as f64 * r.agg_code_row;
                explain.push(
                    Explain::node("pipeline", format!("row-style over {n} early-stitched tuples"))
                        .rows(k_final),
                );
            }
        }
        (c, explain, ws)
    }

    // ---------------------------------------------------------------------
    // Row-engine costing
    // ---------------------------------------------------------------------

    fn cost_row(
        &self,
        q: &SsbQuery,
        design: RowDesign,
        order: &[usize],
    ) -> (CostBreakdown, Explain, WorkingSet) {
        let mut ws = WorkingSet::default();
        let r = self.params.rates;
        let n = self.catalog.fact_rows();
        let sizes = &self.catalog.row_sizes;
        let sel_total = self.catalog.selectivity(q);
        let k_final = ((n as f64 * sel_total).ceil() as u64).min(n);
        let fact_sel: f64 =
            q.fact_predicates.iter().map(|p| self.catalog.fact_pred_selectivity(p)).product();
        let mut explain =
            Explain::node("row-plan", format!("{} ({})", design.label(), design_name(design)))
                .rows(k_final);
        let mut c = CostBreakdown::default();

        // Shared tail: hash joins against filtered dimension heaps, in
        // selectivity order, then aggregation.
        let join_tail = |c: &mut CostBreakdown,
                         explain: &mut Explain,
                         ws: &mut WorkingSet,
                         start_rows: f64,
                         skip: &[Dim]| {
            let mut dims = q.touched_dims();
            dims.sort_by(|&a, &b| {
                self.catalog
                    .dim_selectivity(q, a)
                    .partial_cmp(&self.catalog.dim_selectivity(q, b))
                    .unwrap()
            });
            let mut running = start_rows;
            for d in dims {
                // A dim already applied through a bitmap and
                // contributing no group column is never joined by the
                // executor — its heap is not read.
                if skip.contains(&d) {
                    continue;
                }
                let dstats = self.catalog.dim(d);
                ws.touch(&format!("heap:{}", d.table_name()), sizes.dim_heap_bytes[&d]);
                c.add(seq_scan(sizes.dim_heap_bytes[&d]));
                c.cpu_seconds += dstats.rows as f64 * r.row_tuple;
                c.cpu_seconds += running * r.row_join_probe;
                running *= self.catalog.dim_selectivity(q, d);
                explain
                    .push(Explain::node("hash-join", d.table_name()).rows(running.ceil() as u64));
            }
            c.cpu_seconds += k_final as f64 * r.agg_row;
        };

        match design {
            RowDesign::Traditional | RowDesign::MaterializedViews => {
                let yf = self.catalog.year_fraction(q);
                // Per-tuple parse cost scales with tuple arity: a narrow
                // per-flight view row decodes a handful of fields, not 17.
                let (heap, width) = if design == RowDesign::Traditional {
                    (sizes.fact_heap_bytes, 1.0)
                } else {
                    let cols = mv_view_columns(q.id.flight).len() as f64;
                    (sizes.mv_view_bytes[(q.id.flight - 1) as usize], (cols / 17.0).max(0.2))
                };
                let bytes = (heap as f64 * yf) as u64;
                ws.touch("heap:fact", bytes);
                c.add(seq_scan(bytes));
                // Extra partitions beyond the first (seq_scan charged one).
                c.seeks += ((7.0 * yf).ceil() as u64).saturating_sub(1);
                let scanned = n as f64 * yf;
                c.cpu_seconds += scanned * r.row_tuple * width;
                explain.push(
                    Explain::node(
                        "seq-scan",
                        format!(
                            "{:.1} MB ({} of the year partitions)",
                            bytes as f64 / (1024.0 * 1024.0),
                            (7.0 * yf).ceil()
                        ),
                    )
                    .rows(scanned.ceil() as u64)
                    .cost(c.seconds(&self.params)),
                );
                join_tail(&mut c, &mut explain, &mut ws, scanned * fact_sel, &[]);
            }
            RowDesign::TraditionalBitmap => {
                // Index bitmaps for *indexed* fact predicates and the
                // DATE key range, then random heap fetches for survivors.
                // Only `BITMAP_COLUMNS` carry an index — a predicate on
                // any other fact column (e.g. lo_tax) never enters the
                // bitmap and filters tuples only after the fetch.
                let mut indexed_fact_sel = 1.0;
                let mut post_sel = 1.0;
                let date_sel = self.catalog.dim_selectivity(q, Dim::Date);
                for &i in order {
                    let p = &q.fact_predicates[i];
                    let psel = self.catalog.fact_pred_selectivity(p);
                    if !cvr_row::designs::traditional::BITMAP_COLUMNS.contains(&p.column) {
                        post_sel *= psel;
                        continue;
                    }
                    indexed_fact_sel *= psel;
                    let entries = n as f64 * psel;
                    let bytes = index_scan_bytes(entries);
                    ws.touch(&format!("idx:{}", p.column), bytes);
                    c.add(seq_scan(bytes));
                    c.cpu_seconds += entries * r.index_leaf_entry;
                    explain.push(
                        Explain::node("index-scan", format!("range scan {}", p.column))
                            .rows(entries.ceil() as u64),
                    );
                }
                let mut bitmap_sel = indexed_fact_sel;
                if date_sel < 1.0 {
                    bitmap_sel *= date_sel;
                }
                if date_sel < 1.0 {
                    let entries = n as f64 * date_sel;
                    let bytes = index_scan_bytes(entries);
                    ws.touch("idx:lo_orderdate", bytes);
                    c.add(seq_scan(bytes));
                    c.cpu_seconds += entries * r.index_leaf_entry;
                    explain.push(
                        Explain::node("index-scan", "range scan lo_orderdate")
                            .rows(entries.ceil() as u64),
                    );
                }
                // Non-DATE dimension restrictions also enter the bitmap,
                // through per-key FK-index probes — the executor skips a
                // dim only when its matching-key set exceeds its 2000-key
                // optimizer threshold. Omitting these from the model left
                // the heap fetch priced at fact_sel x date_sel while the
                // real bitmap was thinned by the full query selectivity —
                // the ~10x overpricing behind the Q9.3 regret tail. Each
                // probe descends to one leaf, sorted-key probes visit
                // leaves in ascending order, and internal pages stay
                // pool-resident — so the probe phase is a Cardenas–Yao
                // gather of `keys` starting points over the index's *leaf
                // pages* (one 32 KB page per node, ~1365 entries each).
                //
                // `line_sel` tracks the per-LINE part of the bitmap:
                // lo_partkey and lo_suppkey are drawn per line, while
                // lo_custkey and lo_orderdate are constant across the
                // lines of an order. The distinction drives the heap-fetch
                // run model below.
                let mut line_sel = indexed_fact_sel;
                let mut applied: Vec<Dim> = Vec::new();
                if date_sel < 1.0 {
                    applied.push(Dim::Date);
                }
                for d in q.touched_dims() {
                    if d == Dim::Date {
                        continue;
                    }
                    let dsel = self.catalog.dim_selectivity(q, d);
                    if dsel >= 1.0 {
                        continue;
                    }
                    let keys = self.catalog.dim(d).rows as f64 * dsel;
                    if keys > 2_000.0 {
                        continue;
                    }
                    bitmap_sel *= dsel;
                    if matches!(d, Dim::Part | Dim::Supplier) {
                        line_sel *= dsel;
                    }
                    applied.push(d);
                    if keys < 1.0 {
                        // The estimated key set is empty: the bitmap ANDs
                        // to nothing and no probe I/O happens.
                        continue;
                    }
                    let entries = n as f64 * dsel;
                    let index_bytes = index_scan_bytes(n as f64);
                    let probe = gather(keys.ceil() as u64, n, index_bytes, &r);
                    ws.touch(&format!("idx:{}", d.fact_fk_column()), probe.io_bytes);
                    c.add(probe);
                    c.cpu_seconds += entries * r.index_leaf_entry;
                    explain.push(
                        Explain::node("index-scan", format!("FK probes {}", d.fact_fk_column()))
                            .rows(entries.ceil() as u64),
                    );
                }
                // Bitmap-applied dims with no group column are never
                // joined afterwards.
                let skip: Vec<Dim> = applied
                    .iter()
                    .copied()
                    .filter(|d| !q.group_by.iter().any(|g| g.dim == *d))
                    .collect();
                let k = ((n as f64 * bitmap_sel).ceil() as u64).min(n);
                // The heap sits in generation (orderkey) order — NOT
                // date-sorted — so survivors scatter across the whole
                // file and the fetch is a full-file gather. The lines of
                // one order are adjacent, though, and share lo_orderdate
                // and lo_custkey, so restrictions on those *per-order*
                // columns leave survivors in runs of `lines_per_order`
                // adjacent tuples: page and seek counts follow the run
                // *seeds*, not k. Per-line thinning (fact measures,
                // lo_partkey / lo_suppkey bitmaps) breaks runs apart and
                // pushes the seed count back toward k.
                let orders = self.catalog.fact.column("lo_orderkey").max.unwrap_or(1).max(1) as f64;
                let lines_per_order = (n as f64 / orders).max(1.0);
                let run = (lines_per_order * line_sel).max(1.0);
                let seeds = ((k as f64 / run).ceil() as u64).min(k);
                let heap_fetch = gather(seeds, n, sizes.fact_heap_bytes, &r);
                ws.touch("heap:fact", heap_fetch.io_bytes.min(sizes.fact_heap_bytes));
                let fetch_secs = heap_fetch.seconds(&self.params);
                c.add(heap_fetch);
                // Every surviving tuple is still parsed.
                c.cpu_seconds += k as f64 * r.row_tuple;
                explain.push(
                    Explain::node("bitmap-heap-fetch", "fetch surviving tuples")
                        .rows(k)
                        .cost(fetch_secs),
                );
                // Unindexed fact predicates filter the fetched tuples
                // before the joins.
                join_tail(&mut c, &mut explain, &mut ws, k as f64 * post_sel, &skip);
            }
            RowDesign::VerticalPartitioning | RowDesign::SuperVp => {
                let cols = q.fact_columns();
                let mut joins = 0u64;
                for col in &cols {
                    let stats = self.catalog.fact.column(col);
                    let per_value = if design == RowDesign::VerticalPartitioning {
                        // header (8) + pos (4) + value (4 or 1+len).
                        if stats.histogram.is_some() {
                            16.0
                        } else {
                            13.0 + stats.plain_bytes as f64 / stats.rows.max(1) as f64
                        }
                    } else {
                        // Super tuples: just the packed values.
                        if stats.histogram.is_some() {
                            4.0
                        } else {
                            stats.plain_bytes as f64 / stats.rows.max(1) as f64
                        }
                    };
                    ws.touch(&format!("vp:{col}"), (n as f64 * per_value) as u64);
                    c.add(seq_scan((n as f64 * per_value) as u64));
                    c.cpu_seconds += n as f64 * r.tuple_value;
                    joins += 1;
                }
                // Record-id hash joins glue the columns back together; each
                // join builds and probes ~n entries.
                let rid_joins = joins.saturating_sub(1) as f64;
                c.cpu_seconds += rid_joins * n as f64 * (r.hash_probe + r.row_join_probe);
                explain.push(
                    Explain::node(
                        "rid-join",
                        format!("{} column scans, {rid_joins:.0} rid joins", cols.len()),
                    )
                    .rows(n)
                    .cost(c.seconds(&self.params)),
                );
                join_tail(&mut c, &mut explain, &mut ws, n as f64 * fact_sel, &[]);
            }
            RowDesign::IndexOnly => {
                let cols = q.fact_columns();
                for col in &cols {
                    let stats = self.catalog.fact.column(col);
                    let pred_sel = q
                        .fact_predicates
                        .iter()
                        .find(|p| p.column == *col)
                        .map(|p| self.catalog.fact_pred_selectivity(p))
                        .unwrap_or(1.0);
                    let entries = n as f64 * pred_sel;
                    ws.touch(&format!("idx:{col}"), (entries * 20.0) as u64);
                    c.add(seq_scan((entries * 20.0) as u64));
                    c.cpu_seconds += entries * r.index_entry;
                    let _ = stats;
                }
                // The System X pathology: rid joins before any dimension
                // filtering, so every join moves ~n tuples.
                let rid_joins = cols.len().saturating_sub(1) as f64;
                c.cpu_seconds += rid_joins * n as f64 * (r.hash_probe + r.row_join_probe);
                explain.push(
                    Explain::node(
                        "rid-join",
                        format!("{} index scans rid-joined before filtering", cols.len()),
                    )
                    .rows(n)
                    .cost(c.seconds(&self.params)),
                );
                join_tail(&mut c, &mut explain, &mut ws, n as f64 * fact_sel, &[]);
            }
        }
        (c, explain, ws)
    }
}

fn design_name(d: RowDesign) -> &'static str {
    match d {
        RowDesign::Traditional => "partitioned heap",
        RowDesign::TraditionalBitmap => "bitmap-biased",
        RowDesign::MaterializedViews => "per-flight view",
        RowDesign::VerticalPartitioning => "vertical partitioning",
        RowDesign::IndexOnly => "index-only",
        RowDesign::SuperVp => "super-tuple VP",
    }
}

/// How a predicate tests the values of a fact column — what prices its
/// window kernel and its per-candidate test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueTest {
    /// An interval compare: fact predicates and between-rewritten joins.
    Interval,
    /// Membership in a dense-key flag table (one flag per dimension row).
    KeyBits,
    /// Membership in a hash set (non-dense keys: DATE).
    HashSet,
}

impl ValueTest {
    /// The test a join on `d` applies to its FK column: an interval when the
    /// matching keys are expected contiguous (between-predicate rewriting),
    /// else membership — in bits where keys are dense, in a hash set where
    /// they are not.
    fn of_join(d: Dim, contiguous: bool) -> ValueTest {
        match (contiguous, d.dense_keys()) {
            (true, _) => ValueTest::Interval,
            (false, true) => ValueTest::KeyBits,
            (false, false) => ValueTest::HashSet,
        }
    }

    /// The explain tag of a join probe under this test.
    fn label(self) -> &'static str {
        match self {
            ValueTest::Interval => "between-rewrite",
            ValueTest::KeyBits => "key-bits",
            ValueTest::HashSet => "hash-set",
        }
    }
}

/// The three column-engine plan shapes the planner searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// The invisible join (`..I.L`).
    Invisible,
    /// The classic late-materialized hash join (`..i.L`).
    LateJoin,
    /// Early materialization (`...l`).
    Early,
}

impl PlanShape {
    /// The [`EngineConfig`] running this shape at one compression setting
    /// (block iteration always on — the planner never picks the
    /// deliberately-slow tuple-at-a-time mode).
    pub fn config(self, compressed: bool) -> EngineConfig {
        let code = match (self, compressed) {
            (PlanShape::Invisible, true) => "tICL",
            (PlanShape::Invisible, false) => "tIcL",
            (PlanShape::LateJoin, true) => "tiCL",
            (PlanShape::LateJoin, false) => "ticL",
            (PlanShape::Early, true) => "tICl",
            (PlanShape::Early, false) => "tIcl",
        };
        EngineConfig::parse(code)
    }

    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            PlanShape::Invisible => "invisible join",
            PlanShape::LateJoin => "late-materialized join",
            PlanShape::Early => "early materialization",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::ColumnEngine;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query};
    use cvr_data::workload::WorkloadConfig;
    use std::sync::Arc;

    fn planner() -> &'static Planner {
        static P: std::sync::OnceLock<Planner> = std::sync::OnceLock::new();
        P.get_or_init(|| {
            let tables = Arc::new(SsbConfig { sf: 0.01, seed: 21 }.generate());
            Planner::new(Catalog::build(&ColumnEngine::new(tables)))
        })
    }

    #[test]
    fn every_paper_query_gets_a_plan() {
        let p = planner();
        for q in all_queries() {
            let plan = p.plan(&q);
            assert!(plan.seconds > 0.0, "{}", q.id);
            assert_eq!(plan.fact_order.len(), q.fact_predicates.len());
            assert!(!plan.ranking.is_empty());
            // The ranking is sorted and the winner heads it.
            assert_eq!(plan.ranking[0].0, plan.choice.label());
            assert!(plan.ranking.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn planner_prefers_compression_and_late_materialization() {
        let p = planner();
        for q in all_queries() {
            let plan = p.plan(&q);
            if let Some(cfg) = plan.engine_config() {
                assert!(cfg.compression, "{}: picked {}", q.id, cfg.code());
                assert!(cfg.late_materialization, "{}: picked {}", q.id, cfg.code());
            }
        }
    }

    #[test]
    fn fact_order_puts_most_selective_first() {
        let p = planner();
        let q = query(1, 2); // discount 4-6 (~3/11) then quantity 26-35 (~10/50)
        let order = p.fact_order(&q);
        let sels: Vec<f64> =
            q.fact_predicates.iter().map(|fp| p.catalog().fact_pred_selectivity(fp)).collect();
        assert!(sels[order[0]] <= sels[order[1]]);
    }

    #[test]
    fn mv_and_ai_are_gated_for_generated_queries() {
        let p = planner();
        for q in WorkloadConfig::with_count(16).generate() {
            let designs = p.applicable_row_designs(&q);
            assert!(
                !designs.contains(&RowDesign::MaterializedViews),
                "{}: MV views only exist for paper flights",
                q.id
            );
            assert!(designs.contains(&RowDesign::Traditional));
        }
        // ... but stay available for the paper queries themselves.
        let designs = p.applicable_row_designs(&query(2, 1));
        assert!(designs.contains(&RowDesign::MaterializedViews));
        assert!(designs.contains(&RowDesign::IndexOnly));
    }

    #[test]
    fn generated_queries_get_plans_too() {
        let p = planner();
        for q in WorkloadConfig::with_count(32).generate() {
            let plan = p.plan(&q);
            assert!(plan.seconds.is_finite() && plan.seconds > 0.0, "{}", q.id);
            let rendered = plan.render();
            assert!(rendered.contains("candidates"), "{rendered}");
        }
    }

    #[test]
    fn explain_renders_the_winning_tree() {
        let p = planner();
        let plan = p.plan(&query(3, 1));
        let s = plan.render();
        assert!(s.contains("plan="), "{s}");
        assert!(s.contains("sel="), "{s}");
        for (label, _) in &plan.ranking {
            assert!(s.contains(label.as_str()), "{s} missing {label}");
        }
    }

    #[test]
    fn plan_json_has_stable_fields_and_full_ranking() {
        let p = planner();
        let plan = p.plan(&query(3, 1));
        let j = plan.to_json();
        for field in [
            "\"query\"",
            "\"plan\"",
            "\"fact_order\"",
            "\"est_seconds\"",
            "\"est_selectivity\"",
            "\"tree\"",
            "\"candidates\"",
            "\"op\"",
            "\"est_rows\"",
        ] {
            assert!(j.contains(field), "{j} missing {field}");
        }
        // Every ranked candidate label appears in the JSON.
        assert_eq!(j.matches("{\"plan\": ").count(), plan.ranking.len());
        // The winner's tree root carries the total estimate.
        assert!(plan.explain.est_cost_seconds.is_some());
        assert!(plan.explain.est_rows.is_some());
    }
}
