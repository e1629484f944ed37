//! The unified `Session` API: the one public way to run a query.
//!
//! Before this crate, running a query meant picking an engine, a
//! configuration, a fact-predicate order, and an entry point by hand.
//! [`Session`] owns all of it: statistics ([`cvr_plan::Catalog`]),
//! planning ([`cvr_plan::Planner`]), both engines, and execution.
//! `Session::query(sql)` parses, plans, and runs; `Session::run` is the
//! same pipeline entered with a descriptor (the "direct-descriptor path"
//! the differential harness compares against).
//!
//! **Determinism contract**: every query executes against a fresh
//! [`IoSession`] over an unbounded buffer pool, so outputs *and* I/O
//! accounting depend only on the query and the chosen plan — never on what
//! ran before, on which connection, or on how many queries run
//! concurrently. "N concurrent queries ≡ the same N serial, byte-identical"
//! is a test, not an aspiration.

use crate::cache::{CacheStats, QueryCache};
use crate::parser::{self, ParseError, Statement};
use cvr_core::ctx::catch_injected;
use cvr_core::morsel::Parallelism;
use cvr_core::sched::{self, Scheduler};
use cvr_core::{ColumnEngine, ExecOptions, QueryCtx, QueryError, SpanRecord, Tracer};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{QueryId, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::value::DataType;
use cvr_plan::{key, Catalog, PhysicalChoice, Plan, Planner};
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::fault::{self, FaultState};
use cvr_storage::io::{pages_for, BufferPool, IoSession, IoStats};
use cvr_storage::persist::{self, PersistError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// A failure answering a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The SQL failed to parse or analyze.
    Parse(ParseError),
    /// The statement parsed but its execution was aborted by the query
    /// lifecycle: cancelled, past its deadline, over its memory budget,
    /// shed at admission, or killed by an I/O fault.
    Query(QueryError),
}

impl SessionError {
    /// Stable numeric code for the wire protocol.
    pub fn code(&self) -> u16 {
        match self {
            SessionError::Parse(e) => e.code(),
            SessionError::Query(e) => e.code(),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> SessionError {
        SessionError::Parse(e)
    }
}

impl From<QueryError> for SessionError {
    fn from(e: QueryError) -> SessionError {
        SessionError::Query(e)
    }
}

/// One column of a result set: name and logical type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column name (`"d_year"`, or the aggregate's SQL text).
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
}

/// A successful query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsResponse {
    /// The executed query's id (paper id when the SQL matched a paper
    /// query, `Q0.*` for ad-hoc, `Q9.*` for generated descriptors).
    pub query_id: QueryId,
    /// Label of the plan the planner picked (`tICL`, `row:MV`, ...).
    pub plan: String,
    /// Result-set column metadata: the group columns, then the aggregate.
    pub columns: Vec<ColumnMeta>,
    /// The rows, in normalized (ascending group-key) order.
    pub output: QueryOutput,
    /// I/O accounting of this execution (fresh session per query, so this
    /// is deterministic for a given query + plan). A cache hit reports the
    /// stats the cold execution charged — byte-identical by contract.
    pub io: IoStats,
    /// Whether this response was served from the result cache. The *only*
    /// field a cache hit may change.
    pub cached: bool,
}

/// What a statement returned.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// A `SELECT`: rows plus metadata.
    Rows(RowsResponse),
    /// An `EXPLAIN SELECT`: the plan, never executed.
    Explain {
        /// Human-readable tree (identical to the CLI binaries' rendering).
        text: String,
        /// Stable-field JSON (identical to `Plan::to_json`).
        json: String,
    },
    /// A `SNAPSHOT` or `RELOAD`: what was written or loaded.
    Snapshot(SnapshotInfo),
}

/// The versioned store a session serves: tables, the column engine built
/// over them, the planner's statistics and the row designs built from them
/// — pinned together behind one `Arc` so a reload swaps all of it
/// atomically. Queries clone the `Arc` at entry and run against that
/// snapshot to completion, so a mid-query swap never mixes generations (the
/// segment-swap seam a future write path plugs into).
struct StoreState {
    engine: ColumnEngine,
    planner: Planner,
    tables: Arc<SsbTables>,
    /// The version every cache and plan-memo key embeds: `0` for an
    /// in-memory generated store, the manifest generation once a snapshot
    /// is loaded. Any swap changes it, invalidating all cached entries.
    version: u64,
    /// Row-engine physical designs over `tables`, one slot per
    /// [`RowDesign::EXTENDED`] entry, each built by the first statement
    /// whose plan picks it. They belong to the store: a statement can only
    /// ever reach designs built from the tables it pinned, and a reload
    /// drops them with everything else.
    row_dbs: [OnceLock<Arc<RowDb>>; RowDesign::EXTENDED.len()],
}

impl StoreState {
    fn build(tables: Arc<SsbTables>, version: u64, par: Parallelism) -> StoreState {
        let engine = ColumnEngine::with_parallelism(tables.clone(), par);
        let planner = Planner::new(Catalog::build(&engine));
        StoreState { engine, planner, tables, version, row_dbs: Default::default() }
    }

    /// The built `design`, building it on first use.
    fn row_db(&self, design: RowDesign) -> Arc<RowDb> {
        self.row_db_with(design, || RowDb::build(self.tables.clone(), design))
    }

    /// [`StoreState::row_db`] with the build spelled out. Only statements
    /// that need *this* design wait for its build — every other slot stays
    /// open — and a build that panics leaves the slot empty, so the next
    /// statement builds again rather than inheriting a poisoned lock.
    fn row_db_with(&self, design: RowDesign, build: impl FnOnce() -> RowDb) -> Arc<RowDb> {
        let slot = RowDesign::EXTENDED.iter().position(|&d| d == design).expect("known design");
        self.row_dbs[slot].get_or_init(|| Arc::new(build())).clone()
    }
}

/// What a `SNAPSHOT` or `RELOAD` statement reports (and what the wire's
/// snapshot frame carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Manifest generation written (snapshot) or loaded (reload).
    pub generation: u64,
    /// The session's store version after the statement.
    pub store_version: u64,
    /// Segment files in the snapshot.
    pub segments: u32,
    /// Total bytes written or read.
    pub bytes: u64,
}

/// A session over one generated dataset: statistics, planner, both
/// engines, and the execution pipeline behind one `query(&str)` call.
///
/// `Session` is `Sync`; one instance serves any number of threads
/// concurrently (the TCP server shares one behind an `Arc`).
pub struct Session {
    /// The current store; see [`StoreState`]. Readers clone the `Arc`
    /// (one brief read-lock); only [`Session::reload`] writes.
    store: RwLock<Arc<StoreState>>,
    /// Directory for durable snapshots (`CVR_DATA_DIR` or
    /// [`Session::set_data_dir`]); `None` disables SNAPSHOT/RELOAD.
    data_dir: Mutex<Option<PathBuf>>,
    par: Parallelism,
    /// The shared scheduler every query passes through: admission first,
    /// then fair worker leases inside the morsel fan-outs.
    sched: Arc<Scheduler>,
    /// Result cache; `None` when disabled (`CVR_CACHE_BYTES=0`).
    cache: Option<QueryCache>,
    /// Memoized plans keyed by [`key::statement_key`], like the result
    /// cache. Planning is a pure function of (descriptor, store version),
    /// so a repeated descriptor reuses the enumerated plan instead of
    /// re-costing the whole candidate grid; on the cache-hit path this is
    /// most of the remaining work.
    plans: Mutex<HashMap<String, Arc<Plan>>>,
    /// Test-only fault injection: `query` panics when the SQL contains
    /// this needle (see `inject_panic_on`).
    fault: Mutex<Option<String>>,
    /// Per-session storage fault injection ([`Session::set_faults`]):
    /// adopted by every statement this session runs and by the morsel
    /// workers it spawns, isolated from other sessions and from the
    /// `CVR_FAULT` process default.
    faults: Mutex<Option<Arc<FaultState>>>,
}

/// Cache budget from `CVR_CACHE_BYTES` (default 64 MiB; `0` disables).
fn cache_budget_from_env() -> usize {
    std::env::var("CVR_CACHE_BYTES").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(64 << 20)
}

impl Session {
    /// Build a session over `tables` at the process-default parallelism
    /// ([`Parallelism::from_env`]).
    pub fn new(tables: Arc<SsbTables>) -> Session {
        Session::with_parallelism(tables, Parallelism::from_env())
    }

    /// Build a session with an explicit [`Parallelism`] for the column
    /// engine's morsel pool. Results and I/O accounting are byte-identical
    /// at every thread count.
    pub fn with_parallelism(tables: Arc<SsbTables>, par: Parallelism) -> Session {
        Session::with_cache_budget(tables, par, cache_budget_from_env())
    }

    /// Build a session with an explicit cache byte budget (`0` disables
    /// caching entirely — every query executes cold).
    pub fn with_cache_budget(
        tables: Arc<SsbTables>,
        par: Parallelism,
        cache_bytes: usize,
    ) -> Session {
        // `CVR_DATA_DIR` names a durable store: load the newest valid
        // snapshot generation and serve it instead of the generated
        // tables. An empty directory is a fresh deployment (serve the
        // generated tables, SNAPSHOT will seed it); a damaged one warns
        // and falls back to the generated tables rather than refusing to
        // start.
        let data_dir = std::env::var_os("CVR_DATA_DIR").map(PathBuf::from);
        let store = match &data_dir {
            None => StoreState::build(tables, 0, par),
            Some(dir) => match persist::load_latest(dir) {
                Ok((loaded, report)) => {
                    if report.fallbacks > 0 {
                        cvr_obs::warn(&format!(
                            "data dir {}: newest {} generation(s) corrupt, recovered from generation {}",
                            dir.display(),
                            report.fallbacks,
                            report.generation
                        ));
                    }
                    StoreState::build(Arc::new(loaded), report.generation, par)
                }
                Err(PersistError::NoSnapshot) => StoreState::build(tables, 0, par),
                Err(e) => {
                    cvr_obs::warn(&format!(
                        "data dir {}: {e}; serving generated tables",
                        dir.display()
                    ));
                    StoreState::build(tables, 0, par)
                }
            },
        };
        // Sessions share the process-default scheduler: concurrent queries
        // split the machine's workers instead of each spawning a full pool.
        let sched = Scheduler::process_default();
        sched::install(sched.clone());
        Session {
            store: RwLock::new(Arc::new(store)),
            data_dir: Mutex::new(data_dir),
            par,
            sched,
            cache: (cache_bytes > 0).then(|| QueryCache::new(cache_bytes)),
            plans: Mutex::new(HashMap::new()),
            fault: Mutex::new(None),
            faults: Mutex::new(None),
        }
    }

    /// The store snapshot a statement executes against: cloned once at
    /// entry, held to completion. A concurrent reload swaps the slot
    /// without disturbing in-flight statements.
    fn store(&self) -> Arc<StoreState> {
        self.store.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Version of the store every cache and plan-memo key embeds; a
    /// [`Session::reload`] changes it, invalidating all cached entries.
    pub fn store_version(&self) -> u64 {
        self.store().version
    }

    /// The tables the session currently serves.
    pub fn tables(&self) -> Arc<SsbTables> {
        self.store().tables.clone()
    }

    /// Point the session at a durable store directory (the programmatic
    /// form of `CVR_DATA_DIR`); `None` disables SNAPSHOT/RELOAD.
    pub fn set_data_dir(&self, dir: Option<PathBuf>) {
        *self.data_dir.lock().unwrap_or_else(PoisonError::into_inner) = dir;
    }

    /// The durable store directory, if one is configured.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.data_dir.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Write a durable snapshot of the current tables as the next manifest
    /// generation (see `cvr_storage::persist` for the commit protocol).
    /// The served store is unchanged — same bytes, same version — so
    /// caches stay valid.
    pub fn snapshot(&self) -> Result<SnapshotInfo, QueryError> {
        let Some(dir) = self.data_dir() else {
            return Err(QueryError::Io { detail: "no data directory configured".to_string() });
        };
        let store = self.store();
        let report = persist::write_snapshot(&dir, &store.tables).map_err(persist_error)?;
        Ok(SnapshotInfo {
            generation: report.generation,
            store_version: store.version,
            segments: report.segments as u32,
            bytes: report.bytes,
        })
    }

    /// Reload the newest valid snapshot generation from the data
    /// directory and swap it in as the served store. The store version
    /// becomes the loaded generation, so every result-cache entry and
    /// memoized plan keyed against the old store is unreachable; row
    /// designs live in the store, so the new one starts with none built.
    pub fn reload(&self) -> Result<SnapshotInfo, QueryError> {
        let Some(dir) = self.data_dir() else {
            return Err(QueryError::Io { detail: "no data directory configured".to_string() });
        };
        let (tables, report) = persist::load_latest(&dir).map_err(persist_error)?;
        if report.fallbacks > 0 {
            cvr_obs::warn(&format!(
                "reload from {}: newest {} generation(s) corrupt, recovered from generation {}",
                dir.display(),
                report.fallbacks,
                report.generation
            ));
        }
        let next = Arc::new(StoreState::build(Arc::new(tables), report.generation, self.par));
        *self.store.write().unwrap_or_else(PoisonError::into_inner) = next;
        Ok(SnapshotInfo {
            generation: report.generation,
            store_version: report.generation,
            segments: report.segments as u32,
            bytes: report.bytes,
        })
    }

    /// Plan `q`, memoized under `skey` — its [`key::statement_key`] against
    /// `store`. Plans are a few KB each; the memo is cleared wholesale past a
    /// generous entry cap rather than tracked byte-by-byte.
    fn plan_cached(&self, store: &StoreState, q: &SsbQuery, skey: &str) -> Arc<Plan> {
        const MAX_MEMOIZED_PLANS: usize = 4096;
        if let Some(plan) = self.plans.lock().unwrap_or_else(PoisonError::into_inner).get(skey) {
            return plan.clone();
        }
        // Plan outside the lock — enumeration is pure, so two threads
        // racing the same key just insert the same plan twice.
        let plan = Arc::new(store.planner.plan(q));
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if plans.len() >= MAX_MEMOIZED_PLANS {
            plans.clear();
        }
        plans.insert(skey.to_string(), plan.clone());
        plan
    }

    /// Cache counters, or `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(QueryCache::stats)
    }

    /// The shared scheduler this session admits queries through.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Make `query` panic whenever the SQL contains `needle` — test-only
    /// fault injection for the serving layer's panic-containment tests.
    #[doc(hidden)]
    pub fn inject_panic_on(&self, needle: &str) {
        let mut slot = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(needle.to_string());
    }

    /// Arm per-session storage fault injection from a `CVR_FAULT`-style
    /// spec (`"io:0.01,stall:0.05:10,seed:42"`); `None` disarms. Every
    /// statement this session runs adopts the state for its duration —
    /// including its morsel workers — so concurrent sessions (and tests)
    /// inject faults independently, without a process-global install.
    ///
    /// Fault probabilities are **per page touch**, so they multiply with
    /// scale: a spec whose expected fault count over one full fact scan
    /// exceeds ~0.5 draws a warning — at that rate most paper queries
    /// abort and the spec is probably a units mistake (`io:0.01` means 1%
    /// *of pages*, not 1% of queries).
    pub fn set_faults(&self, spec: Option<&str>) -> Result<(), String> {
        let state = match spec {
            Some(s) => Some(FaultState::from_spec(s)?),
            None => None,
        };
        if let Some(state) = &state {
            let cfg = state.config();
            if cfg.io > 0.0 {
                // Page touches of the heaviest paper query ≈ one full
                // compressed fact scan (tICL touches every fact column).
                let store = self.store();
                let pages =
                    pages_for(store.engine.db(cvr_core::EngineConfig::FULL).fact_bytes()) as f64;
                let expected = cfg.io * pages;
                if expected > 0.5 {
                    cvr_obs::warn(&format!(
                        "fault spec io:{} × ~{pages:.0} fact pages ≈ {expected:.1} expected faults \
                         per full scan; most queries will abort (probabilities are per page touch)",
                        cfg.io
                    ));
                }
            }
        }
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = state;
        Ok(())
    }

    /// The armed fault state, if any (the server adopts it around frame
    /// writes so truncation faults hit the send path too).
    pub fn faults(&self) -> Option<Arc<FaultState>> {
        self.faults.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Parse and answer one SQL statement under an unbounded lifecycle.
    pub fn query(&self, sql: &str) -> Result<QueryResponse, SessionError> {
        self.query_ctx(sql, &QueryCtx::unbounded())
    }

    /// Parse and answer one SQL statement under `ctx`: the execution polls
    /// the context's cancellation flag, deadline, and memory budget at
    /// phase and morsel boundaries, and admission may shed under load —
    /// every abort surfaces as [`SessionError::Query`].
    pub fn query_ctx(&self, sql: &str, ctx: &QueryCtx) -> Result<QueryResponse, SessionError> {
        if let Some(needle) = &*self.fault.lock().unwrap_or_else(PoisonError::into_inner) {
            if sql.contains(needle.as_str()) {
                panic!("injected fault: statement contains {needle:?}");
            }
        }
        match parser::parse(sql)? {
            Statement::Select(q) => Ok(QueryResponse::Rows(self.run_ctx(&q, ctx)?)),
            Statement::Explain(q) => {
                let store = self.store();
                let skey = key::statement_key(&q, store.version);
                let plan = self.plan_cached(&store, &q, &skey);
                let (text, json) = self.render_explain(&plan, &skey);
                Ok(QueryResponse::Explain { text, json })
            }
            Statement::ExplainAnalyze(q) => {
                let (text, json) = self.explain_analyze(&q, ctx)?;
                Ok(QueryResponse::Explain { text, json })
            }
            Statement::Snapshot => Ok(QueryResponse::Snapshot(self.snapshot()?)),
            Statement::Reload => Ok(QueryResponse::Snapshot(self.reload()?)),
        }
    }

    /// `EXPLAIN` rendering: the plan tree plus the cache's view of this
    /// statement — whether its result is resident right now (a pure peek;
    /// counters and LRU order are untouched).
    fn render_explain(&self, plan: &Plan, skey: &str) -> (String, String) {
        let mut text = plan.render();
        let mut json = plan.to_json();
        match &self.cache {
            None => {
                text.push_str("\ncache: off");
                inject_json_field(&mut json, r#""cache": {"enabled": false}"#);
            }
            Some(cache) => {
                let result = if cache.peek(skey) { "hit" } else { "miss" };
                let s = cache.stats();
                text.push_str(&format!(
                    "\ncache: result={result} ({} / {} bytes)",
                    s.bytes, s.budget
                ));
                inject_json_field(
                    &mut json,
                    &format!(
                        r#""cache": {{"enabled": true, "result": "{result}", "bytes": {}, "budget": {}}}"#,
                        s.bytes, s.budget
                    ),
                );
            }
        }
        (text, json)
    }

    /// Plan `q` without executing it — the `EXPLAIN` path, also entered
    /// with a descriptor.
    pub fn explain(&self, q: &SsbQuery) -> Plan {
        let store = self.store();
        (*self.plan_cached(&store, q, &key::statement_key(q, store.version))).clone()
    }

    /// `EXPLAIN ANALYZE`: execute `q` under a tracer, then zip the
    /// planner's estimate tree with the measured span tree — `(text,
    /// json)`, estimates and actuals side by side per operator.
    ///
    /// The result-cache *read* is bypassed (a hit executes no operators,
    /// leaving nothing to measure); the execution itself is the ordinary
    /// pipeline, so the actuals are exactly what a plain `SELECT` would
    /// have measured, and the result still lands in the cache.
    pub fn explain_analyze(
        &self,
        q: &SsbQuery,
        ctx: &QueryCtx,
    ) -> Result<(String, String), QueryError> {
        ctx.attach_tracer(Tracer::new());
        let tracer = ctx.tracer().expect("tracer attached above").clone();
        let plan = self.explain(q);
        self.run_inner(q, ctx, true, false)?;
        let root = tracer.take_root();
        Ok(crate::analyze::render(&plan, root.as_ref()))
    }

    /// Execute a descriptor under a fresh tracer, returning the response
    /// *and* the measured span tree. The response is byte-identical to
    /// [`Session::run_ctx`] — spans observe, they never charge.
    pub fn run_traced(
        &self,
        q: &SsbQuery,
        ctx: &QueryCtx,
    ) -> Result<(RowsResponse, Option<SpanRecord>), QueryError> {
        ctx.attach_tracer(Tracer::new());
        let tracer = ctx.tracer().expect("tracer attached above").clone();
        let response = self.run_inner(q, ctx, true, true)?;
        Ok((response, tracer.take_root()))
    }

    /// Plan and execute a descriptor: the direct-descriptor path.
    ///
    /// `Session::query(sql)` is exactly `parse` + `run`, so a SQL-submitted
    /// query and its descriptor produce byte-identical outputs and
    /// [`IoStats`].
    pub fn run(&self, q: &SsbQuery) -> RowsResponse {
        // Unbounded and non-sheddable: this path keeps its infallible
        // signature, so the only failures it can see are injected faults —
        // re-raised as panics exactly like any other engine panic.
        self.run_inner(q, &QueryCtx::unbounded(), false, true).unwrap_or_else(|e| {
            std::panic::panic_any(e);
        })
    }

    /// [`Session::run`] under a [`QueryCtx`]: the fallible, sheddable form
    /// every network-submitted query goes through.
    pub fn run_ctx(&self, q: &SsbQuery, ctx: &QueryCtx) -> Result<RowsResponse, QueryError> {
        self.run_inner(q, ctx, true, true)
    }

    fn run_inner(
        &self,
        q: &SsbQuery,
        ctx: &QueryCtx,
        sheddable: bool,
        read_result_cache: bool,
    ) -> Result<RowsResponse, QueryError> {
        let started = Instant::now();
        // Per-session fault injection follows the statement, not the
        // thread: adopt for the duration (morsel workers re-adopt inside
        // the fan-out).
        let _faults = fault::adopt_opt(self.faults());
        // Pin the store for the whole statement: a concurrent reload swaps
        // the session's slot but never this execution's view.
        let store = self.store();
        // The statement's one key: the plan memo's and the result cache's.
        let skey = key::statement_key(q, store.version);
        let plan = self.plan_cached(&store, q, &skey);
        ctx.check()?;

        // Result-cache lookup happens before admission: a hit costs no
        // execution, so it should not wait behind executing queries.
        // `EXPLAIN ANALYZE` skips the read (a hit leaves nothing to
        // measure) but still writes, below.
        if read_result_cache {
            if let Some(cache) = &self.cache {
                if let Some(mut hit) = cache.get_result(&skey) {
                    hit.cached = true;
                    if let Some(tracer) = ctx.tracer() {
                        tracer.leaf(
                            "result-cache",
                            "hit",
                            Some(hit.output.rows.len() as u64),
                            started.elapsed(),
                            IoStats::default(),
                        );
                    }
                    observe_query(started);
                    return Ok(hit);
                }
            }
        }

        // Admission: bound how many queries execute at once; the morsel
        // fan-outs inside then lease a fair share of the worker budget.
        // The sheddable path can be rejected here (queue full, hopeless
        // deadline) or abandon its ticket while queued (cancelled).
        let _permit = if sheddable { self.sched.try_admit(ctx)? } else { self.sched.admit() };
        let io = IoSession::new(BufferPool::unbounded());
        let label = plan.choice.label();
        // Root span: the plan root's explain op (`column-plan` /
        // `row-plan`), so EXPLAIN ANALYZE zips the root by name. A no-op
        // when no tracer is attached.
        let mut root_span = ctx.span(plan.explain.op, &label, &io);
        let output = match plan.choice {
            PhysicalChoice::Column(cfg) => {
                let opts = ExecOptions {
                    par: self.par,
                    fact_order: Some(&plan.fact_order),
                    ctx: ctx.clone(),
                    between_rewriting: true,
                };
                store.engine.run(q, cfg, &opts, &io)?
            }
            PhysicalChoice::Row(design) => {
                ctx.check()?;
                // The row engines have no morsel boundaries to poll, but
                // injected storage faults still surface as typed errors.
                catch_injected(|| store.row_db(design).execute_planned(q, &plan.fact_order, &io))?
            }
        };
        root_span.rows(output.rows.len() as u64);
        drop(root_span);
        // Deliberately no post-execution `ctx.check()`: completed work
        // ships even when a cancel races the finish line.
        let response = RowsResponse {
            query_id: q.id,
            plan: label,
            columns: response_columns(q),
            output,
            io: io.stats(),
            cached: false,
        };
        if let Some(cache) = &self.cache {
            cache.put_result(skey, &response);
        }
        observe_query(started);
        Ok(response)
    }
}

/// Map a storage persistence failure onto the query error taxonomy:
/// corruption stays typed (wire code 105), everything else is I/O.
fn persist_error(e: PersistError) -> QueryError {
    match e {
        PersistError::Corrupt { detail } => QueryError::Corrupt { detail },
        PersistError::NoSnapshot => {
            QueryError::Io { detail: "no snapshot in data directory".to_string() }
        }
        PersistError::Io(detail) => QueryError::Io { detail },
    }
}

/// Count one successfully answered statement in the process metrics.
fn observe_query(started: Instant) {
    cvr_obs::counter("cvr_queries_total", "Statements answered successfully").inc();
    cvr_obs::latency("cvr_query_latency_us", "End-to-end statement latency")
        .observe(started.elapsed().as_micros() as u64);
}

/// Splice `field` into a `Plan::to_json` object, before the closing brace.
fn inject_json_field(json: &mut String, field: &str) {
    debug_assert!(json.ends_with('}'));
    json.truncate(json.len() - 1);
    json.push_str(", ");
    json.push_str(field);
    json.push('}');
}

/// Result-set metadata for `q`: the group columns (with their schema
/// types), then the aggregate as an integer column named by its SQL text.
fn response_columns(q: &SsbQuery) -> Vec<ColumnMeta> {
    let schema = cvr_data::schema::star_schema();
    let mut cols: Vec<ColumnMeta> = q
        .group_by
        .iter()
        .map(|g| {
            let t = schema.dim(g.dim);
            let dtype = t.columns[t.col(g.column)].dtype;
            ColumnMeta { name: g.column.to_string(), dtype }
        })
        .collect();
    cols.push(ColumnMeta { name: parser::agg_sql(q.aggregate).to_string(), dtype: DataType::Int });
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;

    /// Regression: a panic under the old `row_dbs` mutex poisoned it for
    /// every later row-plan statement on every connection. A design's slot
    /// has no lock to poison: a panicking build leaves it empty and the
    /// next statement builds.
    #[test]
    fn a_panicking_row_design_build_leaves_the_slot_empty_and_the_next_statement_rebuilds() {
        let session = Session::new(Arc::new(SsbConfig::with_scale(0.0005).generate()));
        let store = session.store();
        let design = RowDesign::Traditional;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.row_db_with(design, || panic!("row design build failed"))
        }));
        assert!(failed.is_err(), "the build's panic reaches the statement that ran it");
        assert!(store.row_dbs.iter().all(|slot| slot.get().is_none()), "nothing half-built");
        // Both the build path (first use) and the built path work.
        let a = store.row_db(design);
        let b = store.row_db(design);
        assert!(Arc::ptr_eq(&a, &b), "the design is built once and kept");
        let q = cvr_data::queries::query(1, 1);
        let expected = cvr_data::reference::evaluate(&store.tables, &q);
        assert_eq!(a.execute(&q, &IoSession::unmetered()), expected);
    }

    /// Regression: designs used to be built while holding the one `row_dbs`
    /// mutex, so a slow build (`T(B)`: seconds) stalled row-plan statements
    /// whose own design had been built long before.
    #[test]
    fn a_built_design_answers_while_another_designs_build_is_blocked() {
        use std::sync::mpsc;
        let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
        let session = Session::with_cache_budget(tables.clone(), Parallelism::serial(), 0);
        let store = session.store();
        // A statement planned to a row design other than the one whose build
        // will block; when the planner picks none at this scale, drive a
        // design directly (the call `run_inner` makes).
        let blocked_design = RowDesign::TraditionalBitmap;
        let row_planned = cvr_data::queries::all_queries().into_iter().find_map(|q| match session
            .explain(&q)
            .choice
        {
            PhysicalChoice::Row(d) if d != blocked_design => Some((q, d)),
            _ => None,
        });
        let statement = row_planned.is_some();
        let (q, built_design) =
            row_planned.unwrap_or((cvr_data::queries::query(2, 1), RowDesign::MaterializedViews));
        store.row_db(built_design);

        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (store, tables, session, q) = (&store, &tables, &session, &q);
        std::thread::scope(|s| {
            let blocked = s.spawn(move || {
                store.row_db_with(blocked_design, || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    RowDb::build(tables.clone(), blocked_design)
                })
            });
            entered_rx.recv().unwrap(); // the T(B) build now holds its slot
            let (done_tx, done_rx) = mpsc::channel();
            s.spawn(move || {
                let out = if statement {
                    session.run(q).output
                } else {
                    store.row_db(built_design).execute(q, &IoSession::unmetered())
                };
                done_tx.send(out).unwrap();
            });
            let answered = done_rx.recv_timeout(std::time::Duration::from_secs(60));
            release_tx.send(()).unwrap();
            let out = answered.expect("a built design must not wait for another's build");
            assert_eq!(out, cvr_data::reference::evaluate(tables, q));
            assert_eq!(blocked.join().unwrap().design(), blocked_design);
        });
    }

    /// A reload's store starts with no design built, and a statement that
    /// pinned the old store keeps — and can still build — the old store's.
    #[test]
    fn row_designs_are_dropped_with_the_store_they_were_built_from() {
        let dir = std::env::temp_dir().join(format!("cvr-rowdbs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new(Arc::new(SsbConfig::with_scale(0.0005).generate()));
        session.set_data_dir(Some(dir.clone()));
        let old = session.store();
        let old_db = old.row_db(RowDesign::Traditional);
        session.snapshot().unwrap();
        session.reload().unwrap();
        let new = session.store();
        assert!(new.row_dbs.iter().all(|slot| slot.get().is_none()));
        // The in-flight statement on the old store builds from the old
        // tables, into the old store only.
        old.row_db(RowDesign::MaterializedViews);
        assert!(new.row_dbs.iter().all(|slot| slot.get().is_none()));
        assert!(!Arc::ptr_eq(&old_db, &new.row_db(RowDesign::Traditional)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `EXPLAIN` output carries the cache's view without disturbing it.
    #[test]
    fn explain_surfaces_cache_state() {
        let tables = Arc::new(SsbConfig::with_scale(0.002).generate());
        let session = Session::with_cache_budget(tables, Parallelism::serial(), 16 << 20);
        let sql = crate::parser::render_sql(&cvr_data::queries::query(3, 1));
        let explain = || match session.query(&format!("EXPLAIN {sql}")).unwrap() {
            QueryResponse::Explain { text, json } => (text, json),
            other => panic!("expected EXPLAIN, got {other:?}"),
        };

        let (text, json) = explain();
        assert!(text.ends_with("\ncache: result=miss (0 / 16777216 bytes)"), "{text}");
        let field =
            r#""cache": {"enabled": true, "result": "miss", "bytes": 0, "budget": 16777216}"#;
        assert!(json.contains(field), "{json}");

        session.query(&sql).unwrap(); // cold execution populates the cache
        let held = session.cache_stats().unwrap().bytes;
        let (text, json) = explain();
        assert!(
            text.ends_with(&format!("\ncache: result=hit ({held} / 16777216 bytes)")),
            "{text}"
        );
        assert!(json.contains(r#""result": "hit""#) && !json.contains("filter"), "{json}");

        // EXPLAIN peeks must not have counted as result-cache traffic.
        let stats = session.cache_stats().unwrap();
        assert_eq!((stats.result_hits, stats.result_misses, stats.inserted), (0, 1, 1));
    }

    /// A disabled cache (budget 0) reports `cache: off` and still answers.
    #[test]
    fn zero_budget_disables_the_cache() {
        let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
        let session = Session::with_cache_budget(tables, Parallelism::serial(), 0);
        assert!(session.cache_stats().is_none());
        let q = cvr_data::queries::query(1, 1);
        let cold = session.run(&q);
        let again = session.run(&q);
        assert!(!again.cached);
        assert_eq!(cold.output, again.output);
        assert_eq!(cold.io, again.io);
    }
}
