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
use cvr_core::morsel::Parallelism;
use cvr_core::sched::{self, Scheduler};
use cvr_core::{CStoreDb, ColumnEngine, EngineConfig, ExecOptions, QueryCtx, QueryError};
use cvr_core::{SpanRecord, Tracer};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{QueryId, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::value::DataType;
use cvr_plan::{key, Catalog, Plan, Planner, Stores};
use cvr_storage::fault::{self, FaultState};
use cvr_storage::io::{pages_for, BufferPool, IoSession, IoStats};
use cvr_storage::persist::{self, LoadReport, PersistError, Shape, SnapshotReport};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
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
    /// Label of the plan the planner picked: a column plan shape's code
    /// (`tICL`, `TICL`, `tIcl`, ...).
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

/// The versioned store a session serves: the stores over one set of tables
/// and the planner's statistics — pinned together behind one `Arc` so a
/// reload swaps all of it atomically. Queries clone the `Arc` at entry and
/// run against that snapshot to completion, so a mid-query swap never mixes
/// generations (the segment-swap seam a future write path plugs into).
struct StoreState {
    /// The stores over the served tables. A generated store's build forces
    /// only the column engine (the catalog reads it); a reloaded one adopts
    /// the snapshot's compressed store and catalog as they are, and holds no
    /// logical tables until a cold path decodes them. The planner ranks only
    /// the column plan shapes ([`Planner::for_serving`]), so serving builds
    /// no other design; the uncompressed projection is built by the first
    /// plan that needs it. A statement reaches only the stores of the
    /// tables it pinned; a reload drops them all.
    stores: Stores,
    planner: Planner,
    /// The version every cache and plan-memo key embeds: `0` for an
    /// in-memory generated store, the manifest generation once a snapshot
    /// is loaded. Any swap changes it, invalidating all cached entries.
    version: u64,
}

impl StoreState {
    fn build(tables: Arc<SsbTables>, version: u64, par: Parallelism) -> StoreState {
        let stores = Stores::new(tables, par);
        let planner = Planner::for_serving(Catalog::build(stores.engine()));
        StoreState { stores, planner, version }
    }

    /// Adopt the newest [`Shape::Store`] generation in `dir` that loads: its
    /// compressed store ([`CStoreDb::adopt`]) and its catalog, with no
    /// decode, sort, encode or statistics pass.
    fn load(dir: &Path, par: Parallelism) -> Result<(StoreState, LoadReport), PersistError> {
        let ((db, catalog), report) = persist::load_latest_store(dir, |parts| {
            let db = CStoreDb::adopt(parts)?;
            Ok((db, Catalog::from_bytes(&parts.bytes(CATALOG_SEGMENT)?)?))
        })?;
        let stores = Stores::adopted(ColumnEngine::adopt(db, par));
        let planner = Planner::for_serving(catalog);
        Ok((StoreState { stores, planner, version: report.generation }, report))
    }

    /// Write the served store as the next [`Shape::Store`] generation of
    /// `dir`: the compressed store's segments ([`CStoreDb::segments`]: its
    /// columns and the order it holds, built or adopted alike, so nothing is
    /// sorted), then the catalog's.
    fn snapshot(&self, dir: &Path) -> Result<SnapshotReport, PersistError> {
        let db = self.stores.engine().db(EngineConfig::FULL);
        let catalog = self.planner.catalog();
        let catalog = std::iter::once_with(|| {
            (CATALOG_SEGMENT.to_string(), persist::encode_bytes_segment(&catalog.to_bytes()))
        });
        persist::write_generation(dir, db.config(), Shape::Store, db.segments().chain(catalog))
    }
}

/// The name of a store-shaped generation's catalog segment.
const CATALOG_SEGMENT: &str = "catalog";

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
    /// Result cache; `None` when the budget is `0`.
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
    /// workers it spawns, isolated from other sessions.
    faults: Mutex<Option<Arc<FaultState>>>,
}

/// The result cache's byte budget for [`Session::new`].
const CACHE_BYTES: usize = 64 << 20;

impl Session {
    /// Build a session over `tables` at the process-default parallelism
    /// ([`Parallelism::from_env`]) with a 64 MiB result cache.
    pub fn new(tables: Arc<SsbTables>) -> Session {
        Session::with_cache_budget(tables, Parallelism::from_env(), CACHE_BYTES)
    }

    /// Build a session with an explicit [`Parallelism`] for the column
    /// engine's morsel pool and an explicit cache byte budget (`0` disables
    /// caching entirely — every query executes cold). Results and I/O
    /// accounting are byte-identical at every thread count.
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
            Some(dir) => match StoreState::load(dir, par) {
                Ok((loaded, report)) => {
                    if report.fallbacks > 0 {
                        cvr_obs::warn(&format!(
                            "data dir {}: newest {} generation(s) corrupt, recovered from generation {}",
                            dir.display(),
                            report.fallbacks,
                            report.generation
                        ));
                    }
                    loaded
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

    /// The tables the session currently serves; a reloaded store decodes
    /// them on the first call.
    pub fn tables(&self) -> Arc<SsbTables> {
        self.store().stores.tables().clone()
    }

    /// Whether the served store holds its logical tables: a generated store
    /// does; a reloaded one only once a cold path decoded them.
    pub fn holds_tables(&self) -> bool {
        self.store().stores.engine().db(EngineConfig::FULL).holds_tables()
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

    /// Write a durable snapshot of the served store — its encoded columns,
    /// order and catalog — as the next manifest generation (see
    /// `cvr_storage::persist` for the commit protocol). The served store is
    /// unchanged — same bytes, same version — so caches stay valid.
    pub fn snapshot(&self) -> Result<SnapshotInfo, QueryError> {
        let Some(dir) = self.data_dir() else {
            return Err(QueryError::Io { detail: "no data directory configured".to_string() });
        };
        let store = self.store();
        let report = store.snapshot(&dir).map_err(persist_error)?;
        Ok(SnapshotInfo {
            generation: report.generation,
            store_version: store.version,
            segments: report.segments as u32,
            bytes: report.bytes,
        })
    }

    /// Reload the newest valid store-shaped snapshot generation from the
    /// data directory and swap it in as the served store: its compressed
    /// store and catalog are adopted as written, nothing is rebuilt. The
    /// store version becomes the loaded generation, so every result-cache
    /// entry and memoized plan keyed against the old store is unreachable;
    /// stores built on first use live in the store, so the new one starts
    /// with none built.
    pub fn reload(&self) -> Result<SnapshotInfo, QueryError> {
        let Some(dir) = self.data_dir() else {
            return Err(QueryError::Io { detail: "no data directory configured".to_string() });
        };
        let (next, report) = StoreState::load(&dir, self.par).map_err(persist_error)?;
        if report.fallbacks > 0 {
            cvr_obs::warn(&format!(
                "reload from {}: newest {} generation(s) corrupt, recovered from generation {}",
                dir.display(),
                report.fallbacks,
                report.generation
            ));
        }
        let next = Arc::new(next);
        // Swap under the lock; free the old store only once it is released.
        let mut guard = self.store.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *guard, next);
        drop(guard);
        drop(old);
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

    /// Arm per-session storage fault injection from a fault spec
    /// (`"io:0.01,stall:0.05:10,seed:42"`); `None` disarms. Every statement
    /// this session runs adopts the state for its duration — including its
    /// morsel workers — so concurrent sessions (and tests) inject faults
    /// independently.
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
                let fact = store.stores.engine().db(cvr_core::EngineConfig::FULL).fact_bytes();
                let pages = pages_for(fact) as f64;
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
        // Invariant: a context holds a tracer once one has been attached.
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
        // Invariant: a context holds a tracer once one has been attached.
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
        // Root span: the plan root's explain op (`column-plan`), so EXPLAIN
        // ANALYZE zips the root by name. A no-op when no tracer is attached.
        let mut root_span = ctx.span(plan.explain.op, &label, &io);
        let opts = ExecOptions {
            par: self.par,
            fact_order: Some(&plan.fact_order),
            ctx: ctx.clone(),
            between_rewriting: true,
        };
        let output = store.stores.run(plan.choice.into(), q, &opts, &io)?;
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
    use cvr_plan::Design;
    use cvr_row::designs::RowDesign;

    /// A reload's store starts with no design built, and a statement that
    /// pinned the old store keeps — and can still build — the old store's.
    #[test]
    fn row_designs_are_dropped_with_the_store_they_were_built_from() {
        let dir = std::env::temp_dir().join(format!("cvr-rowdbs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new(Arc::new(SsbConfig::with_scale(0.0005).generate()));
        session.set_data_dir(Some(dir.clone()));
        let (q, io) = (cvr_data::queries::query(1, 1), IoSession::unmetered());
        let run = |store: &StoreState, design| {
            store.stores.run(Design::Row(design), &q, &ExecOptions::default(), &io).unwrap()
        };
        let old = session.store();
        run(&old, RowDesign::Traditional);
        session.snapshot().unwrap();
        session.reload().unwrap();
        let new = session.store();
        assert!(new.stores.built().is_empty());
        // The in-flight statement on the old store builds from the old
        // tables, into the old store only.
        run(&old, RowDesign::MaterializedViews);
        let built = [RowDesign::Traditional, RowDesign::MaterializedViews].map(Design::Row);
        assert_eq!(old.stores.built(), built);
        assert!(new.stores.built().is_empty());
        run(&new, RowDesign::Traditional);
        assert_eq!(new.stores.built(), built[..1], "built again, from the new tables");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every column of `db` in storage order (dimensions, then the fact
    /// table): its name, segment image, uncompressed size and storage id.
    fn stored_columns(db: &CStoreDb) -> Vec<(String, Vec<u8>, u64, u64)> {
        let dims = cvr_data::schema::Dim::ALL.map(|d| &db.dim(d).store);
        let stores = dims.into_iter().chain([&db.fact]);
        let columns = stores.flat_map(|s| s.columns().iter().map(move |c| (s, c)));
        let image = |(s, c): (&cvr_storage::ColumnStore, &cvr_storage::StoredColumn)| {
            let name = format!("{}.{}", s.table, c.name);
            (name, persist::encode_segment(&c.column), s.plain_bytes(&c.name), c.file_id().0)
        };
        columns.map(image).collect()
    }

    /// A session over `tables` that has snapshotted its built store into a
    /// fresh directory and reloaded it: the built store and the adopted one.
    fn reloaded(tables: &Arc<SsbTables>, tag: &str) -> (Session, Arc<StoreState>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cvr-adopt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::with_cache_budget(tables.clone(), Parallelism::with_threads(2), 0);
        session.set_data_dir(Some(dir.clone()));
        let built = session.store();
        // Per table its columns, sizes and order; three tables' keys; the
        // catalog.
        assert_eq!(session.snapshot().unwrap().segments, 58 + 5 + 5 + 3 + 1);
        session.reload().unwrap();
        (session, built, dir)
    }

    /// SNAPSHOT then RELOAD adopts the built store as it was: every column's
    /// segment image and uncompressed size, storage ids handed out in the
    /// build's order, and the catalog. A `c` plan, which builds the
    /// uncompressed store from the tables the adopted store decodes, answers
    /// as on the built store, outputs and `IoStats`.
    #[test]
    fn a_reloaded_store_is_the_built_store() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 61 }.generate());
        let (session, built, dir) = reloaded(&tables, "store");
        let adopted = session.store();
        let full = |s: &StoreState| stored_columns(s.stores.engine().db(EngineConfig::FULL));
        let (want, got) = (full(&built), full(&adopted));
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!((&w.0, &w.1, w.2), (&g.0, &g.1, g.2), "{}", w.0);
        }
        let ids: Vec<u64> = got.iter().map(|c| c.3).collect();
        assert!(ids.windows(2).all(|w| w[1] > w[0]), "ids in the build's order: {ids:?}");
        assert_eq!(adopted.planner.catalog(), built.planner.catalog());

        let c = Design::Column(EngineConfig::parse("tIcL"));
        for q in cvr_data::queries::all_queries() {
            let run = |s: &StoreState| {
                let io = IoSession::unmetered();
                let out = s.stores.run(c, &q, &ExecOptions::default(), &io).unwrap();
                (out, io.stats())
            };
            assert_eq!(run(&adopted), run(&built), "{}", q.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reloaded store holds no tables until one is asked for; then they
    /// are the generated ones, column by column.
    #[test]
    fn a_reloaded_store_decodes_the_generated_tables_on_demand() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 67 }.generate());
        let (session, _, dir) = reloaded(&tables, "tables");
        assert!(!session.holds_tables(), "a reload decodes no tables");
        let decoded = session.tables();
        assert!(session.holds_tables());
        let pairs =
            [(&decoded.lineorder, &tables.lineorder), (&decoded.customer, &tables.customer)];
        let pairs = pairs.into_iter().chain([
            (&decoded.supplier, &tables.supplier),
            (&decoded.part, &tables.part),
            (&decoded.date, &tables.date),
        ]);
        for (got, want) in pairs {
            for ((def, a), b) in want.schema.columns.iter().zip(&got.columns).zip(&want.columns) {
                assert!(a == b, "{}.{} decodes to other values", want.schema.name, def.name);
            }
        }
        assert_eq!((decoded.config.sf, decoded.config.seed), (0.002, 67));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The serving planner ranks only the six column plan shapes, so a mix
    /// of paper and generated statements plans, and builds, no row design at
    /// any scale, and every answer is still the reference's. At sf 0.00002
    /// and 0.00005 `T(B)` pays for what it holds (`cvr_plan::advisor`), and
    /// is still not ranked.
    #[test]
    fn a_served_mix_plans_only_column_shapes_and_answers_like_the_reference() {
        let shapes: Vec<String> = Design::plan_shapes().iter().map(Design::label).collect();
        for sf in [0.00002, 0.00005, 0.01] {
            let tables = Arc::new(SsbConfig::with_scale(sf).generate());
            let session =
                Session::with_cache_budget(tables.clone(), Parallelism::with_threads(2), 0);
            let mix = cvr_data::queries::all_queries()
                .into_iter()
                .chain(cvr_data::workload::WorkloadConfig::with_count(255).generate());
            for q in mix {
                assert_eq!(session.explain(&q).ranking.len(), 6, "sf {sf}, {}", q.id);
                let response = session.run(&q);
                assert!(shapes.contains(&response.plan), "sf {sf}, {}: {}", q.id, response.plan);
                let reference = cvr_data::reference::evaluate(&tables, &q);
                assert_eq!(response.output, reference, "sf {sf}, {}", q.id);
            }
            assert_eq!(session.store().stores.built(), [], "sf {sf}");
        }
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
