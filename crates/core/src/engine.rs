//! The column engine facade: one entry point over every plan shape.

use crate::config::EngineConfig;
use crate::ctx::{catch_injected, QueryCtx, QueryError};
use crate::morsel::Parallelism;
use crate::projection::CStoreDb;
use crate::{em, invisible, lmjoin};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_storage::io::IoSession;
use std::sync::{Arc, OnceLock};

/// How one execution runs: everything a caller can vary besides the query
/// and its [`EngineConfig`]. None of it changes a byte of the output or of
/// the I/O accounting.
#[derive(Debug, Clone)]
pub struct ExecOptions<'a> {
    /// Worker threads and morsel size. Default: [`Parallelism::from_env`].
    pub par: Parallelism,
    /// A planner-chosen fact-predicate evaluation order (see
    /// `SsbQuery::with_fact_order`); `None` keeps the query's own. Executing
    /// with an order is exactly executing the permuted query.
    pub fact_order: Option<&'a [usize]>,
    /// The query's lifecycle: plan shapes check it at phase and morsel
    /// boundaries and abort with a typed [`QueryError`] on cancellation,
    /// deadline expiry or a blown memory budget; its tracer, when attached,
    /// receives the span tree. Default: [`QueryCtx::unbounded`].
    pub ctx: QueryCtx,
    /// Attempt between-predicate rewriting in the invisible join (default).
    /// False isolates the optimization for the Section 6.3.2 ablation; see
    /// [`crate::invisible::phase1_key_pred`].
    pub between_rewriting: bool,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            par: Parallelism::from_env(),
            fact_order: None,
            ctx: QueryCtx::unbounded(),
            between_rewriting: true,
        }
    }
}

/// A built column engine over both compression variants of the storage,
/// dispatching each query to the plan shape its [`EngineConfig`] selects:
///
/// * `L` + `I` → the [`invisible`] join;
/// * `L` + `i` → the classic [`lmjoin`] (late-materialized hash join);
/// * `l` → [`em`] (tuples constructed at the scan, row-style execution).
///
/// Each shape has exactly one body, a morsel pipeline; the thread count
/// sizes the worker pool and never selects code, so results and I/O
/// accounting are byte-identical at every thread count.
///
/// The compressed store is built with the engine. The uncompressed one —
/// the Figure 7 `c` configurations — is built by the first execution that
/// asks for it: serving traffic and the planner's statistics never do.
pub struct ColumnEngine {
    compressed: CStoreDb,
    plain: OnceLock<CStoreDb>,
    /// What the stores are built with (not what queries run at: that is
    /// [`ExecOptions::par`]).
    par: Parallelism,
}

impl ColumnEngine {
    /// Build the engine over `tables` at the process-default parallelism
    /// ([`Parallelism::from_env`]).
    pub fn new(tables: Arc<SsbTables>) -> ColumnEngine {
        ColumnEngine::with_parallelism(tables, Parallelism::from_env())
    }

    /// Build the engine over `tables`, its stores on up to `par.threads`
    /// workers.
    pub fn with_parallelism(tables: Arc<SsbTables>, par: Parallelism) -> ColumnEngine {
        ColumnEngine::adopt(CStoreDb::build_with(tables, true, par), par)
    }

    /// The engine over an adopted compressed store ([`CStoreDb::adopt`]);
    /// later stores are built on up to `par.threads` workers.
    pub fn adopt(compressed: CStoreDb, par: Parallelism) -> ColumnEngine {
        plain_built_gauge().set(0);
        ColumnEngine { compressed, plain: OnceLock::new(), par }
    }

    /// The storage serving `config`, building the uncompressed store on its
    /// first use (concurrent first users wait for the one build) in the
    /// order the compressed store holds, so nothing is sorted.
    pub fn db(&self, config: EngineConfig) -> &CStoreDb {
        if config.compression {
            return &self.compressed;
        }
        self.plain.get_or_init(|| {
            let db = self.compressed.uncompressed(self.par);
            plain_built_gauge().set(1);
            db
        })
    }

    /// What the stores were built with, for builds over them that belong
    /// to the same set-up (the planner's catalog).
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Whether the uncompressed store has been built yet.
    pub fn plain_built(&self) -> bool {
        self.plain.get().is_some()
    }

    /// Execute `q` under `config` as `opts` says. Lifecycle aborts and
    /// injected storage faults ([`QueryError::Io`]) surface as typed errors.
    pub fn run(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        opts: &ExecOptions<'_>,
        io: &IoSession,
    ) -> Result<QueryOutput, QueryError> {
        let db = self.db(config);
        let permuted = opts.fact_order.map(|order| q.with_fact_order(order));
        let q = permuted.as_ref().unwrap_or(q);
        catch_injected(|| {
            if !config.late_materialization {
                em::execute(db, q, config, opts, io)
            } else if config.invisible_join {
                invisible::execute(db, q, config, opts, io)
            } else {
                lmjoin::execute(db, q, config, opts, io)
            }
        })?
    }

    /// [`ColumnEngine::run`] at `par`, panicking on an (injected) failure.
    /// Kept for `benchmark/src/layers.rs` until ROADMAP item 2b deletes it.
    pub fn execute_with(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        par: Parallelism,
        io: &IoSession,
    ) -> QueryOutput {
        self.run(q, config, &ExecOptions { par, ..ExecOptions::default() }, io)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }
}

/// `cvr_store_plain_built`: 1 once the newest engine's uncompressed store
/// exists.
fn plain_built_gauge() -> Arc<cvr_obs::Gauge> {
    cvr_obs::gauge(
        "cvr_store_plain_built",
        "Whether the uncompressed column store has been built (0/1)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::all_queries;

    #[test]
    fn thread_counts_are_byte_identical() {
        let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 53 }.generate());
        let engine = ColumnEngine::new(tables);
        // Small morsels so even this tiny scale factor fans out.
        let par = |threads| Parallelism { threads, morsel_rows: 512 };
        for q in all_queries() {
            for cfg in
                [EngineConfig::FULL, EngineConfig::parse("tiCL"), EngineConfig::parse("tICl")]
            {
                let serial_io = IoSession::unmetered();
                let expected = engine.execute_with(&q, cfg, par(1), &serial_io);
                for threads in [2, 4] {
                    let io = IoSession::unmetered();
                    let got = engine.execute_with(&q, cfg, par(threads), &io);
                    assert_eq!(got, expected, "{} threads on {} ({})", threads, q.id, cfg.code());
                    let (a, b) = (serial_io.stats(), io.stats());
                    assert_eq!(a.bytes_read, b.bytes_read, "{} bytes ({})", q.id, cfg.code());
                    assert_eq!(a.pages_read, b.pages_read, "{} pages ({})", q.id, cfg.code());
                    assert_eq!(a.seeks, b.seeks, "{} seeks ({})", q.id, cfg.code());
                }
            }
        }
    }

    #[test]
    fn compressed_storage_is_smaller() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 59 }.generate());
        let engine = ColumnEngine::new(tables);
        assert!(
            engine.db(EngineConfig::FULL).fact_bytes()
                < engine.db(EngineConfig::parse("tIcL")).fact_bytes()
        );
    }
}
