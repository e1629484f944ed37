//! Query lifecycle control: cooperative cancellation, deadlines, and memory
//! budgets, plus the typed error every abort path funnels into.
//!
//! A [`QueryCtx`] is a cheaply clonable handle threaded from the session
//! (or the server's CANCEL registry) down through the scheduler and every
//! pipeline. Workers poll it at **morsel boundaries**, the one place a
//! column plan aborts — [`QueryCtx::check`] is an atomic load plus, when a
//! deadline is set, one clock read — and abort by returning a [`QueryError`]
//! instead of partial results. A morsel is at most
//! [`DEFAULT_MORSEL_ROWS`](crate::morsel::DEFAULT_MORSEL_ROWS) rows, which
//! bounds the work between two polls.
//!
//! Memory accounting is deliberately approximate: pipelines charge their
//! *materialized intermediates* (position lists, decoded columns, gathered
//! group/measure arrays) at phase boundaries via [`QueryCtx::charge`], not
//! every allocation. The budget bounds the dominant terms; it is an
//! overload-protection rail, not an allocator.
//!
//! [`QueryError`] is the single abort vocabulary across the stack. Wire
//! codes live in the 100+ range (parse errors use 1–5, contained panics 99)
//! so a client can classify without string matching; [`QueryError::retryable`]
//! marks the transient subset (shed, injected/transient I/O) a client may
//! retry with backoff.

use crate::trace::{Span, Tracer};
use cvr_storage::io::IoSession;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Typed reason a query aborted before producing rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The client (or server shutdown) cancelled the query.
    Cancelled,
    /// The query's deadline expired (in the queue or mid-execution).
    DeadlineExceeded {
        /// Time spent before the deadline fired.
        elapsed_ms: u64,
    },
    /// A memory charge would exceed the query's byte budget.
    MemoryBudgetExceeded {
        /// Bytes accounted when the budget tripped.
        used: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The scheduler refused admission under overload; retryable.
    Shed {
        /// Human-readable admission verdict.
        reason: String,
    },
    /// A storage I/O failure (in this simulated stack: an injected page-read
    /// fault); retryable.
    Io {
        /// Description of the failed operation.
        detail: String,
    },
    /// On-disk snapshot data failed checksum or codec validation; not
    /// retryable — the bytes will not get better. Corrupt data is never
    /// partially decoded.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// The encoded answer exceeds the wire's frame limit; not retryable —
    /// the same statement encodes to the same size. The statement executed;
    /// only shipping the result was refused.
    ResultTooLarge {
        /// Bytes the answer encodes to.
        bytes: usize,
        /// The frame limit in force.
        limit: usize,
    },
}

impl QueryError {
    /// Wire code for [`QueryError::Cancelled`].
    pub const CODE_CANCELLED: u16 = 100;
    /// Wire code for [`QueryError::DeadlineExceeded`].
    pub const CODE_DEADLINE: u16 = 101;
    /// Wire code for [`QueryError::MemoryBudgetExceeded`].
    pub const CODE_MEMORY: u16 = 102;
    /// Wire code for [`QueryError::Shed`].
    pub const CODE_SHED: u16 = 103;
    /// Wire code for [`QueryError::Io`].
    pub const CODE_IO: u16 = 104;
    /// Wire code for [`QueryError::Corrupt`].
    pub const CODE_CORRUPT: u16 = 105;
    /// Wire code for [`QueryError::ResultTooLarge`].
    pub const CODE_RESULT_TOO_LARGE: u16 = 106;

    /// The stable wire code carried in an ERROR frame.
    pub fn code(&self) -> u16 {
        match self {
            QueryError::Cancelled => Self::CODE_CANCELLED,
            QueryError::DeadlineExceeded { .. } => Self::CODE_DEADLINE,
            QueryError::MemoryBudgetExceeded { .. } => Self::CODE_MEMORY,
            QueryError::Shed { .. } => Self::CODE_SHED,
            QueryError::Io { .. } => Self::CODE_IO,
            QueryError::Corrupt { .. } => Self::CODE_CORRUPT,
            QueryError::ResultTooLarge { .. } => Self::CODE_RESULT_TOO_LARGE,
        }
    }

    /// Whether a client may transparently retry (with backoff).
    pub fn retryable(&self) -> bool {
        matches!(self, QueryError::Shed { .. } | QueryError::Io { .. })
    }

    /// Code-level retryability, for clients that only see the wire.
    pub fn retryable_code(code: u16) -> bool {
        code == Self::CODE_SHED || code == Self::CODE_IO
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::DeadlineExceeded { elapsed_ms } => {
                write!(f, "deadline exceeded after {elapsed_ms} ms")
            }
            QueryError::MemoryBudgetExceeded { used, budget } => {
                write!(f, "memory budget exceeded: ~{used} bytes charged, budget {budget}")
            }
            QueryError::Shed { reason } => write!(f, "query shed: {reason}"),
            QueryError::Io { detail } => write!(f, "I/O error: {detail}"),
            QueryError::Corrupt { detail } => write!(f, "corrupt store: {detail}"),
            QueryError::ResultTooLarge { bytes, limit } => {
                write!(f, "result of {bytes} bytes exceeds the {limit}-byte frame limit")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[derive(Debug)]
struct CtxInner {
    cancelled: AtomicBool,
    start: Instant,
    deadline: Option<Instant>,
    mem_used: AtomicUsize,
    mem_budget: usize,
    /// Execution tracer, when this query is being observed. Set at most
    /// once, before execution; the disabled path costs one `OnceLock` load.
    tracer: OnceLock<Arc<Tracer>>,
}

/// Shared per-query control block; see the module docs. Clones share state.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    inner: Arc<CtxInner>,
}

impl Default for QueryCtx {
    fn default() -> QueryCtx {
        QueryCtx::unbounded()
    }
}

impl QueryCtx {
    /// A context that never cancels, never expires, and never trips the
    /// memory budget — the infallible legacy paths run under this.
    pub fn unbounded() -> QueryCtx {
        QueryCtx::with_limits(None, None)
    }

    /// A context with an optional deadline (from now) and an optional
    /// memory budget in bytes.
    pub fn with_limits(deadline: Option<Duration>, mem_budget: Option<usize>) -> QueryCtx {
        let start = Instant::now();
        QueryCtx {
            inner: Arc::new(CtxInner {
                cancelled: AtomicBool::new(false),
                start,
                deadline: deadline.map(|d| start + d),
                mem_used: AtomicUsize::new(0),
                mem_budget: mem_budget.unwrap_or(usize::MAX),
                tracer: OnceLock::new(),
            }),
        }
    }

    /// Attach an execution tracer; engines will open spans on it. At most
    /// one tracer per context — later attaches are ignored.
    pub fn attach_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.inner.tracer.set(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer.get()
    }

    /// Whether a tracer is attached (engines use this to skip building
    /// span detail strings).
    pub fn traced(&self) -> bool {
        self.inner.tracer.get().is_some()
    }

    /// Open a span over `io`, measuring wall time and the session's
    /// [`IoStats`](cvr_storage::io::IoStats) delta until the guard drops.
    /// Returns a free no-op guard when no tracer is attached.
    pub fn span<'a>(&self, op: &str, detail: &str, io: &'a IoSession) -> Span<'a> {
        match self.inner.tracer.get() {
            Some(tracer) => Span::active(tracer.clone(), op, detail, io),
            None => Span::disabled(),
        }
    }

    /// Request cooperative cancellation; workers observe it at the next
    /// morsel boundary. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Time remaining until the deadline; `None` when no deadline is set.
    /// Returns `Duration::ZERO` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The morsel-boundary poll: `Err` once cancelled or past deadline.
    pub fn check(&self) -> Result<(), QueryError> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(QueryError::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(QueryError::DeadlineExceeded {
                    elapsed_ms: self.inner.start.elapsed().as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Account `bytes` of materialized intermediate state against the
    /// budget; `Err` when the running total exceeds it.
    pub fn charge(&self, bytes: usize) -> Result<(), QueryError> {
        let used = self.inner.mem_used.fetch_add(bytes, Ordering::Relaxed).saturating_add(bytes);
        if used > self.inner.mem_budget {
            return Err(QueryError::MemoryBudgetExceeded { used, budget: self.inner.mem_budget });
        }
        Ok(())
    }

    /// Bytes charged so far.
    pub fn mem_used(&self) -> usize {
        self.inner.mem_used.load(Ordering::Relaxed)
    }
}

/// Run `f`, containing panics that are really transported [`QueryError`]s
/// (see [`typed_panic`]). Any other panic is a real bug and resumes
/// unwinding.
pub fn catch_injected<R>(f: impl FnOnce() -> R) -> Result<R, QueryError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| typed_panic(payload).unwrap_or_else(|p| std::panic::resume_unwind(p)))
}

/// The one classifier of panic payloads: an
/// [`InjectedFault`](cvr_storage::fault::InjectedFault) (raised at the
/// storage choke point, below any `Result` plumbing) becomes
/// [`QueryError::Io`], and a `QueryError` (raised by an infallible wrapper)
/// stays itself. Anything else is a foreign panic, handed back untouched.
pub fn typed_panic(
    payload: Box<dyn std::any::Any + Send>,
) -> Result<QueryError, Box<dyn std::any::Any + Send>> {
    match payload.downcast::<cvr_storage::fault::InjectedFault>() {
        Ok(fault) => Ok(QueryError::Io { detail: fault.0 }),
        Err(payload) => payload.downcast::<QueryError>().map(|e| *e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_observes_cancellation_and_deadlines() {
        let ctx = QueryCtx::unbounded();
        assert!(ctx.check().is_ok());
        ctx.cancel();
        assert_eq!(ctx.check(), Err(QueryError::Cancelled));

        let ctx = QueryCtx::with_limits(Some(Duration::ZERO), None);
        assert!(matches!(ctx.check(), Err(QueryError::DeadlineExceeded { .. })));
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn charges_accumulate_and_trip_the_budget() {
        let ctx = QueryCtx::with_limits(None, Some(100));
        assert!(ctx.charge(60).is_ok());
        assert!(ctx.charge(40).is_ok());
        assert_eq!(ctx.mem_used(), 100);
        let err = ctx.charge(1).unwrap_err();
        assert!(matches!(err, QueryError::MemoryBudgetExceeded { used: 101, budget: 100 }));
        assert_eq!(err.code(), QueryError::CODE_MEMORY);
    }

    #[test]
    fn clones_share_one_control_block() {
        let ctx = QueryCtx::unbounded();
        let peer = ctx.clone();
        peer.cancel();
        assert!(ctx.is_cancelled());
    }

    #[test]
    fn injected_faults_become_io_errors_and_real_panics_resume() {
        let got = catch_injected(|| {
            std::panic::panic_any(cvr_storage::fault::InjectedFault("page 7".into()))
        });
        assert_eq!(got, Err(QueryError::Io { detail: "page 7".into() }));

        let got = catch_injected(|| std::panic::panic_any(QueryError::Cancelled));
        assert_eq!(got, Err(QueryError::Cancelled));

        let real = std::panic::catch_unwind(|| {
            let _ = catch_injected(|| panic!("genuine bug"));
        });
        assert!(real.is_err(), "foreign panics must resume unwinding");
    }

    #[test]
    fn typed_panic_classifies_the_three_payload_kinds() {
        let fault = Box::new(cvr_storage::fault::InjectedFault("page 7".into()));
        assert_eq!(typed_panic(fault).ok(), Some(QueryError::Io { detail: "page 7".into() }));
        assert_eq!(typed_panic(Box::new(QueryError::Cancelled)).ok(), Some(QueryError::Cancelled));
        let foreign = typed_panic(Box::new("genuine bug")).expect_err("a foreign panic");
        assert_eq!(foreign.downcast_ref::<&str>(), Some(&"genuine bug"));
    }

    #[test]
    fn wire_codes_and_retryability_are_stable() {
        assert_eq!(QueryError::Cancelled.code(), 100);
        assert_eq!(QueryError::DeadlineExceeded { elapsed_ms: 1 }.code(), 101);
        assert_eq!(QueryError::Shed { reason: "q".into() }.code(), 103);
        assert_eq!(QueryError::Io { detail: "x".into() }.code(), 104);
        assert_eq!(QueryError::Corrupt { detail: "c".into() }.code(), 105);
        let too_large = QueryError::ResultTooLarge { bytes: 9, limit: 8 };
        assert_eq!(too_large.code(), 106);
        assert!(!too_large.retryable() && !QueryError::retryable_code(106));
        assert!(QueryError::Shed { reason: "q".into() }.retryable());
        assert!(QueryError::retryable_code(104));
        assert!(!QueryError::retryable_code(100));
        assert!(!QueryError::retryable_code(105));
        assert!(!QueryError::Cancelled.retryable());
        assert!(!QueryError::Corrupt { detail: "c".into() }.retryable());
    }
}
