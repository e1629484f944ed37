//! A process-wide query scheduler: admission control plus fair worker
//! sharing for concurrent morsel-parallel queries.
//!
//! Before this module, every query's [`crate::morsel::run_morsels`] fan-out
//! spawned up to `par.threads` workers of its own; N concurrent queries
//! oversubscribed the machine N-fold. The scheduler fixes both halves:
//!
//! * **Admission** — [`Scheduler::admit`] bounds how many queries *execute*
//!   at once (`max(4, workers)` for the process default). Excess queries
//!   wait in FIFO ticket order; an admitted query holds its [`QueryPermit`]
//!   until it finishes (RAII).
//! * **Worker leases** — each `run_morsels` fan-out asks for its desired
//!   worker count and is granted a *fair share* of the machine-wide budget
//!   (the process default's is [`cvr_storage::par::default_threads`]):
//!   `min(requested, max(1, min(budget / active_queries, available)))`.
//!   Leases never block and always grant at least one worker, so a fan-out
//!   can always make progress; the degree of parallelism simply shrinks
//!   when neighbors are running.
//! * **Load shedding** — [`Scheduler::try_admit`] (the deadline-aware form
//!   used by the server) rejects instead of queueing when the queue is at
//!   its bound ([`DEFAULT_QUEUE_MAX`] by default) or when the EWMA
//!   execution-time estimate says the queue wait alone would blow the
//!   query's deadline; queued waiters poll their [`QueryCtx`] and abandon
//!   their ticket on cancellation without stalling the FIFO.
//!
//! Correctness is free: the morsel layer's determinism contract guarantees
//! outputs and [`cvr_storage::io::IoStats`] are byte-identical at *every*
//! worker count, so the scheduler can throttle arbitrarily without changing
//! a single result byte. Components that never install a scheduler (the
//! figure binaries, unit tests) see [`lease`] grant every request in full —
//! exactly the pre-scheduler behavior.

use crate::ctx::{QueryCtx, QueryError};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Admission queue bound when none is configured: generous enough that
/// batch harnesses never shed, small enough to bound memory under abuse.
pub const DEFAULT_QUEUE_MAX: usize = 1024;

/// How often a deadline-carrying waiter re-checks its [`QueryCtx`] while
/// queued (cancellation does not signal the condvar).
const ADMIT_POLL: Duration = Duration::from_millis(10);

/// Mutable scheduler state, guarded by one mutex.
#[derive(Debug, Default)]
struct State {
    /// Queries currently holding a [`QueryPermit`].
    active_queries: usize,
    /// Workers currently granted to live [`WorkerLease`]s.
    leased_workers: usize,
    /// Next admission ticket to hand out.
    next_ticket: u64,
    /// Ticket currently allowed to try admission (FIFO fairness).
    serving: u64,
    /// Waiters currently queued for admission.
    waiting: usize,
    /// Tickets whose waiters gave up (cancelled / deadline); `serving`
    /// skips over them so an abandoned ticket can never stall the FIFO.
    abandoned: BTreeSet<u64>,
}

/// Cumulative counters plus point-in-time gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Queries admitted so far.
    pub admitted: u64,
    /// Admissions that had to wait for a permit.
    pub queued: u64,
    /// Admissions rejected by load shedding (queue full or hopeless
    /// deadline).
    pub shed: u64,
    /// Waiters that abandoned their ticket (cancelled or past deadline
    /// while queued).
    pub abandoned: u64,
    /// Worker leases granted.
    pub leases: u64,
    /// Leases granted fewer workers than they requested.
    pub throttled: u64,
    /// Queries executing right now (gauge).
    pub active: u64,
    /// Waiters queued right now (gauge).
    pub queue_depth: u64,
}

/// Shared query scheduler; see the module docs.
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    admitted_cv: Condvar,
    /// Machine-wide worker budget shared by all fan-outs.
    max_workers: usize,
    /// Maximum concurrently executing queries.
    max_queries: usize,
    /// Maximum admission-queue depth before [`Scheduler::try_admit`] sheds.
    max_queue: usize,
    admitted: AtomicU64,
    queued: AtomicU64,
    shed: AtomicU64,
    abandoned: AtomicU64,
    leases: AtomicU64,
    throttled: AtomicU64,
    /// EWMA of permit hold time in nanoseconds — the execution-time
    /// estimate behind deadline-aware admission.
    exec_ewma_ns: AtomicU64,
}

impl Scheduler {
    /// A scheduler with explicit limits (both clamped to ≥ 1) and the
    /// default queue bound.
    pub fn new(max_workers: usize, max_queries: usize) -> Scheduler {
        Scheduler::with_queue_limit(max_workers, max_queries, DEFAULT_QUEUE_MAX)
    }

    /// A scheduler with an explicit admission-queue bound (≥ 1) on top of
    /// the [`Scheduler::new`] limits.
    pub fn with_queue_limit(max_workers: usize, max_queries: usize, max_queue: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(State::default()),
            admitted_cv: Condvar::new(),
            max_workers: max_workers.max(1),
            max_queries: max_queries.max(1),
            max_queue: max_queue.max(1),
            admitted: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            exec_ewma_ns: AtomicU64::new(0),
        }
    }

    /// The process-default scheduler: a worker budget of
    /// [`cvr_storage::par::default_threads`] (the count that sizes every
    /// other pool in the process) and `max(4, workers)` concurrent queries.
    /// Built once and shared by every [`crate::engine::ColumnEngine`]
    /// consumer that asks for it (the server's `Session` does).
    pub fn process_default() -> Arc<Scheduler> {
        static DEFAULT: OnceLock<Arc<Scheduler>> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                let workers = cvr_storage::par::default_threads();
                Arc::new(Scheduler::new(workers, workers.max(4)))
            })
            .clone()
    }

    /// Block until this query may execute; the returned permit admits it
    /// until dropped. Waiters are served in arrival (ticket) order. This
    /// legacy form never sheds and never gives up.
    pub fn admit(self: &Arc<Scheduler>) -> QueryPermit {
        self.admit_inner(&QueryCtx::unbounded(), false).expect("non-shedding admission cannot fail")
    }

    /// Deadline- and overload-aware admission. Sheds immediately
    /// ([`QueryError::Shed`], retryable) when the queue is at its bound or
    /// when the EWMA execution-time estimate says the queue wait alone would
    /// blow `ctx`'s deadline; while queued, the waiter polls `ctx` and
    /// abandons its ticket (without stalling the FIFO) on cancellation or
    /// deadline expiry.
    pub fn try_admit(self: &Arc<Scheduler>, ctx: &QueryCtx) -> Result<QueryPermit, QueryError> {
        self.admit_inner(ctx, true)
    }

    fn admit_inner(
        self: &Arc<Scheduler>,
        ctx: &QueryCtx,
        sheddable: bool,
    ) -> Result<QueryPermit, QueryError> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if sheddable {
            ctx.check()?;
            if state.waiting >= self.max_queue {
                self.shed.fetch_add(1, Ordering::Relaxed);
                metrics::shed().inc();
                return Err(QueryError::Shed {
                    reason: format!(
                        "admission queue full ({} waiting, max {})",
                        state.waiting, self.max_queue
                    ),
                });
            }
            // Would this query wait at all? Then compare the predicted wait
            // (queue rounds × EWMA execution time) against its deadline and
            // reject hopeless work up front instead of letting it expire in
            // the queue.
            if state.waiting > 0 || state.active_queries >= self.max_queries {
                if let Some(remaining) = ctx.remaining() {
                    let ewma = self.exec_ewma_ns.load(Ordering::Relaxed);
                    let rounds = state.waiting as u64 / self.max_queries as u64 + 1;
                    let predicted = Duration::from_nanos(ewma.saturating_mul(rounds));
                    if ewma > 0 && predicted > remaining {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        metrics::shed().inc();
                        return Err(QueryError::Shed {
                            reason: format!(
                                "predicted queue wait {predicted:?} exceeds deadline budget \
                                 {remaining:?}"
                            ),
                        });
                    }
                }
            }
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let enqueued = Instant::now();
        let mut waited = false;
        while state.serving != ticket || state.active_queries >= self.max_queries {
            if !waited {
                waited = true;
                state.waiting += 1;
            }
            if sheddable {
                if let Err(e) = ctx.check() {
                    // Abandon the ticket: if it is being served, pass the
                    // baton; otherwise leave a tombstone for `serving` to
                    // skip. Either way the FIFO keeps moving.
                    state.waiting -= 1;
                    if state.serving == ticket {
                        state.serving += 1;
                        Self::skip_abandoned(&mut state);
                    } else {
                        state.abandoned.insert(ticket);
                    }
                    drop(state);
                    self.admitted_cv.notify_all();
                    self.abandoned.fetch_add(1, Ordering::Relaxed);
                    metrics::abandoned().inc();
                    return Err(e);
                }
            }
            state = if sheddable {
                let timeout = ctx.remaining().map_or(ADMIT_POLL, |r| r.min(ADMIT_POLL));
                self.admitted_cv
                    .wait_timeout(state, timeout)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
            } else {
                self.admitted_cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner)
            };
        }
        if waited {
            state.waiting -= 1;
        }
        state.serving += 1;
        Self::skip_abandoned(&mut state);
        state.active_queries += 1;
        drop(state);
        // Wake the next ticket (it may be admissible immediately).
        self.admitted_cv.notify_all();
        self.admitted.fetch_add(1, Ordering::Relaxed);
        metrics::admitted().inc();
        if waited {
            self.queued.fetch_add(1, Ordering::Relaxed);
            metrics::queued().inc();
        }
        // Queue wait of every admission (0 for immediate grants), so the
        // histogram's count matches admissions and p50 stays honest.
        metrics::queue_wait().observe(enqueued.elapsed().as_micros() as u64);
        Ok(QueryPermit { sched: self.clone(), started: Instant::now() })
    }

    /// Advance `serving` past tickets whose waiters gave up.
    fn skip_abandoned(state: &mut State) {
        while state.abandoned.remove(&state.serving) {
            state.serving += 1;
        }
    }

    /// Grant a worker lease for one fan-out: never blocks, always grants at
    /// least 1, and at most `requested`.
    fn grant(self: &Arc<Scheduler>, requested: usize) -> WorkerLease {
        let requested = requested.max(1);
        let granted = {
            let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let fair = self.max_workers / state.active_queries.max(1);
            let available = self.max_workers.saturating_sub(state.leased_workers);
            let granted = requested.min(fair.min(available).max(1));
            state.leased_workers += granted;
            granted
        };
        self.leases.fetch_add(1, Ordering::Relaxed);
        metrics::leases().inc();
        if granted < requested {
            self.throttled.fetch_add(1, Ordering::Relaxed);
            metrics::throttled().inc();
        }
        WorkerLease { sched: Some(self.clone()), granted }
    }

    /// Counter snapshot plus current gauges (takes the state lock briefly).
    pub fn stats(&self) -> SchedStats {
        let (active, queue_depth) = {
            let state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            (state.active_queries as u64, state.waiting as u64)
        };
        SchedStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            leases: self.leases.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            active,
            queue_depth,
        }
    }
}

/// RAII admission permit; dropping it releases the slot.
#[derive(Debug)]
pub struct QueryPermit {
    sched: Arc<Scheduler>,
    /// When the permit was granted; feeds the execution-time EWMA on drop.
    started: Instant,
}

impl Drop for QueryPermit {
    fn drop(&mut self) {
        // Fold this query's hold time into the EWMA (α = 1/4) used by
        // deadline-aware admission. Racy read-modify-write is fine: the
        // estimate only has to be roughly right.
        let exec_ns = self.started.elapsed().as_nanos() as u64;
        let prev = self.sched.exec_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 { exec_ns } else { prev - prev / 4 + exec_ns / 4 };
        self.sched.exec_ewma_ns.store(next, Ordering::Relaxed);
        let mut state = self.sched.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.active_queries = state.active_queries.saturating_sub(1);
        drop(state);
        self.sched.admitted_cv.notify_all();
    }
}

/// RAII worker lease; dropping it returns the workers to the budget.
#[derive(Debug)]
pub struct WorkerLease {
    sched: Option<Arc<Scheduler>>,
    granted: usize,
}

impl WorkerLease {
    /// Workers this fan-out may use (≥ 1).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        if let Some(sched) = &self.sched {
            let mut state = sched.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            state.leased_workers = state.leased_workers.saturating_sub(self.granted);
        }
    }
}

/// Process-registry mirrors of the scheduler counters. Handles are cached
/// after the first touch; every `Scheduler` instance feeds the same series
/// (the registry is process-wide, like the metrics it backs).
mod metrics {
    use std::sync::{Arc, OnceLock};

    macro_rules! cached {
        ($fn_name:ident, $kind:ident, $ty:ty, $name:literal, $help:literal) => {
            pub(super) fn $fn_name() -> &'static Arc<$ty> {
                static H: OnceLock<Arc<$ty>> = OnceLock::new();
                H.get_or_init(|| cvr_obs::$kind($name, $help))
            }
        };
    }

    cached!(admitted, counter, cvr_obs::Counter, "cvr_sched_admitted_total", "Queries admitted");
    cached!(queued, counter, cvr_obs::Counter, "cvr_sched_queued_total", "Admissions that waited");
    cached!(
        shed,
        counter,
        cvr_obs::Counter,
        "cvr_sched_shed_total",
        "Admissions rejected by load shedding"
    );
    cached!(
        abandoned,
        counter,
        cvr_obs::Counter,
        "cvr_sched_abandoned_total",
        "Waiters that abandoned their admission ticket"
    );
    cached!(leases, counter, cvr_obs::Counter, "cvr_sched_leases_total", "Worker leases granted");
    cached!(
        throttled,
        counter,
        cvr_obs::Counter,
        "cvr_sched_throttled_total",
        "Leases granted fewer workers than requested"
    );
    cached!(
        queue_wait,
        latency,
        cvr_obs::Histogram,
        "cvr_sched_queue_wait_us",
        "Admission queue wait per admitted query"
    );
}

/// The installed process-wide scheduler consulted by
/// [`crate::morsel::run_morsels`]; `None` (the default) means every lease
/// is granted in full.
static INSTALLED: RwLock<Option<Arc<Scheduler>>> = RwLock::new(None);

/// Install `sched` as the process-wide scheduler. Idempotent for the same
/// instance; a later install replaces an earlier one (last wins).
pub fn install(sched: Arc<Scheduler>) {
    let mut slot = INSTALLED.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(sched);
}

/// Lease up to `requested` workers from the installed scheduler; grants
/// `requested` in full when none is installed.
pub fn lease(requested: usize) -> WorkerLease {
    let slot = INSTALLED.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    match slot.as_ref() {
        Some(sched) => sched.grant(requested),
        None => WorkerLease { sched: None, granted: requested.max(1) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn uninstalled_leases_grant_in_full() {
        // This test must not install anything (global state is shared
        // across the test binary): the default path grants everything.
        let l = match INSTALLED.read().unwrap().as_ref() {
            None => lease(7),
            // Another test installed a scheduler first; exercise the
            // fallback constructor directly instead.
            Some(_) => WorkerLease { sched: None, granted: 7 },
        };
        assert_eq!(l.granted(), 7);
    }

    #[test]
    fn admission_bounds_concurrent_queries() {
        let sched = Arc::new(Scheduler::new(8, 2));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let (sched, peak, live) = (sched.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    let _permit = sched.admit();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission must cap concurrency at 2");
        let stats = sched.stats();
        assert_eq!(stats.admitted, 6);
        assert!(stats.queued >= 4, "at least four admissions must have waited");
    }

    #[test]
    fn leases_split_the_budget_fairly() {
        let sched = Arc::new(Scheduler::new(8, 8));
        let _p1 = sched.admit();
        let _p2 = sched.admit();
        // Two active queries over an 8-worker budget: fair share is 4.
        let l1 = sched.grant(8);
        assert_eq!(l1.granted(), 4);
        let l2 = sched.grant(8);
        assert_eq!(l2.granted(), 4);
        // Budget exhausted, but a lease still gets its minimum worker.
        let l3 = sched.grant(8);
        assert_eq!(l3.granted(), 1);
        drop((l1, l2, l3));
        // All returned: a lone query gets whatever it asks for (≤ budget).
        let _p3 = sched.admit();
        // fair = 8 / 3 = 2 with three active queries.
        assert_eq!(sched.grant(8).granted(), 2);
        assert!(sched.stats().throttled >= 3);
    }

    /// Spin until `cond` holds (bounded; panics on timeout).
    fn wait_for(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn full_queues_shed_instead_of_waiting() {
        let sched = Arc::new(Scheduler::with_queue_limit(4, 1, 1));
        let hold = sched.admit();
        let queued = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.try_admit(&QueryCtx::unbounded()))
        };
        wait_for(|| sched.stats().queue_depth == 1);
        // The queue is at its bound: the next sheddable admission is
        // rejected immediately with a retryable error.
        let err = sched.try_admit(&QueryCtx::unbounded()).unwrap_err();
        assert!(matches!(err, QueryError::Shed { .. }), "{err}");
        assert!(err.retryable());
        drop(hold);
        queued.join().unwrap().expect("the queued waiter must still be admitted");
        assert_eq!(sched.stats().shed, 1);
    }

    #[test]
    fn cancelled_waiters_abandon_their_ticket_without_stalling_the_fifo() {
        let sched = Arc::new(Scheduler::with_queue_limit(4, 1, 16));
        let hold = sched.admit();
        let doomed_ctx = QueryCtx::unbounded();
        let doomed = {
            let (sched, ctx) = (sched.clone(), doomed_ctx.clone());
            std::thread::spawn(move || sched.try_admit(&ctx))
        };
        wait_for(|| sched.stats().queue_depth >= 1);
        // A second waiter queued *behind* the ticket that will abandon.
        let live = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.try_admit(&QueryCtx::unbounded()))
        };
        wait_for(|| sched.stats().queue_depth >= 2);
        doomed_ctx.cancel();
        assert_eq!(doomed.join().unwrap().map(drop).unwrap_err(), QueryError::Cancelled);
        drop(hold);
        // FIFO must skip the abandoned ticket and admit the live waiter.
        live.join().unwrap().expect("abandoned tickets must not stall later waiters");
        assert_eq!(sched.stats().abandoned, 1);
        assert_eq!(sched.stats().queue_depth, 0);
    }

    #[test]
    fn hopeless_deadlines_are_shed_at_admission() {
        let sched = Arc::new(Scheduler::with_queue_limit(4, 1, 16));
        // Teach the EWMA that queries take ~30 ms.
        let p = sched.admit();
        std::thread::sleep(Duration::from_millis(30));
        drop(p);
        // With the single slot busy, a 5 ms deadline cannot survive a
        // predicted ~30 ms queue wait: shed up front.
        let _hold = sched.admit();
        let ctx = QueryCtx::with_limits(Some(Duration::from_millis(5)), None);
        let err = sched.try_admit(&ctx).unwrap_err();
        assert!(matches!(err, QueryError::Shed { .. }), "{err}");
    }

    #[test]
    fn permits_release_on_drop() {
        let sched = Arc::new(Scheduler::new(4, 1));
        for _ in 0..3 {
            let p = sched.admit();
            drop(p);
        }
        assert_eq!(sched.stats().admitted, 3);
        assert_eq!(sched.state.lock().unwrap().active_queries, 0);
    }
}
