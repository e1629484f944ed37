//! Morsel-driven execution: the one way the column engine runs a query.
//!
//! The LINEORDER position space is split into fixed-size **morsels**
//! (contiguous position ranges, after Leis et al.'s morsel-driven model).
//! Workers claim morsels from a shared atomic counter (self-balancing: fast
//! workers steal the remaining morsels), run the whole per-morsel pipeline —
//! predicate scans, join probes, positional extraction, partial aggregation
//! — and hand their results back tagged with the morsel index. The
//! coordinator merges everything **in morsel order**, which is what makes
//! execution deterministic:
//!
//! * partial aggregates merge in a fixed order (and are order-insensitive
//!   sums anyway), so [`cvr_data::result::QueryOutput`]s are byte-identical
//!   at every thread count;
//! * per-morsel [`cvr_storage::io::IoLog`]s replay against the shared
//!   [`cvr_storage::io::BufferPool`] in morsel order, so the merged
//!   [`cvr_storage::io::IoStats`] are the same bytes, pages and seeks
//!   regardless of which worker ran which morsel when.
//!
//! The thread count never selects code: one worker runs the same morsels
//! inline on the calling thread ([`try_run_morsels`] spawns only when it is
//! granted more than one). It comes from [`Parallelism`]: the `--threads`
//! harness flag, the `CVR_THREADS` environment variable, or (default) the
//! machine's available parallelism. [`run_fused`] is the shared driver of
//! the late-materialized plan shapes: fan-out, merge, I/O replay and
//! per-operator tracing in one place.

use crate::agg::{AggPartial, AggStrategy};
use crate::ctx::{QueryCtx, QueryError};
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_storage::io::{IoLog, IoSession, IoStats};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Default morsel size in fact-table positions. Large enough that per-morsel
/// bookkeeping is noise, small enough that a 4-thread run of even a small
/// scale factor gets balanced work; [`grid`] shrinks it further when the
/// input is small.
pub const DEFAULT_MORSEL_ROWS: u32 = 16_384;

/// Smallest morsel [`grid`] will auto-shrink to.
const MIN_MORSEL_ROWS: u32 = 256;

/// Hard ceiling on morsel size in rows (1 Mi positions, a whole number of
/// mask words). Bounds the worst case work between morsel-boundary
/// cancellation polls; the scan drivers add intra-morsel polls every
/// [`crate::scan::SCAN_POLL_ROWS`] rows on top.
pub const DEFAULT_MORSEL_MAX: u32 = 1 << 20;

/// Degree of parallelism for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (including the coordinator, which also claims
    /// morsels). `1` runs every morsel inline on the calling thread — the
    /// same pipeline, no spawn.
    pub threads: usize,
    /// Morsel size in positions (upper bound; shrunk for small inputs).
    pub morsel_rows: u32,
}

impl Parallelism {
    /// One worker: every morsel runs inline on the calling thread.
    pub fn serial() -> Parallelism {
        Parallelism::with_threads(1)
    }

    /// Execution with `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Parallelism {
        Parallelism { threads: threads.max(1), morsel_rows: DEFAULT_MORSEL_ROWS }
    }

    /// The process default: `CVR_THREADS` when set (and ≥ 1), otherwise the
    /// machine's available parallelism, at [`DEFAULT_MORSEL_ROWS`].
    pub fn from_env() -> Parallelism {
        Parallelism::with_threads(cvr_storage::par::default_threads())
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// How a morsel fan-out aborted: a typed error (first one wins) or a foreign
/// panic to re-raise once every worker has stopped.
enum Abort {
    Error(QueryError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Run `task` over every morsel of `[0, n)` on up to `par.threads` workers;
/// returns the per-morsel results **in morsel order**.
///
/// `task(index, range)` must be safe to call concurrently (it receives
/// disjoint ranges). Workers claim morsels from a shared counter, so the
/// assignment of morsels to threads is scheduling-dependent — which is why
/// callers must only rely on the returned order, never on worker identity.
///
/// Between morsels every worker polls `ctx` ([`QueryCtx::check`]) and a
/// shared abort flag, so cancellation/deadline/budget failures — and any
/// `Err` returned by `task` — stop the whole fan-out at the next morsel
/// boundary. Worker panics are contained per-morsel: an
/// [`cvr_storage::fault::InjectedFault`] payload becomes
/// [`QueryError::Io`], anything else is re-raised on the coordinator after
/// all workers have parked (so a crashing worker can never leak a detached
/// thread or deadlock the scope join).
pub fn try_run_morsels<T: Send>(
    n: u32,
    par: Parallelism,
    ctx: &QueryCtx,
    task: impl Fn(usize, Range<u32>) -> Result<T, QueryError> + Sync,
) -> Result<Vec<T>, QueryError> {
    let (morsel, count) = grid(n, par);
    let range_of = |i: usize| {
        let start = i as u32 * morsel;
        start..((i as u32).saturating_add(1) * morsel).min(n)
    };

    // Ask the shared scheduler (when one is installed — the server installs
    // the process default) for a fair share of the machine's workers. The
    // lease is held for the duration of the fan-out. Worker count never
    // affects results or accounting — morsel-order merging guarantees
    // byte-identity at any count — so throttling here is always safe.
    let lease = crate::sched::lease(par.threads.min(count));
    let workers = lease.granted().min(count);

    let stop = std::sync::atomic::AtomicBool::new(false);
    let failure: Mutex<Option<Abort>> = Mutex::new(None);
    let fail = |abort: Abort| {
        stop.store(true, Ordering::Relaxed);
        let mut slot = failure.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(abort);
        }
    };
    // One morsel, panic-contained. `Err(())` means "stop claiming". The
    // query context is adopted as this thread's scan watch for the duration
    // of the morsel, so oversized scans poll cancellation *inside* the
    // morsel too (a QueryError panic payload transports the abort here).
    let run_one = |out: &mut Vec<(usize, T)>, i: usize| -> Result<(), ()> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cvr_storage::fault::before_morsel();
            let _watch = crate::ctx::watch_scans(ctx);
            task(i, range_of(i))
        }));
        match attempt {
            Ok(Ok(t)) => {
                out.push((i, t));
                Ok(())
            }
            Ok(Err(e)) => {
                fail(Abort::Error(e));
                Err(())
            }
            Err(payload) => {
                fail(match payload.downcast::<cvr_storage::fault::InjectedFault>() {
                    Ok(f) => Abort::Error(QueryError::Io { detail: f.0 }),
                    Err(payload) => match payload.downcast::<QueryError>() {
                        Ok(e) => Abort::Error(*e),
                        Err(payload) => Abort::Panic(payload),
                    },
                });
                Err(())
            }
        }
    };

    // Spawned workers must see the coordinator's fault state: the query's
    // deterministic fault stream follows the query, not the thread.
    let faults = cvr_storage::fault::handle();
    let next = AtomicUsize::new(0);
    let work = |out: &mut Vec<(usize, T)>| -> Duration {
        let started = thread_cpu_time();
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Err(e) = ctx.check() {
                fail(Abort::Error(e));
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            if run_one(out, i).is_err() {
                break;
            }
            // Rotate the run queue between morsels: when the machine has
            // fewer cores than workers (CI containers), the first scheduled
            // worker would otherwise drain the whole queue inside one
            // timeslice, serializing the "parallel" execution. On idle
            // multicore hardware this yield is a no-op costing ~1µs per
            // multi-hundred-µs morsel; a lone worker has nobody to yield to.
            if workers > 1 {
                std::thread::yield_now();
            }
        }
        thread_cpu_time().saturating_sub(started)
    };

    // The coordinator claims morsels too, so one granted worker means no
    // spawn at all: the same loop runs inline. Per-worker busy CPU time,
    // coordinator first, is the one measurement all three observation sinks
    // (profiler, tracer, metrics) share.
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(count);
    let mut busys: Vec<Duration> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let _faults = cvr_storage::fault::adopt_opt(faults.clone());
                    let mut out = Vec::new();
                    let busy = work(&mut out);
                    (out, busy)
                })
            })
            .collect();
        busys.push(work(&mut tagged));
        for h in handles {
            let (out, busy) = h.join().expect("morsel worker panicked");
            tagged.extend(out);
            busys.push(busy);
        }
    });
    observe_fanout(ctx, &busys, next.into_inner().min(count) as u64);

    match failure.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        Some(Abort::Panic(payload)) => std::panic::resume_unwind(payload),
        Some(Abort::Error(e)) => Err(e),
        None => {
            tagged.sort_unstable_by_key(|(i, _)| *i);
            Ok(tagged.into_iter().map(|(_, t)| t).collect())
        }
    }
}

/// Publish one fan-out's shared measurement — per-worker busy CPU times
/// (`busys[0]` is the coordinator) and the number of morsels run — to every
/// observation sink: the opt-in [`profile`] collector, the query's tracer
/// (when attached), and the process metrics registry.
fn observe_fanout(ctx: &QueryCtx, busys: &[Duration], morsels: u64) {
    profile::record_fanout(busys);
    if let Some(tracer) = ctx.tracer() {
        tracer.on_fanout(busys, morsels);
    }
    cvr_obs::counter("cvr_morsel_fanouts_total", "Morsel fan-outs executed").inc();
    let worker_busy =
        cvr_obs::latency("cvr_morsel_worker_busy_us", "Per-worker busy CPU time per fan-out");
    for busy in busys {
        worker_busy.observe(busy.as_micros() as u64);
    }
}

/// The morsel grid [`try_run_morsels`] tiles `[0, n)` with under `par`:
/// `(morsel_size, morsel_count)`, deterministic in `(n, par)`.
///
/// Aim for a few morsels per worker so claiming self-balances, without
/// dropping below the minimum useful size. Morsel boundaries align to
/// whole 64-position mask words so the scan kernels' selection masks
/// never straddle a morsel edge.
pub fn grid(n: u32, par: Parallelism) -> (u32, usize) {
    let aim = n.div_ceil((par.threads * 4).max(1) as u32).max(MIN_MORSEL_ROWS);
    // An explicitly enlarged morsel size (a struct literal above the
    // default — how the chaos harness forces giant morsels) is honored as
    // requested; the default auto-shrinks to `aim` for balance. Both are
    // bounded by `DEFAULT_MORSEL_MAX`.
    let want = if par.morsel_rows > DEFAULT_MORSEL_ROWS {
        par.morsel_rows
    } else {
        par.morsel_rows.min(aim)
    };
    let morsel = want.clamp(1, DEFAULT_MORSEL_MAX).div_ceil(64) * 64;
    let count = (n.div_ceil(morsel) as usize).max(1);
    (morsel, count)
}

/// One traced operator at the front of a fused pipeline's per-morsel op
/// sequence: its span name and how many [`IoLog`] ops it charges per morsel.
pub(crate) struct Operator {
    pub op: &'static str,
    pub detail: &'static str,
    pub log_ops: usize,
}

/// What one operator did in one morsel (summed over morsels for the trace).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpActual {
    pub rows: u64,
    pub busy: Duration,
}

/// What a fused pipeline's task works with for one morsel.
pub(crate) struct Morsel<'a> {
    pub range: Range<u32>,
    /// The morsel's recording session: every charge lands in its log.
    pub io: &'a IoSession,
    /// One slot per traced operator.
    pub actuals: &'a mut [OpActual],
    /// The morsel's own accumulator.
    pub partial: &'a mut AggPartial,
}

/// The shared driver of the late-materialized plan shapes. Every morsel
/// runs `task` against its own recording session and accumulator; partial
/// aggregates merge and the I/O logs replay op-major, both in morsel order,
/// on `io`. `splices` are the coordinator's recorded charges (hash tables,
/// key predicates), each replayed immediately before the per-morsel op
/// index it is paired with — see [`IoSession::replay_interleaved`] — so the
/// charge order is the one a single whole-column execution of the plan has.
/// The fan-out fuses its operators, so their wall time cannot be separated:
/// one `extract-aggregate` span carries the combined measurement plus the
/// per-worker breakdown, followed by one leaf per entry of `operators`
/// carrying the rows, busy time and I/O summed over its morsels — the same
/// tree at every thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fused(
    n: u32,
    par: Parallelism,
    ctx: &QueryCtx,
    io: &IoSession,
    strat: &AggStrategy,
    q: &SsbQuery,
    operators: &[Operator],
    splices: &[(usize, &IoLog)],
    task: impl Fn(Morsel<'_>) -> Result<(), QueryError> + Sync,
) -> Result<QueryOutput, QueryError> {
    let mut span = ctx.span("extract-aggregate", "", io);
    let pool = io.pool().clone();
    let results = try_run_morsels(n, par, ctx, |_, range| {
        let rio = IoSession::recording(pool.clone());
        let mut actuals = vec![OpActual::default(); operators.len()];
        let mut partial = strat.new_partial();
        task(Morsel { range, io: &rio, actuals: &mut actuals, partial: &mut partial })?;
        Ok((rio.take_log(), actuals, partial))
    })?;
    let mut merged = strat.new_partial();
    let mut totals = vec![OpActual::default(); operators.len()];
    let mut logs = Vec::with_capacity(results.len());
    for (log, actuals, partial) in results {
        logs.push(log);
        merged.merge(partial);
        for (total, actual) in totals.iter_mut().zip(actuals) {
            total.rows += actual.rows;
            total.busy += actual.busy;
        }
    }
    let mut deltas = io.replay_interleaved(&logs, splices).into_iter();
    let out = strat.finish(merged, q);
    span.rows(out.len() as u64);
    drop(span);
    if let Some(tracer) = ctx.tracer() {
        for (operator, total) in operators.iter().zip(totals) {
            let mut charged = IoStats::default();
            deltas.by_ref().take(operator.log_ops).for_each(|d| charged.add(&d));
            tracer.leaf(operator.op, operator.detail, Some(total.rows), total.busy, charged);
        }
    }
    Ok(out)
}

/// CPU time consumed by the calling thread (Linux; wall-clock elsewhere).
///
/// Used to measure the parallel **critical path** (span): on machines with
/// fewer cores than workers — CI containers, laptops under load — wall-clock
/// cannot show scaling, but `max` over per-worker CPU time can.
pub fn thread_cpu_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: clock_gettime writes a timespec through a valid pointer.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Duration::new(ts.sec.max(0) as u64, ts.nsec.clamp(0, 999_999_999) as u32);
        }
    }
    // Fallback: wall-clock since an arbitrary process-wide epoch.
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed()
}

/// Opt-in per-worker busy-time profiling, used by the `scaling` binary to
/// report critical-path CPU time. Disabled (and free) by default.
pub mod profile {
    use super::*;

    static ENABLED: AtomicUsize = AtomicUsize::new(0);
    static BUSY: Mutex<Vec<Vec<Duration>>> = Mutex::new(Vec::new());
    static COORD_BUSY_NS: AtomicUsize = AtomicUsize::new(0);

    /// Per-worker busy times collected between [`start`] and [`finish`].
    #[derive(Debug, Default)]
    pub struct ProfileReport {
        /// One group per [`super::try_run_morsels`] fan-out; each entry is one
        /// worker's CPU time inside that fan-out (coordinator included).
        pub groups: Vec<Vec<Duration>>,
        /// The coordinator thread's share of the fan-out work — already
        /// part of the coordinator's thread-CPU clock, unlike the other
        /// workers' time.
        pub coordinator_busy: Duration,
    }

    impl ProfileReport {
        /// Critical-path CPU time given the coordinator's total thread-CPU
        /// time for the measured region: the serial portion plus the
        /// busiest worker of each fan-out.
        pub fn critical_path(&self, coordinator_cpu: Duration) -> Duration {
            let span: Duration =
                self.groups.iter().map(|g| g.iter().max().copied().unwrap_or_default()).sum();
            coordinator_cpu.saturating_sub(self.coordinator_busy) + span
        }

        /// Total CPU spent inside fan-outs across all workers.
        pub fn total_work(&self) -> Duration {
            self.groups.iter().flatten().sum()
        }
    }

    /// Enable collection and clear any previous samples.
    pub fn start() {
        BUSY.lock().unwrap().clear();
        COORD_BUSY_NS.store(0, Ordering::Relaxed);
        ENABLED.store(1, Ordering::Relaxed);
    }

    /// Record one fan-out's per-worker busy times (`busys[0]` is the
    /// coordinator) as a sample group. The single entry point from
    /// [`super::try_run_morsels`] — the same measurement also feeds the
    /// tracer and the metrics registry, so no sink keeps its own clock.
    pub(super) fn record_fanout(busys: &[Duration]) {
        if ENABLED.load(Ordering::Relaxed) == 1 {
            BUSY.lock().unwrap().push(busys.to_vec());
            if let Some(coord) = busys.first() {
                COORD_BUSY_NS.fetch_add(coord.as_nanos() as usize, Ordering::Relaxed);
            }
        }
    }

    /// Stop collection and return the per-worker busy times.
    pub fn finish() -> ProfileReport {
        ENABLED.store(0, Ordering::Relaxed);
        ProfileReport {
            groups: std::mem::take(&mut BUSY.lock().unwrap()),
            coordinator_busy: Duration::from_nanos(COORD_BUSY_NS.swap(0, Ordering::Relaxed) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_morsels<T: Send>(
        n: u32,
        par: Parallelism,
        task: impl Fn(usize, Range<u32>) -> T + Sync,
    ) -> Vec<T> {
        try_run_morsels(n, par, &QueryCtx::unbounded(), |i, r| Ok(task(i, r))).unwrap()
    }

    #[test]
    fn morsels_tile_and_return_in_order() {
        for threads in [1, 2, 4, 8] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let ranges = run_morsels(1000, par, |i, r| (i, r));
            assert!(!ranges.is_empty());
            let mut next = 0u32;
            for (idx, (i, r)) in ranges.iter().enumerate() {
                assert_eq!(idx, *i, "results must come back in morsel order");
                assert_eq!(r.start, next, "morsels must tile [0, n)");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, 1000);
        }
    }

    #[test]
    fn empty_input_runs_one_empty_morsel() {
        let got = run_morsels(0, Parallelism::with_threads(4), |i, r| (i, r));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 0..0);
    }

    #[test]
    fn work_is_claimed_exactly_once() {
        let par = Parallelism { threads: 4, morsel_rows: 16 };
        let sums = run_morsels(10_000, par, |_, r| r.map(|p| p as u64).sum::<u64>());
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 9_999 * 10_000 / 2);
    }

    #[test]
    fn cancellation_stops_the_fanout_at_a_morsel_boundary() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let ctx = QueryCtx::unbounded();
            let ran = AtomicUsize::new(0);
            let got = try_run_morsels(100_000, par, &ctx, |_, r| {
                ran.fetch_add(1, Ordering::Relaxed);
                ctx.cancel(); // first morsel cancels everyone
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Cancelled), "threads={threads}");
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran <= threads + 1, "cancelled after {ran} morsels with {threads} workers");
        }
    }

    #[test]
    fn task_errors_abort_and_win_over_later_work() {
        let par = Parallelism { threads: 4, morsel_rows: 64 };
        let budget = QueryError::MemoryBudgetExceeded { used: 9, budget: 1 };
        let err = budget.clone();
        let got = try_run_morsels(100_000, par, &QueryCtx::unbounded(), move |i, _| {
            if i == 0 {
                Err(err.clone())
            } else {
                Ok(i)
            }
        });
        assert_eq!(got, Err(budget));
    }

    #[test]
    fn injected_fault_panics_become_io_errors() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 2 {
                    std::panic::panic_any(cvr_storage::fault::InjectedFault("page 3".into()));
                }
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Io { detail: "page 3".into() }), "threads={threads}");
        }
    }

    #[test]
    fn foreign_worker_panics_resume_on_the_coordinator() {
        let par = Parallelism { threads: 4, morsel_rows: 64 };
        let caught = std::panic::catch_unwind(|| {
            let _ = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 1 {
                    panic!("genuine worker bug");
                }
                Ok(r.len())
            });
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "genuine worker bug");
    }

    #[test]
    fn grid_honors_forced_giant_morsels_up_to_the_cap() {
        // Default-sized configs still auto-shrink for balance.
        let (m, _) = grid(1_000_000, Parallelism { threads: 4, morsel_rows: DEFAULT_MORSEL_ROWS });
        assert!(m <= DEFAULT_MORSEL_ROWS);
        // An explicitly enlarged morsel size is honored (mask-word aligned).
        let big = 500_000u32;
        let (m, count) = grid(1_000_000, Parallelism { threads: 4, morsel_rows: big });
        assert_eq!(m, big.div_ceil(64) * 64);
        assert_eq!(count, 2);
        // ... but never beyond the ceiling.
        let (m, _) = grid(100_000_000, Parallelism { threads: 1, morsel_rows: u32::MAX });
        assert!(m <= DEFAULT_MORSEL_MAX);
        assert_eq!(m % 64, 0);
    }

    #[test]
    fn queryerror_panic_payloads_become_typed_aborts() {
        // The scan drivers transport intra-morsel cancellation as a
        // QueryError panic payload; the morsel boundary must type it back.
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 2 {
                    std::panic::panic_any(QueryError::Cancelled);
                }
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Cancelled), "threads={threads}");
        }
    }

    #[test]
    fn thread_knob_clamps_to_one_worker() {
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert_eq!(Parallelism::serial(), Parallelism::with_threads(1));
    }

    #[test]
    fn thread_cpu_time_is_monotone() {
        let a = thread_cpu_time();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_add(i * 2_654_435_761);
        }
        std::hint::black_box(x);
        let b = thread_cpu_time();
        assert!(b >= a);
    }
}
