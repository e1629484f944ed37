//! Morsel-driven execution: the one way the column engine runs a query.
//!
//! The LINEORDER position space is split into fixed-size **morsels**
//! (contiguous position ranges, after Leis et al.'s morsel-driven model).
//! Workers claim morsels from a shared atomic counter (self-balancing: fast
//! workers steal the remaining morsels) and run the whole per-morsel
//! pipeline — predicate scans, join probes, positional extraction, partial
//! aggregation. Two kinds of result come back, merged two ways, and both
//! make execution deterministic:
//!
//! * **per worker**: each worker keeps one state for all the morsels it
//!   claims — one partial aggregate, one set of buffers — created on its
//!   first morsel and merged on the coordinator. Which morsels a worker saw
//!   depends on scheduling; the merge does not, because partials are
//!   integer sums over disjoint rows whose merge is associative and
//!   commutative and whose `finish` sorts (see [`crate::agg`]). So
//!   [`cvr_data::result::QueryOutput`]s are byte-identical at every thread
//!   count, with one partial to allocate and merge per worker, not per
//!   morsel;
//! * **per morsel, in morsel order**: each morsel's
//!   [`cvr_storage::io::IoLog`] replays against the shared
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

use crate::agg::{AggStrategy, AggWorker};
use crate::ctx::{QueryCtx, QueryError};
use crate::poslist::PosList;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_storage::io::{IoLog, IoSession, IoStats};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default and largest morsel size in fact-table positions. Large enough
/// that per-morsel bookkeeping is noise, small enough that a 4-thread run of
/// even a small scale factor gets balanced work; [`grid`] shrinks it further
/// when the input is small. As a hard cap it bounds the work between two
/// morsel-boundary cancellation polls.
pub const DEFAULT_MORSEL_ROWS: u32 = 16_384;

/// Smallest morsel [`grid`] will auto-shrink to.
const MIN_MORSEL_ROWS: u32 = 256;

/// Degree of parallelism for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (including the coordinator, which also claims
    /// morsels). `1` runs every morsel inline on the calling thread — the
    /// same pipeline, no spawn.
    pub threads: usize,
    /// Morsel size in positions (upper bound, itself capped at
    /// [`DEFAULT_MORSEL_ROWS`]; shrunk for small inputs).
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
/// returns the per-morsel results **in morsel order**, and the state of
/// every worker that ran a morsel (the coordinator's first).
///
/// Each worker makes its state with `init` when it claims its first morsel
/// and hands it to `task` for every morsel it runs: buffers and partial
/// results that live as long as the worker, not the morsel. `task(state,
/// index, range)` must be safe to call concurrently (it receives disjoint
/// ranges). Workers claim morsels from a shared counter, so *which* morsels
/// share a state is scheduling-dependent: callers may rely on the order of
/// the per-morsel results, and may merge states only by an operation whose
/// answer does not depend on the grouping or the order — the partial
/// aggregates of [`crate::agg`] are integer sums over disjoint rows, so
/// they do not (see its module docs).
///
/// Between morsels every worker polls `ctx` ([`QueryCtx::check`]) and a
/// shared abort flag, so cancellation/deadline/budget failures — and any
/// `Err` returned by `task` — stop the whole fan-out at the next morsel
/// boundary. Worker panics are contained per-morsel and classified by
/// [`crate::ctx::typed_panic`]: a typed payload aborts like an `Err`,
/// anything else is re-raised on the coordinator after all workers have
/// parked (so a crashing worker can never leak a detached thread or deadlock
/// the scope join). A fan-out that aborts returns no state: a task may have
/// stopped half-way through updating it.
pub fn try_run_morsels<S: Send, T: Send>(
    n: u32,
    par: Parallelism,
    ctx: &QueryCtx,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize, Range<u32>) -> Result<T, QueryError> + Sync,
) -> Result<(Vec<T>, Vec<S>), QueryError> {
    let (morsel, count) = grid(n, par);
    let range_of = |i: usize| {
        let start = i as u32 * morsel;
        start..((i as u32).saturating_add(1) * morsel).min(n)
    };

    // Ask the shared scheduler (when one is installed — the server installs
    // the process default) for a fair share of the machine's workers. The
    // lease is held for the duration of the fan-out. Worker count never
    // affects results or accounting — morsel-order results and
    // order-independent state merges guarantee byte-identity at any count —
    // so throttling here is always safe.
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
    // One morsel, panic-contained. `Err(())` means "stop claiming".
    let run_one = |worker: &mut Worker<S, T>, i: usize| -> Result<(), ()> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cvr_storage::fault::before_morsel();
            task(worker.state.get_or_insert_with(&init), i, range_of(i))
        }));
        match attempt {
            Ok(Ok(t)) => {
                worker.results.push((i, t));
                Ok(())
            }
            Ok(Err(e)) => {
                fail(Abort::Error(e));
                Err(())
            }
            Err(payload) => {
                fail(crate::ctx::typed_panic(payload).map_or_else(Abort::Panic, Abort::Error));
                Err(())
            }
        }
    };

    // Spawned workers must see the coordinator's fault state: the query's
    // deterministic fault stream follows the query, not the thread.
    let faults = cvr_storage::fault::handle();
    let next = AtomicUsize::new(0);
    let work = || -> Worker<S, T> {
        let started = thread_cpu_time();
        let mut worker = Worker { results: Vec::new(), state: None, busy: Duration::ZERO };
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
            if run_one(&mut worker, i).is_err() {
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
        worker.busy = thread_cpu_time().saturating_sub(started);
        worker
    };

    // The coordinator claims morsels too, so one granted worker means no
    // spawn at all: the same loop runs inline. Per-worker busy CPU time,
    // coordinator first, is the one measurement both observation sinks
    // (tracer, metrics) share.
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(count);
    let mut states: Vec<S> = Vec::with_capacity(workers);
    let mut busys: Vec<Duration> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let _faults = cvr_storage::fault::adopt_opt(faults.clone());
                    work()
                })
            })
            .collect();
        let coordinator = work();
        let spawned = handles.into_iter().map(|h| h.join().expect("morsel worker panicked"));
        for worker in std::iter::once(coordinator).chain(spawned) {
            tagged.extend(worker.results);
            states.extend(worker.state);
            busys.push(worker.busy);
        }
    });
    observe_fanout(ctx, &busys, next.into_inner().min(count) as u64);

    match failure.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        Some(Abort::Panic(payload)) => std::panic::resume_unwind(payload),
        Some(Abort::Error(e)) => Err(e),
        None => {
            tagged.sort_unstable_by_key(|(i, _)| *i);
            Ok((tagged.into_iter().map(|(_, t)| t).collect(), states))
        }
    }
}

/// What one worker of [`try_run_morsels`] hands back to the coordinator.
struct Worker<S, T> {
    /// Its morsels' results, tagged with the morsel index.
    results: Vec<(usize, T)>,
    /// Its state, once it has claimed a morsel.
    state: Option<S>,
    /// Its busy CPU time inside the fan-out.
    busy: Duration,
}

/// Publish one fan-out's shared measurement — per-worker busy CPU times
/// (`busys[0]` is the coordinator) and the number of morsels run — to both
/// observation sinks: the query's tracer (when attached) and the process
/// metrics registry.
fn observe_fanout(ctx: &QueryCtx, busys: &[Duration], morsels: u64) {
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
/// dropping below the minimum useful size or rising above
/// [`DEFAULT_MORSEL_ROWS`]. Morsel boundaries align to whole 64-position
/// mask words so the scan kernels' selection masks never straddle a morsel
/// edge.
pub fn grid(n: u32, par: Parallelism) -> (u32, usize) {
    let aim = n.div_ceil((par.threads * 4).max(1) as u32).max(MIN_MORSEL_ROWS);
    let want = par.morsel_rows.min(DEFAULT_MORSEL_ROWS).min(aim);
    let morsel = want.max(1).div_ceil(64) * 64;
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

/// What one operator did, summed over the morsels of one worker and then
/// over the workers (integer sums: the grouping does not matter).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpActual {
    pub rows: u64,
    pub busy: Duration,
}

impl OpActual {
    /// Count one morsel's run of the operator: `rows` survivors after it,
    /// busy since `started`.
    pub fn record(&mut self, rows: u32, started: Instant) {
        self.rows += rows as u64;
        self.busy += started.elapsed();
    }
}

/// Reusable per-worker buffers of a fused plan shape, beside its
/// [`AggWorker`]: after a worker's first morsel of a given size, no morsel
/// allocates.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The morsel's surviving fact positions, ascending — the one
    /// materialization of the survivors that every gather reads.
    pub positions: Vec<u32>,
    /// Per joined dimension: the dimension position each survivor's foreign
    /// key joins to.
    pub dims: Vec<Vec<u32>>,
    /// Foreign keys gathered at `positions`.
    pub keys: Vec<i64>,
    /// Per position: whether a join kept it.
    pub keep: Vec<bool>,
}

/// Materialize a morsel's survivors `pos` into `positions` — once, for every
/// gather after it to read — and start `agg` on that many rows.
pub(crate) fn load_survivors(pos: &PosList, positions: &mut Vec<u32>, agg: &mut AggWorker<'_>) {
    positions.clear();
    positions.reserve(pos.count() as usize);
    pos.iter().for_each(|p| positions.push(p));
    agg.begin(positions.len());
}

/// What a fused pipeline's task works with for one morsel.
pub(crate) struct Morsel<'a, 's> {
    pub range: Range<u32>,
    /// The morsel's recording session: every charge lands in its log.
    pub io: &'a IoSession,
    /// One slot per traced operator: the worker's running totals.
    pub actuals: &'a mut [OpActual],
    /// The worker's extract→aggregate kernel and partial aggregate.
    pub agg: &'a mut AggWorker<'s>,
    /// The worker's buffers.
    pub scratch: &'a mut Scratch,
}

/// One worker's state in [`run_fused`].
struct FusedWorker<'s> {
    actuals: Vec<OpActual>,
    agg: AggWorker<'s>,
    scratch: Scratch,
}

/// The shared driver of the late-materialized plan shapes. Every morsel
/// runs `task` against its own recording session and its worker's
/// accumulator and buffers; the I/O logs replay op-major in morsel order on
/// `io`, and the workers' partial aggregates merge on the coordinator (in
/// any order: [`crate::agg`]). `splices` are the coordinator's recorded
/// charges (hash tables, key predicates), each replayed immediately before
/// the per-morsel op index it is paired with — see
/// [`IoSession::replay_interleaved`] — so the charge order is the one a
/// single whole-column execution of the plan has. The fan-out fuses its
/// operators, so their wall time cannot be separated: one
/// `extract-aggregate` span carries the combined measurement plus the
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
    task: impl Fn(Morsel<'_, '_>) -> Result<(), QueryError> + Sync,
) -> Result<QueryOutput, QueryError> {
    let mut span = ctx.span("extract-aggregate", "", io);
    let pool = io.pool().clone();
    let init = || FusedWorker {
        actuals: vec![OpActual::default(); operators.len()],
        agg: strat.worker(),
        scratch: Scratch::default(),
    };
    let (logs, workers) = try_run_morsels(n, par, ctx, init, |w, _, range| {
        let rio = IoSession::recording(pool.clone());
        let FusedWorker { actuals, agg, scratch } = w;
        task(Morsel { range, io: &rio, actuals, agg, scratch })?;
        Ok(rio.take_log())
    })?;
    let mut totals = vec![OpActual::default(); operators.len()];
    let mut partials = Vec::with_capacity(workers.len());
    for worker in workers {
        for (total, actual) in totals.iter_mut().zip(worker.actuals) {
            total.rows += actual.rows;
            total.busy += actual.busy;
        }
        partials.push(worker.agg.into_partial());
    }
    let mut deltas = io.replay_interleaved(&logs, splices).into_iter();
    let out = strat.finish(partials, q);
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
/// Measures each fan-out worker's busy time: on machines with fewer cores
/// than workers — CI containers, laptops under load — wall-clock cannot show
/// how the work split, but per-worker CPU time can.
fn thread_cpu_time() -> Duration {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_morsels<T: Send>(
        n: u32,
        par: Parallelism,
        task: impl Fn(usize, Range<u32>) -> T + Sync,
    ) -> Vec<T> {
        let ctx = QueryCtx::unbounded();
        try_run_morsels(n, par, &ctx, || (), |_, i, r| Ok(task(i, r))).unwrap().0
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
    fn each_worker_keeps_one_state_across_its_morsels() {
        for threads in [1, 2, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let (count, made) = (grid(10_000, par).1, AtomicUsize::new(0));
            let init = || {
                made.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            };
            let (ranges, states) = try_run_morsels(10_000, par, &QueryCtx::unbounded(), init, {
                |seen: &mut Vec<usize>, i, r| {
                    seen.push(i);
                    Ok(r)
                }
            })
            .unwrap();
            // One state per worker that ran a morsel, made once, and
            // together they saw every morsel exactly once.
            assert_eq!(ranges.len(), count);
            assert!(!states.is_empty() && states.len() <= threads, "threads={threads}");
            assert_eq!(made.into_inner(), states.len());
            let mut seen: Vec<usize> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..count).collect::<Vec<_>>());
        }
    }

    #[test]
    fn an_aborted_fanout_returns_no_state() {
        let par = Parallelism { threads: 2, morsel_rows: 64 };
        let got = try_run_morsels(
            10_000,
            par,
            &QueryCtx::unbounded(),
            || 0u32,
            |n, i, _| {
                *n += 1;
                if i == 3 {
                    return Err(QueryError::Cancelled);
                }
                Ok(())
            },
        );
        assert_eq!(got.map(|(_, states)| states.len()), Err(QueryError::Cancelled));
    }

    #[test]
    fn cancellation_stops_the_fanout_at_a_morsel_boundary() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let ctx = QueryCtx::unbounded();
            let ran = AtomicUsize::new(0);
            let got = try_run_morsels(
                100_000,
                par,
                &ctx,
                || (),
                |_, _, r| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    ctx.cancel(); // first morsel cancels everyone
                    Ok(r.len())
                },
            );
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
        let got = try_run_morsels(
            100_000,
            par,
            &QueryCtx::unbounded(),
            || (),
            move |_, i, _| {
                if i == 0 {
                    Err(err.clone())
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(got, Err(budget));
    }

    #[test]
    fn injected_fault_panics_become_io_errors() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(
                10_000,
                par,
                &QueryCtx::unbounded(),
                || (),
                |_, i, r| {
                    if i == 2 {
                        std::panic::panic_any(cvr_storage::fault::InjectedFault("page 3".into()));
                    }
                    Ok(r.len())
                },
            );
            assert_eq!(got, Err(QueryError::Io { detail: "page 3".into() }), "threads={threads}");
        }
    }

    #[test]
    fn foreign_worker_panics_resume_on_the_coordinator() {
        let par = Parallelism { threads: 4, morsel_rows: 64 };
        let caught = std::panic::catch_unwind(|| {
            let _ = try_run_morsels(
                10_000,
                par,
                &QueryCtx::unbounded(),
                || (),
                |_, i, r| {
                    if i == 1 {
                        panic!("genuine worker bug");
                    }
                    Ok(r.len())
                },
            );
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "genuine worker bug");
    }

    #[test]
    fn grid_caps_morsels_and_tiles_the_input() {
        // The balance formula without the cap: up to the cap, the grid is it.
        let uncapped = |n: u32, par: Parallelism| {
            let aim = n.div_ceil((par.threads * 4) as u32).max(MIN_MORSEL_ROWS);
            let want = par.morsel_rows.min(aim);
            let morsel = want.max(1).div_ceil(64) * 64;
            (morsel, (n.div_ceil(morsel) as usize).max(1))
        };
        let sizes = [1, 64, 384, DEFAULT_MORSEL_ROWS, DEFAULT_MORSEL_ROWS + 1, 500_000, u32::MAX];
        for morsel_rows in sizes {
            for n in [0, 1, 10_000, 1_200_000, 100_000_000] {
                for threads in [1, 2, 4] {
                    let par = Parallelism { threads, morsel_rows };
                    let (m, count) = grid(n, par);
                    let at = format!("morsel_rows={morsel_rows} n={n} threads={threads}");
                    assert!(m <= DEFAULT_MORSEL_ROWS, "{at}: morsel of {m} rows");
                    assert_eq!(m % 64, 0, "{at}");
                    // The morsels tile [0, n): the last one starts below n
                    // (or is the lone empty morsel) and ends at or past it.
                    assert!(count as u64 * m as u64 >= n as u64, "{at}");
                    assert!(((count - 1) as u64 * m as u64) < (n as u64).max(1), "{at}");
                    if morsel_rows <= DEFAULT_MORSEL_ROWS {
                        assert_eq!((m, count), uncapped(n, par), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn queryerror_panic_payloads_become_typed_aborts() {
        // Engine code under an infallible wrapper re-raises a typed abort
        // as a QueryError panic payload; the morsel boundary must type it
        // back.
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(
                10_000,
                par,
                &QueryCtx::unbounded(),
                || (),
                |_, i, r| {
                    if i == 2 {
                        std::panic::panic_any(QueryError::Cancelled);
                    }
                    Ok(r.len())
                },
            );
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
