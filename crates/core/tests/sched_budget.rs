//! One knob sizes the process: the process-default scheduler leases the
//! same worker count the build pools and every `Parallelism::from_env` use
//! (`cvr_storage::par::default_threads`, i.e. `CVR_THREADS` or the
//! machine), and admits `max(4, workers)` queries at once.
//!
//! A binary of its own, so no other test shares the process scheduler.

use cvr_core::sched::{self, Scheduler};
use cvr_core::{QueryCtx, QueryError};
use cvr_storage::par;
use std::time::Duration;

#[test]
fn default_threads_sizes_the_process_scheduler() {
    let workers = par::default_threads();
    let sched = Scheduler::process_default();
    sched::install(sched.clone());

    // Nothing admitted: a lone fan-out is granted the whole budget.
    assert_eq!(sched::lease(usize::MAX).granted(), workers);

    // `max(4, workers)` queries are admitted without waiting. A deadline
    // turns a wrongly small limit into a failure instead of a hang.
    let patient = || QueryCtx::with_limits(Some(Duration::from_secs(10)), None);
    let queries = workers.max(4);
    let permits: Vec<_> = (0..queries)
        .map(|i| sched.try_admit(&patient()).unwrap_or_else(|e| panic!("query {i}: {e}")))
        .collect();
    let stats = sched.stats();
    assert_eq!((stats.active, stats.queued), (queries as u64, 0));

    // The next one queues until its deadline passes. No permit has been
    // released yet, so there is no execution estimate to shed it early.
    let hurried = QueryCtx::with_limits(Some(Duration::from_millis(50)), None);
    let err = sched.try_admit(&hurried).map(drop).unwrap_err();
    assert!(matches!(err, QueryError::DeadlineExceeded { .. }), "{err}");
    assert_eq!(sched.stats().abandoned, 1);
    drop(permits);
}
