//! Build-time fan-out: a list of independent jobs over a bounded number of
//! scoped threads.
//!
//! Store construction is made of pieces that do not depend on each other —
//! one encoded column, one heap file, one B+Tree — so both engines build
//! them through a [`Jobs`] list. Jobs only *compute*; anything whose order
//! is observable (a [`crate::io::FileId`], a position in a `Vec`) is assigned
//! by the caller from the [`Slot`]s afterwards, so a build is the same at
//! every thread count.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The process-default worker count: `CVR_THREADS` when set (and ≥ 1),
/// otherwise the machine's available parallelism. Cached after the first
/// call.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        match std::env::var("CVR_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// A list of independent jobs, each handing its result back through the
/// [`Slot`] it was added for.
#[derive(Default)]
pub struct Jobs<'a> {
    queue: Vec<Box<dyn FnOnce() + Send + 'a>>,
}

/// Where one job of a [`Jobs`] list leaves its result.
pub struct Slot<T>(Arc<Mutex<Option<T>>>);

impl<T> Slot<T> {
    /// The job's result. Panics when the list has not been [`Jobs::run`].
    pub fn take(self) -> T {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take().expect("the job list was run")
    }
}

impl<'a> Jobs<'a> {
    /// An empty list.
    pub fn new() -> Jobs<'a> {
        Jobs::default()
    }

    /// Append `job`. Workers claim jobs from the front of the list, so add
    /// the long ones first.
    pub fn add<T: Send + 'a>(&mut self, job: impl FnOnce() -> T + Send + 'a) -> Slot<T> {
        let slot = Arc::new(Mutex::new(None));
        let result = slot.clone();
        self.queue.push(Box::new(move || {
            let value = job();
            *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }));
        Slot(slot)
    }

    /// Run every job, on up to `threads` workers (the caller is one of
    /// them, so `threads <= 1` runs the list inline, in order). A panicking
    /// job's payload is re-raised here once every worker has stopped.
    pub fn run(self, threads: usize) {
        let workers = threads.clamp(1, self.queue.len().max(1));
        let queue = Mutex::new(self.queue.into_iter());
        let work = || loop {
            let job = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            match job {
                Some(job) => job(),
                None => break,
            }
        };
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).err();
            for handle in spawned {
                panic = panic.or(handle.join().err());
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_runs_once_and_fills_its_own_slot_at_any_thread_count() {
        for threads in [0, 1, 2, 7] {
            let words = ["a", "bb", "ccc"];
            let mut jobs = Jobs::new();
            let squares: Vec<Slot<usize>> = (0..20).map(|i| jobs.add(move || i * i)).collect();
            let lens = jobs.add(|| words.iter().map(|w| w.len()).collect::<Vec<_>>());
            jobs.run(threads);
            let squares: Vec<usize> = squares.into_iter().map(Slot::take).collect();
            assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(lens.take(), [1, 2, 3]);
        }
        Jobs::new().run(4);
    }

    #[test]
    fn a_panicking_job_re_raises_its_payload_after_the_others_finish() {
        for threads in [1, 3] {
            let done = AtomicUsize::new(0);
            let mut jobs = Jobs::new();
            jobs.add(|| panic!("job failed"));
            for _ in 0..6 {
                jobs.add(|| done.fetch_add(1, Ordering::SeqCst));
            }
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jobs.run(threads)));
            let payload = caught.expect_err("the panic must surface");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));
            if threads > 1 {
                assert_eq!(done.load(Ordering::SeqCst), 6);
            }
        }
    }
}
