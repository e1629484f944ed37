//! Deterministic fault injection for the chaos harness.
//!
//! Faults are **off by default** and cost one thread-local peek per hook
//! when disabled. Configuration lives in a [`FaultState`] handle: an armed
//! [`FaultConfig`] plus its *own* counter-seeded `splitmix64` decision
//! stream, so a given `(seed, fault spec)` pair injects the *same* fault
//! sequence on every run regardless of what other tests or sessions are
//! doing — chaos failures reproduce, and chaos tests never serialize behind
//! a process-global lock.
//!
//! A state is armed by [`adopt`], which pushes its handle onto a
//! **thread-local stack** for the lifetime of the returned guard. Sessions
//! adopt their own state around each query (and the morsel pool re-adopts
//! the coordinator's handle inside every worker), so concurrent tests each
//! see only their own faults.
//!
//! Every injection is tallied per-state ([`FaultState::injected`]) and
//! mirrored into the process metrics registry as
//! `cvr_fault_injected_total{class="..."}`.
//!
//! Four fault classes, matching the spec grammar
//! `io:P,panic:P,stall:P:MS,trunc:P,seed:N`:
//!
//! * `io` — probability per page touch that [`maybe_io_fault`] panics with
//!   an [`InjectedFault`] payload. Engines downcast this payload at morsel
//!   and pipeline boundaries into a typed I/O error; it must never surface
//!   as a crash.
//! * `panic` — probability per morsel that [`before_morsel`] raises a plain
//!   panic (payload contains `"injected fault"`), exercising the worker
//!   panic-containment path.
//! * `stall` — probability per morsel that [`before_morsel`] sleeps `MS`
//!   milliseconds, widening cancellation races.
//! * `trunc` — probability per response frame that the server cuts the
//!   frame short and drops the connection ([`take_frame_truncation`]).
//!
//! Durability is not a fault class: `crates/storage/tests/crash_states.rs`
//! drives the snapshot protocol through an in-memory
//! [`Vfs`](crate::persist::Vfs) and loads every state a crash, a lying disk
//! or a failing fsync can leave.
//!
//! This lives in `cvr-storage` — the bottom of the dependency graph — so
//! both the execution engines and the server can reach the same switch.

use std::cell::RefCell;
use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Panic payload carried by injected I/O faults. Engines catch and downcast
/// this at containment boundaries; any other payload is a real bug and is
/// re-raised.
#[derive(Debug, Clone)]
pub struct InjectedFault(pub String);

/// Probabilities (per hook site) and the seed of the decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability an I/O page touch fails.
    pub io: f64,
    /// Probability a morsel panics before running.
    pub panic: f64,
    /// Probability a morsel stalls before running.
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability a response frame is truncated.
    pub trunc: f64,
    /// Seed of the deterministic decision stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig { io: 0.0, panic: 0.0, stall: 0.0, stall_ms: 10, trunc: 0.0, seed: 0x5EED }
    }
}

impl FaultConfig {
    /// Parse a fault spec: comma-separated `io:P`, `panic:P`,
    /// `stall:P:MS`, `trunc:P`, `seed:N`. Empty string parses to all-off.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            let prob = |s: &str| -> Result<f64, String> {
                let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?} in {part:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} out of [0, 1] in {part:?}"));
                }
                Ok(p)
            };
            match fields.as_slice() {
                ["io", p] => cfg.io = prob(p)?,
                ["panic", p] => cfg.panic = prob(p)?,
                ["trunc", p] => cfg.trunc = prob(p)?,
                ["stall", p] => cfg.stall = prob(p)?,
                ["stall", p, ms] => {
                    cfg.stall = prob(p)?;
                    cfg.stall_ms =
                        ms.parse().map_err(|_| format!("bad stall ms {ms:?} in {part:?}"))?;
                }
                ["seed", n] => {
                    cfg.seed = n.parse().map_err(|_| format!("bad seed {n:?} in {part:?}"))?
                }
                _ => return Err(format!("unknown fault clause {part:?}")),
            }
        }
        Ok(cfg)
    }
}

/// The four injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Page-touch I/O failure.
    Io,
    /// Morsel-worker panic.
    Panic,
    /// Morsel-worker stall.
    Stall,
    /// Response-frame truncation.
    Trunc,
}

impl FaultClass {
    fn index(self) -> usize {
        match self {
            FaultClass::Io => 0,
            FaultClass::Panic => 1,
            FaultClass::Stall => 2,
            FaultClass::Trunc => 3,
        }
    }

    fn metric_name(self) -> &'static str {
        match self {
            FaultClass::Io => "cvr_fault_injected_total{class=\"io\"}",
            FaultClass::Panic => "cvr_fault_injected_total{class=\"panic\"}",
            FaultClass::Stall => "cvr_fault_injected_total{class=\"stall\"}",
            FaultClass::Trunc => "cvr_fault_injected_total{class=\"trunc\"}",
        }
    }
}

const CLASSES: [FaultClass; 4] =
    [FaultClass::Io, FaultClass::Panic, FaultClass::Stall, FaultClass::Trunc];

/// An armed fault configuration with its own deterministic decision stream
/// and per-class injection tallies. Cheap to clone (`Arc`); share one handle
/// between a session and whatever threads execute on its behalf to get one
/// reproducible fault sequence.
#[derive(Debug)]
pub struct FaultState {
    cfg: FaultConfig,
    counter: AtomicU64,
    injected: [AtomicU64; 4],
}

impl FaultState {
    /// Arm `cfg` as a standalone handle (nothing global changes).
    pub fn arm(cfg: FaultConfig) -> Arc<FaultState> {
        Arc::new(FaultState {
            cfg,
            counter: AtomicU64::new(0),
            injected: [const { AtomicU64::new(0) }; 4],
        })
    }

    /// Parse and arm a spec string. Convenience for tests.
    pub fn from_spec(spec: &str) -> Result<Arc<FaultState>, String> {
        FaultConfig::parse(spec).map(FaultState::arm)
    }

    /// The armed configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// How many faults of `class` this state has injected.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all classes.
    pub fn injected_total(&self) -> u64 {
        CLASSES.iter().map(|c| self.injected(*c)).sum()
    }

    /// Draw the next decision from this state's deterministic stream: true
    /// with probability `p` under the (rotated) seed.
    fn roll(&self, seed: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    fn record(&self, class: FaultClass) {
        self.injected[class.index()].fetch_add(1, Ordering::Relaxed);
        cvr_obs::counter(class.metric_name(), "Faults injected by the chaos harness").inc();
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

thread_local! {
    /// Per-thread stack of adopted states; the top one is in force.
    static LOCAL: RefCell<Vec<Arc<FaultState>>> = const { RefCell::new(Vec::new()) };
}

/// Whether this thread currently sees an adopted fault state.
pub fn active() -> bool {
    LOCAL.with(|l| !l.borrow().is_empty())
}

/// The fault state this thread's hooks would use right now: the innermost
/// adopted handle, else `None`. The morsel pool captures this on the
/// coordinator and re-adopts it inside each worker so a query's fault
/// stream follows the query, not the thread.
pub fn handle() -> Option<Arc<FaultState>> {
    LOCAL.with(|l| l.borrow().last().cloned())
}

/// RAII guard for a thread-local fault override (see [`adopt`]).
pub struct FaultScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().pop());
    }
}

/// Make `state` this thread's fault state until the guard drops. Nested
/// adoptions shadow (innermost wins).
pub fn adopt(state: Arc<FaultState>) -> FaultScope {
    LOCAL.with(|l| l.borrow_mut().push(state));
    FaultScope { _not_send: std::marker::PhantomData }
}

/// Adopt `state` when present; `None` leaves the thread's view unchanged.
pub fn adopt_opt(state: Option<Arc<FaultState>>) -> Option<FaultScope> {
    state.map(adopt)
}

/// Hook at the storage pool's single I/O choke point: may panic with an
/// [`InjectedFault`] payload describing the failed page.
pub fn maybe_io_fault(file: u64, page: u32) {
    if let Some(st) = handle() {
        if st.roll(st.cfg.seed, st.cfg.io) {
            st.record(FaultClass::Io);
            panic_any(InjectedFault(format!(
                "injected fault: I/O error reading file {file} page {page}"
            )));
        }
    }
}

/// Hook at the top of every morsel: may stall (slow-worker fault) and may
/// raise a plain panic (worker-crash fault).
pub fn before_morsel() {
    if let Some(st) = handle() {
        if st.roll(st.cfg.seed.rotate_left(17), st.cfg.stall) {
            st.record(FaultClass::Stall);
            std::thread::sleep(Duration::from_millis(st.cfg.stall_ms));
        }
        if st.roll(st.cfg.seed.rotate_left(31), st.cfg.panic) {
            st.record(FaultClass::Panic);
            panic!("injected fault: morsel worker panic");
        }
    }
}

/// Hook before a response frame is written: true means the server should
/// truncate the frame and drop the connection.
pub fn take_frame_truncation() -> bool {
    match handle() {
        Some(st) => {
            let hit = st.roll(st.cfg.seed.rotate_left(47), st.cfg.trunc);
            if hit {
                st.record(FaultClass::Trunc);
            }
            hit
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_reject_garbage() {
        let cfg = FaultConfig::parse("io:0.25,panic:0.01,stall:0.5:20,trunc:0.1,seed:7").unwrap();
        assert_eq!(cfg.io, 0.25);
        assert_eq!(cfg.stall_ms, 20);
        assert_eq!(cfg.seed, 7);
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
        assert!(FaultConfig::parse("io:2.0").is_err());
        assert!(FaultConfig::parse("blorp:0.1").is_err());
        assert!(FaultConfig::parse("stall:0.1:abc").is_err());
        // The durability clauses are gone: a stale spec must not parse to
        // a run that injects nothing.
        for removed in ["torn:0.5", "flip:0.5", "fsync:0.5", "crash:x"] {
            assert!(FaultConfig::parse(removed).is_err(), "{removed}");
        }
    }

    #[test]
    fn the_decision_stream_is_deterministic_per_state() {
        let draws = |seed: u64| -> Vec<bool> {
            let st = FaultState::arm(FaultConfig { seed, ..FaultConfig::default() });
            (0..64).map(|_| st.roll(seed, 0.5)).collect()
        };
        let a = draws(42);
        let b = draws(42);
        let c = draws(43);
        assert_eq!(a, b, "same seed must replay the same decisions");
        assert_ne!(a, c, "different seeds must diverge");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((8..=56).contains(&hits), "p=0.5 over 64 draws was {hits}");
    }

    #[test]
    fn adopted_states_nest_and_are_isolated_per_thread() {
        // A thread sees only what it adopted, so other tests running
        // concurrently are unaffected.
        let mine = FaultState::from_spec("trunc:1.0,seed:9").unwrap();
        assert!(handle().is_none() && !active());
        {
            let _scope = adopt(mine.clone());
            assert!(active());
            let got = handle().expect("adopted state visible");
            assert!(Arc::ptr_eq(&got, &mine));
            assert!(take_frame_truncation(), "trunc:1.0 always fires");
            assert_eq!(mine.injected(FaultClass::Trunc), 1);
            // A spawned thread does NOT inherit the override.
            let inherited =
                std::thread::spawn(|| LOCAL.with(|l| l.borrow().is_empty())).join().unwrap();
            assert!(inherited, "thread-local override must not leak across threads");
            // Nested adoption shadows.
            let inner = FaultState::from_spec("io:0.0,seed:1").unwrap();
            {
                let _scope2 = adopt(inner.clone());
                assert!(Arc::ptr_eq(&handle().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&handle().unwrap(), &mine));
        }
        assert!(handle().is_none() && !active(), "guard drop pops the override");
    }

    #[test]
    fn injections_are_tallied_per_state() {
        let st = FaultState::from_spec("io:1.0").unwrap();
        let _scope = adopt(st.clone());
        let err = std::panic::catch_unwind(|| maybe_io_fault(3, 7)).unwrap_err();
        let fault = err.downcast_ref::<InjectedFault>().expect("typed payload");
        assert!(fault.0.contains("file 3 page 7"), "{}", fault.0);
        assert_eq!(st.injected(FaultClass::Io), 1);
        assert_eq!(st.injected_total(), 1);
    }
}
