//! Metered, simulated disk I/O.
//!
//! The paper's experiments ran on a 4-disk array with 160–200 MB/s aggregate
//! sequential bandwidth, and most of its row-store results are I/O-bound.
//! Real disks are not available (or controllable) in this environment, so we
//! substitute a *metered page store*: tables are serialized into 32 KB pages
//! held in memory, every page that crosses the buffer pool is counted in
//! [`IoStats`], and a [`DiskModel`] converts the counts into modeled I/O
//! time. Queries then report `measured CPU time + modeled I/O time`, which
//! preserves the paper's I/O-vs-CPU cost structure (see DESIGN.md §4).
//!
//! Sequential vs random access matters to several experiments (index plans
//! pay seeks; heap scans do not), so [`IoSession`] detects non-consecutive
//! page misses *per file* and counts them as seeks: each file is an
//! independent stream on the modeled striped array, so interleaving reads of
//! two files costs two positioning seeks, not one per alternation.
//!
//! For morsel-driven execution (see `cvr-core::morsel`) a session can also
//! run in **recording** mode ([`IoSession::recording`]): page touches are
//! appended to an [`IoLog`] instead of hitting the pool, and the coordinator
//! later [`IoSession::replay`]s the per-morsel logs in morsel order — making
//! the merged accounting deterministic: the same at every thread count,
//! regardless of thread scheduling.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Size of one disk page: 32 KB, the System X configuration in Section 6.2.
pub const PAGE_SIZE: u64 = 32 * 1024;

/// Number of pages needed to hold `bytes`.
pub fn pages_for(bytes: u64) -> u32 {
    bytes.div_ceil(PAGE_SIZE).max(1) as u32
}

/// Identifier of a stored file (heap file, column segment, index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

impl FileId {
    /// Allocate a fresh file id (process-wide unique).
    pub fn fresh() -> FileId {
        FileId(NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Identifier of one page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page number.
    pub page: u32,
}

/// The disk performance model used to convert [`IoStats`] into time.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Sequential bandwidth, bytes per second. Default 200 MB/s — the upper
    /// end of the paper's "160 - 200 MB/sec in aggregate for striped files".
    pub seq_bandwidth: f64,
    /// Latency charged per seek (non-sequential page miss). Default 4 ms.
    pub seek_latency: Duration,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel { seq_bandwidth: 200.0 * 1024.0 * 1024.0, seek_latency: Duration::from_millis(4) }
    }
}

impl DiskModel {
    /// Modeled time to perform the accesses recorded in `stats`.
    pub fn io_time(&self, stats: &IoStats) -> Duration {
        let transfer = Duration::from_secs_f64(stats.bytes_read as f64 / self.seq_bandwidth);
        transfer + self.seek_latency * stats.seeks as u32
    }
}

/// Counters of simulated disk traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from "disk" (buffer-pool misses).
    pub pages_read: u64,
    /// Bytes fetched from "disk".
    pub bytes_read: u64,
    /// Non-sequential page fetches.
    pub seeks: u64,
    /// Buffer-pool hits (not charged).
    pub pool_hits: u64,
}

impl IoStats {
    /// Accumulate another stats block into this one.
    pub fn add(&mut self, other: &IoStats) {
        self.pages_read += other.pages_read;
        self.bytes_read += other.bytes_read;
        self.seeks += other.seeks;
        self.pool_hits += other.pool_hits;
    }

    /// Traffic accrued since the `since` snapshot (saturating, so a stale
    /// snapshot can never wrap). Used by tracing spans, which observe the
    /// session's counters without ever charging them.
    pub fn delta(&self, since: &IoStats) -> IoStats {
        IoStats {
            pages_read: self.pages_read.saturating_sub(since.pages_read),
            bytes_read: self.bytes_read.saturating_sub(since.bytes_read),
            seeks: self.seeks.saturating_sub(since.seeks),
            pool_hits: self.pool_hits.saturating_sub(since.pool_hits),
        }
    }
}

/// A fixed-capacity buffer pool with CLOCK eviction.
///
/// The pool only tracks *which* pages are resident (the bytes themselves stay
/// in the owning table object); its job is deciding whether an access is a
/// hit (free) or a miss (charged to the session's [`IoStats`]). A capacity of
/// `u64::MAX` (see [`BufferPool::unbounded`]) makes every re-access free,
/// modeling a fully warm cache.
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity_pages: usize,
}

#[derive(Debug)]
struct PoolInner {
    /// page -> slot index in `frames`.
    map: HashMap<PageId, usize>,
    /// Resident pages with their reference bit.
    frames: Vec<(PageId, bool)>,
    /// CLOCK hand.
    hand: usize,
}

impl BufferPool {
    /// Pool holding at most `capacity_bytes` of pages.
    pub fn new(capacity_bytes: u64) -> Arc<BufferPool> {
        let capacity_pages = (capacity_bytes / PAGE_SIZE).max(1) as usize;
        Arc::new(BufferPool {
            inner: Mutex::new(PoolInner {
                map: HashMap::with_capacity(capacity_pages.min(1 << 20)),
                frames: Vec::new(),
                hand: 0,
            }),
            capacity_pages,
        })
    }

    /// Pool that never evicts — models data fully resident in memory.
    pub fn unbounded() -> Arc<BufferPool> {
        Arc::new(BufferPool {
            inner: Mutex::new(PoolInner { map: HashMap::new(), frames: Vec::new(), hand: 0 }),
            capacity_pages: usize::MAX,
        })
    }

    /// Record an access to `page`; returns `true` on a pool hit.
    pub fn access(&self, page: PageId) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&slot) = inner.map.get(&page) {
            inner.frames[slot].1 = true;
            return true;
        }
        // Miss: admit, evicting via CLOCK when full.
        if inner.frames.len() < self.capacity_pages {
            inner.frames.push((page, true));
            let slot = inner.frames.len() - 1;
            inner.map.insert(page, slot);
        } else {
            loop {
                let hand = inner.hand;
                let (victim, referenced) = inner.frames[hand];
                if referenced {
                    inner.frames[hand].1 = false;
                    inner.hand = (hand + 1) % self.capacity_pages.max(1);
                } else {
                    inner.map.remove(&victim);
                    inner.frames[hand] = (page, true);
                    inner.map.insert(page, hand);
                    inner.hand = (hand + 1) % self.capacity_pages.max(1);
                    break;
                }
            }
        }
        false
    }

    /// Drop every resident page (a "cold cache" reset between experiments).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        inner.frames.clear();
        inner.hand = 0;
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).frames.len()
    }
}

/// Page touches recorded by a session in recording mode: `(page, on-disk
/// bytes)` pairs exactly as they would have been charged, segmented into
/// **ops** (one op per `charge_*` call on a stored column).
///
/// The segmentation is what lets [`IoSession::replay_interleaved`] merge the
/// per-morsel accounting in *plan order*: every morsel of one query runs the
/// same structural op sequence, so replaying op `k` of every morsel (in
/// morsel order) before op `k + 1` of any morsel charges column by column
/// instead of interleaving files morsel by morsel, which would thrash a
/// bounded buffer pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoLog {
    entries: Vec<(PageId, u64)>,
    /// Start index of each op within `entries`.
    ops: Vec<usize>,
}

impl IoLog {
    /// All recorded touches, op boundaries ignored.
    pub fn entries(&self) -> &[(PageId, u64)] {
        &self.entries
    }

    /// Number of ops recorded.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The touches of op `k` (empty when `k` is out of range).
    pub fn op(&self, k: usize) -> &[(PageId, u64)] {
        match self.ops.get(k) {
            None => &[],
            Some(&start) => {
                let end = self.ops.get(k + 1).copied().unwrap_or(self.entries.len());
                &self.entries[start..end]
            }
        }
    }
}

/// Per-query I/O accounting handle.
///
/// Cheap to create; `Send` but not `Sync` (one per executing query or per
/// morsel worker). All storage and index access paths take `&IoSession` and
/// charge their page touches here.
pub struct IoSession {
    pool: Arc<BufferPool>,
    stats: Cell<IoStats>,
    /// Last page *missed* per file, for per-file sequentiality detection.
    last_fetch: RefCell<HashMap<FileId, u32>>,
    /// `Some` puts the session in recording mode: touches go to the log
    /// instead of the pool/stats.
    log: Option<RefCell<IoLog>>,
}

impl IoSession {
    /// New session over `pool`.
    pub fn new(pool: Arc<BufferPool>) -> IoSession {
        IoSession {
            pool,
            stats: Cell::new(IoStats::default()),
            last_fetch: RefCell::new(HashMap::new()),
            log: None,
        }
    }

    /// Convenience: session over a fresh unbounded pool (tests).
    pub fn unmetered() -> IoSession {
        IoSession::new(BufferPool::unbounded())
    }

    /// A recording session over `pool`: every [`IoSession::read_page`] call
    /// appends to an internal [`IoLog`] and charges nothing. Morsel workers
    /// use one recording session per morsel; the coordinator merges their
    /// accounting deterministically by [`IoSession::replay`]ing the logs in
    /// morsel order.
    pub fn recording(pool: Arc<BufferPool>) -> IoSession {
        IoSession {
            pool,
            stats: Cell::new(IoStats::default()),
            last_fetch: RefCell::new(HashMap::new()),
            log: Some(RefCell::new(IoLog::default())),
        }
    }

    /// True when this session records touches instead of charging them.
    pub fn is_recording(&self) -> bool {
        self.log.is_some()
    }

    /// Drain the recorded log (recording sessions; empty otherwise).
    pub fn take_log(&self) -> IoLog {
        match &self.log {
            Some(log) => std::mem::take(&mut log.borrow_mut()),
            None => IoLog::default(),
        }
    }

    /// Open a new op in the recorded log (no-op for live sessions). The
    /// storage layer calls this at the top of every `charge_*` entry point,
    /// so recorded logs segment along the plan's operation boundaries.
    pub fn begin_op(&self) {
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            let at = log.entries.len();
            log.ops.push(at);
        }
    }

    /// Replay a recorded log against this session, charging each touch as if
    /// it were issued here (duplicate boundary touches resolve to pool hits,
    /// per-file sequentiality is preserved).
    pub fn replay(&self, log: &IoLog) {
        for &(page, bytes) in log.entries() {
            self.read_page(page, bytes);
        }
    }

    /// Run `f` against a recording session over this session's pool and hand
    /// back what it would have charged. Nothing is charged here until the
    /// log is replayed — which is how a coordinator's charges wait for their
    /// place in [`IoSession::replay_interleaved`].
    pub fn record<R>(&self, f: impl FnOnce(&IoSession) -> R) -> (R, IoLog) {
        let rec = IoSession::recording(self.pool.clone());
        let out = f(&rec);
        (out, rec.take_log())
    }

    /// Replay per-morsel logs **op-major**: op `k` of every log (in the
    /// given morsel order), then op `k + 1`. Every morsel of a query
    /// executes the same structural op sequence, so all fragments of one
    /// column operation arrive together, column by column — the order a
    /// single whole-column execution charges — instead of interleaving files
    /// morsel by morsel, and the merged stats do not depend on the morsel
    /// grid or on which worker ran which morsel.
    ///
    /// `splices` are the coordinator's own charges, `(k, log)` meaning "all
    /// of `log` immediately before op `k`": a dimension's hash table is
    /// charged right before the first fragment of the probe that uses it,
    /// where a whole-column plan builds it, not ahead of the entire fan-out.
    /// Returns the stats delta each op index charged (its splices included),
    /// for per-operator attribution.
    pub fn replay_interleaved(&self, logs: &[IoLog], splices: &[(usize, &IoLog)]) -> Vec<IoStats> {
        let morsel_ops = logs.iter().map(IoLog::num_ops).max().unwrap_or(0);
        let ops = splices.iter().map(|(k, _)| k + 1).max().unwrap_or(0).max(morsel_ops);
        let mut deltas = Vec::with_capacity(ops);
        for k in 0..ops {
            let before = self.stats.get();
            splices.iter().filter(|(at, _)| *at == k).for_each(|(_, log)| self.replay(log));
            for log in logs {
                for &(page, bytes) in log.op(k) {
                    self.read_page(page, bytes);
                }
            }
            deltas.push(self.stats.get().delta(&before));
        }
        deltas
    }

    /// Touch `page` whose on-disk size is `bytes` (≤ [`PAGE_SIZE`]; the last
    /// page of a file may be short).
    pub fn read_page(&self, page: PageId, bytes: u64) {
        crate::fault::maybe_io_fault(page.file.0, page.page);
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            if log.ops.is_empty() {
                log.ops.push(0); // tolerate touches before any begin_op
            }
            log.entries.push((page, bytes));
            return;
        }
        let mut stats = self.stats.get();
        if self.pool.access(page) {
            stats.pool_hits += 1;
        } else {
            stats.pages_read += 1;
            stats.bytes_read += bytes;
            let mut last = self.last_fetch.borrow_mut();
            let sequential = last.get(&page.file) == Some(&page.page.wrapping_sub(1));
            if !sequential {
                stats.seeks += 1;
            }
            last.insert(page.file, page.page);
        }
        self.stats.set(stats);
    }

    /// Sequentially touch pages `[0, n)` of `file`, `total_bytes` long.
    pub fn read_file_sequential(&self, file: FileId, total_bytes: u64) {
        let n = pages_for(total_bytes);
        let mut remaining = total_bytes;
        for p in 0..n {
            let bytes = remaining.min(PAGE_SIZE);
            self.read_page(PageId { file, page: p }, bytes);
            remaining -= bytes;
        }
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.stats.get()
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(file: u64, page: u32) -> PageId {
        PageId { file: FileId(file), page }
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for(0), 1); // every object occupies at least a page
    }

    #[test]
    fn session_charges_misses_only() {
        let pool = BufferPool::new(10 * PAGE_SIZE);
        let s = IoSession::new(pool);
        s.read_page(page(1, 0), PAGE_SIZE);
        s.read_page(page(1, 0), PAGE_SIZE);
        let stats = s.stats();
        assert_eq!(stats.pages_read, 1);
        assert_eq!(stats.pool_hits, 1);
        assert_eq!(stats.bytes_read, PAGE_SIZE);
    }

    #[test]
    fn sequential_scan_counts_one_seek() {
        let pool = BufferPool::new(100 * PAGE_SIZE);
        let s = IoSession::new(pool);
        s.read_file_sequential(FileId(7), 10 * PAGE_SIZE);
        let stats = s.stats();
        assert_eq!(stats.pages_read, 10);
        assert_eq!(stats.seeks, 1); // only the initial positioning
    }

    #[test]
    fn random_access_counts_seeks() {
        let pool = BufferPool::new(100 * PAGE_SIZE);
        let s = IoSession::new(pool);
        for p in [0u32, 5, 2, 9] {
            s.read_page(page(3, p), PAGE_SIZE);
        }
        assert_eq!(s.stats().seeks, 4);
    }

    #[test]
    fn clock_evicts_when_full() {
        let pool = BufferPool::new(2 * PAGE_SIZE); // 2 frames
        let s = IoSession::new(pool.clone());
        s.read_page(page(1, 0), PAGE_SIZE);
        s.read_page(page(1, 1), PAGE_SIZE);
        s.read_page(page(1, 2), PAGE_SIZE); // evicts something
        assert_eq!(pool.resident_pages(), 2);
        // Re-reading the full set of 3 can't all be hits.
        let before = s.stats().pages_read;
        s.read_page(page(1, 0), PAGE_SIZE);
        s.read_page(page(1, 1), PAGE_SIZE);
        s.read_page(page(1, 2), PAGE_SIZE);
        assert!(s.stats().pages_read > before);
    }

    #[test]
    fn unbounded_pool_caches_everything() {
        let s = IoSession::unmetered();
        for p in 0..1000 {
            s.read_page(page(1, p), PAGE_SIZE);
        }
        for p in 0..1000 {
            s.read_page(page(1, p), PAGE_SIZE);
        }
        let stats = s.stats();
        assert_eq!(stats.pages_read, 1000);
        assert_eq!(stats.pool_hits, 1000);
    }

    #[test]
    fn disk_model_times() {
        let m = DiskModel::default();
        let stats =
            IoStats { bytes_read: 200 * 1024 * 1024, pages_read: 6400, seeks: 0, pool_hits: 0 };
        let t = m.io_time(&stats);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let with_seeks = IoStats { seeks: 250, ..stats };
        assert!((m.io_time(&with_seeks).as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pool_clear() {
        let pool = BufferPool::new(10 * PAGE_SIZE);
        let s = IoSession::new(pool.clone());
        s.read_page(page(1, 0), PAGE_SIZE);
        assert_eq!(pool.resident_pages(), 1);
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn file_ids_unique() {
        let a = FileId::fresh();
        let b = FileId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn interleaved_files_are_independent_streams() {
        // Two files read in lockstep: each is sequential on its own stripe,
        // so only the two initial positioning seeks are charged.
        let s = IoSession::unmetered();
        for p in 0..10u32 {
            s.read_page(page(1, p), PAGE_SIZE);
            s.read_page(page(2, p), PAGE_SIZE);
        }
        assert_eq!(s.stats().seeks, 2);
        assert_eq!(s.stats().pages_read, 20);
    }

    #[test]
    fn recording_session_charges_nothing() {
        let pool = BufferPool::new(10 * PAGE_SIZE);
        let rec = IoSession::recording(pool.clone());
        assert!(rec.is_recording());
        rec.read_page(page(1, 0), PAGE_SIZE);
        rec.read_page(page(1, 1), 100);
        assert_eq!(rec.stats(), IoStats::default());
        assert_eq!(pool.resident_pages(), 0);
        let log = rec.take_log();
        assert_eq!(log.entries(), &[(page(1, 0), PAGE_SIZE), (page(1, 1), 100)]);
        assert!(rec.take_log().entries().is_empty(), "log drained");
    }

    #[test]
    fn op_major_replay_groups_fragments_by_op() {
        // Two morsels, each charging op A (file 1) then op B (file 2).
        // Op-major replay must order file 1's fragments together, like a
        // serial plan, not interleave the files morsel by morsel.
        let main = IoSession::unmetered();
        let mut logs = Vec::new();
        for half in 0..2u32 {
            let rec = IoSession::recording(main.pool().clone());
            rec.begin_op();
            for p in half * 3..(half + 1) * 3 {
                rec.read_page(page(1, p), PAGE_SIZE);
            }
            rec.begin_op();
            for p in half * 3..(half + 1) * 3 {
                rec.read_page(page(2, p), PAGE_SIZE);
            }
            let log = rec.take_log();
            assert_eq!(log.num_ops(), 2);
            assert_eq!(log.op(0).len(), 3);
            logs.push(log);
        }
        let deltas = main.replay_interleaved(&logs, &[]);
        // Each file was read as one sequential stream: one seek per file.
        let stats = main.stats();
        assert_eq!(stats.pages_read, 12);
        assert_eq!(stats.seeks, 2);
        assert_eq!(deltas.iter().map(|d| d.pages_read).collect::<Vec<_>>(), [6, 6]);
    }

    #[test]
    fn spliced_charges_land_immediately_before_their_op() {
        // One morsel: op A streams file 1, op B touches a page of file 3 that
        // the coordinator read too (a dimension column). Spliced before op B
        // the coordinator's read is still resident when B comes round;
        // charged ahead of the fan-out, op A's stream evicts it first.
        let small = || IoSession::new(BufferPool::new(2 * PAGE_SIZE));
        let rec = IoSession::recording(BufferPool::unbounded());
        rec.begin_op();
        (0..4).for_each(|p| rec.read_page(page(1, p), PAGE_SIZE));
        rec.begin_op();
        rec.read_page(page(3, 0), PAGE_SIZE);
        let logs = [rec.take_log()];

        let spliced = small();
        let (_, coord) = spliced.record(|rec| rec.read_page(page(3, 0), PAGE_SIZE));
        assert_eq!(spliced.stats().pages_read, 0, "recording charges nothing");
        let deltas = spliced.replay_interleaved(&logs, &[(1, &coord)]);
        assert_eq!(deltas.iter().map(|d| d.pages_read).collect::<Vec<_>>(), [4, 1]);

        let ahead = small();
        ahead.replay(&coord);
        ahead.replay_interleaved(&logs, &[]);
        assert_eq!(ahead.stats().pages_read, 6);
    }

    #[test]
    fn replayed_split_logs_match_serial_stats() {
        // A 10-page sequential scan split into two recorded halves with a
        // duplicated boundary page replays to the exact serial stats.
        let serial = IoSession::unmetered();
        serial.read_file_sequential(FileId(9), 10 * PAGE_SIZE);

        let replayed = IoSession::unmetered();
        let first = IoSession::recording(replayed.pool().clone());
        let second = IoSession::recording(replayed.pool().clone());
        for p in 0..6u32 {
            first.read_page(page(9, p), PAGE_SIZE);
        }
        for p in 5..10u32 {
            second.read_page(page(9, p), PAGE_SIZE);
        }
        replayed.replay(&first.take_log());
        replayed.replay(&second.take_log());

        let (a, b) = (serial.stats(), replayed.stats());
        assert_eq!(a.bytes_read, b.bytes_read);
        assert_eq!(a.pages_read, b.pages_read);
        assert_eq!(a.seeks, b.seeks);
        assert_eq!(b.pool_hits, 1, "boundary page resolves to a hit");
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<IoSession>();
    }
}
