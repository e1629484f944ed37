//! A bounded serving-layer cache of completed results.
//!
//! One tier: a finished [`RowsResponse`] (output rows *and* the
//! [`cvr_storage::io::IoStats`] the cold execution charged), keyed by the
//! statement's canonical string from [`cvr_plan::key`] — full descriptor plus
//! store version. A hit returns the stored response byte-for-byte; only the
//! `cached` flag differs.
//!
//! Memory is bounded by a byte budget that counts what an entry keeps
//! resident — the response's heap footprint, its key and its map slot, by
//! arithmetic ([`entry_bytes`]) — not its encoded size. Eviction is LRU by a
//! monotonic touch stamp, kept ordered beside the map so each victim costs
//! O(log n), and an entry larger than the whole budget is simply not
//! admitted. Entries are shared (`Arc`): the lock covers a map probe and
//! a reference count — rows are copied in, copied out and freed outside it.
//! All counters are monotonic and readable without the entry lock
//! ([`QueryCache::stats`]).
//!
//! Determinism: a hit never changes a single reply byte — the differential
//! harness pins `{cold, hit, concurrent}` executions to one serial cold
//! reference, outputs and `IoStats` alike.

use crate::session::{ColumnMeta, RowsResponse};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Monotonic cache counters plus the current footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result hits.
    pub result_hits: u64,
    /// Result misses.
    pub result_misses: u64,
    /// Reserved, always 0: the slot of the deleted filter-intermediate
    /// tier's hits, kept so the `STATS` frame layout does not move.
    pub filter_hits: u64,
    /// Reserved, always 0 (see [`CacheStats::filter_hits`]).
    pub filter_misses: u64,
    /// Entries inserted.
    pub inserted: u64,
    /// Entries evicted to stay within budget.
    pub evicted: u64,
    /// Current footprint in bytes.
    pub bytes: usize,
    /// Configured byte budget.
    pub budget: usize,
}

/// One cached response with its accounted size and last-touch stamp.
struct Entry {
    value: Arc<RowsResponse>,
    bytes: usize,
    stamp: u64,
}

/// The entry map with its eviction order, footprint and clock, under one
/// lock.
#[derive(Default)]
struct Inner {
    results: HashMap<Arc<str>, Entry>,
    /// Every resident key by its entry's stamp, oldest first. Stamps are
    /// unique, so this is exactly the order a scan for the minimum stamp
    /// would evict in.
    by_stamp: BTreeMap<u64, Arc<str>>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The entry under `key`, its stamp refreshed.
    fn touch(&mut self, key: &str) -> Option<Arc<RowsResponse>> {
        let stamp = self.next_stamp();
        let entry = self.results.get_mut(key)?;
        let key = self.by_stamp.remove(&entry.stamp).expect("every entry is indexed");
        self.by_stamp.insert(stamp, key);
        entry.stamp = stamp;
        Some(entry.value.clone())
    }

    /// Store `value` under `key`, then evict down to `budget`. Returns the
    /// entry it replaced and the evicted ones, oldest first, for the caller
    /// to drop once the lock is released: freeing a large answer walks every
    /// row, like copying one.
    fn insert(
        &mut self,
        key: Arc<str>,
        value: Arc<RowsResponse>,
        bytes: usize,
        budget: usize,
    ) -> (Option<Entry>, Vec<(Arc<str>, Entry)>) {
        let stamp = self.next_stamp();
        let replaced = self.detach(&key);
        self.bytes += bytes;
        self.by_stamp.insert(stamp, key.clone());
        self.results.insert(key, Entry { value, bytes, stamp });
        let mut evicted = Vec::new();
        while self.bytes > budget {
            let Some((_, key)) = self.by_stamp.pop_first() else { break };
            let entry = self.results.remove(&key).expect("every indexed key is resident");
            self.bytes -= entry.bytes;
            evicted.push((key, entry));
        }
        (replaced, evicted)
    }

    fn detach(&mut self, key: &str) -> Option<Entry> {
        let entry = self.results.remove(key)?;
        self.by_stamp.remove(&entry.stamp);
        self.bytes -= entry.bytes;
        Some(entry)
    }
}

/// The serving-layer cache; see the module docs.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
}

impl QueryCache {
    /// A cache bounded to `budget` bytes.
    pub fn new(budget: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            budget,
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The map and its stamp index agree at every point a panic can stop
        // an update (between them nothing panics short of the `expect`s that
        // check that agreement), so a poisoned lock is recoverable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a completed result; counts a hit or miss and refreshes the
    /// entry's LRU stamp. The returned response has `cached == false` — the
    /// caller flips it for the wire.
    pub fn get_result(&self, key: &str) -> Option<RowsResponse> {
        let shared = self.lock().touch(key);
        match &shared {
            Some(_) => {
                self.result_hits.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_hits_total{tier=\"result\"}", "Cache hits").inc();
            }
            None => {
                self.result_misses.fetch_add(1, Ordering::Relaxed);
                cvr_obs::counter("cvr_cache_misses_total{tier=\"result\"}", "Cache misses").inc();
            }
        }
        // The caller's copy of the rows is made here, outside the lock.
        shared.map(|hit| (*hit).clone())
    }

    /// Store a completed result under `key`, replacing any entry already
    /// there.
    pub fn put_result(&self, key: String, value: &RowsResponse) {
        let bytes = entry_bytes(&key, value);
        if bytes > self.budget {
            return; // would evict the entire cache and still not fit
        }
        let value = Arc::new(RowsResponse { cached: false, ..value.clone() });
        let key: Arc<str> = key.into();
        let (_replaced, evicted) = self.lock().insert(key, value, bytes, self.budget);
        self.inserted.fetch_add(1, Ordering::Relaxed);
        cvr_obs::counter("cvr_cache_inserted_total", "Cache entries inserted").inc();
        if !evicted.is_empty() {
            let n = evicted.len() as u64;
            self.evicted.fetch_add(n, Ordering::Relaxed);
            cvr_obs::counter("cvr_cache_evicted_total", "Cache entries evicted").add(n);
        }
    }

    /// Presence check without touching counters or LRU stamps (`EXPLAIN`).
    pub fn peek(&self, key: &str) -> bool {
        self.lock().results.contains_key(key)
    }

    /// Counter snapshot plus current footprint.
    pub fn stats(&self) -> CacheStats {
        let bytes = self.lock().bytes;
        CacheStats {
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            filter_hits: 0,
            filter_misses: 0,
            inserted: self.inserted.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes,
            budget: self.budget,
        }
    }
}

/// What holding a copy of `r` under `key` keeps resident: the shared
/// response block (two reference counts in front of it) and the heap behind
/// its strings, column list and rows, plus the map's slot (key, entry,
/// control byte), the stamp index's slot, and the shared key's bytes (two
/// reference counts in front of them).
fn entry_bytes(key: &str, r: &RowsResponse) -> usize {
    let columns = r.columns.len() * size_of::<ColumnMeta>()
        + r.columns.iter().map(|c| c.name.len()).sum::<usize>();
    let response = 2 * size_of::<usize>() + size_of::<RowsResponse>();
    let slot = size_of::<(Arc<str>, Entry)>() + 1 + size_of::<(u64, Arc<str>)>();
    let key = 2 * size_of::<usize>() + key.len();
    response + r.plan.len() + columns + r.output.heap_bytes() + slot + key
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::queries::QueryId;
    use cvr_data::result::QueryOutput;
    use cvr_data::value::Value;

    fn response(rows: usize) -> RowsResponse {
        let rows = (0..rows as i64).map(|i| (vec![Value::Int(i), Value::str("ASIA")], i)).collect();
        RowsResponse {
            query_id: QueryId::new(9, 1),
            plan: "tICL".to_string(),
            columns: Vec::new(),
            output: QueryOutput::new(rows),
            io: Default::default(),
            cached: true,
        }
    }

    #[test]
    fn the_footprint_is_the_sum_of_the_entries_it_holds() {
        let one = entry_bytes("a", &response(10));
        let cache = QueryCache::new(3 * one);
        for key in ["a", "b", "c"] {
            cache.put_result(key.to_string(), &response(10));
        }
        assert_eq!((cache.stats().bytes, cache.stats().evicted), (3 * one, 0));
        // Replacing an entry replaces its charge.
        cache.put_result("b".to_string(), &response(10));
        assert_eq!((cache.stats().bytes, cache.stats().evicted), (3 * one, 0));
        assert!(!cache.get_result("b").expect("resident").cached, "stored uncached");
        // A fourth entry evicts the least recently touched: "a".
        cache.put_result("d".to_string(), &response(10));
        assert_eq!((cache.stats().bytes, cache.stats().evicted), (3 * one, 1));
        assert_eq!(["a", "b", "c", "d"].map(|k| cache.peek(k)), [false, true, true, true]);
        // Larger than the whole budget: not admitted, nothing disturbed.
        cache.put_result("e".to_string(), &response(100));
        assert_eq!((cache.stats().bytes, cache.stats().inserted), (3 * one, 5));
        assert!(!cache.peek("e"));
    }

    #[test]
    fn the_stamp_index_evicts_what_a_min_stamp_scan_would() {
        use cvr_data::gen::rng::SplitMix64;
        // The reference: every resident key with its size and stamp, and a
        // victim found by scanning for the smallest stamp.
        #[derive(Default)]
        struct Scan {
            entries: HashMap<String, (usize, u64)>,
            bytes: usize,
            tick: u64,
        }
        impl Scan {
            fn get(&mut self, key: &str) -> bool {
                self.tick += 1;
                let tick = self.tick;
                self.entries.get_mut(key).map(|e| e.1 = tick).is_some()
            }
            fn put(&mut self, key: &str, bytes: usize, budget: usize) -> Vec<String> {
                self.tick += 1;
                if let Some((old, _)) = self.entries.insert(key.to_string(), (bytes, self.tick)) {
                    self.bytes -= old;
                }
                self.bytes += bytes;
                let mut evicted = Vec::new();
                while self.bytes > budget {
                    let (key, _) = self.entries.iter().min_by_key(|(_, e)| e.1).expect("over");
                    let key = key.clone();
                    self.bytes -= self.entries.remove(&key).expect("resident").0;
                    evicted.push(key);
                }
                evicted
            }
        }

        let budget = 40_000;
        let value = Arc::new(response(1));
        let (mut inner, mut scan) = (Inner::default(), Scan::default());
        let mut rng = SplitMix64::new(0xCAC4E);
        let (mut gets, mut hits, mut evictions) = (0, 0, 0);
        for _ in 0..20_000 {
            let key = format!("k{}", rng.index(300));
            if rng.index(3) == 0 {
                let bytes = 500 + rng.index(3_000);
                let (_, evicted) = inner.insert(key.as_str().into(), value.clone(), bytes, budget);
                let evicted: Vec<String> = evicted.iter().map(|(k, _)| k.to_string()).collect();
                assert_eq!(evicted, scan.put(&key, bytes, budget), "putting {key}");
                evictions += evicted.len();
            } else {
                let hit = inner.touch(&key).is_some();
                assert_eq!(hit, scan.get(&key), "getting {key}");
                (gets, hits) = (gets + 1, hits + usize::from(hit));
            }
            assert_eq!((inner.bytes, inner.results.len()), (scan.bytes, scan.entries.len()));
            assert_eq!(inner.by_stamp.len(), inner.results.len());
        }
        // The sequence exercised both paths: hits refresh stamps, and the
        // budget holds ~16 of the 300 keys, so puts evict.
        assert!(hits > gets / 50 && hits < gets, "{hits} hits of {gets} gets");
        assert!(evictions > 1_000, "{evictions} evictions");
    }
}
