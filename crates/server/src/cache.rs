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
//! monotonic touch stamp, and an entry larger than the whole budget is simply
//! not admitted. Entries are shared (`Arc`): the lock covers a map probe and
//! a reference count — rows are copied in, copied out and freed outside it.
//! All counters are monotonic and readable without the entry lock
//! ([`QueryCache::stats`]).
//!
//! Determinism: a hit never changes a single reply byte — the differential
//! harness pins `{cold, hit, concurrent}` executions to one serial cold
//! reference, outputs and `IoStats` alike.

use crate::session::{ColumnMeta, RowsResponse};
use std::collections::HashMap;
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

/// The entry map with its footprint and clock, under one lock.
#[derive(Default)]
struct Inner {
    results: HashMap<String, Entry>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Detach least-recently-touched entries until the footprint fits
    /// `budget`. The caller drops them once the lock is released: freeing a
    /// large answer walks every row, like copying one.
    fn evict_to(&mut self, budget: usize) -> Vec<Entry> {
        let mut evicted = Vec::new();
        while self.bytes > budget {
            let Some(oldest) = self.results.iter().min_by_key(|(_, e)| e.stamp) else { break };
            let key = oldest.0.clone();
            evicted.extend(self.detach(&key));
        }
        evicted
    }

    fn detach(&mut self, key: &str) -> Option<Entry> {
        let entry = self.results.remove(key)?;
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
        // The map is valid at every point (no invariant spans a panic), so
        // a poisoned lock is recoverable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a completed result; counts a hit or miss and refreshes the
    /// entry's LRU stamp. The returned response has `cached == false` — the
    /// caller flips it for the wire.
    pub fn get_result(&self, key: &str) -> Option<RowsResponse> {
        let shared = {
            let mut inner = self.lock();
            let stamp = inner.next_stamp();
            inner.results.get_mut(key).map(|e| {
                e.stamp = stamp;
                e.value.clone()
            })
        };
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
        let (_replaced, evicted) = {
            let mut inner = self.lock();
            let stamp = inner.next_stamp();
            let replaced = inner.detach(&key);
            inner.bytes += bytes;
            inner.results.insert(key, Entry { value, bytes, stamp });
            (replaced, inner.evict_to(self.budget))
        };
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
/// control byte) and the key's own bytes.
fn entry_bytes(key: &str, r: &RowsResponse) -> usize {
    let columns = r.columns.len() * size_of::<ColumnMeta>()
        + r.columns.iter().map(|c| c.name.len()).sum::<usize>();
    let response = 2 * size_of::<usize>() + size_of::<RowsResponse>();
    let slot = size_of::<(String, Entry)>() + 1;
    response + r.plan.len() + columns + r.output.heap_bytes() + slot + key.len()
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
}
