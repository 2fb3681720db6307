//! Sharded, bounded LRU response cache keyed on encoded rows.
//!
//! FOCUS-style amortized explainers earn their keep because production
//! traffic repeats: the same denied applicant retries, a dashboard
//! re-renders the same cohort, load balancers replay health probes.
//! This cache converts that repetition into sub-millisecond hits that
//! never touch a worker queue.
//!
//! **Key anatomy.** A cached body is only valid for the exact triple
//! that produced it, so the key is:
//!
//! 1. the request rows' **f32 bit patterns** (full material, compared
//!    byte-for-byte — a fingerprint collision can never serve a wrong
//!    body; the fingerprint only selects the shard),
//! 2. the **model version** (a hot-reloaded model must never serve a
//!    predecessor's bytes), and
//! 3. the **explain-config fingerprint** (seed + recovery budgets +
//!    fallback-pool cap — anything that changes response bytes without
//!    changing the weights).
//!
//! **Bounds & eviction.** `cap` bounds total entries (0 disables the
//! cache entirely); entries spread over [`SHARDS`] lock shards by row
//! fingerprint, and each shard evicts its least-recently-used entry on
//! overflow. Eviction is an O(shard) scan — shards are small (cap /
//! SHARDS) and eviction is off the hit path.
//!
//! **Invalidation.** The registry calls [`ResponseCache::invalidate_all`]
//! the moment a hot swap lands: one pass over the shard locks, after
//! which no pre-swap entry is observable. Because the version is also
//! *in* the key, even a racing lookup between swap and purge cannot
//! return a stale body for a new-version request.
//!
//! Hit/miss/eviction/invalidation tallies are mirrored to the
//! `cfx_serve_cache_*` metric families.

use crate::shard::{fnv1a64, row_fingerprint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked cache shards.
pub const SHARDS: usize = 8;

/// Full identity of a cached response (see module docs for anatomy).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Per-row encoded f32 bit patterns (row boundaries kept).
    rows: Vec<Vec<u32>>,
    /// Model version the response was rendered from.
    version: u64,
    /// Fingerprint of the explain-side knobs.
    config: u64,
    /// Row-content fingerprint (shard selector; not trusted for
    /// equality).
    fingerprint: u64,
}

impl CacheKey {
    /// Builds the key for a request. `fingerprint` must be
    /// [`row_fingerprint`]`(rows)` (callers already have it for
    /// sharding; pass it through instead of re-hashing).
    pub fn new(
        rows: &[Vec<f32>],
        fingerprint: u64,
        version: u64,
        config: u64,
    ) -> Self {
        debug_assert_eq!(fingerprint, row_fingerprint(rows));
        CacheKey {
            rows: rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect(),
            version,
            config,
            fingerprint,
        }
    }

    fn shard(&self) -> usize {
        // The low bits already picked the worker (`% workers`); use an
        // independent mix for the cache shard so worker count and
        // cache shard stay uncorrelated.
        (fnv1a64(&self.fingerprint.to_le_bytes()) % SHARDS as u64) as usize
    }
}

/// Monotone cache tallies (also exported as `cfx_serve_cache_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a worker.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Whole-cache purges (one per model hot swap).
    pub invalidations: u64,
}

struct Entry {
    body: String,
    /// Last-touch sequence number (global, monotone): the shard's
    /// minimum is its LRU victim.
    touched: u64,
}

/// The sharded, bounded LRU. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct ResponseCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    /// Per-shard entry bound (`cap / SHARDS`, at least 1 when enabled).
    shard_cap: usize,
    /// Total-entry bound as configured; 0 disables every operation.
    cap: usize,
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ResponseCache {
    /// A cache bounded at `cap` total entries; `cap == 0` disables it
    /// (every `get` misses without counting, every `insert` is a no-op).
    pub fn new(cap: usize) -> Self {
        ResponseCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_cap: cap.div_ceil(SHARDS).max(usize::from(cap > 0)),
            cap,
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether the cache participates at all (`cap > 0`).
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Configured total-entry bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Looks `key` up, refreshing its LRU position on a hit. Disabled
    /// caches return `None` without touching any counter.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        if !self.enabled() {
            return None;
        }
        let mut shard =
            self.shards[key.shard()].lock().expect("shard lock poisoned");
        match shard.get_mut(key) {
            Some(entry) => {
                entry.touched = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
                let body = entry.body.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                cfx_obs::metrics::counter("cfx_serve_cache_hits_total").inc(1);
                Some(body)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                cfx_obs::metrics::counter("cfx_serve_cache_misses_total")
                    .inc(1);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → body`, evicting the shard's LRU
    /// entry if it is at its bound. No-op when disabled.
    pub fn insert(&self, key: CacheKey, body: String) {
        if !self.enabled() {
            return;
        }
        let idx = key.shard();
        let mut shard = self.shards[idx].lock().expect("shard lock poisoned");
        let touched = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        if !shard.contains_key(&key) && shard.len() >= self.shard_cap {
            if let Some(victim) = shard
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                cfx_obs::metrics::counter("cfx_serve_cache_evictions_total")
                    .inc(1);
            }
        }
        shard.insert(key, Entry { body, touched });
        let len: usize = shard.len();
        drop(shard);
        // Gauge refresh is approximate across shards; exactness is
        // not worth a global lock.
        let others: usize = self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, s)| s.lock().expect("shard lock poisoned").len())
            .sum();
        cfx_obs::metrics::gauge("cfx_serve_cache_entries")
            .set((others + len) as f64);
    }

    /// Purges every entry (model hot swap). Counted once per call.
    pub fn invalidate_all(&self) {
        if !self.enabled() {
            return;
        }
        for shard in &self.shards {
            shard.lock().expect("shard lock poisoned").clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        cfx_obs::metrics::counter("cfx_serve_cache_invalidations_total")
            .inc(1);
        cfx_obs::metrics::gauge("cfx_serve_cache_entries").set(0.0);
    }

    /// Current resident entry count (sums shard locks; for health and
    /// tests, not the hot path).
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Monotone tallies since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rows: &[Vec<f32>], version: u64, config: u64) -> CacheKey {
        CacheKey::new(rows, row_fingerprint(rows), version, config)
    }

    #[test]
    fn hit_miss_and_version_isolation() {
        let cache = ResponseCache::new(16);
        let rows = vec![vec![1.0, 2.0]];
        assert_eq!(cache.get(&key(&rows, 0, 7)), None);
        cache.insert(key(&rows, 0, 7), "body-v0".into());
        assert_eq!(cache.get(&key(&rows, 0, 7)).as_deref(), Some("body-v0"));
        // A new model version is a different key outright.
        assert_eq!(cache.get(&key(&rows, 1, 7)), None);
        // So is a different config fingerprint.
        assert_eq!(cache.get(&key(&rows, 0, 8)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    #[test]
    fn zero_cap_disables_everything() {
        let cache = ResponseCache::new(0);
        assert!(!cache.enabled());
        let rows = vec![vec![3.0]];
        cache.insert(key(&rows, 0, 0), "x".into());
        assert_eq!(cache.get(&key(&rows, 0, 0)), None);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // cap 8 over 8 shards → every shard holds exactly one entry, so
        // any two keys landing in the same shard exercise eviction.
        let cache = ResponseCache::new(8);
        let mut keys = Vec::new();
        for i in 0..64 {
            let rows = vec![vec![i as f32]];
            let k = key(&rows, 0, 0);
            cache.insert(k.clone(), format!("b{i}"));
            keys.push(k);
        }
        assert!(cache.entries() <= 8, "bound violated: {}", cache.entries());
        assert!(cache.stats().evictions >= 56);
        // The most recent insert in some shard must still be resident.
        let last = keys.last().unwrap();
        assert_eq!(cache.get(last).as_deref(), Some("b63"));
    }

    #[test]
    fn touch_on_get_protects_hot_entries() {
        let cache = ResponseCache::new(8); // one entry per shard
        let hot = key(&[vec![0.5f32]], 0, 0);
        cache.insert(hot.clone(), "hot".into());
        // Keep touching the hot key while colliding inserts arrive; the
        // insert that shares its shard evicts, but after each eviction
        // re-inserting keeps working and the bound holds.
        for i in 0..32 {
            let _ = cache.get(&hot);
            cache.insert(key(&[vec![10.0 + i as f32]], 0, 0), "cold".into());
        }
        assert!(cache.entries() <= 8);
    }

    #[test]
    fn invalidate_all_purges_and_counts() {
        let cache = ResponseCache::new(16);
        for i in 0..5 {
            cache.insert(key(&[vec![i as f32]], 0, 0), "x".into());
        }
        assert!(cache.entries() > 0);
        cache.invalidate_all();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }
}
