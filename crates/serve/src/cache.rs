//! Bounded LRU response cache keyed on encoded rows.
//!
//! FOCUS-style amortized explainers earn their keep because production
//! traffic repeats: the same denied applicant retries, a dashboard
//! re-renders the same cohort, load balancers replay health probes.
//! This cache converts that repetition into sub-millisecond hits that
//! never touch the worker queue.
//!
//! **Key anatomy.** A cached body is only valid for the exact triple
//! that produced it, so the key is:
//!
//! 1. the request rows' **f32 bit patterns** (full material, compared
//!    byte-for-byte, so no hash collision can ever serve a wrong body),
//! 2. the **model version** (a hot-reloaded model must never serve a
//!    predecessor's bytes), and
//! 3. the **explain-config fingerprint** (seed + recovery budgets +
//!    fallback-pool cap — anything that changes response bytes without
//!    changing the weights).
//!
//! **Bounds & eviction.** `cap` bounds the entries (0 disables the
//! cache entirely). One lock guards the map, so the LRU order and the
//! `cfx_serve_cache_entries` gauge are exact: an insert into a full
//! cache evicts the least-recently-used entry. Eviction is an O(cap)
//! scan, paid only on a miss, after an explain call that costs far
//! more.
//!
//! **Invalidation.** The registry calls [`ResponseCache::invalidate_all`]
//! the moment a hot swap lands, after which no pre-swap entry is
//! observable. Because the version is also *in* the key, even a racing
//! lookup between swap and purge cannot return a stale body for a
//! new-version request.
//!
//! Hit/miss/eviction/invalidation tallies are mirrored to the
//! `cfx_serve_cache_*` metric families.

use std::collections::HashMap;
use std::sync::Mutex;

/// Full identity of a cached response (see module docs for anatomy).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Per-row encoded f32 bit patterns (row boundaries kept).
    rows: Vec<Vec<u32>>,
    /// Model version the response was rendered from.
    version: u64,
    /// Fingerprint of the explain-side knobs.
    config: u64,
}

impl CacheKey {
    /// Builds the key for a request.
    pub fn new(rows: &[Vec<f32>], version: u64, config: u64) -> Self {
        CacheKey {
            rows: rows
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect(),
            version,
            config,
        }
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
    /// Last-touch sequence number: the minimum is the LRU victim.
    touched: u64,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Monotone touch counter feeding [`Entry::touched`].
    seq: u64,
    stats: CacheStats,
}

/// The bounded LRU. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct ResponseCache {
    inner: Mutex<Inner>,
    /// Entry bound as configured; 0 disables every operation.
    cap: usize,
}

impl ResponseCache {
    /// A cache bounded at `cap` entries; `cap == 0` disables it (every
    /// `get` misses without counting, every `insert` is a no-op).
    pub fn new(cap: usize) -> Self {
        ResponseCache { inner: Mutex::new(Inner::default()), cap }
    }

    /// Whether the cache participates at all (`cap > 0`).
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Configured entry bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock poisoned")
    }

    /// Looks `key` up, refreshing its LRU position on a hit. Disabled
    /// caches return `None` without touching any counter.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        if !self.enabled() {
            return None;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let body = match inner.map.get_mut(key) {
            Some(entry) => {
                inner.seq += 1;
                entry.touched = inner.seq;
                inner.stats.hits += 1;
                Some(entry.body.clone())
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        };
        drop(guard);
        cfx_obs::metrics::counter(if body.is_some() {
            "cfx_serve_cache_hits_total"
        } else {
            "cfx_serve_cache_misses_total"
        })
        .inc(1);
        body
    }

    /// Inserts (or refreshes) `key → body`, evicting the least recently
    /// used entry if the cache is full. No-op when disabled.
    pub fn insert(&self, key: CacheKey, body: String) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.seq += 1;
        let touched = inner.seq;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.cap {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
                cfx_obs::metrics::counter("cfx_serve_cache_evictions_total")
                    .inc(1);
            }
        }
        inner.map.insert(key, Entry { body, touched });
        cfx_obs::metrics::gauge("cfx_serve_cache_entries")
            .set(inner.map.len() as f64);
    }

    /// Purges every entry (model hot swap). Counted once per call.
    pub fn invalidate_all(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.map.clear();
        inner.stats.invalidations += 1;
        cfx_obs::metrics::counter("cfx_serve_cache_invalidations_total")
            .inc(1);
        cfx_obs::metrics::gauge("cfx_serve_cache_entries").set(0.0);
    }

    /// Current resident entry count.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Monotone tallies since construction.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rows: &[Vec<f32>], version: u64, config: u64) -> CacheKey {
        CacheKey::new(rows, version, config)
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
    fn lru_evicts_exactly_the_least_recently_used_entry() {
        let cache = ResponseCache::new(8);
        let k = |i: usize| key(&[vec![i as f32]], 0, 0);
        for i in 0..8 {
            cache.insert(k(i), format!("b{i}"));
        }
        assert_eq!(cache.entries(), 8, "a cache of 8 holds 8 entries");
        assert_eq!(cache.stats().evictions, 0);
        // Touch k0: k1 becomes the least recently used entry.
        assert_eq!(cache.get(&k(0)).as_deref(), Some("b0"));
        cache.insert(k(8), "b8".into());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.entries(), 8);
        assert_eq!(cache.get(&k(1)), None, "k1 was the LRU victim");
        for i in [0, 2, 3, 4, 5, 6, 7, 8] {
            assert_eq!(cache.get(&k(i)), Some(format!("b{i}")), "k{i}");
        }
    }

    #[test]
    fn touch_on_get_protects_hot_entries() {
        let cache = ResponseCache::new(8);
        let hot = key(&[vec![0.5f32]], 0, 0);
        cache.insert(hot.clone(), "hot".into());
        // Touch the hot key before every cold insert: the cold keys
        // evict each other, never the hot one.
        for i in 0..32 {
            assert_eq!(cache.get(&hot).as_deref(), Some("hot"), "round {i}");
            cache.insert(key(&[vec![10.0 + i as f32]], 0, 0), "cold".into());
        }
        assert_eq!(cache.entries(), 8);
        assert_eq!(cache.get(&hot).as_deref(), Some("hot"));
    }

    #[test]
    fn invalidate_all_purges_and_counts() {
        let cache = ResponseCache::new(16);
        for i in 0..5 {
            cache.insert(key(&[vec![i as f32]], 0, 0), "x".into());
        }
        assert_eq!(cache.entries(), 5);
        cache.invalidate_all();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }
}
