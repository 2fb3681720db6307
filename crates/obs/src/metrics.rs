//! Typed metrics (counters, gauges, histograms) in a global registry,
//! exported as a Prometheus text-format snapshot.
//!
//! Handles are cheap `Arc`-backed clones; reads and writes are lock
//! free (the registry mutex is only taken at registration and snapshot
//! time). The registry is name-keyed and sorted, so snapshots are
//! stable across runs.

use crate::sink::write_atomic;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistInner {
    /// Upper bucket bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; one slot per
    /// bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Fixed-bucket distribution (e.g. per-counterfactual latency).
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop: f64 addition over atomic bits.
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// The family a registry key belongs to: the metric name up to the
/// label block. `m{k="a"}` and `m{k="b"}` share one family (and one
/// `# TYPE` header in the snapshot).
fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Builds the registry key `name{k1="v1",k2="v2"}` for a labeled
/// metric. Label values are JSON/Prometheus-escaped (`\`, `"`, `\n`).
/// Keys sort adjacently to their family in the BTreeMap, so the
/// snapshot groups a family's series under one `# TYPE` header.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(valid_name(name), "bad metric name {name:?}");
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        debug_assert!(valid_name(k), "bad label name {k:?}");
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => key.push_str("\\\\"),
                '"' => key.push_str("\\\""),
                '\n' => key.push_str("\\n"),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

/// Gets or registers the gauge `name{labels…}` (e.g. a per-feature
/// drift score). The full labeled key is the registry entry; the
/// Prometheus snapshot renders it verbatim, one series per label set,
/// grouped under the family's single `# TYPE` header.
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)]) -> Gauge {
    gauge_by_key(&labeled(name, labels))
}

/// Gets or registers the counter `name`. Names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. A kind clash with an existing metric
/// returns a detached handle (debug builds assert).
pub fn counter(name: &str) -> Counter {
    debug_assert!(valid_name(name), "bad metric name {name:?}");
    let mut reg = REGISTRY.lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => {
            debug_assert!(false, "metric {name:?} already registered with another kind");
            Counter(Arc::new(AtomicU64::new(0)))
        }
    }
}

/// Gets or registers the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    debug_assert!(valid_name(name), "bad metric name {name:?}");
    gauge_by_key(name)
}

/// Registry lookup shared by [`gauge`] (bare names) and
/// [`gauge_labeled`] (pre-rendered `name{…}` keys).
fn gauge_by_key(name: &str) -> Gauge {
    let mut reg = REGISTRY.lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => {
            debug_assert!(false, "metric {name:?} already registered with another kind");
            Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))
        }
    }
}

/// Gets or registers the histogram `name` with the given upper bucket
/// bounds (strictly increasing; `+Inf` is implicit). Bounds of an
/// already-registered histogram win.
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    debug_assert!(valid_name(name), "bad metric name {name:?}");
    debug_assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly increasing"
    );
    let mut reg = REGISTRY.lock().unwrap();
    match reg.entry(name.to_string()).or_insert_with(|| {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Metric::Histogram(Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => {
            debug_assert!(false, "metric {name:?} already registered with another kind");
            Histogram(Arc::new(HistInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            }))
        }
    }
}

/// Drops every registered metric. Existing handles keep working but
/// are no longer exported. Intended for tests.
pub fn reset() {
    REGISTRY.lock().unwrap().clear();
}

fn push_f64(out: &mut String, v: f64) {
    if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("NaN");
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format (sorted by name, `# TYPE` headers, cumulative histogram
/// buckets with an explicit `+Inf`). Labeled series
/// (`name{key="value"}` registry keys) sort adjacently to their bare
/// family name, which gets exactly one `# TYPE` header.
pub fn prometheus_snapshot() -> String {
    let reg = REGISTRY.lock().unwrap();
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, metric) in reg.iter() {
        let family = family_of(name);
        let fresh_family = family != last_family;
        if fresh_family {
            last_family = family.to_string();
        }
        match metric {
            Metric::Counter(c) => {
                if fresh_family {
                    let _ = writeln!(out, "# TYPE {family} counter");
                }
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                if fresh_family {
                    let _ = writeln!(out, "# TYPE {family} gauge");
                }
                let _ = write!(out, "{name} ");
                push_f64(&mut out, g.get());
                out.push('\n');
            }
            Metric::Histogram(h) => {
                if fresh_family {
                    let _ = writeln!(out, "# TYPE {family} histogram");
                }
                let mut cumulative = 0u64;
                for (i, bound) in h.0.bounds.iter().enumerate() {
                    cumulative += h.0.buckets[i].load(Ordering::Relaxed);
                    let _ = write!(out, "{name}_bucket{{le=\"");
                    push_f64(&mut out, *bound);
                    let _ = writeln!(out, "\"}} {cumulative}");
                }
                cumulative += h.0.buckets[h.0.bounds.len()].load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                let _ = write!(out, "{name}_sum ");
                push_f64(&mut out, h.sum());
                out.push('\n');
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Writes [`prometheus_snapshot`] to `path` atomically (temp sibling →
/// fsync → rename), so a scraper never sees a torn file.
pub fn write_prometheus(path: &Path) -> io::Result<()> {
    write_atomic(path, prometheus_snapshot().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// The registry is global; serialize tests that reset it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<TestMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_and_gauge_snapshot() {
        let _g = lock();
        reset();
        counter("test_events_total").inc(3);
        gauge("test_loss").set(0.5);
        let snap = prometheus_snapshot();
        assert!(snap.contains("# TYPE test_events_total counter\ntest_events_total 3\n"));
        assert!(snap.contains("# TYPE test_loss gauge\ntest_loss 0.5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let _g = lock();
        reset();
        let h = histogram("test_latency", &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        let snap = prometheus_snapshot();
        assert!(snap.contains("test_latency_bucket{le=\"1\"} 2\n"), "{snap}");
        assert!(snap.contains("test_latency_bucket{le=\"10\"} 3\n"), "{snap}");
        assert!(snap.contains("test_latency_bucket{le=\"100\"} 4\n"), "{snap}");
        assert!(snap.contains("test_latency_bucket{le=\"+Inf\"} 5\n"), "{snap}");
        assert!(snap.contains("test_latency_count 5\n"), "{snap}");
        assert_eq!(h.sum(), 0.5 + 0.7 + 5.0 + 50.0 + 5000.0);
    }

    #[test]
    fn labeled_gauges_share_one_type_header() {
        let _g = lock();
        reset();
        gauge_labeled("test_drift_score", &[("feature", "c0")]).set(0.1);
        gauge_labeled("test_drift_score", &[("feature", "c1")]).set(0.5);
        let snap = prometheus_snapshot();
        assert_eq!(snap.matches("# TYPE test_drift_score gauge").count(), 1);
        assert!(snap.contains("test_drift_score{feature=\"c0\"} 0.1\n"), "{snap}");
        assert!(snap.contains("test_drift_score{feature=\"c1\"} 0.5\n"), "{snap}");
        // Escaping keeps hostile label values on one line.
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn handles_survive_reset() {
        let _g = lock();
        reset();
        let c = counter("test_survivor");
        reset();
        c.inc(1); // must not panic; simply no longer exported
        assert_eq!(c.get(), 1);
        assert!(!prometheus_snapshot().contains("test_survivor"));
    }
}
