//! Live traffic drift monitor: streaming per-feature statistics over
//! the rows `/explain` actually receives, compared against the
//! training-set reference moments.
//!
//! PR 9 measured the failure mode (drifted worlds invalidate up to
//! half the counterfactuals a model emits); this module notices it
//! *live*. Every accepted `/explain` body's rows are folded into one
//! accumulator behind one lock ([`DriftMonitor`]) right after parsing —
//! before cache lookup, so hits and sheds still count as observed
//! traffic. Scoring computes a population stability index per encoded
//! column against [`ReferenceStats`] exported at checkpoint time
//! (`serve.refstats`, written by `FeasibleCfModel::export_servable`) or
//! recomputed from the boot dataset. PSI reads only integer bin counts,
//! so the same multiset of rows scores bit-identically in any arrival
//! order, at any worker count.
//!
//! The monitor is a pure observer: it never touches response bytes,
//! consumes no RNG state, and its accumulation cost is a handful of
//! float ops per cell under the lock.

use cfx_core::ReferenceStats;
use cfx_obs::metrics::{gauge, gauge_labeled};
use cfx_obs::sketch::{psi, FeatureStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// How many observed rows between gauge/threshold refreshes.
pub const REFRESH_EVERY_ROWS: u64 = 64;

/// Observed rows required before the threshold warning may trip. PSI's
/// sampling-noise floor under the null scales like `(BINS - 1) / rows`
/// (it is χ²/n in disguise): at 16 bins, 64 clean rows already sit at
/// ~0.23 per column — threshold territory — while 256 rows drop the
/// per-column expectation to ~0.06 and keep the worst of ~30 columns
/// comfortably under 0.25. So: no paging before 256 observed rows.
pub const MIN_WARN_ROWS: u64 = 256;

/// Per-feature and overall drift scores at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScores {
    /// PSI per encoded column.
    pub per_feature: Vec<f64>,
    /// Mean PSI across columns — the single pageable number.
    pub overall: f64,
    /// Rows folded into the accumulator when the score was taken.
    pub rows: u64,
}

impl DriftScores {
    /// The single worst per-column PSI. Drift rarely moves every
    /// column: a shift confined to a few continuous features leaves the
    /// column *mean* diluted by the untouched one-hot columns, so the
    /// max is what the threshold check looks at alongside the mean.
    pub fn worst_feature(&self) -> f64 {
        self.per_feature.iter().copied().fold(0.0, f64::max)
    }
    /// The `k` worst (highest-PSI) columns as `(column, score)`,
    /// descending, ties broken by column index for determinism.
    pub fn worst(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> =
            self.per_feature.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }
}

/// Streaming accumulator over live `/explain` rows.
pub struct DriftMonitor {
    /// One [`FeatureStats`] per encoded column.
    stats: Mutex<Vec<FeatureStats>>,
    rows_observed: AtomicU64,
    /// Edge trigger for the threshold warning: `warn!` fires on the
    /// upward crossing, not on every refresh above the line.
    over_threshold: AtomicBool,
    threshold: f64,
}

impl DriftMonitor {
    /// A monitor for `width` encoded columns warning at `threshold`.
    pub fn new(width: usize, threshold: f64) -> Self {
        DriftMonitor {
            stats: Mutex::new(vec![FeatureStats::default(); width]),
            rows_observed: AtomicU64::new(0),
            over_threshold: AtomicBool::new(false),
            threshold,
        }
    }

    /// The configured warning threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Rows folded in so far.
    pub fn rows_observed(&self) -> u64 {
        self.rows_observed.load(Ordering::Relaxed)
    }

    /// Whether `scores` constitutes actionable drift: a sample of at
    /// least [`MIN_WARN_ROWS`] rows whose mean **or** single worst
    /// per-column PSI exceeds the threshold. The per-column arm matters
    /// in practice — a real shift confined to a few continuous features
    /// (the PR-9 drift model) barely moves the 30-column mean, but the
    /// affected columns individually blow through 0.25.
    pub fn is_drifting(&self, scores: &DriftScores) -> bool {
        scores.rows >= MIN_WARN_ROWS
            && (scores.overall > self.threshold
                || scores.worst_feature() > self.threshold)
    }

    /// Folds one request's rows in. Returns the new observed-row total
    /// (the caller refreshes scores when it crosses a
    /// [`REFRESH_EVERY_ROWS`] boundary).
    pub fn observe(&self, rows: &[Vec<f32>]) -> u64 {
        {
            let mut stats =
                self.stats.lock().unwrap_or_else(|e| e.into_inner());
            for row in rows {
                for (c, &v) in row.iter().enumerate() {
                    if let Some(s) = stats.get_mut(c) {
                        s.push(v as f64);
                    }
                }
            }
        }
        self.rows_observed
            .fetch_add(rows.len() as u64, Ordering::Relaxed)
            + rows.len() as u64
    }

    /// A copy of the per-column statistics.
    pub fn snapshot(&self) -> Vec<FeatureStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Scores the live accumulator against `reference`: PSI per column
    /// over smoothed bin proportions, overall = column mean. An empty
    /// accumulator scores 0 everywhere (no traffic is not drift).
    pub fn scores(&self, reference: &ReferenceStats) -> DriftScores {
        let rows = self.rows_observed();
        let live = self.snapshot();
        let width = live.len().min(reference.width());
        let mut per_feature = vec![0.0f64; live.len()];
        if rows > 0 {
            for c in 0..width {
                per_feature[c] =
                    psi(&reference.bins[c], &live[c].sketch.proportions());
            }
        }
        let overall = if per_feature.is_empty() {
            0.0
        } else {
            per_feature.iter().sum::<f64>() / per_feature.len() as f64
        };
        DriftScores { per_feature, overall, rows }
    }

    /// Scores, exports gauges (one `cfx_serve_drift_score` series per
    /// column, labelled `c0`, `c1`, …, plus
    /// `cfx_serve_drift_score_overall` and
    /// `cfx_serve_drift_rows_observed`), and emits the threshold
    /// `warn!` on an upward crossing. Called on the refresh cadence,
    /// on `/healthz`, and at drain.
    pub fn refresh(&self, reference: &ReferenceStats) -> DriftScores {
        let scores = self.scores(reference);
        for (c, &s) in scores.per_feature.iter().enumerate() {
            gauge_labeled(
                "cfx_serve_drift_score",
                &[("feature", &format!("c{c}"))],
            )
            .set(s);
        }
        gauge("cfx_serve_drift_score_overall").set(scores.overall);
        gauge("cfx_serve_drift_score_max").set(scores.worst_feature());
        gauge("cfx_serve_drift_rows_observed").set(scores.rows as f64);
        let over = self.is_drifting(&scores);
        let was_over = self.over_threshold.swap(over, Ordering::Relaxed);
        if over && !was_over {
            let worst = scores.worst(3);
            cfx_obs::warn!(
                "serve_drift_warning",
                overall = scores.overall,
                threshold = self.threshold,
                rows = scores.rows,
                worst = worst
                    .iter()
                    .map(|(c, s)| format!("c{c}={s:.3}"))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        scores
    }
}

/// Renders the `/healthz` drift section: overall score, threshold,
/// observed rows, and the worst-`k` columns with their live-vs-
/// reference mean shift.
pub fn healthz_json(
    monitor: &DriftMonitor,
    reference: &ReferenceStats,
    k: usize,
) -> String {
    use std::fmt::Write as _;
    let scores = monitor.refresh(reference);
    let live = monitor.snapshot();
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"overall\":{:.6},\"max\":{:.6},\"threshold\":{:.6},\"rows_observed\":{},\"drifting\":{},\"worst\":[",
        scores.overall,
        scores.worst_feature(),
        monitor.threshold(),
        scores.rows,
        monitor.is_drifting(&scores),
    );
    for (i, (c, s)) in scores.worst(k).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let live_mean = live.get(c).map(|m| m.moments.mean()).unwrap_or(0.0);
        let ref_mean = reference.means.get(c).copied().unwrap_or(0.0) as f64;
        let _ = write!(
            out,
            "{{\"feature\":\"c{c}\",\"score\":{s:.6},\"live_mean\":{live_mean:.6},\"ref_mean\":{ref_mean:.6}}}",
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_obs::sketch::{BinSketch, BINS};

    fn reference_uniform(width: usize) -> ReferenceStats {
        // Uniform-ish reference: equal mass in every bin.
        let mut sketch = BinSketch::new();
        for i in 0..(BINS * 64) {
            sketch.push((i % BINS) as f64 / BINS as f64 + 0.5 / BINS as f64);
        }
        ReferenceStats {
            means: vec![0.5; width],
            vars: vec![1.0 / 12.0; width],
            bins: vec![sketch.proportions(); width],
        }
    }

    #[test]
    fn clean_traffic_scores_low_concentrated_scores_high() {
        let width = 4;
        let reference = reference_uniform(width);
        let monitor = DriftMonitor::new(width, 0.25);
        // Clean: rows matching the uniform reference.
        for i in 0..256u64 {
            let v = (i % BINS as u64) as f32 / BINS as f32 + 0.01;
            monitor.observe(&[vec![v; width]]);
        }
        let clean = monitor.scores(&reference);
        assert!(clean.overall < 0.1, "clean overall {}", clean.overall);

        // Drifted: all mass piled into one bin.
        let drifted = DriftMonitor::new(width, 0.25);
        for _ in 0..256 {
            drifted.observe(&[vec![0.97; width]]);
        }
        let hot = drifted.scores(&reference);
        assert!(hot.overall > 0.25, "drifted overall {}", hot.overall);
        assert_eq!(hot.rows, 256);
        let worst = hot.worst(2);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].1 >= worst[1].1);
    }

    #[test]
    fn single_column_drift_trips_despite_diluted_mean() {
        // 64 columns, only column 0 drifted: the mean stays under the
        // threshold but the per-column arm of is_drifting fires. Under
        // MIN_WARN_ROWS the same scores must NOT fire.
        let width = 64;
        let reference = reference_uniform(width);
        let monitor = DriftMonitor::new(width, 0.25);
        for i in 0..256u64 {
            let mut row =
                vec![(i % BINS as u64) as f32 / BINS as f32 + 0.01; width];
            row[0] = 0.97; // all of column 0's mass in one bin
            monitor.observe(&[row]);
        }
        let scores = monitor.scores(&reference);
        assert!(
            scores.overall < 0.25,
            "mean should stay diluted: {}",
            scores.overall
        );
        assert!(
            scores.worst_feature() > 0.25,
            "column 0 should blow through: {}",
            scores.worst_feature()
        );
        assert!(monitor.is_drifting(&scores));
        let tiny = DriftScores { rows: MIN_WARN_ROWS - 1, ..scores };
        assert!(!monitor.is_drifting(&tiny), "tiny samples never page");
    }

    #[test]
    fn scores_are_observation_order_invariant() {
        // The same multiset of rows in two different arrival orders
        // must score bit-identically: PSI reads only the integer bin
        // counts, which do not depend on the fold order.
        let width = 3;
        let reference = reference_uniform(width);
        let rows: Vec<Vec<f32>> = (0..200u64)
            .map(|i| vec![(i % 17) as f32 / 17.0; width])
            .collect();
        let a = DriftMonitor::new(width, 0.25);
        for row in &rows {
            a.observe(std::slice::from_ref(row));
        }
        let b = DriftMonitor::new(width, 0.25);
        for row in rows.iter().rev() {
            b.observe(std::slice::from_ref(row));
        }
        let bits = |m: &DriftMonitor| -> Vec<u64> {
            let scores = m.scores(&reference);
            scores.per_feature.iter().map(|s| s.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        for (x, y) in a.snapshot().iter().zip(b.snapshot().iter()) {
            assert_eq!(x.sketch, y.sketch);
        }
    }
}
