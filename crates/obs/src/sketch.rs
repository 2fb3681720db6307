//! Streaming per-feature statistics: Welford moments, a fixed-bin
//! sketch over `[0, 1]`, and a population-stability-index comparison.
//!
//! These are the building blocks of the serve-side live drift monitor:
//! accumulators are cheap to push into (no allocation, no locks — the
//! caller holds the lock), and the bin counts that PSI reads do not
//! depend on the order observations arrive in.
//!
//! Encoded feature values in this workspace live in `[0, 1]` (min-max
//! scaled numerics, one-hot indicators), so a fixed equal-width binning
//! over the unit interval is a faithful quantile sketch; values outside
//! are clamped into the edge bins rather than dropped, so a wildly
//! out-of-range stream *raises* the drift score instead of hiding.

/// Number of equal-width bins a [`BinSketch`] divides `[0, 1]` into.
pub const BINS: usize = 16;

/// Laplace smoothing mass added per bin when comparing distributions,
/// so empty bins never produce infinite log-ratios.
pub const PSI_EPS: f64 = 0.5;

/// Welford streaming mean/variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Moments::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
}

/// Fixed-bin histogram sketch over the unit interval ([`BINS`] bins,
/// out-of-range values clamped into the edge bins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinSketch {
    counts: [u64; BINS],
}

impl Default for BinSketch {
    fn default() -> Self {
        BinSketch { counts: [0; BINS] }
    }
}

impl BinSketch {
    /// Empty sketch.
    pub fn new() -> Self {
        BinSketch::default()
    }

    /// The bin index a value falls into.
    pub fn bin_of(x: f64) -> usize {
        if !x.is_finite() || x <= 0.0 {
            return 0;
        }
        ((x * BINS as f64) as usize).min(BINS - 1)
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.counts[Self::bin_of(x)] += 1;
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64; BINS] {
        &self.counts
    }

    /// Smoothed bin proportions ([`PSI_EPS`] Laplace mass per bin);
    /// uniform when the sketch is empty.
    pub fn proportions(&self) -> [f64; BINS] {
        let total = self.total() as f64 + BINS as f64 * PSI_EPS;
        let mut out = [0.0; BINS];
        for (o, &c) in out.iter_mut().zip(self.counts.iter()) {
            *o = (c as f64 + PSI_EPS) / total;
        }
        out
    }
}

/// One feature's live statistics: moments plus the bin sketch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeatureStats {
    /// Streaming mean/variance.
    pub moments: Moments,
    /// Fixed-bin distribution sketch.
    pub sketch: BinSketch,
}

impl FeatureStats {
    /// Folds one observation into both accumulators.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.sketch.push(x);
    }
}

/// Population stability index between a reference bin distribution and
/// a live one: `Σ (p_live − p_ref) · ln(p_live / p_ref)` over smoothed
/// proportions. 0 for identical distributions; by the classic rule of
/// thumb < 0.1 is noise, 0.1–0.25 is moderate shift, > 0.25 is a
/// population change worth paging about.
pub fn psi(reference: &[f64; BINS], live: &[f64; BINS]) -> f64 {
    let mut score = 0.0;
    for (&q, &p) in reference.iter().zip(live.iter()) {
        if p > 0.0 && q > 0.0 {
            score += (p - q) * (p / q).ln();
        }
    }
    score.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [0.1, 0.4, 0.7, 0.2, 0.9, 0.5, 0.05];
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / xs.len() as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.count(), xs.len() as u64);
    }

    #[test]
    fn bins_clamp_and_cover() {
        assert_eq!(BinSketch::bin_of(-1.0), 0);
        assert_eq!(BinSketch::bin_of(0.0), 0);
        assert_eq!(BinSketch::bin_of(0.999), BINS - 1);
        assert_eq!(BinSketch::bin_of(1.0), BINS - 1);
        assert_eq!(BinSketch::bin_of(7.5), BINS - 1);
        assert_eq!(BinSketch::bin_of(f64::NAN), 0);
        let mut s = BinSketch::new();
        s.push(0.03);
        s.push(0.97);
        assert_eq!(s.total(), 2);
        let p = s.proportions();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn psi_zero_for_identical_grows_with_shift() {
        let mut base = BinSketch::new();
        let mut same = BinSketch::new();
        let mut shifted = BinSketch::new();
        for i in 0..1000 {
            let x = (i % 100) as f64 / 100.0 * 0.5; // mass in [0, 0.5)
            base.push(x);
            same.push(x);
            shifted.push(x + 0.5); // mass in [0.5, 1.0)
        }
        let b = base.proportions();
        assert!(psi(&b, &same.proportions()) < 1e-9);
        let moved = psi(&b, &shifted.proportions());
        assert!(moved > 0.25, "full shift must exceed the PSI alarm: {moved}");
    }
}
