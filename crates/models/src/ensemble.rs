//! Ensemble of black-box classifiers for robustness under model
//! multiplicity.
//!
//! A counterfactual that flips *one* trained classifier can be silently
//! invalidated by a retrain from a different seed or a slightly different
//! sample of the world ("model multiplicity", see PAPERS.md's
//! density-guided robust CF entry). [`EnsembleBlackBox`] materializes that
//! multiplicity: K [`BlackBox`] members trained from deterministic
//! per-member RNG streams derived from one base seed, optionally on
//! bootstrap subsamples. The robust validity loss in `cfx-core` hinges
//! against the worst-case or mean member logit so emitted CFs survive
//! plausible retrains, and the invalidation-rate metric in `cfx-metrics`
//! measures how often they don't.
//!
//! Determinism contract: member `k`'s init, shuffle, and bootstrap streams
//! depend only on `(base seed, k)` — never on thread count or evaluation
//! order. Aggregations ([`mean_logits`](EnsembleBlackBox::mean_logits),
//! [`predict`](EnsembleBlackBox::predict)) always reduce in member-index
//! order, so results are bitwise identical at any `CFX_THREADS` and under
//! any member-evaluation order (pinned by `tests/robust_prop.rs`).

use crate::blackbox::{BlackBox, BlackBoxConfig};
use cfx_tensor::checkpoint::Checkpoint;
use cfx_tensor::{CfxError, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Golden-ratio multiplier used to decorrelate per-member seed streams
/// (same constant the watchdog reseed path uses).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for an ensemble of black-box classifiers.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleConfig {
    /// Number of member classifiers (K). Must be ≥ 1.
    pub members: usize,
    /// When true each member trains on an n-row bootstrap resample
    /// (sampling with replacement, per-member stream); when false all
    /// members see the full data and differ only by init/shuffle seed.
    pub bootstrap: bool,
    /// Per-member training hyper-parameters. `base.seed` is the *base*
    /// seed: member k derives its own stream from it.
    pub base: BlackBoxConfig,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            members: 5,
            bootstrap: true,
            base: BlackBoxConfig::default(),
        }
    }
}

impl EnsembleConfig {
    /// Deterministic seed for member `k`'s init + shuffle stream.
    pub fn member_seed(&self, k: usize) -> u64 {
        self.base.seed ^ 0xE5B ^ SEED_STRIDE.wrapping_mul(k as u64)
    }

    /// Deterministic seed for member `k`'s bootstrap-resample stream
    /// (distinct from the training stream so toggling `bootstrap` does
    /// not perturb init/shuffle draws).
    pub fn bootstrap_seed(&self, k: usize) -> u64 {
        self.member_seed(k) ^ 0xB007
    }

    /// The member-k training config (shared hypers, member-derived seed).
    fn member_config(&self, k: usize) -> BlackBoxConfig {
        BlackBoxConfig { seed: self.member_seed(k), ..self.base }
    }
}

/// K independently trained [`BlackBox`] classifiers standing in for the
/// set of models a retrain could plausibly produce.
#[derive(Debug, Clone)]
pub struct EnsembleBlackBox {
    members: Vec<BlackBox>,
    config: EnsembleConfig,
}

impl EnsembleBlackBox {
    /// Creates K untrained members for `input_dim` features, each
    /// initialized from its own deterministic seed stream.
    ///
    /// Panics if `config.members == 0` — an empty ensemble has no
    /// worst case to hinge against.
    pub fn new(input_dim: usize, config: &EnsembleConfig) -> Self {
        assert!(config.members >= 1, "ensemble needs at least one member");
        let members = (0..config.members)
            .map(|k| BlackBox::new(input_dim, &config.member_config(k)))
            .collect();
        EnsembleBlackBox { members, config: *config }
    }

    /// Trains every member in index order; returns per-member epoch-loss
    /// histories. With `bootstrap` on, member k trains on an n-row
    /// resample drawn from its own stream; off, all members see the full
    /// data. Training is sequential and stream-isolated, so the result is
    /// bitwise identical at any `CFX_THREADS`.
    pub fn train(&mut self, x: &Tensor, y: &Tensor) -> Vec<Vec<f32>> {
        let config = self.config;
        let n = x.rows();
        let _span = cfx_obs::span!(
            "ensemble_train",
            members = config.members,
            rows = n,
            bootstrap = config.bootstrap as usize,
        );
        let mut histories = Vec::with_capacity(self.members.len());
        for (k, member) in self.members.iter_mut().enumerate() {
            let mcfg = config.member_config(k);
            let losses = if config.bootstrap {
                let mut rng =
                    StdRng::seed_from_u64(config.bootstrap_seed(k));
                let idx: Vec<usize> =
                    (0..n).map(|_| rng.gen_range(0..n)).collect();
                let xb = x.gather_rows_pooled(&idx);
                let yb = y.gather_rows_pooled(&idx);
                let losses = member.train(&xb, &yb, &mcfg);
                xb.recycle();
                yb.recycle();
                losses
            } else {
                member.train(x, y, &mcfg)
            };
            let last = losses.last().copied().unwrap_or(f32::NAN);
            cfx_obs::event!(
                "ensemble_member_trained",
                member = k,
                seed = mcfg.seed,
                final_loss = last,
            );
            cfx_obs::metrics::counter("cfx_robust_members_trained_total").inc(1);
            histories.push(losses);
        }
        histories
    }

    /// Number of members (K).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble holds no members (never constructible via
    /// [`new`](Self::new); exists for the idiomatic pair with `len`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member classifiers, in index order.
    pub fn members(&self) -> &[BlackBox] {
        &self.members
    }

    /// Member `k`.
    pub fn member(&self, k: usize) -> &BlackBox {
        &self.members[k]
    }

    /// The configuration the ensemble was built with.
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Input dimension shared by all members.
    pub fn input_dim(&self) -> usize {
        self.members[0].input_dim()
    }

    /// Per-member raw logits inside an autodiff tape, in member-index
    /// order — the building block for the robust validity loss.
    pub fn forward_members_tape(&self, tape: &mut Tape, x: Var) -> Vec<Var> {
        self.members.iter().map(|m| m.forward_tape(tape, x)).collect()
    }

    /// Mean member logit `(n, 1)`: per-member logits are computed into
    /// member-indexed slots and reduced in index order, so the result is
    /// independent of evaluation order.
    pub fn mean_logits(&self, x: &Tensor) -> Tensor {
        let order: Vec<usize> = (0..self.members.len()).collect();
        self.mean_logits_eval_order(x, &order)
    }

    /// [`mean_logits`](Self::mean_logits) with an explicit member
    /// *evaluation* order (test hook for the order-insensitivity
    /// contract). `order` must be a permutation of `0..K`. Logits land in
    /// member-indexed slots and the reduction always runs in index order,
    /// so every permutation yields a bitwise-identical tensor.
    pub fn mean_logits_eval_order(
        &self,
        x: &Tensor,
        order: &[usize],
    ) -> Tensor {
        assert_eq!(order.len(), self.members.len(), "order must cover K");
        let mut slots: Vec<Option<Tensor>> = vec![None; self.members.len()];
        for &k in order {
            assert!(slots[k].is_none(), "order must be a permutation");
            slots[k] = Some(self.members[k].logits(x));
        }
        let inv_k = 1.0 / self.members.len() as f32;
        let mut acc = vec![0.0f32; x.rows()];
        for slot in slots {
            let z = slot.expect("permutation covers every member");
            for (a, &v) in acc.iter_mut().zip(z.as_slice()) {
                *a += v;
            }
            z.recycle();
        }
        for a in acc.iter_mut() {
            *a *= inv_k;
        }
        Tensor::from_vec(x.rows(), 1, acc)
    }

    /// Hard 0/1 predictions from the mean logit's sign (the ensemble's
    /// consensus classifier).
    pub fn predict(&self, x: &Tensor) -> Vec<u8> {
        let z = self.mean_logits(x);
        let preds =
            z.as_slice().iter().map(|&v| (v >= 0.0) as u8).collect();
        z.recycle();
        preds
    }

    /// Hard 0/1 predictions of member `k` alone — the unit the
    /// invalidation-rate metric sweeps over.
    pub fn predict_member(&self, k: usize, x: &Tensor) -> Vec<u8> {
        self.members[k].predict(x)
    }

    /// Writes the whole ensemble (member count + every member) into
    /// checkpoint sections under `prefix`.
    pub fn export_to(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_u64s(
            &format!("{prefix}.count"),
            &[self.members.len() as u64],
        );
        for (k, m) in self.members.iter().enumerate() {
            m.export_to(ckpt, &format!("{prefix}.m{k}"));
        }
    }

    /// Restores every member from [`export_to`](Self::export_to)
    /// sections, validating the recorded member count and each member's
    /// dims; any mismatch is a [`CfxError::Corrupt`].
    pub fn import_from(
        &mut self,
        ckpt: &Checkpoint,
        prefix: &str,
    ) -> Result<(), CfxError> {
        let count = ckpt.u64s(&format!("{prefix}.count"))?;
        if count != [self.members.len() as u64] {
            return Err(CfxError::corrupt(format!(
                "ensemble member count mismatch: checkpoint {count:?}, \
                 model {}",
                self.members.len()
            )));
        }
        for (k, m) in self.members.iter_mut().enumerate() {
            m.import_from(ckpt, &format!("{prefix}.m{k}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Tensor, Tensor) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..300 {
            let a = (i as f32 * 0.61803) % 1.0;
            let b = (i as f32 * 0.32471) % 1.0;
            xs.push(a);
            xs.push(b);
            ys.push(((a + b) > 1.0) as u8 as f32);
        }
        (Tensor::from_vec(300, 2, xs), Tensor::from_vec(300, 1, ys))
    }

    fn quick_cfg(members: usize) -> EnsembleConfig {
        EnsembleConfig {
            members,
            bootstrap: true,
            base: BlackBoxConfig { epochs: 6, seed: 9, ..Default::default() },
        }
    }

    #[test]
    fn members_differ_but_runs_are_reproducible() {
        let (x, y) = toy();
        let cfg = quick_cfg(3);
        let mut a = EnsembleBlackBox::new(2, &cfg);
        let mut b = EnsembleBlackBox::new(2, &cfg);
        let la = a.train(&x, &y);
        let lb = b.train(&x, &y);
        assert_eq!(la, lb, "same base seed must reproduce bitwise");
        // Distinct member streams: at least one pair of members disagrees
        // somewhere in its loss history.
        assert_ne!(la[0], la[1], "members must differ by stream");
        let za = a.mean_logits(&x);
        let zb = b.mean_logits(&x);
        assert_eq!(za.as_slice(), zb.as_slice());
        za.recycle();
        zb.recycle();
    }

    #[test]
    fn mean_logits_insensitive_to_evaluation_order() {
        let (x, y) = toy();
        let cfg = quick_cfg(4);
        let mut e = EnsembleBlackBox::new(2, &cfg);
        e.train(&x, &y);
        let base = e.mean_logits_eval_order(&x, &[0, 1, 2, 3]);
        for order in [[3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]] {
            let z = e.mean_logits_eval_order(&x, &order);
            assert_eq!(
                base.as_slice(),
                z.as_slice(),
                "evaluation order {order:?} changed the mean logit"
            );
            z.recycle();
        }
        base.recycle();
    }

    #[test]
    fn tape_members_match_direct_logits() {
        let (x, y) = toy();
        let cfg = quick_cfg(2);
        let mut e = EnsembleBlackBox::new(2, &cfg);
        e.train(&x, &y);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let vars = e.forward_members_tape(&mut tape, xv);
        for (k, v) in vars.iter().enumerate() {
            let direct = e.member(k).logits(&x);
            for (a, b) in
                tape.value(*v).as_slice().iter().zip(direct.as_slice())
            {
                assert!((a - b).abs() < 1e-6);
            }
            direct.recycle();
        }
    }

    #[test]
    fn export_import_round_trips() {
        let (x, y) = toy();
        let cfg = quick_cfg(2);
        let mut e = EnsembleBlackBox::new(2, &cfg);
        e.train(&x, &y);
        let mut ckpt = Checkpoint::new();
        e.export_to(&mut ckpt, "ens");
        let mut fresh = EnsembleBlackBox::new(2, &cfg);
        fresh.import_from(&ckpt, "ens").unwrap();
        let za = e.mean_logits(&x);
        let zb = fresh.mean_logits(&x);
        assert_eq!(za.as_slice(), zb.as_slice());
        za.recycle();
        zb.recycle();
    }

    #[test]
    fn member_count_mismatch_is_corrupt() {
        let cfg2 = quick_cfg(2);
        let e = EnsembleBlackBox::new(2, &cfg2);
        let mut ckpt = Checkpoint::new();
        e.export_to(&mut ckpt, "ens");
        let cfg3 = quick_cfg(3);
        let mut other = EnsembleBlackBox::new(2, &cfg3);
        let err = other.import_from(&ckpt, "ens").unwrap_err();
        assert!(matches!(err, CfxError::Corrupt(_)), "got {err}");
    }
}
