//! Hyper-parameter configuration, including the paper's Table III values.

use cfx_data::DatasetId;
use cfx_tensor::CfxError;

/// Which constraint model is being trained (§III-A): the paper fits one
/// model per constraint type and reports both rows in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintMode {
    /// Only the unary constraint (Eq. 1) in the loss.
    Unary,
    /// Only the binary constraint (Eq. 2) in the loss.
    Binary,
}

impl ConstraintMode {
    /// Table row label.
    pub fn label(&self) -> &'static str {
        match self {
            ConstraintMode::Unary => "Unary-const",
            ConstraintMode::Binary => "Binary-const",
        }
    }
}

/// How the validity term scores counterfactuals when the model carries an
/// ensemble of black boxes (model multiplicity; see the "Robustness under
/// model multiplicity & drift" section of `DESIGN.md`).
///
/// A CF that flips one trained classifier can be invalidated by a retrain
/// from another seed or data sample. The robust modes hinge the validity
/// loss against the ensemble instead of the single frozen primary, so the
/// generator learns CFs that survive plausible retrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RobustMode {
    /// Paper behaviour: hinge on the primary black box only. An attached
    /// ensemble is ignored by the loss (it can still be used for
    /// invalidation measurement).
    #[default]
    Off,
    /// Hinge on the mean ensemble logit — robust to the *average*
    /// retrain, cheapest signal, weakest guarantee.
    Mean,
    /// Hinge on the worst-case (least favourable) member logit per row —
    /// a CF only scores as valid once *every* member agrees, the
    /// strongest multiplicity guarantee.
    WorstCase,
}

impl RobustMode {
    /// Bench/report label.
    pub fn label(&self) -> &'static str {
        match self {
            RobustMode::Off => "plain",
            RobustMode::Mean => "robust-mean",
            RobustMode::WorstCase => "robust-worst",
        }
    }
}

/// Weights of the four-part loss (§III-C) plus the ELBO's KL regularizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfLossWeights {
    /// Hinge validity term of Eq. (3).
    pub validity: f32,
    /// L1 proximity term `d(x, x')` of Eq. (3).
    pub proximity: f32,
    /// Constraint penalty terms (`-min(0, x_cf − x)` / binary hinge).
    pub feasibility: f32,
    /// Sparsity term `g(x' − x)` (smooth-L0 + L1 mix).
    pub sparsity: f32,
    /// KL divergence of the VAE posterior (keeps the latent space a
    /// manifold; small so the CF terms dominate).
    pub kl: f32,
    /// Hinge margin for validity.
    pub hinge_margin: f32,
    /// ε of the smooth-L0 surrogate `d²/(d²+ε)`.
    pub sparsity_eps: f32,
    /// BCE-with-logits reconstruction anchor between the decoder logits
    /// and the input. The paper's Eq. (3) distance is the L1 term above;
    /// this anchor is the implementation device (also used by the CVAE of
    /// [5]) that keeps gradients alive once the sigmoid outputs saturate —
    /// without it the decoder collapses to a saturated class prototype.
    pub recon_bce: f32,
}

impl Default for CfLossWeights {
    fn default() -> Self {
        CfLossWeights {
            validity: 8.0,
            proximity: 3.0,
            feasibility: 10.0,
            sparsity: 0.2,
            kl: 0.05,
            hinge_margin: 0.5,
            sparsity_eps: 5e-2,
            recon_bce: 1.0,
        }
    }
}

/// Full training configuration for [`FeasibleCfModel`](crate::FeasibleCfModel).
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibleCfConfig {
    /// Constraint model variant.
    pub mode: ConstraintMode,
    /// SGD/Adam learning rate (Table III).
    pub learning_rate: f32,
    /// Mini-batch size (Table III: 2048 everywhere).
    pub batch_size: usize,
    /// Training epochs (Table III: 25 or 50).
    pub epochs: usize,
    /// Loss weights.
    pub weights: CfLossWeights,
    /// VAE latent dimensionality (paper: 10).
    pub latent_dim: usize,
    /// VAE dropout rate (paper: 0.30).
    pub dropout: f32,
    /// Binary-constraint penalty offset `c₁`.
    pub c1: f32,
    /// Binary-constraint penalty slope `c₂`.
    pub c2: f32,
    /// Whether immutable attributes are frozen during generation (§III-C,
    /// *Immutable Attributes*); the ablation bench turns this off.
    pub mask_immutable: bool,
    /// RNG seed.
    pub seed: u64,
    /// Robust-validity mode. [`RobustMode::Off`] reproduces the paper's
    /// single-model hinge exactly; the other modes require an ensemble
    /// attached via
    /// [`FeasibleCfModel::with_ensemble`](crate::FeasibleCfModel::with_ensemble).
    pub robust: RobustMode,
}

impl FeasibleCfConfig {
    /// The paper's Table III settings for a dataset/mode pair.
    ///
    /// Table III learning rates (0.1–0.2) are SGD-scale; we train with
    /// Adam (as the underlying CVAE of [5] does) and map them to the
    /// equivalent Adam rates by a factor of 10 — the epoch/batch
    /// structure is kept verbatim.
    pub fn paper(dataset: DatasetId, mode: ConstraintMode) -> Self {
        let (table_lr, epochs) = match (dataset, mode) {
            (DatasetId::Adult, ConstraintMode::Unary) => (0.2, 25),
            (DatasetId::Adult, ConstraintMode::Binary) => (0.2, 50),
            (DatasetId::KddCensus, ConstraintMode::Unary) => (0.1, 25),
            (DatasetId::KddCensus, ConstraintMode::Binary) => (0.1, 25),
            (DatasetId::LawSchool, ConstraintMode::Unary) => (0.2, 25),
            (DatasetId::LawSchool, ConstraintMode::Binary) => (0.2, 50),
        };
        FeasibleCfConfig {
            mode,
            learning_rate: table_lr / 10.0,
            batch_size: 2048,
            epochs,
            weights: CfLossWeights::default(),
            latent_dim: cfx_models::PAPER_LATENT_DIM,
            dropout: cfx_models::PAPER_DROPOUT,
            c1: 0.0,
            c2: 0.2,
            mask_immutable: true,
            seed: 0,
            robust: RobustMode::Off,
        }
    }

    /// The Table III learning rate as printed (before the Adam mapping).
    pub fn table3_learning_rate(dataset: DatasetId, mode: ConstraintMode) -> f32 {
        match (dataset, mode) {
            (DatasetId::KddCensus, _) => 0.1,
            _ => 0.2,
        }
    }

    /// Rescales the epoch count so the total number of optimizer steps on
    /// `n_train` rows matches what Table III's epochs×batches deliver at
    /// the paper's full dataset size. At paper size this is the identity;
    /// on scaled-down runs it prevents the CVAE from stopping long before
    /// convergence (the paper's schedule is defined in epochs, but the
    /// model's behaviour is governed by steps).
    pub fn with_step_budget_of(mut self, dataset: DatasetId, n_train: usize) -> Self {
        let paper_train =
            (dataset.paper_clean_size() as f64 * 0.8).round() as usize;
        // Floor the budget at 1 500 optimizer steps: Table III's schedule
        // assumes the real datasets' redundancy; the synthetic generators
        // need a few more passes to reach the same regime, and stopping a
        // CVAE mid-descent distorts every Table IV column at once.
        let paper_steps = (self.epochs
            * paper_train.div_ceil(self.batch_size).max(1))
        .max(1_500);
        let actual_batches = n_train.div_ceil(self.batch_size).max(1);
        self.epochs = paper_steps.div_ceil(actual_batches).max(self.epochs);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style epoch override (tests use few epochs).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style robust-mode override.
    pub fn with_robust(mut self, robust: RobustMode) -> Self {
        self.robust = robust;
        self
    }
}

/// Divergence-watchdog settings for fault-tolerant training (see the
/// "Failure model & recovery" section of `DESIGN.md`).
///
/// The watchdog snapshots the best-so-far weights, detects non-finite
/// losses/gradients and runaway divergence, and on a fault rolls back to
/// the snapshot, backs the learning rate off and retries with a reseeded
/// RNG — up to `max_retries` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Rollback/retry budget; once exhausted training stops at the best
    /// snapshot with [`TrainStatus::Exhausted`](crate::TrainStatus).
    pub max_retries: usize,
    /// Multiplicative learning-rate backoff applied per retry.
    pub lr_backoff: f32,
    /// An epoch's total loss above `divergence_factor × best_total` (and
    /// above `divergence_floor`) counts as divergence.
    pub divergence_factor: f32,
    /// Absolute floor below which the divergence test never fires — early
    /// noisy epochs legitimately bounce around small losses.
    pub divergence_floor: f32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_retries: 3,
            lr_backoff: 0.5,
            divergence_factor: 25.0,
            divergence_floor: 100.0,
        }
    }
}

impl WatchdogConfig {
    /// Builder-style retry-budget override.
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// Graceful-degradation settings for counterfactual generation
/// ([`FeasibleCfModel::explain_batch_deadline_stream`](crate::FeasibleCfModel::explain_batch_deadline_stream)).
///
/// Samples whose first-shot CF is invalid or infeasible are re-decoded
/// with perturbed latents up to `resample_attempts` times; whatever still
/// fails falls back to a nearest-neighbor CF from the training pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenRecoveryConfig {
    /// Per-sample latent resampling budget before the fallback engages.
    pub resample_attempts: usize,
    /// Scale of the latent noise used when resampling.
    pub noise_scale: f32,
}

impl Default for GenRecoveryConfig {
    fn default() -> Self {
        GenRecoveryConfig { resample_attempts: 4, noise_scale: 0.5 }
    }
}

impl GenRecoveryConfig {
    /// Builder-style resample-budget override.
    pub fn with_resample_attempts(mut self, attempts: usize) -> Self {
        self.resample_attempts = attempts;
        self
    }

    /// Rejects values that would silently corrupt the degradation ladder:
    /// a negative or non-finite `noise_scale` turns latent resampling
    /// into NaN/backwards perturbations that *look* like honest retries.
    /// (`resample_attempts == 0` stays legal — it means "skip straight to
    /// the fallback pool".) Checked at every `explain_batch*` entry.
    pub fn validate(&self) -> Result<(), CfxError> {
        if !self.noise_scale.is_finite() || self.noise_scale < 0.0 {
            return Err(CfxError::config(format!(
                "GenRecoveryConfig::noise_scale must be finite and >= 0, \
                 got {}",
                self.noise_scale
            )));
        }
        Ok(())
    }
}

/// Generation-side memory/latency knobs for
/// [`FeasibleCfModel`](crate::FeasibleCfModel), separate from the
/// training hyper-parameters of [`FeasibleCfConfig`].
///
/// The serving daemon tunes these under memory pressure; the defaults
/// reproduce the historical hard-coded behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainConfig {
    /// Cap on the FACE-style nearest-neighbor fallback pool subsampled
    /// from the training rows at model construction. Larger pools give
    /// better fallback counterfactuals but cost O(pool²) distance work
    /// and O(pool × width) resident memory per model. The default (512)
    /// is the value that was previously hard-coded.
    pub fallback_pool_cap: usize,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig { fallback_pool_cap: 512 }
    }
}

impl ExplainConfig {
    /// Builder-style fallback-pool-cap override.
    pub fn with_fallback_pool_cap(mut self, cap: usize) -> Self {
        self.fallback_pool_cap = cap;
        self
    }

    /// Rejects knobs that would silently disable the degradation ladder:
    /// `fallback_pool_cap == 0` builds an *empty* FACE fallback pool, so
    /// rung 3 can never repair a row and every exhausted sample ships an
    /// invalid CF with no error. Checked by
    /// [`FeasibleCfModel::new_with_explain`](crate::FeasibleCfModel::new_with_explain).
    pub fn validate(&self) -> Result<(), CfxError> {
        if self.fallback_pool_cap == 0 {
            return Err(CfxError::config(
                "ExplainConfig::fallback_pool_cap must be > 0 \
                 (0 silently disables the FACE fallback rung)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_reproduced() {
        for (ds, mode, lr, epochs) in [
            (DatasetId::Adult, ConstraintMode::Unary, 0.2, 25),
            (DatasetId::Adult, ConstraintMode::Binary, 0.2, 50),
            (DatasetId::KddCensus, ConstraintMode::Unary, 0.1, 25),
            (DatasetId::KddCensus, ConstraintMode::Binary, 0.1, 25),
            (DatasetId::LawSchool, ConstraintMode::Unary, 0.2, 25),
            (DatasetId::LawSchool, ConstraintMode::Binary, 0.2, 50),
        ] {
            let cfg = FeasibleCfConfig::paper(ds, mode);
            assert_eq!(FeasibleCfConfig::table3_learning_rate(ds, mode), lr);
            assert_eq!(cfg.epochs, epochs);
            assert_eq!(cfg.batch_size, 2048);
            assert_eq!(cfg.latent_dim, 10);
            assert!((cfg.dropout - 0.30).abs() < 1e-6);
        }
    }

    #[test]
    fn builders_override() {
        let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
            .with_seed(9)
            .with_epochs(3)
            .with_batch_size(64);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.batch_size, 64);
    }

    #[test]
    fn mode_labels_match_table3() {
        assert_eq!(ConstraintMode::Unary.label(), "Unary-const");
        assert_eq!(ConstraintMode::Binary.label(), "Binary-const");
    }

    #[test]
    fn paper_config_defaults_to_plain_validity() {
        let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary);
        assert_eq!(cfg.robust, RobustMode::Off);
        let robust = cfg.with_robust(RobustMode::WorstCase);
        assert_eq!(robust.robust, RobustMode::WorstCase);
        assert_eq!(RobustMode::Off.label(), "plain");
        assert_eq!(RobustMode::Mean.label(), "robust-mean");
        assert_eq!(RobustMode::WorstCase.label(), "robust-worst");
    }

    #[test]
    fn explain_config_rejects_zero_pool_cap() {
        assert!(ExplainConfig::default().validate().is_ok());
        let err = ExplainConfig::default()
            .with_fallback_pool_cap(0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, CfxError::Config(_)), "got {err}");
        assert!(err.to_string().contains("fallback_pool_cap"));
    }

    #[test]
    fn recovery_config_rejects_bad_noise_scale() {
        assert!(GenRecoveryConfig::default().validate().is_ok());
        // Zero attempts is legal: skip straight to the fallback pool.
        assert!(GenRecoveryConfig::default()
            .with_resample_attempts(0)
            .validate()
            .is_ok());
        for bad in [-0.5, f32::NAN, f32::INFINITY] {
            let cfg = GenRecoveryConfig { noise_scale: bad, ..Default::default() };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, CfxError::Config(_)), "got {err}");
        }
    }
}
