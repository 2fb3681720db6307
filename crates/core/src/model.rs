//! The paper's counterfactual generator: a conditional VAE trained with
//! the four-part loss, against a frozen black-box classifier (Fig. 4).

use crate::config::{
    ConstraintMode, ExplainConfig, FeasibleCfConfig, RobustMode,
    WatchdogConfig,
};
use crate::constraints::Constraint;
use crate::loss::{cf_loss, cf_loss_robust};
use crate::mask::ImmutableMask;
use cfx_data::{DatasetId, EncodedDataset};
use cfx_models::{BlackBox, Cvae, EnsembleBlackBox};
use cfx_obs::metrics::{counter, gauge};
use cfx_obs::sketch::{FeatureStats, BINS};
use cfx_tensor::init::randn_tensor;
use cfx_tensor::stable_sigmoid;
use cfx_tensor::Activation;
use cfx_tensor::checkpoint::{crash_point, Checkpoint, CheckpointConfig};
use cfx_tensor::{guard, CfxError};
use cfx_tensor::{Adam, Module, Optimizer, Tape, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Mean loss components over one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Weighted total loss.
    pub total: f32,
    /// Hinge validity term.
    pub validity: f32,
    /// L1 proximity term.
    pub proximity: f32,
    /// Constraint penalty term.
    pub feasibility: f32,
    /// Sparsity term.
    pub sparsity: f32,
    /// KL term.
    pub kl: f32,
}

/// What the training watchdog detected in a failed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDetected {
    /// An epoch produced a NaN/Inf loss (checked before the optimizer
    /// step, so corrupted gradients never touch the weights).
    NonFiniteLoss,
    /// Backward produced a NaN/Inf gradient despite a finite loss.
    NonFiniteGrad,
    /// The epoch loss blew past the divergence threshold relative to the
    /// best epoch seen so far.
    Diverged,
}

impl std::fmt::Display for FaultDetected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultDetected::NonFiniteLoss => write!(f, "non-finite loss"),
            FaultDetected::NonFiniteGrad => write!(f, "non-finite gradient"),
            FaultDetected::Diverged => write!(f, "loss divergence"),
        }
    }
}

/// One rollback performed by the training watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch index that faulted (the retry re-runs this epoch).
    pub epoch: usize,
    /// 1-based retry count at the time of the rollback.
    pub retry: usize,
    /// What tripped the watchdog.
    pub fault: FaultDetected,
    /// Learning rate in effect *after* the backoff.
    pub learning_rate: f32,
}

/// Terminal state of a watchdog-supervised training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainStatus {
    /// No fault was ever detected.
    Completed,
    /// At least one rollback happened, but training finished the schedule.
    Recovered,
    /// The retry budget ran out; the model holds the best snapshot.
    Exhausted,
    /// The per-call epoch budget ran out before the schedule finished; a
    /// checkpoint holds the full state and a resumed call continues
    /// bitwise-identically (only reachable through
    /// [`FeasibleCfModel::fit_with_checkpoints`] with an
    /// `epoch_budget`).
    Paused,
}

/// Outcome of [`FeasibleCfModel::fit`]: the per-epoch loss history plus
/// the watchdog's recovery record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss components of every *completed* epoch (faulted epoch
    /// attempts are not recorded).
    pub history: Vec<EpochStats>,
    /// Every rollback the watchdog performed, in order.
    pub events: Vec<RecoveryEvent>,
    /// Total rollbacks (`events.len()`).
    pub retries: usize,
    /// How training ended.
    pub status: TrainStatus,
}

impl TrainReport {
    /// Total loss of the first completed epoch, if any.
    pub fn first_total(&self) -> Option<f32> {
        self.history.first().map(|s| s.total)
    }

    /// Total loss of the last completed epoch, if any.
    pub fn last_total(&self) -> Option<f32> {
        self.history.last().map(|s| s.total)
    }
}

/// Nearest-neighbor fallback pool for graceful generation degradation: a
/// subsample of training rows with their black-box classes, searched
/// FACE-style when the decoder cannot produce a usable counterfactual.
#[derive(Debug, Clone)]
pub(crate) struct FallbackPool {
    /// Encoded training rows (subsampled).
    pub rows: Vec<Vec<f32>>,
    /// Black-box class of each pool row.
    pub classes: Vec<u8>,
}

impl FallbackPool {
    /// Subsamples at most `cap` training rows (evenly strided, so both
    /// classes stay represented) and records their black-box classes.
    /// `cap` comes from [`ExplainConfig::fallback_pool_cap`]; the default
    /// keeps the pool large enough that both classes appear on every
    /// benchmark and small enough that the O(pool²) distance matrix
    /// stays cheap.
    fn build(data: &EncodedDataset, blackbox: &BlackBox, cap: usize) -> Self {
        let n = data.len();
        if n == 0 || cap == 0 {
            return FallbackPool { rows: Vec::new(), classes: Vec::new() };
        }
        let stride = n.div_ceil(cap).max(1);
        let idx: Vec<usize> = (0..n).step_by(stride).collect();
        let (px, _) = data.subset(&idx);
        let classes = blackbox.predict(&px);
        let rows = (0..px.rows()).map(|r| px.row_slice(r).to_vec()).collect();
        FallbackPool { rows, classes }
    }
}

/// The feasible-counterfactual model: VAE generator + frozen black box +
/// causal constraints + immutable mask.
#[derive(Debug, Clone)]
pub struct FeasibleCfModel {
    vae: Cvae,
    blackbox: BlackBox,
    /// Frozen multiplicity ensemble backing the robust validity modes
    /// (see [`RobustMode`]). `None` reproduces the paper exactly. A
    /// training-time artifact: excluded from
    /// [`export_servable`](Self::export_servable) — serving needs only
    /// the trained generator and primary black box.
    ensemble: Option<EnsembleBlackBox>,
    constraints: Vec<Constraint>,
    mask: ImmutableMask,
    config: FeasibleCfConfig,
    pub(crate) fallback_pool: FallbackPool,
}

impl FeasibleCfModel {
    /// Creates an untrained model over an encoded dataset.
    ///
    /// `blackbox` should already be trained (the paper trains it first and
    /// freezes it); `constraints` are the active feasibility constraints
    /// for the configured [`ConstraintMode`].
    pub fn new(
        data: &EncodedDataset,
        blackbox: BlackBox,
        constraints: Vec<Constraint>,
        config: FeasibleCfConfig,
    ) -> Self {
        Self::new_with_explain(
            data,
            blackbox,
            constraints,
            config,
            &ExplainConfig::default(),
        )
    }

    /// Like [`new`](Self::new) with explicit generation-side knobs —
    /// currently the FACE fallback-pool cap, which a memory-pressured
    /// server tunes down (see [`ExplainConfig`]).
    pub fn new_with_explain(
        data: &EncodedDataset,
        blackbox: BlackBox,
        constraints: Vec<Constraint>,
        config: FeasibleCfConfig,
        explain: &ExplainConfig,
    ) -> Self {
        assert_eq!(
            blackbox.input_dim(),
            data.width(),
            "black box width must match the encoded data"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Decoder emits logits; sigmoid is applied explicitly so the BCE
        // reconstruction anchor (see CfLossWeights::recon_bce) can work on
        // the pre-activation values.
        let mut vae = Cvae::new_with_output(
            data.width(),
            config.latent_dim,
            config.dropout,
            Activation::Identity,
            &mut rng,
        );
        // The paper applies 30 % dropout to every layer; through the
        // 12-unit encoder trunk that much input noise makes the posterior
        // collapse to the prior and the generator degenerate to one
        // prototype per class (no per-individual counterfactuals, no
        // latent manifold). We keep Table II's dropout on the decoder and
        // disable it on the encoder — the minimal deviation that preserves
        // the architecture while keeping the latent code informative.
        vae.encoder.keep_prob = 1.0;
        let mask = if config.mask_immutable {
            ImmutableMask::from_schema(&data.schema, &data.encoding)
        } else {
            ImmutableMask::all_mutable(data.width())
        };
        let fallback_pool =
            FallbackPool::build(data, &blackbox, explain.fallback_pool_cap);
        FeasibleCfModel {
            vae,
            blackbox,
            ensemble: None,
            constraints,
            mask,
            config,
            fallback_pool,
        }
    }

    /// Fallible [`new_with_explain`](Self::new_with_explain): rejects an
    /// invalid [`ExplainConfig`] (e.g. a zero fallback-pool cap, which
    /// silently disables the degradation ladder's last rung) with a typed
    /// [`CfxError::Config`] instead of constructing a model that cannot
    /// honour its recovery contract.
    pub fn try_new_with_explain(
        data: &EncodedDataset,
        blackbox: BlackBox,
        constraints: Vec<Constraint>,
        config: FeasibleCfConfig,
        explain: &ExplainConfig,
    ) -> Result<Self, CfxError> {
        explain.validate()?;
        Ok(Self::new_with_explain(data, blackbox, constraints, config, explain))
    }

    /// Attaches a trained multiplicity ensemble, enabling the robust
    /// validity modes ([`RobustMode::Mean`] / [`RobustMode::WorstCase`]).
    /// The ensemble is frozen, exactly like the primary black box; the
    /// primary still defines input/desired classes and reported validity,
    /// so Table IV semantics and the degradation ladder are unchanged —
    /// only the training hinge switches to the ensemble.
    ///
    /// Panics if the ensemble's input width differs from the black box's.
    pub fn with_ensemble(mut self, ensemble: EnsembleBlackBox) -> Self {
        assert_eq!(
            ensemble.input_dim(),
            self.blackbox.input_dim(),
            "ensemble width must match the primary black box"
        );
        self.ensemble = Some(ensemble);
        self
    }

    /// The attached multiplicity ensemble, if any.
    pub fn ensemble(&self) -> Option<&EnsembleBlackBox> {
        self.ensemble.as_ref()
    }

    /// Rebuilds the nearest-neighbor fallback pool from `data` at a new
    /// cap — used after importing weights (the pool's classes depend on
    /// the black box) and by servers shrinking resident memory.
    pub fn rebuild_fallback_pool(&mut self, data: &EncodedDataset, explain: &ExplainConfig) {
        self.fallback_pool =
            FallbackPool::build(data, &self.blackbox, explain.fallback_pool_cap);
    }

    /// Rows currently held by the fallback pool (for memory accounting).
    pub fn fallback_pool_len(&self) -> usize {
        self.fallback_pool.rows.len()
    }

    /// Builds the paper's constraints for a dataset/mode pair (§IV-E):
    /// unary on `age`/`lsat`, binary on `education⇒age`/`tier⇒lsat`.
    ///
    /// Errors with [`CfxError::Constraint`] when the dataset's constraint
    /// features cannot be resolved against `data`'s schema/encoding.
    pub fn paper_constraints(
        dataset: DatasetId,
        data: &EncodedDataset,
        mode: ConstraintMode,
        c1: f32,
        c2: f32,
    ) -> Result<Vec<Constraint>, CfxError> {
        match mode {
            ConstraintMode::Unary => Ok(vec![Constraint::unary(
                &data.schema,
                &data.encoding,
                dataset.unary_constraint_feature(),
            )?]),
            ConstraintMode::Binary => {
                let (cause, effect) = dataset.binary_constraint_features();
                Ok(vec![Constraint::binary(
                    &data.schema,
                    &data.encoding,
                    cause,
                    effect,
                    c1,
                    c2,
                )?])
            }
        }
    }

    /// Trains the VAE on `x` (encoded training rows); the black box stays
    /// frozen. Returns the per-epoch loss history plus the watchdog's
    /// recovery record.
    ///
    /// Epochs are class-balanced: both flip directions (0→1 recourse and
    /// 1→0) appear equally often, with the minority direction oversampled.
    /// Without this, on skewed benchmarks like Law School (≈80 % positive)
    /// the dominant direction swamps the hinge term and the generator
    /// never learns the recourse flips the evaluation asks for.
    pub fn fit(&mut self, x: &Tensor) -> TrainReport {
        self.fit_with(x, |_, _| {})
    }

    /// Like [`fit`](Self::fit), invoking `on_epoch(epoch_index, stats)`
    /// after every epoch — the hook for early stopping, logging, or
    /// validation monitoring (pair it with
    /// [`validation_stats`](Self::validation_stats)).
    pub fn fit_with(
        &mut self,
        x: &Tensor,
        on_epoch: impl FnMut(usize, &EpochStats),
    ) -> TrainReport {
        self.fit_with_watchdog(x, &WatchdogConfig::default(), on_epoch)
    }

    /// The watchdog-supervised training loop (see `DESIGN.md`, "Failure
    /// model & recovery").
    ///
    /// Each completed epoch that improves on the best total loss is
    /// snapshotted (via [`cfx_tensor::serialize`]). When an epoch trips a
    /// fault — non-finite loss, non-finite gradients, or divergence past
    /// `watchdog.divergence_factor × best` — the epoch's partial updates
    /// are discarded: the weights roll back to the snapshot, the learning
    /// rate backs off by `watchdog.lr_backoff`, the data-order RNG is
    /// reseeded, the optimizer moments reset, and the same epoch is
    /// retried. After `watchdog.max_retries` rollbacks training stops at
    /// the snapshot with [`TrainStatus::Exhausted`].
    pub fn fit_with_watchdog(
        &mut self,
        x: &Tensor,
        watchdog: &WatchdogConfig,
        on_epoch: impl FnMut(usize, &EpochStats),
    ) -> TrainReport {
        self.fit_with_checkpoints(
            x,
            watchdog,
            &CheckpointConfig::disabled(),
            on_epoch,
        )
        .expect("disabled checkpointing cannot fail")
    }

    /// [`fit_with_watchdog`](Self::fit_with_watchdog) with durable state:
    /// when `ckpt` names a directory, the full training state — VAE
    /// parameters, best snapshot, Adam moments + step count, RNG stream
    /// state, and epoch/watchdog metadata — is checkpointed every
    /// `ckpt.every_epochs` completed epochs (and after every watchdog
    /// rollback), crash-safely.
    ///
    /// With `ckpt.resume`, the newest intact checkpoint is restored
    /// before training, and the run continues **bitwise-identically** to
    /// one that was never interrupted: same final weights, same
    /// [`TrainReport`]. Corrupt checkpoint files are quarantined and the
    /// next older one is used. `on_epoch` fires only for epochs trained
    /// in *this* call, not for restored history.
    ///
    /// `ckpt.epoch_budget` pauses the run ([`TrainStatus::Paused`], with
    /// a forced checkpoint) after that many epochs complete in this call.
    pub fn fit_with_checkpoints(
        &mut self,
        x: &Tensor,
        watchdog: &WatchdogConfig,
        ckpt: &CheckpointConfig,
        mut on_epoch: impl FnMut(usize, &EpochStats),
    ) -> Result<TrainReport, CfxError> {
        let n = x.rows();
        assert!(n > 0, "cannot fit on an empty dataset");
        let cfg = self.config.clone();
        let mut report = TrainReport {
            history: Vec::with_capacity(cfg.epochs),
            events: Vec::new(),
            retries: 0,
            status: TrainStatus::Completed,
        };
        if cfg.epochs == 0 {
            return Ok(report);
        }
        let _fit_span =
            cfx_obs::span!("fit", epochs = cfg.epochs, rows = n, seed = cfg.seed);
        let mut lr = cfg.learning_rate;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF17);
        let mut opt = Adam::with_lr(lr);
        let preds = self.blackbox.predict(x);
        let group0: Vec<usize> =
            (0..n).filter(|&r| preds[r] == 0).collect();
        let group1: Vec<usize> =
            (0..n).filter(|&r| preds[r] == 1).collect();

        let mut best_total = f32::INFINITY;
        let mut best_snapshot = self.vae.export_params();
        let mut epoch = 0usize;

        let mut manager = ckpt.manager()?;
        if let Some(mgr) = manager.as_mut() {
            if ckpt.resume {
                if let Some((_, c)) = mgr.load_latest()? {
                    self.restore_fit_state(
                        &c,
                        &mut report,
                        &mut epoch,
                        &mut lr,
                        &mut best_total,
                        &mut best_snapshot,
                        &mut opt,
                        &mut rng,
                    )?;
                    cfx_obs::event!(
                        "fit_resumed",
                        epoch = epoch,
                        retries = report.retries,
                        lr = lr,
                    );
                }
            }
        }
        let every = ckpt.every_epochs.max(1);
        let mut epochs_this_call = 0usize;

        // One tape reused across every batch of every epoch: reset()
        // returns all buffers to the pool, so steady-state steps allocate
        // nothing fresh.
        let mut tape = Tape::new();
        while epoch < cfg.epochs {
            let order = balanced_order(&group0, &group1, n, &mut rng);
            // KL annealing: ramp the KL weight over the first half of
            // training (the standard cure for posterior collapse — with a
            // full-strength KL from step one, the narrow Table II encoder
            // gives up on the latent code and the generator degenerates to
            // one prototype per class).
            let anneal =
                ((epoch as f32 + 1.0) / (cfg.epochs as f32 / 2.0)).min(1.0);
            let mut sums = [0.0f32; 6];
            let mut grad_norm_sum = 0.0f32;
            let mut batches = 0usize;
            let mut fault = None;
            for chunk in order.chunks(cfg.batch_size) {
                let xb = x.gather_rows_pooled(chunk);
                let step =
                    self.train_batch(&xb, &mut tape, &mut opt, &mut rng, anneal);
                xb.recycle();
                match step {
                    Ok((stats, grad_norm)) => {
                        sums[0] += stats.total;
                        sums[1] += stats.validity;
                        sums[2] += stats.proximity;
                        sums[3] += stats.feasibility;
                        sums[4] += stats.sparsity;
                        sums[5] += stats.kl;
                        grad_norm_sum += grad_norm;
                        batches += 1;
                    }
                    Err(f) => {
                        fault = Some(f);
                        break;
                    }
                }
            }
            let b = batches.max(1) as f32;
            let stats = EpochStats {
                total: sums[0] / b,
                validity: sums[1] / b,
                proximity: sums[2] / b,
                feasibility: sums[3] / b,
                sparsity: sums[4] / b,
                kl: sums[5] / b,
            };
            if fault.is_none()
                && stats.total > watchdog.divergence_floor
                && stats.total > watchdog.divergence_factor * best_total
            {
                fault = Some(FaultDetected::Diverged);
            }

            if let Some(f) = fault {
                // Roll back: the faulted epoch's partial optimizer steps
                // are discarded wholesale.
                self.vae.import_params(&best_snapshot);
                report.retries += 1;
                lr *= watchdog.lr_backoff;
                cfx_obs::warn!(
                    "watchdog_rollback",
                    epoch = epoch,
                    retry = report.retries,
                    fault = format!("{f:?}"),
                    lr = lr,
                );
                counter("cfx_watchdog_rollbacks_total").inc(1);
                report.events.push(RecoveryEvent {
                    epoch,
                    retry: report.retries,
                    fault: f,
                    learning_rate: lr,
                });
                if report.retries > watchdog.max_retries {
                    report.status = TrainStatus::Exhausted;
                    cfx_obs::warn!(
                        "watchdog_exhausted",
                        epoch = epoch,
                        retries = report.retries,
                    );
                    return Ok(report);
                }
                // Fresh optimizer moments (the old ones averaged corrupt
                // gradients) and a decorrelated data order.
                opt = Adam::with_lr(lr);
                rng = StdRng::seed_from_u64(
                    cfg.seed
                        ^ 0xF17
                        ^ 0x9E37_79B9_7F4A_7C15u64
                            .wrapping_mul(report.retries as u64),
                );
                // Persist the rolled-back state so a crash during the
                // retry resumes from *after* the rollback, not before it
                // (same step number: the newest state for this epoch
                // count wins).
                if let Some(mgr) = manager.as_mut() {
                    let mut c = self.fit_state_checkpoint(
                        &report,
                        epoch,
                        lr,
                        best_total,
                        &best_snapshot,
                        &opt,
                        &rng,
                    );
                    // INFINITY: a rollback never displaces the best file.
                    mgr.save(epoch as u64, f32::INFINITY, &mut c)?;
                }
                continue; // retry the same epoch
            }

            on_epoch(epoch, &stats);
            cfx_obs::event!(
                "fit_epoch",
                epoch = epoch,
                total = stats.total,
                validity = stats.validity,
                proximity = stats.proximity,
                feasibility = stats.feasibility,
                sparsity = stats.sparsity,
                kl = stats.kl,
                lr = lr,
                grad_norm = grad_norm_sum / b,
                batches = batches,
            );
            gauge("cfx_train_loss_total").set(stats.total as f64);
            gauge("cfx_train_loss_validity").set(stats.validity as f64);
            gauge("cfx_train_loss_proximity").set(stats.proximity as f64);
            gauge("cfx_train_loss_feasibility").set(stats.feasibility as f64);
            gauge("cfx_train_loss_sparsity").set(stats.sparsity as f64);
            gauge("cfx_train_lr").set(lr as f64);
            counter("cfx_train_epochs_total").inc(1);
            report.history.push(stats);
            if stats.total < best_total {
                best_total = stats.total;
                best_snapshot = self.vae.export_params();
            }
            epoch += 1;
            epochs_this_call += 1;
            let budget_hit = ckpt
                .epoch_budget
                .is_some_and(|b| epochs_this_call >= b)
                && epoch < cfg.epochs;
            if let Some(mgr) = manager.as_mut() {
                if epoch % every == 0 || epoch == cfg.epochs || budget_hit {
                    let mut c = self.fit_state_checkpoint(
                        &report,
                        epoch,
                        lr,
                        best_total,
                        &best_snapshot,
                        &opt,
                        &rng,
                    );
                    mgr.save(epoch as u64, stats.total, &mut c)?;
                    // Deterministic kill switch for the crash-consistency
                    // tests: always lands right after a durable save.
                    crash_point("epoch", epoch as u64);
                }
            }
            if budget_hit {
                report.status = TrainStatus::Paused;
                cfx_obs::event!(
                    "fit_paused",
                    epoch = epoch,
                    retries = report.retries,
                );
                return Ok(report);
            }
        }
        report.status = if report.retries > 0 {
            TrainStatus::Recovered
        } else {
            TrainStatus::Completed
        };
        cfx_obs::event!(
            "fit_done",
            epochs = report.history.len(),
            retries = report.retries,
            status = match report.status {
                TrainStatus::Recovered => "recovered",
                _ => "completed",
            },
        );
        Ok(report)
    }

    /// Serializes the complete mid-fit state into a checkpoint. Together
    /// with [`restore_fit_state`](Self::restore_fit_state) this defines
    /// the resume contract: params + optimizer + RNG + watchdog metadata
    /// travel as one unit, so a restored run replays the exact arithmetic
    /// of an uninterrupted one.
    #[allow(clippy::too_many_arguments)]
    fn fit_state_checkpoint(
        &self,
        report: &TrainReport,
        epoch: usize,
        lr: f32,
        best_total: f32,
        best_snapshot: &[Tensor],
        opt: &Adam,
        rng: &StdRng,
    ) -> Checkpoint {
        let mut c = Checkpoint::new();
        c.put_str("model", "FeasibleCfModel.fit");
        c.put_tensors("vae", &self.vae.export_params());
        c.put_tensors("best", best_snapshot);
        c.put_adam("adam", &opt.export_state());
        c.put_u64s("rng", &rng.state());
        c.put_u64s("meta.u64", &[epoch as u64, report.retries as u64]);
        c.put_f32s("meta.f32", &[lr, best_total]);
        let mut hist = Vec::with_capacity(report.history.len() * 6);
        for s in &report.history {
            hist.extend_from_slice(&[
                s.total,
                s.validity,
                s.proximity,
                s.feasibility,
                s.sparsity,
                s.kl,
            ]);
        }
        c.put_f32s("history", &hist);
        let mut ev_u = Vec::with_capacity(report.events.len() * 3);
        let mut ev_f = Vec::with_capacity(report.events.len());
        for e in &report.events {
            ev_u.extend_from_slice(&[
                e.epoch as u64,
                e.retry as u64,
                match e.fault {
                    FaultDetected::NonFiniteLoss => 0,
                    FaultDetected::NonFiniteGrad => 1,
                    FaultDetected::Diverged => 2,
                },
            ]);
            ev_f.push(e.learning_rate);
        }
        c.put_u64s("events.u64", &ev_u);
        c.put_f32s("events.f32", &ev_f);
        c
    }

    /// Restores mid-fit state from a checkpoint produced by
    /// [`fit_state_checkpoint`](Self::fit_state_checkpoint). Shape
    /// mismatches (a checkpoint from a different architecture) surface as
    /// [`CfxError::Corrupt`], never a panic or a silently misloaded model.
    #[allow(clippy::too_many_arguments)]
    fn restore_fit_state(
        &mut self,
        c: &Checkpoint,
        report: &mut TrainReport,
        epoch: &mut usize,
        lr: &mut f32,
        best_total: &mut f32,
        best_snapshot: &mut Vec<Tensor>,
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> Result<(), CfxError> {
        self.vae.try_import_params(&c.tensors("vae")?)?;
        *best_snapshot = c.tensors("best")?;
        *opt = Adam::from_state(c.adam("adam")?);
        let rs = c.u64s("rng")?;
        let rs: [u64; 4] = rs.as_slice().try_into().map_err(|_| {
            CfxError::corrupt(format!("rng section has {} words", rs.len()))
        })?;
        *rng = StdRng::from_state(rs);
        let meta_u = c.u64s("meta.u64")?;
        let meta_f = c.f32s("meta.f32")?;
        if meta_u.len() != 2 || meta_f.len() != 2 {
            return Err(CfxError::corrupt("fit metadata sections malformed"));
        }
        *epoch = meta_u[0] as usize;
        report.retries = meta_u[1] as usize;
        *lr = meta_f[0];
        *best_total = meta_f[1];
        let hist = c.f32s("history")?;
        if hist.len() % 6 != 0 {
            return Err(CfxError::corrupt("history section malformed"));
        }
        report.history = hist
            .chunks_exact(6)
            .map(|s| EpochStats {
                total: s[0],
                validity: s[1],
                proximity: s[2],
                feasibility: s[3],
                sparsity: s[4],
                kl: s[5],
            })
            .collect();
        let ev_u = c.u64s("events.u64")?;
        let ev_f = c.f32s("events.f32")?;
        if ev_u.len() % 3 != 0 || ev_u.len() / 3 != ev_f.len() {
            return Err(CfxError::corrupt("event sections malformed"));
        }
        report.events = ev_u
            .chunks_exact(3)
            .zip(&ev_f)
            .map(|(u, &learning_rate)| {
                Ok(RecoveryEvent {
                    epoch: u[0] as usize,
                    retry: u[1] as usize,
                    fault: match u[2] {
                        0 => FaultDetected::NonFiniteLoss,
                        1 => FaultDetected::NonFiniteGrad,
                        2 => FaultDetected::Diverged,
                        k => {
                            return Err(CfxError::corrupt(format!(
                                "unknown fault code {k}"
                            )))
                        }
                    },
                    learning_rate,
                })
            })
            .collect::<Result<_, CfxError>>()?;
        Ok(())
    }

    /// Generation-quality snapshot on a held-out set: the fraction of
    /// counterfactuals that flip to the desired class and the fraction
    /// satisfying every constraint. Use inside a
    /// [`fit_with`](Self::fit_with) callback for validation-based early
    /// stopping.
    pub fn validation_stats(&self, x_val: &Tensor) -> (f32, f32) {
        let batch = self.explain_batch(x_val);
        (batch.validity_rate(), batch.feasibility_rate())
    }

    /// One optimizer step, guarded: a non-finite loss aborts *before*
    /// backward, non-finite gradients abort before the weight update, so a
    /// detected fault never contaminates the parameters.
    fn train_batch(
        &mut self,
        xb: &Tensor,
        tape: &mut Tape,
        opt: &mut Adam,
        rng: &mut StdRng,
        kl_anneal: f32,
    ) -> Result<(EpochStats, f32), FaultDetected> {
        let n = xb.rows();
        // Desired class = opposite of the black box's current prediction.
        let preds = self.blackbox.predict(xb);
        let desired: Vec<f32> =
            preds.iter().map(|&p| 1.0 - p as f32).collect();
        let cond = Tensor::from_vec(n, 1, desired.clone());
        let desired_pm1 = Tensor::from_vec(
            n,
            1,
            desired.iter().map(|&d| 2.0 * d - 1.0).collect(),
        );
        let eps = randn_tensor(n, self.vae.latent_dim(), rng);

        tape.reset();
        let xv = tape.leaf_copy(xb);
        let mut pv = Vec::new();
        let out = self.vae.forward(tape, xv, &cond, &eps, &mut pv, true, rng);
        let probs = tape.sigmoid(out.recon);
        let x_cf = self.mask.apply_tape(tape, xv, probs);
        let weights = {
            let mut w = self.config.weights;
            w.kl *= kl_anneal;
            w
        };
        let parts = match (self.config.robust, &self.ensemble) {
            (RobustMode::Off, _) => {
                let logits = self.blackbox.forward_tape(tape, x_cf);
                cf_loss(
                    tape,
                    xv,
                    x_cf,
                    logits,
                    &desired_pm1,
                    out.mu,
                    out.logvar,
                    &self.constraints,
                    &weights,
                    Some(out.recon),
                )
            }
            (mode, Some(ensemble)) => {
                // Members are evaluated and reduced in index order —
                // part of the bitwise-determinism contract pinned by
                // tests/robust_prop.rs.
                let member_logits =
                    ensemble.forward_members_tape(tape, x_cf);
                counter("cfx_robust_batches_total").inc(1);
                cf_loss_robust(
                    tape,
                    xv,
                    x_cf,
                    &member_logits,
                    mode,
                    &desired_pm1,
                    out.mu,
                    out.logvar,
                    &self.constraints,
                    &weights,
                    Some(out.recon),
                )
            }
            (mode, None) => panic!(
                "FeasibleCfConfig.robust = {mode:?} but no ensemble is \
                 attached; call with_ensemble() before fit()"
            ),
        };
        let stats = EpochStats {
            total: tape.value(parts.total).item(),
            validity: tape.value(parts.validity).item(),
            proximity: tape.value(parts.proximity).item(),
            feasibility: tape.value(parts.feasibility).item(),
            sparsity: tape.value(parts.sparsity).item(),
            kl: tape.value(parts.kl).item(),
        };
        if !stats.total.is_finite() {
            return Err(FaultDetected::NonFiniteLoss);
        }
        tape.backward(parts.total);
        if !guard::all_finite(&tape.grads_of(&pv)) {
            return Err(FaultDetected::NonFiniteGrad);
        }
        let grad_norm = tape.clip_grads(&pv, 5.0);
        let grads = tape.grads_of(&pv);
        opt.step_refs(&mut self.vae, &grads);
        Ok((stats, grad_norm))
    }

    /// Generates one counterfactual per row of `x`, deterministically
    /// (posterior-mean decode): encode under the desired class, decode,
    /// restore immutable columns.
    pub fn counterfactuals(&self, x: &Tensor) -> Tensor {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xCF);
        self.counterfactuals_with_noise(x, 0.0, &mut rng)
    }

    /// Stochastic variant: perturbs the latent code by `noise_scale`
    /// standard deviations ("we perturbed the output of the encoder to the
    /// decoder", §III-C).
    pub fn counterfactuals_with_noise(
        &self,
        x: &Tensor,
        noise_scale: f32,
        rng: &mut StdRng,
    ) -> Tensor {
        let cond = self.desired_cond(x);
        // `generate` returns a pool-origin buffer (it ends in a pooled
        // `Mlp::predict`): squash it in place and hand it back so repeated
        // resampling rounds reuse the same allocations.
        let mut recon = self.vae.generate(x, &cond, noise_scale, rng);
        recon.map_inplace(stable_sigmoid);
        let cf = self.mask.apply(x, &recon);
        recon.recycle();
        cf
    }

    /// The `(n, 1)` desired-class column for a batch (opposite of the
    /// black box's prediction).
    pub fn desired_cond(&self, x: &Tensor) -> Tensor {
        let preds = self.blackbox.predict(x);
        Tensor::from_vec(
            x.rows(),
            1,
            preds.iter().map(|&p| 1.0 - p as f32).collect(),
        )
    }

    /// Posterior means of `x` under the desired class — the latent points
    /// used for the manifold analysis (Fig. 5/6).
    pub fn latent_mu(&self, x: &Tensor) -> Tensor {
        let cond = self.desired_cond(x);
        let (mu, _) = self.vae.encode(x, &cond);
        mu
    }

    /// The frozen classifier.
    pub fn blackbox(&self) -> &BlackBox {
        &self.blackbox
    }

    /// Active constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The generator network.
    pub fn vae(&self) -> &Cvae {
        &self.vae
    }

    /// Mutable access to the generator network. Exists so fault-injection
    /// tests can cripple the decoder and exercise the nearest-neighbor
    /// fallback; production code should never need it.
    pub fn vae_mut(&mut self) -> &mut Cvae {
        &mut self.vae
    }

    /// Immutable-column mask in effect.
    pub fn mask(&self) -> &ImmutableMask {
        &self.mask
    }

    /// Training configuration.
    pub fn config(&self) -> &FeasibleCfConfig {
        &self.config
    }

    /// Writes everything a serving process needs to reconstruct this
    /// trained model — generator and classifier weights plus a format
    /// marker and the encoded width — into `ckpt` under `serve.*`
    /// sections, followed by the [`ReferenceStats`] of `data` (the
    /// training distribution the serving daemon's live drift monitor
    /// scores incoming rows against). The scaffold (constraints, mask,
    /// config) is rebuilt by the loader from the dataset spec; only
    /// learned state travels in the file.
    pub fn export_servable(&self, data: &EncodedDataset, ckpt: &mut Checkpoint) {
        ckpt.put_str("serve.format", SERVABLE_FORMAT);
        ckpt.put_u64s("serve.width", &[self.blackbox.input_dim() as u64]);
        self.vae.export_to(ckpt, "serve.vae");
        self.blackbox.export_to(ckpt, "serve.bb");
        ReferenceStats::from_dataset(data).write_to(ckpt);
    }

    /// Restores the learned state written by
    /// [`export_servable`](Self::export_servable) into this scaffold
    /// model and rebuilds the fallback pool (its classes depend on the
    /// imported classifier). A missing marker, a width mismatch or any
    /// shape mismatch is a [`CfxError::Corrupt`] and leaves no silently
    /// half-loaded model: the importer validates before touching weights.
    pub fn import_servable(
        &mut self,
        data: &EncodedDataset,
        explain: &ExplainConfig,
        ckpt: &Checkpoint,
    ) -> Result<(), CfxError> {
        let format = ckpt.str_section("serve.format")?;
        if format != SERVABLE_FORMAT {
            return Err(CfxError::corrupt(format!(
                "servable format {format:?}, expected {SERVABLE_FORMAT:?}"
            )));
        }
        let width = ckpt.u64s("serve.width")?;
        if width != [self.blackbox.input_dim() as u64] {
            return Err(CfxError::corrupt(format!(
                "servable width {width:?} does not match model width {}",
                self.blackbox.input_dim()
            )));
        }
        self.vae.import_from(ckpt, "serve.vae")?;
        self.blackbox.import_from(ckpt, "serve.bb")?;
        self.rebuild_fallback_pool(data, explain);
        Ok(())
    }
}

/// Format marker of [`FeasibleCfModel::export_servable`] checkpoints.
pub const SERVABLE_FORMAT: &str = "cfx-servable-v1";

/// Checkpoint table name of the [`ReferenceStats`] written by
/// [`FeasibleCfModel::export_servable`].
pub const SERVABLE_REFSTATS: &str = "serve.refstats";

/// Reference (training-time) per-column moments and bin distributions:
/// what the serving daemon's live drift monitor scores incoming rows
/// against. Stored under [`SERVABLE_REFSTATS`] as a `width × (2 + BINS)`
/// f32 table, row-major `[mean, var, p_0 .. p_{BINS-1}]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceStats {
    /// Per-column training mean.
    pub means: Vec<f32>,
    /// Per-column training variance.
    pub vars: Vec<f32>,
    /// Per-column smoothed bin proportions over `[0, 1]` (length
    /// `width`, each [`BINS`] long, summing to ~1).
    pub bins: Vec<[f64; BINS]>,
}

impl ReferenceStats {
    /// Encoded width these stats describe.
    pub fn width(&self) -> usize {
        self.means.len()
    }

    /// Computes the stats of every encoded column of `data`.
    pub fn from_dataset(data: &EncodedDataset) -> Self {
        let mut stats = vec![FeatureStats::default(); data.width()];
        for r in 0..data.x.rows() {
            for (c, &v) in data.x.row_slice(r).iter().enumerate() {
                stats[c].push(v as f64);
            }
        }
        ReferenceStats {
            means: stats.iter().map(|s| s.moments.mean() as f32).collect(),
            vars: stats.iter().map(|s| s.moments.variance() as f32).collect(),
            bins: stats.iter().map(|s| s.sketch.proportions()).collect(),
        }
    }

    /// Encodes the stats into `ckpt` as the [`SERVABLE_REFSTATS`] table.
    pub fn write_to(&self, ckpt: &mut Checkpoint) {
        let mut table = Vec::with_capacity(self.width() * (2 + BINS));
        for ((&mean, &var), bins) in
            self.means.iter().zip(&self.vars).zip(&self.bins)
        {
            table.push(mean);
            table.push(var);
            table.extend(bins.iter().map(|&p| p as f32));
        }
        ckpt.put_f32_table(SERVABLE_REFSTATS, self.width(), 2 + BINS, &table);
    }

    /// Decodes the [`SERVABLE_REFSTATS`] table of `ckpt`. `None` when the
    /// table is missing or malformed (wrong shape, no rows, or a bin
    /// proportion that is not a positive finite number): the caller
    /// recomputes the stats rather than score against garbage.
    pub fn read_from(ckpt: &Checkpoint) -> Option<Self> {
        let (rows, cols, data) = ckpt.f32_table(SERVABLE_REFSTATS).ok()?;
        if cols != 2 + BINS || rows == 0 {
            return None;
        }
        let mut stats = ReferenceStats {
            means: Vec::with_capacity(rows),
            vars: Vec::with_capacity(rows),
            bins: Vec::with_capacity(rows),
        };
        for row in data.chunks_exact(cols) {
            let mut bins = [0.0f64; BINS];
            for (o, &p) in bins.iter_mut().zip(&row[2..]) {
                if !(p.is_finite() && p > 0.0) {
                    return None;
                }
                *o = p as f64;
            }
            stats.means.push(row[0]);
            stats.vars.push(row[1]);
            stats.bins.push(bins);
        }
        Some(stats)
    }
}

/// Builds a length-`n` epoch order drawing alternately from the two
/// prediction groups (shuffled, minority oversampled by cycling). Falls
/// back to a plain shuffle when either group is empty.
fn balanced_order(
    group0: &[usize],
    group1: &[usize],
    n: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    if group0.is_empty() || group1.is_empty() {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        return order;
    }
    let mut g0 = group0.to_vec();
    let mut g1 = group1.to_vec();
    g0.shuffle(rng);
    g1.shuffle(rng);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                g0[(i / 2) % g0.len()]
            } else {
                g1[(i / 2) % g1.len()]
            }
        })
        .collect()
}

impl Module for FeasibleCfModel {
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.vae.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.vae.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_models::BlackBoxConfig;

    fn small_setup() -> (EncodedDataset, BlackBox) {
        let raw = DatasetId::Adult.generate_clean(1200, 3);
        let data = EncodedDataset::from_raw(&raw);
        let bb_cfg = BlackBoxConfig { epochs: 10, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&data.x, &data.y, &bb_cfg);
        (data, bb)
    }

    fn quick_config(mode: ConstraintMode) -> FeasibleCfConfig {
        FeasibleCfConfig::paper(DatasetId::Adult, mode)
            .with_epochs(6)
            .with_batch_size(256)
    }

    #[test]
    fn fit_reduces_total_loss() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Unary);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        let report = model.fit(&data.x);
        let first = report.first_total().unwrap();
        let last = report.last_total().unwrap();
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert!(last.is_finite());
        assert_eq!(report.status, TrainStatus::Completed);
        assert!(report.events.is_empty());
    }

    #[test]
    fn zero_epochs_returns_empty_report() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Unary).with_epochs(0);
        let mut model = FeasibleCfModel::new(&data, bb, vec![], cfg);
        let report = model.fit(&data.x.slice_rows(0, 64));
        assert!(report.history.is_empty());
        assert_eq!(report.first_total(), None);
        assert_eq!(report.last_total(), None);
        assert_eq!(report.retries, 0);
        assert_eq!(report.status, TrainStatus::Completed);
    }

    #[test]
    fn counterfactuals_keep_immutable_columns() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Unary);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        model.fit(&data.x.slice_rows(0, 512));
        let x = data.x.slice_rows(0, 20);
        let cf = model.counterfactuals(&x);
        let frozen = data.encoding.immutable_columns(&data.schema);
        for r in 0..x.rows() {
            for &c in &frozen {
                assert_eq!(
                    x[(r, c)],
                    cf[(r, c)],
                    "immutable column {c} changed in row {r}"
                );
            }
        }
    }

    #[test]
    fn training_yields_feasible_and_valid_counterfactuals() {
        // Needs a few thousand rows to converge (the untrained model is
        // not a meaningful baseline: a random decoder emits near-constant
        // ~0.5 outputs that trivially satisfy "age does not decrease").
        let raw = DatasetId::Adult.generate_clean(4_000, 3);
        let data = EncodedDataset::from_raw(&raw);
        let bb_cfg = BlackBoxConfig { epochs: 12, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&data.x, &data.y, &bb_cfg);
        let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
            .with_step_budget_of(DatasetId::Adult, 4_000);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut trained = FeasibleCfModel::new(&data, bb, constraints, cfg);
        trained.fit(&data.x);

        // Evaluate in the recourse direction (negative-class inputs).
        let preds = trained.blackbox().predict(&data.x);
        let denied: Vec<usize> =
            (0..data.len()).filter(|&r| preds[r] == 0).take(150).collect();
        let x = data.x.gather_rows(&denied);
        let batch = trained.explain_batch(&x);
        assert!(
            batch.feasibility_rate() > 0.7,
            "trained feasibility too low: {}",
            batch.feasibility_rate()
        );
        assert!(
            batch.validity_rate() > 0.6,
            "trained validity too low: {}",
            batch.validity_rate()
        );
    }

    #[test]
    fn fit_with_invokes_callback_every_epoch() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Unary).with_epochs(3);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        let mut seen = Vec::new();
        let report = model.fit_with(&data.x.slice_rows(0, 512), |e, s| {
            seen.push((e, s.total));
        });
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
        for ((_, t), h) in seen.iter().zip(&report.history) {
            assert_eq!(*t, h.total);
        }
        // Validation snapshot runs end-to-end.
        let (v, f) = model.validation_stats(&data.x.slice_rows(0, 50));
        assert!((0.0..=1.0).contains(&v));
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn desired_cond_flips_predictions() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Unary);
        let model = FeasibleCfModel::new(&data, bb, vec![], cfg);
        let x = data.x.slice_rows(0, 50);
        let preds = model.blackbox().predict(&x);
        let cond = model.desired_cond(&x);
        for (p, c) in preds.iter().zip(cond.as_slice()) {
            assert_eq!(*c, 1.0 - *p as f32);
        }
    }

    #[test]
    fn latent_mu_has_latent_width() {
        let (data, bb) = small_setup();
        let cfg = quick_config(ConstraintMode::Binary);
        let model = FeasibleCfModel::new(&data, bb, vec![], cfg.clone());
        let mu = model.latent_mu(&data.x.slice_rows(0, 10));
        assert_eq!(mu.shape(), (10, cfg.latent_dim));
    }

    #[test]
    fn reference_stats_table_round_trips() {
        let (data, _) = small_setup();
        let stats = ReferenceStats::from_dataset(&data);
        assert_eq!(stats.width(), data.width());
        let mut ckpt = Checkpoint::new();
        stats.write_to(&mut ckpt);
        let back = ReferenceStats::read_from(&ckpt).unwrap();
        assert_eq!(back.means, stats.means);
        assert_eq!(back.vars, stats.vars);
        for (a, b) in back.bins.iter().zip(&stats.bins) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(*x, *y as f32 as f64);
            }
        }
        // A missing or malformed table refuses rather than misreads.
        assert!(ReferenceStats::read_from(&Checkpoint::new()).is_none());
        let mut bad = Checkpoint::new();
        bad.put_f32_table(SERVABLE_REFSTATS, 1, 1 + BINS, &[0.5; 1 + BINS]);
        assert!(ReferenceStats::read_from(&bad).is_none());
        let mut bad = Checkpoint::new();
        bad.put_f32_table(SERVABLE_REFSTATS, 0, 2 + BINS, &[]);
        assert!(ReferenceStats::read_from(&bad).is_none());
        let mut row = vec![0.5f32; 2 + BINS];
        row[2] = 0.0;
        let mut bad = Checkpoint::new();
        bad.put_f32_table(SERVABLE_REFSTATS, 1, 2 + BINS, &row);
        assert!(ReferenceStats::read_from(&bad).is_none());
    }
}
