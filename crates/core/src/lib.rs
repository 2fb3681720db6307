//! # cfx-core
//!
//! The paper's primary contribution: a framework for **feasible
//! counterfactual exploration** that trains a conditional VAE against a
//! frozen black-box classifier with a four-part loss — validity (hinge),
//! proximity (L1), feasibility (causal-constraint penalties) and sparsity
//! (smooth L0/L1) — while freezing immutable attributes (§III).
//!
//! ```no_run
//! use cfx_core::{ConstraintMode, FeasibleCfConfig, FeasibleCfModel};
//! use cfx_data::{DatasetId, EncodedDataset};
//! use cfx_models::{BlackBox, BlackBoxConfig};
//!
//! let raw = DatasetId::Adult.generate(5_000, 42);
//! let data = EncodedDataset::from_raw(&raw);
//!
//! // 1. Train and freeze the black box (§III-C, Model Steps).
//! let bb_cfg = BlackBoxConfig::default();
//! let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
//! blackbox.train(&data.x, &data.y, &bb_cfg);
//!
//! // 2. Train the unary-constraint counterfactual generator (Table III).
//! //    fit() runs under a divergence watchdog: the returned TrainReport
//! //    records any rollback/retry recovery events.
//! let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary);
//! let constraints = FeasibleCfModel::paper_constraints(
//!     DatasetId::Adult, &data, ConstraintMode::Unary, cfg.c1, cfg.c2)
//!     .expect("paper constraint features exist in the schema");
//! let mut model = FeasibleCfModel::new(&data, blackbox, constraints, cfg);
//! let report = model.fit(&data.x);
//! assert!(report.last_total().is_some());
//!
//! // 3. Explain (with retry-then-fallback degradation; see provenance).
//! let batch = model.explain_batch(&data.x);
//! println!("validity {:.1}%, feasibility {:.1}%",
//!     100.0 * batch.validity_rate(), 100.0 * batch.feasibility_rate());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod constraints;
pub mod discovery;
pub mod diverse;
pub mod explain;
pub mod loss;
pub mod mask;
pub mod path;
pub mod model;

pub use cfx_tensor::checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointManager,
};
pub use cfx_tensor::CfxError;
pub use config::{
    CfLossWeights, ConstraintMode, ExplainConfig, FeasibleCfConfig,
    GenRecoveryConfig, RobustMode, WatchdogConfig,
};
pub use constraints::{feasibility_rate, Constraint, FeatureView};
pub use discovery::{discover_binary_constraints, DiscoveryConfig, ScoredConstraint};
pub use diverse::{mean_pairwise_l1, DiverseConfig, DiverseSet, FilterLevel};
pub use explain::{
    format_comparison, Counterfactual, ExplanationBatch, Provenance,
    ProvenanceCounts,
};
pub use loss::{
    cf_loss, cf_loss_robust, proximity_penalty, robust_validity,
    sparsity_penalty, CfLossParts,
};
pub use mask::ImmutableMask;
pub use path::{LatentPath, PathStep};
pub use model::{
    EpochStats, FaultDetected, FeasibleCfModel, RecoveryEvent,
    ReferenceStats, TrainReport, TrainStatus, SERVABLE_FORMAT,
    SERVABLE_REFSTATS,
};
