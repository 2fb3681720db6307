//! # Guide: from paper to working counterfactuals
//!
//! A long-form tour of the workspace for new users — how the pieces of
//! the paper map to crates, how to run your own data through the
//! framework, and how to extend it. (The quick version is the README;
//! the per-experiment evidence is EXPERIMENTS.md.)
//!
//! ## 1. The problem the paper solves
//!
//! A counterfactual explanation answers *"what should this person change
//! to get the other prediction?"*. Three properties make such an answer
//! usable (§I of the paper):
//!
//! * **feasibility** — the change must respect causal reality: age only
//!   grows; earning a doctorate takes years, so it also forces age up;
//!   you cannot change your race (immutable attributes);
//! * **sparsity** — people follow short lists; an answer that edits ten
//!   attributes is not advice;
//! * **density** — the suggested profile should look like real people of
//!   the desired class, not an outlier the classifier happens to accept.
//!
//! The paper's model is a conditional VAE (`cfx_models::Cvae`) trained
//! against a frozen classifier (`cfx_models::BlackBox`) with a four-part
//! loss (`cfx_core::cf_loss`): hinge validity + L1 proximity +
//! causal-constraint penalties + smooth-L0 sparsity.
//!
//! ## 2. The data model
//!
//! Everything tabular passes through `cfx_data`:
//!
//! * [`Schema`](cfx_data::Schema) declares features as numeric / binary /
//!   categorical (optionally ordinal), plus immutability flags;
//! * [`EncodedDataset`](cfx_data::EncodedDataset) is the fitted `[0, 1]`
//!   representation (min-max numerics, one-hot categoricals) with an
//!   invertible [`Encoding`](cfx_data::Encoding);
//! * the three benchmarks are *generated* by structural causal models
//!   whose equations embed exactly the relations the constraints test —
//!   see `cfx_data::{adult, kdd, law}` and the reusable SCM DSL in
//!   [`cfx_data::scm`].
//!
//! To use **your own data**: define a `Schema`, load rows with
//! [`cfx_data::csv::parse_raw`] (UCI-style `?` missing markers are
//! understood), and everything downstream works unchanged.
//!
//! ## 3. Constraints
//!
//! [`cfx_core::Constraint`] has two faces: an exact boolean check (used
//! by the feasibility metric) and a differentiable penalty on the
//! autodiff tape (used in training). The two templates of §III-A:
//!
//! * `Constraint::unary(schema, encoding, "age")` — the feature may not
//!   decrease (Eq. 1);
//! * `Constraint::binary(schema, encoding, "education", "age", c1, c2)` —
//!   raising the cause demands raising the effect (Eq. 2).
//!
//! Both return `Result<Constraint, CfxError>`: an unknown, binary, or
//! non-ordinal feature (or a negative `c2`) is a typed error naming the
//! offender, not a panic.
//!
//! Don't know your constraints? [`cfx_core::discover_binary_constraints`]
//! scans the data for floor-monotone, dominance-backed implication pairs
//! and estimates `c1`/`c2` — the paper's §V future work.
//!
//! ## 4. Training and explaining
//!
//! [`cfx_core::FeasibleCfModel`] ties it together; see the README's
//! quickstart. [`fit`](cfx_core::FeasibleCfModel::fit) trains under a
//! divergence watchdog (checkpoint, rollback, LR backoff — see
//! DESIGN.md, "Failure model & recovery") and returns a
//! [`TrainReport`](cfx_core::TrainReport) of its recovery events. Three
//! API layers sit on top of a trained model:
//!
//! * [`explain_batch`](cfx_core::FeasibleCfModel::explain_batch) — one
//!   counterfactual per instance with validity/feasibility verdicts;
//! * [`explain_diverse`](cfx_core::FeasibleCfModel::explain_diverse) — a
//!   max-min–dispersed set of k alternatives per instance (Figs. 2–3);
//! * [`latent_path`](cfx_core::FeasibleCfModel::latent_path) — the
//!   decoded interpolation from the instance toward its counterfactual,
//!   locating the gentlest valid intervention.
//!
//! ## 5. Evaluating
//!
//! `cfx_metrics` computes the paper's five §IV-D metrics plus the
//! stability extensions (robustness under perturbation, yNN
//! connectedness, manifold distance). `cfx_manifold` provides exact
//! t-SNE, PCA, KDE, separability and trustworthiness scores for the
//! Fig. 5/6 analyses. The `cfx-bench` crate regenerates every table and
//! figure (see EXPERIMENTS.md for the full command list).
//!
//! ## 6. Extending
//!
//! * **New dataset** — either write a generator with the SCM DSL
//!   (ground-truth causal edges for free) or load a CSV; nothing else
//!   changes.
//! * **New counterfactual method** — implement
//!   `cfx_baselines::CfMethod` (one `counterfactuals(&Tensor) -> Tensor`
//!   method) and it slots into the Table IV harness.
//! * **New constraint template** — add a variant to
//!   `cfx_core::Constraint` with a check and a tape penalty; the metric
//!   and training paths pick it up automatically.
//!
//! ## 7. Numerical substrate
//!
//! `cfx_tensor` is a deliberately small autodiff engine: 2-D `f32`
//! tensors, a fully enumerated op set (every backward rule covered by
//! finite-difference property tests), SGD/Adam, and a binary
//! checkpoint format for parameters and training state. If you need an
//! op, add it to the `Op` enum with its backward rule and a
//! gradient-check test — resist the temptation to generalize beyond
//! what the models need.
