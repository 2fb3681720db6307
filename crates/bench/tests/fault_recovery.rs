//! Harness-level fault recovery: a NaN injected mid-training must not
//! keep the harness from producing its Table IV row. The watchdog rolls
//! the generator back, the row evaluates panic-free with finite cells,
//! and the provenance tally reports how much of the batch needed help.

use cfx_bench::{FeasColumns, Harness, HarnessConfig, RunSize};
use cfx_core::{ConstraintMode, FeasibleCfConfig, FeasibleCfModel, TrainStatus};
use cfx_data::DatasetId;
use cfx_metrics::RecoveryCounts;
use cfx_tensor::guard::{self, Fault, FaultKind};

#[test]
fn faulted_training_still_yields_a_table4_row() {
    let harness = Harness::build(
        DatasetId::Adult,
        HarnessConfig {
            size: RunSize::Quick,
            seed: 42,
            eval_cap: 12,
            blackbox_epochs: 4,
            ..Default::default()
        },
    );
    // Train the paper's unary model with a transient NaN injected into a
    // mid-training tape op (the same config `train_our_model` uses, kept
    // inline so the TrainReport is visible to the assertions).
    let config = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
        .with_seed(harness.config.seed)
        .with_step_budget_of(DatasetId::Adult, harness.split.train.len());
    let constraints = FeasibleCfModel::paper_constraints(
        DatasetId::Adult,
        &harness.data,
        ConstraintMode::Unary,
        config.c1,
        config.c2,
    )
    .unwrap();
    let mut model = FeasibleCfModel::new(
        &harness.data,
        harness.blackbox.clone(),
        constraints,
        config,
    );
    let fault = Fault { kind: FaultKind::Nan, op_index: 1_500 };
    let (report, fired) =
        guard::with_fault(fault, || model.fit(&harness.train_x()));
    assert!(fired, "fault must land inside the training run");
    assert!(report.retries >= 1, "watchdog must have recovered");
    assert_eq!(report.status, TrainStatus::Recovered);

    // The recovered model fills its Table IV row exactly as run_table4
    // would: explain_batch (retry/fallback ladder active) → evaluate.
    let x = harness.test_x();
    let batch = model.explain_batch(&x);
    let counts = batch.provenance_counts();
    let mut row = harness.evaluate(
        "Our method (a)*",
        &x,
        &batch.cf_tensor(),
        FeasColumns::UnaryOnly,
    );
    row.recovery = Some(RecoveryCounts {
        resampled: counts.resampled,
        fallback: counts.fallback,
    });
    assert!(row.validity.is_finite());
    assert!(row.feasibility_unary.unwrap().is_finite());
    assert!(row.continuous_proximity.is_finite());
    assert!(row.categorical_proximity.is_finite());
    assert!(row.sparsity.is_finite());
    assert_eq!(
        counts.first_shot + counts.resampled + counts.fallback,
        batch.examples.len(),
        "provenance tally must cover the batch"
    );
    // The row renders (the Recovery column formats the tally).
    let rendered = cfx_metrics::format_table("faulted", &[row]);
    assert!(rendered.contains("Our method (a)*"));
}
