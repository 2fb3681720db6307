//! Determinism properties of the multiplicity-robustness subsystem: an
//! ensemble-backed training + explanation run must be **bitwise**
//! identical across thread counts and across the order member logits are
//! evaluated in. This is the workspace-wide contract (`CFX_THREADS`
//! changes wall-clock, never bits) extended to the `RobustMode` path.

use cfx::core::{
    ConstraintMode, FeasibleCfConfig, FeasibleCfModel, RobustMode,
};
use cfx::data::{DatasetId, Drift, EncodedDataset, Split};
use cfx::models::{
    BlackBox, BlackBoxConfig, EnsembleBlackBox, EnsembleConfig,
};
use cfx::tensor::runtime::with_threads;

struct Fixture {
    data: EncodedDataset,
    split: Split,
    blackbox: BlackBox,
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let raw = DatasetId::Adult.generate_clean(n, seed);
    let data = EncodedDataset::from_raw(&raw);
    let split = Split::paper(data.len(), seed);
    let (x_train, y_train) = data.subset(&split.train);
    let cfg = BlackBoxConfig { epochs: 4, seed, ..Default::default() };
    let mut blackbox = BlackBox::new(data.width(), &cfg);
    blackbox.train(&x_train, &y_train, &cfg);
    Fixture { data, split, blackbox }
}

fn small_ensemble(f: &Fixture, members: usize, seed: u64) -> EnsembleBlackBox {
    let (x_train, y_train) = f.data.subset(&f.split.train);
    let cfg = EnsembleConfig {
        members,
        base: BlackBoxConfig { epochs: 4, seed, ..Default::default() },
        ..Default::default()
    };
    let mut ens = EnsembleBlackBox::new(f.data.width(), &cfg);
    ens.train(&x_train, &y_train);
    ens
}

/// One full robust train + explain pass at a given thread count; returns
/// (per-epoch total losses, CF bits) for bitwise comparison.
fn robust_run(f: &Fixture, threads: usize) -> (Vec<u32>, Vec<u32>) {
    with_threads(threads, || {
        let ensemble = small_ensemble(f, 3, 42);
        let (x_train, _) = f.data.subset(&f.split.train);
        let config = FeasibleCfConfig::paper(
            DatasetId::Adult,
            ConstraintMode::Unary,
        )
        .with_seed(42)
        .with_epochs(3)
        .with_robust(RobustMode::WorstCase);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &f.data,
            ConstraintMode::Unary,
            config.c1,
            config.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(
            &f.data,
            f.blackbox.clone(),
            constraints,
            config,
        )
        .with_ensemble(ensemble);
        let mut losses = Vec::new();
        model.fit_with(&x_train, |_, stats| {
            losses.push(stats.total.to_bits());
        });
        let x = f.data.x.gather_rows(&f.split.test).slice_rows(0, 40);
        let cf = model.explain_batch(&x).cf_tensor();
        let bits: Vec<u32> =
            cf.as_slice().iter().map(|v| v.to_bits()).collect();
        (losses, bits)
    })
}

#[test]
fn robust_training_and_explanation_bitwise_across_threads() {
    let f = fixture(1_200, 11);
    let (l1, b1) = robust_run(&f, 1);
    assert!(!l1.is_empty() && !b1.is_empty());
    for threads in [2, 4] {
        let (l, b) = robust_run(&f, threads);
        assert_eq!(l1, l, "epoch losses diverge at {threads} threads");
        assert_eq!(b1, b, "CF bits diverge at {threads} threads");
    }
}

#[test]
fn ensemble_training_is_deterministic_and_thread_invariant() {
    let f = fixture(1_000, 3);
    let logits = |threads: usize| {
        with_threads(threads, || {
            let ens = small_ensemble(&f, 4, 7);
            let x = f.data.x.gather_rows(&f.split.test).slice_rows(0, 32);
            ens.mean_logits(&x)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        })
    };
    let base = logits(1);
    assert_eq!(base, logits(1), "same-thread rerun must be identical");
    assert_eq!(base, logits(2));
    assert_eq!(base, logits(4));
}

#[test]
fn member_evaluation_order_never_changes_the_bits() {
    let f = fixture(900, 5);
    let ens = small_ensemble(&f, 5, 13);
    let x = f.data.x.gather_rows(&f.split.test).slice_rows(0, 24);
    let reference = ens.mean_logits(&x);
    // Index-order reduction means ANY evaluation order yields the same
    // bits — including reversed and interleaved schedules a parallel
    // executor might produce.
    for order in [
        vec![4, 3, 2, 1, 0],
        vec![2, 0, 4, 1, 3],
        vec![1, 4, 0, 3, 2],
        vec![0, 1, 2, 3, 4],
    ] {
        let got = ens.mean_logits_eval_order(&x, &order);
        assert_eq!(
            reference.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "order {order:?} changed the mean logits"
        );
    }
}

#[test]
fn member_seeds_differ_and_members_disagree_somewhere() {
    // The multiplicity premise: siblings are near-equally accurate yet
    // not identical. With bootstrap + per-member seeds, at least one
    // test row must be classified differently by some pair of members.
    let f = fixture(1_500, 17);
    let ens = small_ensemble(&f, 3, 99);
    let x = f.data.x.gather_rows(&f.split.test);
    let preds: Vec<Vec<u8>> =
        (0..ens.len()).map(|k| ens.predict_member(k, &x)).collect();
    let disagreement = (0..x.rows()).any(|r| {
        preds.iter().any(|p| p[r] != preds[0][r])
    });
    assert!(disagreement, "ensemble members are bitwise clones");
    // And every member still beats chance on its training distribution.
    let (xv, yv) = f.data.subset(&f.split.val);
    for k in 0..ens.len() {
        assert!(ens.member(k).accuracy(&xv, &yv) > 0.6);
    }
}

#[test]
fn drifted_generation_is_deterministic_and_distinct() {
    let drift = Drift::magnitude(0.75);
    let a = DatasetId::Adult.generate_clean_drifted(1_000, 8, &drift);
    let b = DatasetId::Adult.generate_clean_drifted(1_000, 8, &drift);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.labels, b.labels);
    let plain = DatasetId::Adult.generate_clean(1_000, 8);
    assert_ne!(a.rows, plain.rows, "drift must move the world");
}
