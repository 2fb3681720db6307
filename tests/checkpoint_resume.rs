//! Crash-safe resume, end to end, for every training loop: the paper's
//! `FeasibleCfModel::fit`, the black box and the baselines' `PlainVae`.
//! An interrupted `fit` — paused cooperatively via an epoch budget, or
//! killed hard mid-epoch by the deterministic `CFX_CRASH` switch in a
//! child process — must, after `--resume`, reach **bitwise** the same
//! final weights and the same `TrainReport` as an uninterrupted run, at
//! 1/2/4 threads. A corrupted newest checkpoint must be quarantined and
//! the resume fall back to the previous intact one, still converging to
//! identical bits. The black box and `PlainVae`, stopped after half
//! their epochs and resumed in a fresh instance, must reach the
//! uninterrupted weights bit for bit and the same per-epoch losses.

use cfx::baselines::{PlainVae, PlainVaeConfig};
use cfx::core::{
    CheckpointConfig, ConstraintMode, FeasibleCfConfig, FeasibleCfModel,
    TrainReport, TrainStatus, WatchdogConfig,
};
use cfx::data::{DatasetId, EncodedDataset};
use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::tensor::checkpoint::CRASH_EXIT_CODE;
use cfx::tensor::runtime::with_threads;
use cfx::tensor::{Module, Tensor};
use std::path::PathBuf;

const EPOCHS: usize = 6;
const PAUSE_AFTER: usize = 3;

/// Deterministic shared fixture: Adult data + a trained black box. Must
/// produce identical bits in the parent and the spawned child process.
fn setup() -> (EncodedDataset, BlackBox) {
    let raw = DatasetId::Adult.generate_clean(1200, 3);
    let data = EncodedDataset::from_raw(&raw);
    let bb_cfg = BlackBoxConfig { epochs: 10, ..Default::default() };
    let mut bb = BlackBox::new(data.width(), &bb_cfg);
    bb.train(&data.x, &data.y, &bb_cfg);
    (data, bb)
}

fn quick_config() -> FeasibleCfConfig {
    FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
        .with_epochs(EPOCHS)
        .with_batch_size(256)
}

fn fresh_model(data: &EncodedDataset, bb: &BlackBox) -> FeasibleCfModel {
    let cfg = quick_config();
    let constraints = FeasibleCfModel::paper_constraints(
        DatasetId::Adult,
        data,
        ConstraintMode::Unary,
        cfg.c1,
        cfg.c2,
    )
    .unwrap();
    FeasibleCfModel::new(data, bb.clone(), constraints, cfg)
}

fn train_x(data: &EncodedDataset) -> Tensor {
    data.x.slice_rows(0, 512)
}

/// Parameters as raw `f32` bits: equal iff bitwise identical.
fn param_bits(module: &impl Module) -> Vec<Vec<u32>> {
    module
        .export_params()
        .iter()
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Final generator weights as raw `f32` bits.
fn weights(model: &FeasibleCfModel) -> Vec<Vec<u32>> {
    param_bits(model.vae())
}

/// The uninterrupted reference run (no checkpointing at all).
fn reference(
    data: &EncodedDataset,
    bb: &BlackBox,
) -> (Vec<Vec<u32>>, TrainReport) {
    let mut model = fresh_model(data, bb);
    let report = model.fit(&train_x(data));
    assert_eq!(report.status, TrainStatus::Completed);
    (weights(&model), report)
}

/// A scratch checkpoint directory, wiped from any previous test run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cfx-ckpt-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pause after `PAUSE_AFTER` epochs (durably checkpointed), then resume
/// in a *fresh* model instance so every bit of state must come off disk.
fn paused_then_resumed(
    data: &EncodedDataset,
    bb: &BlackBox,
    dir: &PathBuf,
) -> (Vec<Vec<u32>>, TrainReport) {
    let x = train_x(data);
    let mut first = fresh_model(data, bb);
    let pause = CheckpointConfig::in_dir(dir.clone())
        .with_epoch_budget(PAUSE_AFTER);
    let r1 = first
        .fit_with_checkpoints(&x, &WatchdogConfig::default(), &pause, |_, _| {})
        .unwrap();
    assert_eq!(r1.status, TrainStatus::Paused);
    assert_eq!(r1.history.len(), PAUSE_AFTER);

    let mut second = fresh_model(data, bb);
    let resume = CheckpointConfig::in_dir(dir.clone()).with_resume(true);
    let r2 = second
        .fit_with_checkpoints(&x, &WatchdogConfig::default(), &resume, |_, _| {})
        .unwrap();
    (weights(&second), r2)
}

/// Interrupted-then-resumed training is bitwise indistinguishable from
/// never having been interrupted — weights *and* report — at every
/// supported thread count (the resumed run need not even use the thread
/// count the original run crashed under).
#[test]
fn pause_resume_is_bitwise_identical_at_1_2_4_threads() {
    let (data, bb) = setup();
    let (ref_w, ref_r) = reference(&data, &bb);
    for threads in [1usize, 2, 4] {
        let dir = scratch_dir(&format!("t{threads}"));
        let (w, r) = with_threads(threads, || {
            paused_then_resumed(&data, &bb, &dir)
        });
        assert_eq!(r.status, TrainStatus::Completed);
        assert_eq!(w, ref_w, "weights diverged at {threads} threads");
        assert_eq!(r, ref_r, "report diverged at {threads} threads");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Child half of the kill test: under `CKPT_CHILD=1` it starts the same
/// fit with checkpointing on, and the parent's `CFX_CRASH=epoch@2` kills
/// the process (exit 137) right after the epoch-2 checkpoint is durable.
/// Without the env vars this is a no-op.
#[test]
fn checkpoint_child_fit() {
    if std::env::var("CKPT_CHILD").is_err() {
        return;
    }
    let dir = PathBuf::from(std::env::var("CKPT_DIR").unwrap());
    let (data, bb) = setup();
    let mut model = fresh_model(&data, &bb);
    let ckpt = CheckpointConfig::in_dir(dir).with_resume(true);
    let _ = model.fit_with_checkpoints(
        &train_x(&data),
        &WatchdogConfig::default(),
        &ckpt,
        |_, _| {},
    );
    unreachable!("CFX_CRASH must have killed this process at epoch 2");
}

/// Hard-kill recovery: a child process is SIGKILL'd (via the
/// deterministic crash switch) mid-fit, immediately after a durable
/// save; resuming in this process completes training to bits identical
/// to the uninterrupted reference.
#[test]
fn kill_mid_fit_then_resume_is_bitwise_identical() {
    let dir = scratch_dir("kill");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", "checkpoint_child_fit", "--nocapture"])
        .env("CKPT_CHILD", "1")
        .env("CKPT_DIR", &dir)
        .env("CFX_CRASH", "epoch@2")
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(CRASH_EXIT_CODE),
        "child must die at the crash point, not finish or fail the test"
    );

    let (data, bb) = setup();
    let (ref_w, ref_r) = reference(&data, &bb);
    let mut model = fresh_model(&data, &bb);
    let resume = CheckpointConfig::in_dir(dir.clone()).with_resume(true);
    let report = model
        .fit_with_checkpoints(
            &train_x(&data),
            &WatchdogConfig::default(),
            &resume,
            |_, _| {},
        )
        .unwrap();
    assert_eq!(weights(&model), ref_w, "weights diverged after kill+resume");
    assert_eq!(report, ref_r, "report diverged after kill+resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted newest checkpoint must not poison the resume: it gets
/// quarantined (`*.corrupt`), the previous intact checkpoint is loaded,
/// and — because training is deterministic — the extra replayed epoch
/// still lands on the uninterrupted reference bits.
#[test]
fn corrupt_latest_is_quarantined_and_resume_still_matches() {
    let (data, bb) = setup();
    let (ref_w, ref_r) = reference(&data, &bb);

    let dir = scratch_dir("corrupt");
    let x = train_x(&data);
    let mut first = fresh_model(&data, &bb);
    let pause = CheckpointConfig::in_dir(dir.clone())
        .with_epoch_budget(PAUSE_AFTER);
    let r1 = first
        .fit_with_checkpoints(&x, &WatchdogConfig::default(), &pause, |_, _| {})
        .unwrap();
    assert_eq!(r1.status, TrainStatus::Paused);

    // Flip one payload byte in the newest (epoch-3) checkpoint.
    let mgr = pause.manager().unwrap().unwrap();
    let newest = mgr.step_path(PAUSE_AFTER as u64);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    let mut second = fresh_model(&data, &bb);
    let resume = CheckpointConfig::in_dir(dir.clone()).with_resume(true);
    let report = second
        .fit_with_checkpoints(&x, &WatchdogConfig::default(), &resume, |_, _| {})
        .unwrap();

    let quarantined = PathBuf::from(format!(
        "{}.corrupt",
        newest.display()
    ));
    assert!(quarantined.exists(), "corrupt checkpoint must be set aside");
    assert_eq!(weights(&second), ref_w, "fallback resume diverged");
    assert_eq!(report, ref_r, "fallback resume report diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The black box, trained `PAUSE_AFTER` of `EPOCHS` epochs into a fresh
/// directory and then resumed to `EPOCHS` in a fresh instance, lands on
/// the uninterrupted weights bit for bit and the same per-epoch losses.
/// The first call simply trains for `PAUSE_AFTER` epochs: the loop reads
/// its epoch total only as the loop bound, so it writes the epoch-3
/// checkpoint a 6-epoch run writes. Without the shuffled row order in
/// the checkpoint the resumed epochs train on a different permutation.
#[test]
fn blackbox_resume_is_bitwise_identical() {
    let raw = DatasetId::Adult.generate_clean(1200, 3);
    let data = EncodedDataset::from_raw(&raw);
    let cfg = BlackBoxConfig { epochs: EPOCHS, ..Default::default() };
    let mut reference = BlackBox::new(data.width(), &cfg);
    let ref_losses = reference.train(&data.x, &data.y, &cfg);

    let dir = scratch_dir("bb");
    let first = BlackBoxConfig { epochs: PAUSE_AFTER, ..cfg };
    BlackBox::new(data.width(), &cfg)
        .train_with_checkpoints(
            &data.x,
            &data.y,
            &first,
            &CheckpointConfig::in_dir(dir.clone()),
        )
        .unwrap();
    let mut resumed = BlackBox::new(data.width(), &cfg);
    let losses = resumed
        .train_with_checkpoints(
            &data.x,
            &data.y,
            &cfg,
            &CheckpointConfig::in_dir(dir.clone()).with_resume(true),
        )
        .unwrap();
    assert_eq!(losses, ref_losses, "per-epoch losses diverged");
    assert_eq!(param_bits(&resumed), param_bits(&reference), "weights diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same for the baselines' `PlainVae`, which shuffles one row order
/// in place every epoch too.
#[test]
fn plain_vae_resume_is_bitwise_identical() {
    let raw = DatasetId::Adult.generate_clean(1200, 3);
    let x = EncodedDataset::from_raw(&raw).x.slice_rows(0, 512);
    let cfg = PlainVaeConfig { epochs: EPOCHS, ..Default::default() };
    let (reference, ref_losses) = PlainVae::fit(&x, &cfg);

    let dir = scratch_dir("vae");
    let first = PlainVaeConfig { epochs: PAUSE_AFTER, ..cfg };
    PlainVae::fit_with_checkpoints(
        &x,
        &first,
        &CheckpointConfig::in_dir(dir.clone()),
    )
    .unwrap();
    let (resumed, losses) = PlainVae::fit_with_checkpoints(
        &x,
        &cfg,
        &CheckpointConfig::in_dir(dir.clone()).with_resume(true),
    )
    .unwrap();
    assert_eq!(losses, ref_losses, "per-epoch losses diverged");
    assert_eq!(param_bits(&resumed), param_bits(&reference), "weights diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
