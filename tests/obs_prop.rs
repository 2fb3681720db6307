//! Telemetry must be a pure observer: with a JSONL trace sink open,
//! metrics recording, and the op profiler armed, training must
//! produce **bitwise** the same weights and the same `TrainReport` as a
//! silent run — at 1, 2, and 4 threads. The trace itself must honour
//! the schema-v1 contract: every line parses, every `fit_epoch` event
//! carries all four decomposed loss components, epochs count 0, 1, 2.
//! See `cfx-obs`'s crate docs for the determinism contract these tests
//! enforce.

use cfx::core::{
    ConstraintMode, FeasibleCfConfig, FeasibleCfModel, TrainReport,
    TrainStatus,
};
use cfx::data::{DatasetId, EncodedDataset};
use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::tensor::runtime::with_threads;
use cfx::tensor::{Module, Tensor};
use cfx_obs::json::{parse, Value};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

const EPOCHS: usize = 3;

/// The JSONL sink and the profiler are process-global; serialize every
/// test that toggles them.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Deterministic fixture: small Adult slice + a quickly trained black
/// box. Telemetry state must not leak into any of these bits.
fn setup() -> (EncodedDataset, BlackBox) {
    let raw = DatasetId::Adult.generate_clean(800, 7);
    let data = EncodedDataset::from_raw(&raw);
    let bb_cfg = BlackBoxConfig { epochs: 4, ..Default::default() };
    let mut bb = BlackBox::new(data.width(), &bb_cfg);
    bb.train(&data.x, &data.y, &bb_cfg);
    (data, bb)
}

fn fresh_model(data: &EncodedDataset, bb: &BlackBox) -> FeasibleCfModel {
    let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
        .with_epochs(EPOCHS)
        .with_batch_size(128);
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
    data.x.slice_rows(0, 256)
}

/// Runs a fresh fit and returns the final weights as raw `f32` bits
/// plus the report.
fn run_fit(
    data: &EncodedDataset,
    bb: &BlackBox,
    threads: usize,
) -> (Vec<Vec<u32>>, TrainReport) {
    let mut model = fresh_model(data, bb);
    let report = with_threads(threads, || model.fit(&train_x(data)));
    assert_eq!(report.status, TrainStatus::Completed);
    let params = model.vae().export_params();
    let bits = params
        .iter()
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect();
    (bits, report)
}

fn scratch_trace(tag: &str) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("cfx-obs-prop-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Weights and reports are bitwise identical with telemetry fully on
/// (JSONL sink + op profiler + metrics) vs fully off, at every thread
/// count. The params comparison is exact: it compares raw `f32` bits.
#[test]
fn telemetry_is_a_pure_observer_at_1_2_4_threads() {
    let _g = lock();
    let (data, bb) = setup();
    cfx_obs::set_stderr(false);
    for threads in [1usize, 2, 4] {
        // Silent run: no sink, profiler disarmed.
        cfx_obs::close_jsonl();
        cfx::tensor::profile::set_enabled(false);
        let (w_off, r_off) = run_fit(&data, &bb, threads);

        // Fully instrumented run.
        let trace = scratch_trace(&format!("t{threads}"));
        cfx_obs::init_jsonl(&trace).unwrap();
        cfx::tensor::profile::set_enabled(true);
        let (w_on, r_on) = run_fit(&data, &bb, threads);
        cfx_obs::close_jsonl();
        cfx::tensor::profile::set_enabled(false);

        assert_eq!(
            w_off, w_on,
            "weights diverged with telemetry on at {threads} threads"
        );
        assert_eq!(
            r_off, r_on,
            "TrainReport diverged with telemetry on at {threads} threads"
        );
        assert!(
            std::fs::metadata(&trace).map(|m| m.len() > 0).unwrap_or(false),
            "instrumented run produced no trace"
        );
        let _ = std::fs::remove_file(&trace);
    }
    cfx_obs::set_stderr(true);
}

/// A 3-epoch fit writes a schema-v1 JSONL trace that round-trips
/// through the crate's own parser: `fit_epoch` events exist for epochs
/// 0, 1, 2 and every one carries the four decomposed loss components
/// (plus the total) as finite numbers.
#[test]
fn three_epoch_trace_round_trips_with_loss_components() {
    let _g = lock();
    let (data, bb) = setup();
    cfx_obs::set_stderr(false);
    let trace = scratch_trace("roundtrip");
    cfx_obs::init_jsonl(&trace).unwrap();
    let (_, report) = run_fit(&data, &bb, 2);
    cfx_obs::close_jsonl();
    cfx_obs::set_stderr(true);
    assert_eq!(report.history.len(), EPOCHS);

    let text = std::fs::read_to_string(&trace).unwrap();
    let mut fit_epochs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_u64),
            Some(cfx_obs::SCHEMA_VERSION),
            "{line}"
        );
        let kind = doc.get("kind").and_then(Value::as_str).unwrap();
        assert!(
            matches!(kind, "event" | "span_enter" | "span_exit"),
            "unknown kind in {line}"
        );
        assert!(doc.get("mono_ns").and_then(Value::as_u64).is_some());
        if doc.get("name").and_then(Value::as_str) == Some("fit_epoch") {
            fit_epochs.push(doc);
        }
    }
    assert_eq!(fit_epochs.len(), EPOCHS, "expected one event per epoch");
    for (i, doc) in fit_epochs.iter().enumerate() {
        let fields = doc.get("fields").expect("fit_epoch has fields");
        assert_eq!(
            fields.get("epoch").and_then(Value::as_u64),
            Some(i as u64),
            "epochs must count 0..{EPOCHS}"
        );
        for comp in
            ["total", "validity", "proximity", "feasibility", "sparsity"]
        {
            let v = fields.get(comp).and_then(Value::as_f64).unwrap_or_else(
                || panic!("fit_epoch {i} missing loss component {comp}"),
            );
            assert!(v.is_finite(), "{comp} not finite in epoch {i}");
        }
        // The trace must agree with the in-memory report.
        let total = fields.get("total").and_then(Value::as_f64).unwrap();
        assert!(
            (total - f64::from(report.history[i].total)).abs() < 1e-6,
            "trace/report total mismatch at epoch {i}"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

/// CI scenario hook: when `CFX_TRACE` names a file, `init_from_env`
/// opens it and a fit writes there without any `--trace-out` plumbing.
/// Skipped (trivially green) when the variable is unset or is the
/// stderr-profiler form (`1`/`stderr`).
#[test]
fn env_trace_scenario() {
    let spec = match std::env::var("CFX_TRACE") {
        Ok(s) if !s.is_empty() && s != "1" && s != "stderr" => s,
        _ => return,
    };
    let _g = lock();
    assert!(cfx_obs::init_from_env().unwrap());
    let (data, bb) = setup();
    cfx_obs::set_stderr(false);
    let (_, report) = run_fit(&data, &bb, 1);
    cfx_obs::close_jsonl();
    cfx_obs::set_stderr(true);
    assert_eq!(report.history.len(), EPOCHS);
    let text = std::fs::read_to_string(&spec).unwrap();
    assert!(
        text.lines().any(|l| l.contains("\"fit_epoch\"")),
        "CFX_TRACE file has no fit_epoch events"
    );
}
