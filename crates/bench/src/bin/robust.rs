//! Robustness bench: **CF invalidation under model multiplicity & drift**
//! (the Table-IV-style companion for the `RobustMode` training path).
//!
//! ```text
//! cargo run --release -p cfx-bench --bin robust -- adult [--size quick|half|paper]
//!     [--seed N] [--eval N] [--members K] [--out BENCH_robust.json]
//! ```
//!
//! Two counterfactual models are trained on the same harness: **plain**
//! (the paper's model, hinging validity against the deployed black box
//! only) and **robust** (`RobustMode::WorstCase`, hinging against the
//! worst member of a K-model ensemble). Both explain the same negative
//! test instances; each CF batch is then re-judged by models the
//! generator never saw:
//!
//! * **multiplicity** — every ensemble member re-predicts the CFs; a CF
//!   valid under the deployed model but flipped by *any* member is
//!   invalidated (the Rashomon-set worst case);
//! * **drift m** — a fresh black box trained on a world drifted by
//!   [`Drift::magnitude`]`(m)` (rows encoded with the ORIGINAL fitted
//!   encoding, so only the world moved, not the feature space)
//!   re-predicts the CFs.
//!
//! Results go to `BENCH_robust.json` with `host_cores` — invalidation
//! rates are compute-independent, but the field keeps the file
//! machine-comparable with the other `BENCH_*.json` dumps, whose timing
//! numbers from a 1-core host are recorded honestly.

use cfx_core::{ConstraintMode, FeasibleCfConfig, FeasibleCfModel, RobustMode};
use cfx_data::{DatasetId, Drift};
use cfx_metrics::{invalidation, invalidation_any, InvalidationReport};
use cfx_models::{BlackBox, BlackBoxConfig, EnsembleBlackBox, EnsembleConfig};
use cfx_tensor::Tensor;
use cfx_bench::{
    finish_telemetry, init_telemetry, parse_cli, Harness, HarnessConfig,
};

/// Drift magnitudes swept (≥ 2 scenarios per the bench contract).
const DRIFTS: [f32; 2] = [0.5, 1.0];

struct Opts {
    members: usize,
    out: String,
    rest: Vec<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        members: 5,
        out: "BENCH_robust.json".to_string(),
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--members" => {
                i += 1;
                opts.members = args[i].parse().expect("bad --members");
                assert!(opts.members > 0, "--members must be positive");
            }
            "--out" => {
                i += 1;
                opts.out = args[i].clone();
            }
            other => opts.rest.push(other.to_string()),
        }
        i += 1;
    }
    opts
}

/// Trains a "retrained world" black box: same architecture and epochs as
/// the deployed one, but fitted on data drawn from the drifted SCM and
/// encoded with the *original* encoding (the feature space is frozen at
/// deployment time; only the world underneath moved).
fn drift_retrain(
    harness: &Harness,
    config: &HarnessConfig,
    m: f32,
) -> BlackBox {
    let drift = Drift::magnitude(m);
    let n = config.size.raw_count(harness.dataset);
    let seed = config.seed ^ 0xD21F7 ^ (m.to_bits() as u64);
    let raw = harness.dataset.generate_clean_drifted(n, seed, &drift);
    let schema = &raw.schema;
    let mut rows = Vec::with_capacity(raw.rows.len() * harness.data.width());
    for row in &raw.rows {
        rows.extend(
            harness
                .data
                .encoding
                .encode_row(schema, row)
                .expect("drifted rows are clean and schema-identical"),
        );
    }
    let x = Tensor::from_vec(raw.rows.len(), harness.data.width(), rows);
    let y = Tensor::from_vec(
        raw.labels.len(),
        1,
        raw.labels.iter().map(|&b| b as u8 as f32).collect(),
    );
    let bb_cfg = BlackBoxConfig {
        epochs: config.blackbox_epochs,
        seed,
        ..Default::default()
    };
    let mut bb = BlackBox::new(harness.data.width(), &bb_cfg);
    bb.train(&x, &y, &bb_cfg);
    bb
}

struct Scenario {
    name: String,
    report: InvalidationReport,
}

/// All invalidation scenarios for one CF batch: ensemble-any plus each
/// drift magnitude.
fn run_scenarios(
    harness: &Harness,
    ensemble: &EnsembleBlackBox,
    drift_models: &[(f32, BlackBox)],
    x: &Tensor,
    cf: &Tensor,
) -> Vec<Scenario> {
    let desired: Vec<u8> =
        harness.blackbox.predict(x).iter().map(|&p| 1 - p).collect();
    let ref_pred = harness.blackbox.predict(cf);

    let member_preds: Vec<Vec<u8>> =
        (0..ensemble.len()).map(|k| ensemble.predict_member(k, cf)).collect();
    let mut out = vec![Scenario {
        name: "multiplicity-any".into(),
        report: invalidation_any(&desired, &ref_pred, &member_preds),
    }];
    for (m, bb) in drift_models {
        out.push(Scenario {
            name: format!("drift-{m}"),
            report: invalidation(&desired, &ref_pred, &bb.predict(cf)),
        });
    }
    out
}

struct ModeResult {
    label: &'static str,
    validity: f32,
    scenarios: Vec<Scenario>,
}

fn mode_json(r: &ModeResult) -> String {
    let scenarios: Vec<String> = r
        .scenarios
        .iter()
        .map(|s| {
            format!(
                "{{\"scenario\":{:?},\"considered\":{},\"invalidated\":{},\
                 \"invalidation_pct\":{:.4}}}",
                s.name, s.report.considered, s.report.invalidated,
                s.report.pct()
            )
        })
        .collect();
    format!(
        "{{\"mode\":{:?},\"validity_pct\":{:.4},\"scenarios\":[{}]}}",
        r.label,
        r.validity,
        scenarios.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&args);
    let (dataset, config) = parse_cli(&opts.rest, DatasetId::Adult);
    init_telemetry(&config);
    let host_cores =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!(
        "robust bench: dataset={} seed={} members={} host_cores={host_cores}",
        dataset.name(),
        config.seed,
        opts.members
    );
    let harness = Harness::build(dataset, config.clone());
    let (x_train, y_train) = harness.data.subset(&harness.split.train);

    // The multiplicity ensemble: K bootstrapped siblings of the deployed
    // model, deterministic per-member streams from the harness seed.
    let ens_cfg = EnsembleConfig {
        members: opts.members,
        base: BlackBoxConfig {
            epochs: config.blackbox_epochs,
            seed: config.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut ensemble = EnsembleBlackBox::new(harness.data.width(), &ens_cfg);
    ensemble.train(&x_train, &y_train);
    eprintln!("ensemble trained ({} members)", ensemble.len());

    let drift_models: Vec<(f32, BlackBox)> = DRIFTS
        .iter()
        .map(|&m| {
            let bb = drift_retrain(&harness, &config, m);
            eprintln!("drift m={m} retrain done");
            (m, bb)
        })
        .collect();

    let x = harness.test_x();
    let mut results = Vec::new();
    for (label, robust) in
        [("plain", RobustMode::Off), ("robust-worst", RobustMode::WorstCase)]
    {
        let cf_config = FeasibleCfConfig::paper(dataset, ConstraintMode::Unary)
            .with_seed(config.seed)
            .with_step_budget_of(dataset, harness.split.train.len())
            .with_robust(robust);
        let constraints = FeasibleCfModel::paper_constraints(
            dataset,
            &harness.data,
            ConstraintMode::Unary,
            cf_config.c1,
            cf_config.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(
            &harness.data,
            harness.blackbox.clone(),
            constraints,
            cf_config,
        );
        if robust != RobustMode::Off {
            model = model.with_ensemble(ensemble.clone());
        }
        model.fit(&x_train);
        let cf = model.explain_batch(&x).cf_tensor();
        let row = harness.evaluate(
            label,
            &x,
            &cf,
            cfx_bench::FeasColumns::UnaryOnly,
        );
        let scenarios =
            run_scenarios(&harness, &ensemble, &drift_models, &x, &cf);
        for s in &scenarios {
            eprintln!("  {label:>12} {:<18} {}", s.name, s.report);
            cfx_obs::metrics::counter("cfx_robust_scenarios_total").inc(1);
        }
        results.push(ModeResult {
            label,
            validity: row.validity,
            scenarios,
        });
    }

    println!("\nCF invalidation rate, {} ({:?})", dataset.name(), config.size);
    println!(
        "{:<14} {:>10} {:>20} {:>12} {:>12}",
        "Mode", "Validity", "Multiplicity(any)", "Drift 0.5", "Drift 1.0"
    );
    for r in &results {
        println!(
            "{:<14} {:>9.2}% {:>19.2}% {:>11.2}% {:>11.2}%",
            r.label,
            r.validity,
            r.scenarios[0].report.pct(),
            r.scenarios[1].report.pct(),
            r.scenarios[2].report.pct(),
        );
    }

    // The bench's own contract: robust training must not invalidate more
    // often than plain training on any recorded scenario.
    let plain = &results[0];
    let robust = &results[1];
    for (p, r) in plain.scenarios.iter().zip(&robust.scenarios) {
        assert!(
            r.report.pct() <= p.report.pct(),
            "robust mode lost on {}: {} vs plain {}",
            p.name,
            r.report,
            p.report
        );
    }
    println!("robust ≤ plain on every scenario ✓");

    let modes: Vec<String> = results.iter().map(mode_json).collect();
    let json = format!(
        "{{\"bench\":\"robust\",\"host_cores\":{host_cores},\
         \"note\":\"invalidation rates are compute-independent; \
         host_cores is recorded for parity with the timing benches, \
         whose 1-core numbers are reported honestly\",\
         \"dataset\":{:?},\"size\":{:?},\"seed\":{},\"members\":{},\
         \"drifts\":[{}],\"modes\":[{}]}}\n",
        dataset.name(),
        format!("{:?}", config.size),
        config.seed,
        opts.members,
        DRIFTS.map(|m| m.to_string()).join(","),
        modes.join(",")
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    println!("wrote {}", opts.out);
    finish_telemetry(&config);
}
