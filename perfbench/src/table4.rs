//! `table4-row-adult`: one Quick Adult Table IV row for "Our method
//! (a)", built step by step from the crates' public functions the way
//! the `table4` harness builds it, so each layer gets its own clock.
//!
//! Training always uses the harness's default seed, so every run trains
//! the same model and `train_s` varies only with the machine. `--seed`
//! generates the rows the row is scored on: a fresh Adult sample,
//! encoded with the training encoding, whose black-box negatives (capped
//! at the Quick test split's count) are explained. Set-up is data
//! preparation (generate, encode, split, encode the scoring sample),
//! repeated [`PREP_REPS`] times; `setup_s` is the median repetition, the
//! first counted from process start. The timed phase trains the black
//! box, fits the generator at the paper step budget, explains the
//! negatives and scores the row, then explains the same negatives again
//! a fixed number of times, in rounds spread over a few seconds: those
//! calls are the latency samples. Every repeat must return the first
//! answer bit for bit.

use crate::{median, percentile, secs, Opts, Outcome, Tracing};
use cfx_core::{feasibility_rate, ConstraintMode, FeasibleCfConfig, FeasibleCfModel};
use cfx_data::{DatasetId, EncodedDataset, Split};
use cfx_models::{BlackBox, BlackBoxConfig};
use cfx_tensor::Tensor;
use std::time::{Duration, Instant};

/// Data-preparation repetitions behind `setup_s`.
pub const PREP_REPS: usize = 11;

/// Pause between rounds of repeated explain calls. The same call's
/// median over a 0.1 s stretch can read 2.4 ms or 4 ms on a shared
/// 2-vCPU guest; the quietest of rounds spread over seconds is steadier.
const ROUND_GAP: Duration = Duration::from_millis(100);

/// The `table4` harness's default seed, used for all training.
const TRAIN_SEED: u64 = 42;

/// Floors a correct row clears, set from seed runs (the model scores
/// 98.85 % validity and 93.39 % unary feasibility on its own test split).
const VALIDITY_FLOOR: f64 = 90.0;
const FEASIBILITY_FLOOR: f64 = 80.0;

/// Workload sizes; `toy` shrinks them for the smoke test.
struct Sizes {
    raw_rows: usize,
    /// Raw rows of the seeded scoring sample.
    scoring_rows: usize,
    /// Negatives explained (the Quick test split has 348).
    eval_cap: usize,
    blackbox_epochs: usize,
    /// `None`: the paper step budget (`with_step_budget_of`).
    fit_epochs: Option<usize>,
    /// Repeats of the whole-row explain call...
    explain_reps: usize,
    /// ...split into this many rounds, [`ROUND_GAP`] apart.
    explain_rounds: usize,
}

impl Sizes {
    fn new(toy: bool) -> Sizes {
        if toy {
            Sizes {
                raw_rows: 1_500,
                scoring_rows: 300,
                eval_cap: 60,
                blackbox_epochs: 2,
                fit_epochs: Some(2),
                explain_reps: 20,
                explain_rounds: 2,
            }
        } else {
            Sizes {
                raw_rows: 6_000,
                scoring_rows: 1_200,
                eval_cap: 348,
                blackbox_epochs: 12,
                fit_epochs: None,
                explain_reps: 1_000,
                explain_rounds: 20,
            }
        }
    }
}

struct Prepared {
    data: EncodedDataset,
    split: Split,
    /// The seeded scoring sample, encoded like the training data.
    scoring: Tensor,
}

fn prepare(seed: u64, sizes: &Sizes) -> Prepared {
    let raw = DatasetId::Adult.generate(sizes.raw_rows, TRAIN_SEED);
    let data = EncodedDataset::from_raw(&raw);
    let split = Split::paper(data.len(), TRAIN_SEED);
    let sample = DatasetId::Adult
        .generate(sizes.scoring_rows, seed)
        .cleaned();
    let rows: Vec<Vec<f32>> = sample
        .rows
        .iter()
        .map(|r| {
            data.encoding
                .encode_row(&data.schema, r)
                .expect("generated rows encode")
        })
        .collect();
    Prepared {
        scoring: Tensor::from_rows(&rows),
        data,
        split,
    }
}

/// Everything one pass of the timed phase measured.
struct Pass {
    blackbox_s: f64,
    fit_s: f64,
    epoch_ms: Vec<f64>,
    validity: f64,
    feasibility: f64,
    rows: usize,
    first_shot: usize,
    resampled: usize,
    fallback: usize,
    /// Wall time of each repeated explain call, ascending, in ms.
    rep_ms: Vec<f64>,
    /// The median call of the fastest round, in ms.
    p50_ms: f64,
}

impl Pass {
    fn train_s(&self) -> f64 {
        self.blackbox_s + self.fit_s
    }

    /// Median explain call (of the fastest round) over its rows.
    fn explain_us_per_cf(&self) -> f64 {
        1e3 * self.p50_ms / self.rows as f64
    }

    fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.rep_ms, p)
    }
}

fn timed_phase(p: &Prepared, sizes: &Sizes, out: &mut Outcome) -> Pass {
    let dataset = DatasetId::Adult;
    let (x_train, y_train) = p.data.subset(&p.split.train);

    let t = Instant::now();
    let bb_cfg = BlackBoxConfig {
        epochs: sizes.blackbox_epochs,
        seed: TRAIN_SEED,
        ..Default::default()
    };
    let mut blackbox = BlackBox::new(p.data.width(), &bb_cfg);
    blackbox.train(&x_train, &y_train, &bb_cfg);
    let blackbox_s = secs(t);

    let t = Instant::now();
    let mut config = FeasibleCfConfig::paper(dataset, ConstraintMode::Unary)
        .with_seed(TRAIN_SEED)
        .with_step_budget_of(dataset, p.split.train.len());
    if let Some(epochs) = sizes.fit_epochs {
        config = config.with_epochs(epochs);
    }
    let constraints = FeasibleCfModel::paper_constraints(
        dataset,
        &p.data,
        ConstraintMode::Unary,
        config.c1,
        config.c2,
    )
    .expect("Adult has the paper's unary constraint");
    let mut model = FeasibleCfModel::new(&p.data, blackbox, constraints.clone(), config);
    let mut epoch_ms = Vec::new();
    let mut last = Instant::now();
    model.fit_with(&x_train, |_, _| {
        epoch_ms.push(1e3 * secs(last));
        last = Instant::now();
    });
    let fit_s = secs(t);

    // The negatives to explain, picked as `Harness::test_x` picks them.
    let preds = model.blackbox().predict(&p.scoring);
    let negatives: Vec<usize> = (0..p.scoring.rows())
        .filter(|&r| preds[r] == 0)
        .take(sizes.eval_cap)
        .collect();
    let x = p.scoring.gather_rows(&negatives);

    let batch = model.explain_batch(&x);
    let cf = batch.cf_tensor();
    let desired: Vec<u8> = model
        .blackbox()
        .predict(&x)
        .iter()
        .map(|&c| 1 - c)
        .collect();
    let validity = f64::from(cfx_metrics::validity_pct(
        &desired,
        &model.blackbox().predict(&cf),
    ));
    let feasibility = 100.0 * f64::from(feasibility_rate(&constraints, &x, &cf));
    let counts = batch.provenance_counts();
    out.attempted += 1;
    if !cf.as_slice().iter().all(|v| v.is_finite()) {
        out.check_failed("the Table IV row has a non-finite counterfactual");
    } else if sizes.fit_epochs.is_none()
        && (validity < VALIDITY_FLOOR || feasibility < FEASIBILITY_FLOOR)
    {
        out.check_failed(&format!(
            "Table IV row below its floors: validity {validity:.2} (>= {VALIDITY_FLOOR}), \
             feasibility {feasibility:.2} (>= {FEASIBILITY_FLOOR})"
        ));
    }

    let mut rep_ms = Vec::with_capacity(sizes.explain_reps);
    let mut p50_ms = f64::INFINITY;
    for round in 0..sizes.explain_rounds {
        if round > 0 {
            std::thread::sleep(ROUND_GAP);
        }
        let mut round_ms = Vec::new();
        for _ in 0..sizes.explain_reps / sizes.explain_rounds {
            let t = Instant::now();
            let again = model.explain_batch(std::hint::black_box(&x));
            round_ms.push(1e3 * secs(t));
            out.attempted += 1;
            let same_provenance = again
                .examples
                .iter()
                .zip(&batch.examples)
                .all(|(a, b)| a.provenance == b.provenance);
            if !same_bits(&again.cf_tensor(), &cf) || !same_provenance {
                out.check_failed("a repeated explain differs from the first");
            }
        }
        p50_ms = p50_ms.min(median(&round_ms));
        rep_ms.extend(round_ms);
    }

    rep_ms.sort_by(f64::total_cmp);

    Pass {
        blackbox_s,
        fit_s,
        epoch_ms,
        validity,
        feasibility,
        rows: x.rows(),
        first_shot: counts.first_shot,
        resampled: counts.resampled,
        fallback: counts.fallback,
        rep_ms,
        p50_ms,
    }
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.rows() == b.rows()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the workload; see the module docs.
pub fn run(opts: &Opts, started: Instant) -> Outcome {
    let sizes = Sizes::new(opts.toy);
    let mut out = Outcome::default();

    let mut prep_s = Vec::with_capacity(PREP_REPS);
    let mut prepared = None;
    for rep in 0..PREP_REPS {
        let t = if rep == 0 { started } else { Instant::now() };
        prepared = Some(prepare(opts.seed, &sizes));
        prep_s.push(secs(t));
    }
    let prepared = prepared.expect("at least one preparation");
    let setup_s = median(&prep_s);
    eprintln!(
        "perfbench: {} training rows x {} encoded columns, {} scoring rows, set-up {:.4} s \
         (median of {PREP_REPS})",
        prepared.data.len(),
        prepared.data.width(),
        prepared.scoring.rows(),
        setup_s
    );

    let plain = timed_phase(&prepared, &sizes, &mut out);
    report(&plain, "untraced");
    if !opts.trace {
        let per_s = 1e3 / plain.p50_ms;
        out.set("setup_s", setup_s);
        out.set("train_s", plain.train_s());
        out.set("validity_pct", plain.validity);
        out.set("feasibility_pct", plain.feasibility);
        out.set("explain_us_per_cf", plain.explain_us_per_cf());
        out.set("latency_p50_ms", plain.p50_ms);
        out.set("cfs_per_s", per_s * plain.rows as f64);
        out.set("sustained_rps", per_s);
        return out;
    }

    let tracing = Tracing::arm(opts.workload);
    let traced = timed_phase(&prepared, &sizes, &mut out);
    tracing.finish(&mut out);
    report(&traced, "traced");
    // Telemetry is a pure observer: the traced row must equal the plain one.
    out.attempted += 1;
    if traced.validity != plain.validity || traced.feasibility != plain.feasibility {
        out.check_failed("the traced Table IV row differs from the untraced one");
    }
    out.set("data.prep_s", setup_s);
    out.set("client.latency_samples", plain.rep_ms.len() as f64);
    out.set("client.latency_p50_all_ms", plain.latency_ms(0.5));
    out.set("client.latency_p99_ms", plain.latency_ms(0.99));
    out.set("models.blackbox_train_s", traced.blackbox_s);
    out.set("core.fit_s", traced.fit_s);
    out.set("core.fit.epochs", traced.epoch_ms.len() as f64);
    out.set("core.fit.epoch_ms_p50", median(&traced.epoch_ms));
    out.set("core.explain.first_shot", traced.first_shot as f64);
    out.set("core.explain.resampled", traced.resampled as f64);
    out.set("core.explain.fallback", traced.fallback as f64);
    out.set(
        "core.explain.first_shot_frac",
        traced.first_shot as f64 / traced.rows as f64,
    );
    // Every repeat explains the same rows, so every call is of one kind.
    let kind = if traced.fallback > 0 {
        "fallback"
    } else {
        "first_shot"
    };
    out.set(&format!("core.explain.req_us.{kind}"), 1e3 * traced.p50_ms);
    let overhead = |t: f64, p: f64| 100.0 * (t - p) / p;
    out.set(
        "obs.overhead_pct.train_s",
        overhead(traced.train_s(), plain.train_s()),
    );
    out.set(
        "obs.overhead_pct.explain_us_per_cf",
        overhead(traced.explain_us_per_cf(), plain.explain_us_per_cf()),
    );
    out.set(
        "obs.overhead_pct.latency_p50_ms",
        overhead(traced.p50_ms, plain.p50_ms),
    );
    out.set(
        "obs.overhead_pct.latency_p99_ms",
        overhead(traced.latency_ms(0.99), plain.latency_ms(0.99)),
    );
    out
}

fn report(p: &Pass, label: &str) {
    eprintln!(
        "perfbench: {label}: black box {:.3} s, fit {:.3} s ({} epochs, p50 {:.3} ms), row \
         validity {:.2} % feasibility {:.2} %, {} rows ({} first shot, {} resampled, {} \
         fallback), explain p50 {:.3} ms (fastest round {:.3} ms) p99 {:.3} ms over {} calls",
        p.blackbox_s,
        p.fit_s,
        p.epoch_ms.len(),
        median(&p.epoch_ms),
        p.validity,
        p.feasibility,
        p.rows,
        p.first_shot,
        p.resampled,
        p.fallback,
        p.latency_ms(0.5),
        p.p50_ms,
        p.latency_ms(0.99),
        p.rep_ms.len()
    );
}
