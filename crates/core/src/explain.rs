//! Explanation objects: per-instance counterfactuals with validity and
//! feasibility verdicts, latent-manifold extraction (Fig. 5/6), and the
//! human-readable before/after rendering of Table V.

use crate::config::GenRecoveryConfig;
use crate::model::FeasibleCfModel;
use cfx_data::{csv::format_value, Encoding, Schema, Value};
use cfx_manifold::pairwise_sq_dists;
use cfx_obs::metrics::{counter, histogram};
use cfx_tensor::{CfxError, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How a counterfactual was obtained (the graceful-degradation ladder of
/// `explain_batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The deterministic posterior-mean decode succeeded directly.
    FirstShot,
    /// Accepted on the n-th latent resampling attempt (1-based).
    Resampled(u32),
    /// The decoder never produced a usable row; this is the
    /// nearest-neighbor (FACE-style) training-pool fallback.
    Fallback,
}

/// Aggregate provenance tally of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProvenanceCounts {
    /// Counterfactuals from the deterministic first decode.
    pub first_shot: usize,
    /// Counterfactuals recovered by latent resampling.
    pub resampled: usize,
    /// Counterfactuals served from the nearest-neighbor fallback pool.
    pub fallback: usize,
}

/// One explained instance.
#[derive(Debug, Clone)]
pub struct Counterfactual {
    /// Original encoded row.
    pub input: Vec<f32>,
    /// Counterfactual encoded row.
    pub cf: Vec<f32>,
    /// Black-box class of the input.
    pub input_class: u8,
    /// Desired (opposite) class.
    pub desired_class: u8,
    /// Black-box class of the counterfactual.
    pub cf_class: u8,
    /// Whether `cf_class == desired_class` (the validity predicate).
    pub valid: bool,
    /// Whether every active constraint holds (the feasibility predicate).
    pub feasible: bool,
    /// How this counterfactual was produced.
    pub provenance: Provenance,
}

/// A batch of explanations plus aggregate rates.
#[derive(Debug, Clone)]
pub struct ExplanationBatch {
    /// Per-instance explanations.
    pub examples: Vec<Counterfactual>,
}

impl ExplanationBatch {
    /// Fraction of valid counterfactuals (×100 = the paper's Validity %).
    pub fn validity_rate(&self) -> f32 {
        rate(&self.examples, |e| e.valid)
    }

    /// Fraction of feasible counterfactuals (×100 = Feasibility score %).
    pub fn feasibility_rate(&self) -> f32 {
        rate(&self.examples, |e| e.feasible)
    }

    /// Fraction both valid and feasible.
    pub fn valid_and_feasible_rate(&self) -> f32 {
        rate(&self.examples, |e| e.valid && e.feasible)
    }

    /// Counterfactual rows as a tensor (for metric computation).
    pub fn cf_tensor(&self) -> Tensor {
        let rows: Vec<Vec<f32>> =
            self.examples.iter().map(|e| e.cf.clone()).collect();
        Tensor::from_rows(&rows)
    }

    /// Input rows as a tensor.
    pub fn input_tensor(&self) -> Tensor {
        let rows: Vec<Vec<f32>> =
            self.examples.iter().map(|e| e.input.clone()).collect();
        Tensor::from_rows(&rows)
    }

    /// Tally of how the batch's counterfactuals were produced — nonzero
    /// `resampled`/`fallback` counts make recovery overhead visible in
    /// benchmark output.
    pub fn provenance_counts(&self) -> ProvenanceCounts {
        let mut counts = ProvenanceCounts::default();
        for e in &self.examples {
            match e.provenance {
                Provenance::FirstShot => counts.first_shot += 1,
                Provenance::Resampled(_) => counts.resampled += 1,
                Provenance::Fallback => counts.fallback += 1,
            }
        }
        counts
    }
}

fn rate(examples: &[Counterfactual], pred: impl Fn(&Counterfactual) -> bool) -> f32 {
    if examples.is_empty() {
        return 0.0;
    }
    examples.iter().filter(|e| pred(e)).count() as f32 / examples.len() as f32
}

impl FeasibleCfModel {
    /// Explains every row of `x`: generates a counterfactual, classifies
    /// it, and checks the active constraints, degrading gracefully under
    /// default [`GenRecoveryConfig`] budgets:
    ///
    /// 1. **First shot** — deterministic posterior-mean decode.
    /// 2. **Resampling** — rows whose counterfactual is non-finite, or
    ///    neither valid nor feasible, are re-decoded with perturbed
    ///    latents up to `resample_attempts` times (fixed seeds, so the
    ///    result is deterministic).
    /// 3. **Fallback** — whatever still fails gets the nearest
    ///    desired-class training-pool row (FACE-style nearest-neighbor
    ///    search), with immutable columns restored from the input. When
    ///    the pool has no row of the desired class the input itself is
    ///    returned — a degenerate but finite and panic-free answer.
    ///
    /// Every sample therefore always receives a finite counterfactual;
    /// [`Counterfactual::provenance`] records which rung produced it.
    pub fn explain_batch(&self, x: &Tensor) -> ExplanationBatch {
        self.explain_rungs(x, &GenRecoveryConfig::default(), None, 0).expect(
            "explain without a deadline can only fail on an invalid \
             GenRecoveryConfig",
        )
    }

    /// The [`explain_batch`](Self::explain_batch) ladder under caller-set
    /// `recovery` budgets, cut short once `deadline` is spent instead of
    /// silently burning time the caller no longer has:
    ///
    /// - A zero budget, or a first decode that alone exceeds the budget,
    ///   returns [`CfxError::Timeout`] — the caller (e.g. the serving
    ///   daemon's `504` path) learns *that* and *by how much* it missed.
    /// - Once the budget runs out mid-ladder, remaining resample rungs
    ///   are skipped and still-broken rows jump straight to the cheap
    ///   nearest-neighbor fallback, so every returned batch is complete
    ///   and finite. The cut is observable (`cfx_explain_deadline_cut_total`).
    /// - An invalid `recovery` (see [`GenRecoveryConfig::validate`]) is a
    ///   [`CfxError::Config`].
    ///
    /// `stream` is folded into the seed of every recovery-resampling
    /// attempt, so callers that partition work — the serving daemon's
    /// worker pool derives `stream` from the request rows' content
    /// fingerprint — get resampling noise that is (a) decorrelated
    /// across distinct streams and (b) a pure function of the stream
    /// id, never of which thread, worker, or batch the job landed in.
    /// The deterministic first-shot decode ignores the stream entirely;
    /// only the rung-2 perturbation noise is stream-keyed.
    ///
    /// With default `recovery`, `stream == 0` and a budget large enough
    /// that nothing is cut, the result is bitwise identical to
    /// [`explain_batch`](Self::explain_batch).
    pub fn explain_batch_deadline_stream(
        &self,
        x: &Tensor,
        recovery: &GenRecoveryConfig,
        deadline: Duration,
        stream: u64,
    ) -> Result<ExplanationBatch, CfxError> {
        self.explain_rungs(x, recovery, Some(deadline), stream)
    }

    fn explain_rungs(
        &self,
        x: &Tensor,
        recovery: &GenRecoveryConfig,
        budget: Option<Duration>,
        stream: u64,
    ) -> Result<ExplanationBatch, CfxError> {
        // Reject bad recovery knobs before any work: a negative or
        // non-finite noise scale would corrupt every resample rung while
        // looking like an honest retry (satellite of the robustness PR).
        recovery.validate()?;
        let start = Instant::now();
        let over = |b: &Duration| start.elapsed() >= *b;
        if let Some(b) = &budget {
            if b.is_zero() {
                return Err(CfxError::timeout("explain_batch admission", 0));
            }
        }
        let _span = cfx_obs::span!("explain_batch", rows = x.rows());
        let cf = self.counterfactuals(x);
        let input_classes = self.blackbox().predict(x);
        let cf_classes = self.blackbox().predict(&cf);
        let mut examples: Vec<Counterfactual> = (0..x.rows())
            .map(|r| {
                let xr = x.row_slice(r).to_vec();
                let cr = cf.row_slice(r).to_vec();
                let desired = 1 - input_classes[r];
                let feasible =
                    self.constraints().iter().all(|c| c.check(&xr, &cr));
                Counterfactual {
                    valid: cf_classes[r] == desired,
                    feasible,
                    input: xr,
                    cf: cr,
                    input_class: input_classes[r],
                    desired_class: desired,
                    cf_class: cf_classes[r],
                    provenance: Provenance::FirstShot,
                }
            })
            .collect();

        // A first decode that alone blew the budget: the caller's client
        // is already gone; surface the miss as a typed error instead of
        // continuing to spend compute on an unwanted answer.
        if let Some(b) = &budget {
            if over(b) {
                return Err(CfxError::timeout(
                    "explain_batch first shot",
                    b.as_millis() as u64,
                ));
            }
        }

        let needs_help = |e: &Counterfactual| {
            !e.cf.iter().all(|v| v.is_finite()) || !(e.valid && e.feasible)
        };
        let mut pending: Vec<usize> =
            (0..examples.len()).filter(|&r| needs_help(&examples[r])).collect();
        // Stage hook: when a serving worker has bound a request trace to
        // this thread, the record below (like every event in this
        // function) carries the trace id, so per-request ladder
        // progression is reconstructable from the JSONL log.
        cfx_obs::event!(
            "explain_rung",
            rung = "first_shot",
            rows = examples.len(),
            pending = pending.len(),
        );

        // Rung 2: latent resampling on the still-failing rows only.
        for attempt in 1..=recovery.resample_attempts {
            if pending.is_empty() {
                break;
            }
            // Budget spent mid-ladder: skip the remaining (expensive)
            // resample rungs and let still-broken rows take the cheap
            // nearest-neighbor fallback below. Observable, not silent.
            if budget.as_ref().is_some_and(over) {
                cfx_obs::event!(
                    "explain_deadline_cut",
                    attempt = attempt,
                    pending = pending.len(),
                );
                counter("cfx_explain_deadline_cut_total").inc(1);
                break;
            }
            let xb = x.gather_rows_pooled(&pending);
            // Stream 0 must reproduce the historical seeds exactly, so
            // the stream id enters by plain XOR (identity at 0).
            let mut rng = StdRng::seed_from_u64(
                self.config().seed ^ 0x5EED ^ attempt as u64 ^ stream,
            );
            let cf_try = self.counterfactuals_with_noise(
                &xb,
                recovery.noise_scale,
                &mut rng,
            );
            xb.recycle();
            let try_classes = self.blackbox().predict(&cf_try);
            let mut still = Vec::with_capacity(pending.len());
            for (i, &r) in pending.iter().enumerate() {
                let cr = cf_try.row_slice(i);
                let finite = cr.iter().all(|v| v.is_finite());
                let valid = try_classes[i] == examples[r].desired_class;
                let feasible = self
                    .constraints()
                    .iter()
                    .all(|c| c.check(&examples[r].input, cr));
                if finite && valid && feasible {
                    examples[r].cf = cr.to_vec();
                    examples[r].cf_class = try_classes[i];
                    examples[r].valid = valid;
                    examples[r].feasible = feasible;
                    examples[r].provenance =
                        Provenance::Resampled(attempt as u32);
                } else {
                    still.push(r);
                }
            }
            cfx_obs::event!(
                "explain_rung",
                rung = "resample",
                attempt = attempt,
                recovered = pending.len() - still.len(),
                pending = still.len(),
            );
            pending = still;
        }

        // Rung 3: nearest-neighbor fallback. Only rows that are *broken*
        // (non-finite, or invalid) fall through — a valid-but-infeasible
        // first shot is a better answer than a copied training row.
        let fallback: Vec<usize> = pending
            .into_iter()
            .filter(|&r| {
                !examples[r].cf.iter().all(|v| v.is_finite())
                    || !examples[r].valid
            })
            .collect();
        if !fallback.is_empty() {
            cfx_obs::event!(
                "explain_rung",
                rung = "fallback",
                rows = fallback.len(),
            );
            self.fallback_fill(x, &fallback, &mut examples);
        }
        let batch = ExplanationBatch { examples };
        let counts = batch.provenance_counts();
        let rows = batch.examples.len();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let ns_per_cf = dur_ns / rows.max(1) as u64;
        cfx_obs::event!(
            "explain_batch",
            rows = rows,
            first_shot = counts.first_shot,
            resampled = counts.resampled,
            fallback = counts.fallback,
            dur_ns = dur_ns,
            ns_per_cf = ns_per_cf,
        );
        counter("cfx_explain_rows_total").inc(rows as u64);
        counter("cfx_explain_first_shot_total").inc(counts.first_shot as u64);
        counter("cfx_explain_resampled_total").inc(counts.resampled as u64);
        counter("cfx_explain_fallback_total").inc(counts.fallback as u64);
        // Per-counterfactual latency, bucketed 10µs .. 1s.
        histogram(
            "cfx_explain_cf_latency_ns",
            &[1e4, 1e5, 1e6, 1e7, 1e8, 1e9],
        )
        .observe(ns_per_cf as f64);
        Ok(batch)
    }

    /// Overwrites `examples[r]` for each `r` in `rows` with the nearest
    /// desired-class pool row (immutable columns restored), re-classified
    /// and re-checked.
    fn fallback_fill(
        &self,
        x: &Tensor,
        rows: &[usize],
        examples: &mut [Counterfactual],
    ) {
        let pool = &self.fallback_pool;
        // One distance matrix over [queries ++ pool]; query i vs pool j
        // lives at (i, nq + j).
        let mut points: Vec<Vec<f32>> =
            rows.iter().map(|&r| examples[r].input.clone()).collect();
        points.extend(pool.rows.iter().cloned());
        let nq = rows.len();
        let total = points.len();
        let dists = pairwise_sq_dists(&points);
        let candidates: Vec<Vec<f32>> = rows
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let desired = examples[r].desired_class;
                let mut best: Option<(f32, usize)> = None;
                for j in 0..pool.rows.len() {
                    if pool.classes[j] != desired {
                        continue;
                    }
                    let d = dists[i * total + nq + j];
                    if best.map_or(true, |(bd, _)| d < bd) {
                        best = Some((d, j));
                    }
                }
                match best {
                    Some((_, j)) => pool.rows[j].clone(),
                    // Degenerate fallback-of-fallback: echo the input.
                    None => examples[r].input.clone(),
                }
            })
            .collect();
        // Restore immutable columns in one masked batch, then re-verify.
        let xb = x.gather_rows(rows);
        let cand = Tensor::from_rows(&candidates);
        let cf = self.mask().apply(&xb, &cand);
        let classes = self.blackbox().predict(&cf);
        for (i, &r) in rows.iter().enumerate() {
            let cr = cf.row_slice(i).to_vec();
            let feasible = self
                .constraints()
                .iter()
                .all(|c| c.check(&examples[r].input, &cr));
            examples[r].valid = classes[i] == examples[r].desired_class;
            examples[r].feasible = feasible;
            examples[r].cf = cr;
            examples[r].cf_class = classes[i];
            examples[r].provenance = Provenance::Fallback;
        }
    }

    /// Latent points + feasibility labels for the manifold figures:
    /// encodes each input under its desired class and labels the decoded
    /// counterfactual 1 (feasible) / 0 (infeasible), exactly the
    /// procedure of §IV-E's manifold extraction.
    pub fn manifold_points(&self, x: &Tensor) -> (Tensor, Vec<u8>) {
        let latents = self.latent_mu(x);
        let batch = self.explain_batch(x);
        let labels = batch
            .examples
            .iter()
            .map(|e| e.feasible as u8)
            .collect();
        (latents, labels)
    }
}

/// Renders a Table-V style before/after comparison of one explanation.
///
/// Rows where the counterfactual differs from the input are marked with
/// `*` (the paper marks them in red).
pub fn format_comparison(
    schema: &Schema,
    encoding: &Encoding,
    example: &Counterfactual,
) -> String {
    let x_raw = encoding.decode_row(schema, &example.input);
    let cf_raw = encoding.decode_row(schema, &example.cf);
    let mut out = String::new();
    let name_w = schema
        .features
        .iter()
        .map(|f| f.name.len())
        .max()
        .unwrap_or(8)
        .max("Features".len());
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>14}  {:>14}",
        "Features", "x_true", "x_pred"
    );
    for ((f, xv), cv) in schema.features.iter().zip(&x_raw).zip(&cf_raw) {
        let changed = !values_equal(xv, cv);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>14}  {:>14}{}",
            f.name,
            format_value(&f.kind, xv),
            format_value(&f.kind, cv),
            if changed { " *" } else { "" },
        );
    }
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>14}  {:>14}",
        schema.target,
        class_name(schema, example.input_class),
        class_name(schema, example.cf_class),
    );
    out
}

fn class_name(schema: &Schema, class: u8) -> &str {
    if class == 1 {
        &schema.positive_class
    } else {
        &schema.negative_class
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => (x - y).abs() < 0.5,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConstraintMode, FeasibleCfConfig};
    use cfx_data::{DatasetId, EncodedDataset};
    use cfx_models::{BlackBox, BlackBoxConfig};

    fn trained_model() -> (EncodedDataset, FeasibleCfModel) {
        let raw = DatasetId::Adult.generate_clean(900, 11);
        let data = EncodedDataset::from_raw(&raw);
        let bb_cfg = BlackBoxConfig { epochs: 8, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&data.x, &data.y, &bb_cfg);
        let cfg = FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
            .with_epochs(4)
            .with_batch_size(256);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        model.fit(&data.x);
        (data, model)
    }

    #[test]
    fn explanations_cover_every_row_with_consistent_flags() {
        let (data, model) = trained_model();
        let x = data.x.slice_rows(0, 60);
        let batch = model.explain_batch(&x);
        assert_eq!(batch.examples.len(), 60);
        for e in &batch.examples {
            assert_eq!(e.desired_class, 1 - e.input_class);
            assert_eq!(e.valid, e.cf_class == e.desired_class);
        }
        // Rates are consistent with flags.
        let v = batch.examples.iter().filter(|e| e.valid).count() as f32 / 60.0;
        assert!((batch.validity_rate() - v).abs() < 1e-6);
        assert!(batch.valid_and_feasible_rate() <= batch.validity_rate() + 1e-6);
        assert!(batch.valid_and_feasible_rate() <= batch.feasibility_rate() + 1e-6);
    }

    #[test]
    fn manifold_points_align_with_explanations() {
        let (data, model) = trained_model();
        let x = data.x.slice_rows(0, 40);
        let (latents, labels) = model.manifold_points(&x);
        assert_eq!(latents.rows(), 40);
        assert_eq!(labels.len(), 40);
        let batch = model.explain_batch(&x);
        for (l, e) in labels.iter().zip(&batch.examples) {
            assert_eq!(*l, e.feasible as u8);
        }
    }

    #[test]
    fn format_comparison_is_table_shaped() {
        let (data, model) = trained_model();
        let x = data.x.slice_rows(0, 5);
        let batch = model.explain_batch(&x);
        let text = format_comparison(&data.schema, &data.encoding, &batch.examples[0]);
        assert!(text.contains("Features"));
        assert!(text.contains("x_true"));
        assert!(text.contains("x_pred"));
        assert!(text.contains("age"));
        // one line per feature + header + target row
        assert_eq!(text.lines().count(), data.schema.num_features() + 2);
    }

    #[test]
    fn provenance_counts_cover_the_batch() {
        let (data, model) = trained_model();
        let x = data.x.slice_rows(0, 30);
        let batch = model.explain_batch(&x);
        let counts = batch.provenance_counts();
        assert_eq!(counts.first_shot + counts.resampled + counts.fallback, 30);
        // Whatever the rung, every sample gets a finite counterfactual.
        for e in &batch.examples {
            assert!(e.cf.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn tensors_round_trip_from_batch() {
        let (data, model) = trained_model();
        let x = data.x.slice_rows(0, 8);
        let batch = model.explain_batch(&x);
        assert_eq!(batch.input_tensor().shape(), (8, data.width()));
        assert_eq!(batch.cf_tensor().shape(), (8, data.width()));
        assert_eq!(batch.input_tensor().row_slice(3), x.row_slice(3));
    }
}
