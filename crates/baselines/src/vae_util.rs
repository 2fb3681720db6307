//! A plain (unconditional) VAE fitted on the data distribution — the
//! generative substrate REVISE and C-CHVAE search in.
//!
//! Unlike the paper's own model, these baselines were run through the
//! CARLA library [20], whose VAE is *not* the Table II architecture but a
//! wider autoencoder sized to the data. We mirror that:
//! `in → 128 → 32 → latent(10)` (or `in → 256 → 64 → latent(24)` for wide
//! ≥ 100-column inputs) with a symmetric decoder, trained on the
//! Bernoulli ELBO (BCE-with-logits reconstruction + KL) — BCE because the
//! encoded features are all in `[0, 1]` and an L1 likelihood over-smooths
//! the one-hot blocks.

use cfx_tensor::checkpoint::{CheckpointConfig, TrainCheckpoint, TrainState};
use cfx_tensor::init::randn_tensor;
use cfx_tensor::{
    stable_sigmoid, Activation, CfxError, Linear, Mlp, Module, Optimizer,
    Tape, Tensor, Var,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A data-distribution VAE with a CARLA-style architecture.
#[derive(Debug, Clone)]
pub struct PlainVae {
    encoder: Mlp,
    mu_head: Linear,
    logvar_head: Linear,
    decoder: Mlp,
    latent_dim: usize,
}

/// ELBO training settings for [`PlainVae::fit`].
#[derive(Debug, Clone, Copy)]
pub struct PlainVaeConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Epochs over the training rows.
    pub epochs: usize,
    /// KL weight (β).
    pub kl_weight: f32,
    /// Latent dimensionality; `0` picks it from the data width at fit
    /// time (10, or 24 for wide ≥ 100-column inputs).
    pub latent_dim: usize,
    /// First hidden width (second is `hidden / 4`); `0` picks it from the
    /// data width at fit time (128, or 256 for wide inputs).
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlainVaeConfig {
    fn default() -> Self {
        PlainVaeConfig {
            learning_rate: 3e-3,
            batch_size: 128,
            epochs: 25,
            kl_weight: 0.05,
            latent_dim: 0,
            hidden: 0,
            seed: 0,
        }
    }
}

impl PlainVaeConfig {
    /// Resolves the `(hidden, latent)` architecture for `width` input
    /// columns. A fixed 128 → 32 → 10 bottleneck reconstructs the ~30-wide
    /// Adult/Law encodings fine but pulls Table II-width KDD data (200+
    /// one-hot columns) toward the majority class; wide inputs get the
    /// larger 256 → 64 → 24 stack instead.
    pub fn architecture_for(&self, width: usize) -> (usize, usize) {
        let wide = width >= 100;
        let hidden = match self.hidden {
            0 if wide => 256,
            0 => 128,
            h => h,
        };
        let latent = match self.latent_dim {
            0 if wide => 24,
            0 => 10,
            l => l,
        };
        (hidden, latent)
    }
}

impl PlainVae {
    /// Fits the VAE on `x` and returns it with the per-epoch ELBO losses.
    pub fn fit(x: &Tensor, config: &PlainVaeConfig) -> (PlainVae, Vec<f32>) {
        Self::fit_with_checkpoints(x, config, &CheckpointConfig::disabled())
            .expect("disabled checkpointing cannot fail")
    }

    /// [`fit`](Self::fit) with durable state: parameters, the shared
    /// [`TrainState`] (Adam, RNG, epoch, the shuffled row order) and the
    /// loss history are checkpointed together after every epoch, and with
    /// `ckpt.resume` the fit continues bitwise-identically from the newest
    /// intact checkpoint (the architecture is a pure function of the
    /// config and data width, so the model is rebuilt then overwritten).
    pub fn fit_with_checkpoints(
        x: &Tensor,
        config: &PlainVaeConfig,
        ckpt: &CheckpointConfig,
    ) -> Result<(PlainVae, Vec<f32>), CfxError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input = x.cols();
        let (hidden, latent_dim) = config.architecture_for(input);
        let h1 = hidden;
        let h2 = (hidden / 4).max(latent_dim);
        let encoder = Mlp::new(
            &[input, h1, h2],
            Activation::Relu,
            Activation::Relu,
            1.0,
            &mut rng,
        );
        let mu_head =
            Linear::new(h2, latent_dim, Activation::Identity, &mut rng);
        let logvar_head =
            Linear::new(h2, latent_dim, Activation::Identity, &mut rng);
        let decoder = Mlp::new(
            &[latent_dim, h2, h1, input],
            Activation::Relu,
            Activation::Identity, // logits; sigmoid applied at decode
            1.0,
            &mut rng,
        );
        let mut vae = PlainVae {
            encoder,
            mu_head,
            logvar_head,
            decoder,
            latent_dim,
        };

        let mut state =
            TrainState::new(config.learning_rate, rng, (0..x.rows()).collect());
        let mut losses = Vec::with_capacity(config.epochs);
        let train_ckpt = TrainCheckpoint::open(ckpt, "vae-epoch")?;
        if let Some(c) = train_ckpt.resume(&mut vae, &mut state)? {
            losses = c.f32s("losses")?;
        }

        // One tape for the whole fit; reset() recycles every buffer so
        // steady-state ELBO steps run out of the pool.
        let mut tape = Tape::new();
        let mut pv = Vec::new();
        while state.epoch < config.epochs {
            state.order.shuffle(&mut state.rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in state.order.chunks(config.batch_size) {
                let xb = x.gather_rows_pooled(chunk);
                let b = xb.rows();
                let eps = randn_tensor(b, latent_dim, &mut state.rng);
                tape.reset();
                pv.clear();
                let xv = tape.leaf(xb);
                let (mu, logvar, recon_logits) =
                    vae.forward(&mut tape, xv, &eps, &mut pv, &mut state.rng);
                // Per-row-sum BCE (fused sigmoid+BCE against the input
                // node) so the KL term (also a per-row sum over latent
                // dims) cannot dominate and collapse the posterior.
                let width = tape.value(xv).cols() as f32;
                let bce = tape.sigmoid_bce_node(recon_logits, xv);
                let rec = tape.scale(bce, width);
                let kl = tape.kl_gauss(mu, logvar);
                let klw = tape.scale(kl, config.kl_weight);
                let loss = tape.add(rec, klw);
                total += tape.value(loss).item();
                batches += 1;
                tape.backward(loss);
                tape.clip_grads(&pv, 5.0);
                let grads = tape.grads_of(&pv);
                state.opt.step_refs(&mut vae, &grads);
            }
            losses.push(total / batches.max(1) as f32);
            state.epoch += 1;
            train_ckpt.save(&vae, &state, |c| c.put_f32s("losses", &losses))?;
        }
        Ok((vae, losses))
    }

    fn forward(
        &self,
        tape: &mut Tape,
        x: Var,
        eps: &Tensor,
        pv: &mut Vec<Var>,
        rng: &mut StdRng,
    ) -> (Var, Var, Var) {
        let trunk = self.encoder.forward(tape, x, pv, false, rng);
        let mu = self.mu_head.forward(tape, trunk, pv);
        let logvar_raw = self.logvar_head.forward(tape, trunk, pv);
        let logvar = {
            let t = tape.scale(logvar_raw, 1.0 / 6.0);
            let t = tape.tanh(t);
            tape.scale(t, 6.0)
        };
        let z = tape.reparameterize(mu, logvar, eps);
        let recon = self.decoder.forward(tape, z, pv, false, rng);
        (mu, logvar, recon)
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Posterior mean of `x`.
    pub fn encode(&self, x: &Tensor) -> Tensor {
        let trunk = self.encoder.predict(x);
        let mut z = trunk.matmul(&self.mu_head.w);
        trunk.recycle();
        for r in 0..z.rows() {
            for (v, &b) in
                z.row_slice_mut(r).iter_mut().zip(self.mu_head.b.as_slice())
            {
                *v += b;
            }
        }
        z
    }

    /// Decode latent codes to data space (sigmoid of the decoder logits).
    pub fn decode(&self, z: &Tensor) -> Tensor {
        let mut out = self.decoder.predict(z);
        out.map_inplace(stable_sigmoid);
        out
    }

    /// Decode latent rows inside a tape (for latent-gradient search),
    /// returning the `[0, 1]` reconstruction var.
    pub fn decode_tape(&self, tape: &mut Tape, z: Var) -> Var {
        let mut pv = Vec::new();
        let mut rng = StdRng::seed_from_u64(0); // unused: no dropout
        let logits = self.decoder.forward(tape, z, &mut pv, false, &mut rng);
        tape.sigmoid(logits)
    }
}

impl Module for PlainVae {
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.encoder.visit_params(f);
        self.mu_head.visit_params(f);
        self.logvar_head.visit_params(f);
        self.decoder.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.encoder.visit_params_mut(f);
        self.mu_head.visit_params_mut(f);
        self.logvar_head.visit_params_mut(f);
        self.decoder.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_data::{DatasetId, EncodedDataset};

    #[test]
    fn elbo_drops_during_training() {
        let raw = DatasetId::LawSchool.generate_clean(800, 1);
        let data = EncodedDataset::from_raw(&raw);
        let cfg = PlainVaeConfig { epochs: 8, ..Default::default() };
        let (_, losses) = PlainVae::fit(&data.x, &cfg);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn decode_tape_matches_decode() {
        let raw = DatasetId::LawSchool.generate_clean(400, 2);
        let data = EncodedDataset::from_raw(&raw);
        let cfg = PlainVaeConfig { epochs: 3, ..Default::default() };
        let (vae, _) = PlainVae::fit(&data.x, &cfg);
        let z = vae.encode(&data.x.slice_rows(0, 3));
        let direct = vae.decode(&z);
        let mut tape = Tape::new();
        let zv = tape.leaf(z);
        let out = vae.decode_tape(&mut tape, zv);
        for (a, b) in tape.value(out).as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn reconstructions_resemble_inputs() {
        let raw = DatasetId::LawSchool.generate_clean(1000, 3);
        let data = EncodedDataset::from_raw(&raw);
        let cfg = PlainVaeConfig { epochs: 40, ..Default::default() };
        let (vae, _) = PlainVae::fit(&data.x, &cfg);
        let x = data.x.slice_rows(0, 50);
        let rec = vae.decode(&vae.encode(&x));
        let err = x
            .as_slice()
            .iter()
            .zip(rec.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / x.len() as f32;
        // Mean absolute reconstruction error well below the data scale.
        assert!(err < 0.15, "reconstruction error {err}");
    }

    #[test]
    fn class_regions_survive_the_bottleneck_on_wide_data() {
        // The motivating regression: on wide KDD-like data the old Table
        // II-width VAE mapped every decode into the majority class.
        use cfx_models::{BlackBox, BlackBoxConfig};
        let raw = DatasetId::KddCensus.generate_clean(2_000, 5);
        let data = EncodedDataset::from_raw(&raw);
        let bb_cfg = BlackBoxConfig { epochs: 10, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&data.x, &data.y, &bb_cfg);
        // Width-aware architecture (256 → 64 → 24 at this width) with a
        // soft KL so reconstruction, not the prior, wins on 200+ columns.
        let (vae, _) = PlainVae::fit(
            &data.x,
            &PlainVaeConfig {
                epochs: 80,
                kl_weight: 0.005,
                ..Default::default()
            },
        );
        // Reconstructions of positive-predicted rows must often stay
        // positive.
        let preds = bb.predict(&data.x);
        let pos: Vec<usize> = (0..data.len())
            .filter(|&r| preds[r] == 1)
            .take(50)
            .collect();
        if pos.len() < 10 {
            return; // not enough positives in this draw
        }
        let xp = data.x.gather_rows(&pos);
        let rec = vae.decode(&vae.encode(&xp));
        let kept = bb
            .predict(&rec)
            .iter()
            .filter(|&&p| p == 1)
            .count();
        assert!(
            kept * 2 >= pos.len(),
            "only {kept}/{} positive reconstructions stayed positive",
            pos.len()
        );
    }
}
