//! The black-box classifier.
//!
//! The paper trains "a black box model, in this case two linear layers, to
//! classify the input data into two classes" (§III-C, *Model Steps*), then
//! freezes it: it supplies the desired class for the counterfactual
//! definition and the logits for the validity (hinge) loss.
//!
//! The model here is exactly that: `input → hidden (ReLU) → 1 logit`,
//! trained with binary cross-entropy on logits using Adam. Counterfactual
//! methods that need ∂logit/∂x (REVISE, CEM, the VAE validity term) use
//! [`BlackBox::forward_tape`] to run it inside an autodiff tape.

use cfx_tensor::checkpoint::{
    Checkpoint, CheckpointConfig, TrainCheckpoint, TrainState,
};
use cfx_tensor::{
    stable_sigmoid, Activation, CfxError, Mlp, Module, Optimizer, Tape,
    Tensor, Var,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters for the classifier.
#[derive(Debug, Clone, Copy)]
pub struct BlackBoxConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for BlackBoxConfig {
    fn default() -> Self {
        BlackBoxConfig {
            hidden: 16,
            learning_rate: 1e-2,
            batch_size: 256,
            epochs: 12,
            seed: 0,
        }
    }
}

/// A trained (or trainable) two-layer binary classifier.
#[derive(Debug, Clone)]
pub struct BlackBox {
    net: Mlp,
}

impl BlackBox {
    /// Creates an untrained classifier for `input_dim` features.
    pub fn new(input_dim: usize, config: &BlackBoxConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let net = Mlp::new(
            &[input_dim, config.hidden, 1],
            Activation::Relu,
            Activation::Identity,
            1.0,
            &mut rng,
        );
        BlackBox { net }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.net.in_dim()
    }

    /// Trains with mini-batch Adam on BCE-with-logits; returns the mean
    /// loss per epoch (monotone-ish decreasing on separable data).
    pub fn train(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        config: &BlackBoxConfig,
    ) -> Vec<f32> {
        self.train_with_checkpoints(x, y, config, &CheckpointConfig::disabled())
            .expect("disabled checkpointing cannot fail")
    }

    /// [`train`](Self::train) with durable state: network parameters,
    /// the shared [`TrainState`] (Adam, RNG, epoch, the shuffled row
    /// order) and the loss history are checkpointed together after every
    /// epoch, and with `ckpt.resume` the run continues bitwise-identically
    /// from the newest intact checkpoint.
    pub fn train_with_checkpoints(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        config: &BlackBoxConfig,
        ckpt: &CheckpointConfig,
    ) -> Result<Vec<f32>, CfxError> {
        assert_eq!(x.rows(), y.rows(), "x/y row mismatch");
        assert_eq!(y.cols(), 1, "y must be (n, 1)");
        let n = x.rows();
        let mut state = TrainState::new(
            config.learning_rate,
            StdRng::seed_from_u64(config.seed ^ 0x7121),
            (0..n).collect(),
        );
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let train_ckpt = TrainCheckpoint::open(ckpt, "bb-epoch")?;
        if let Some(c) = train_ckpt.resume(&mut self.net, &mut state)? {
            epoch_losses = c.f32s("losses")?;
        }

        // One tape for the whole run: reset() returns every buffer to the
        // pool, so steady-state steps train without fresh heap allocations.
        let mut tape = Tape::new();
        let mut pv = Vec::new();
        let _span = cfx_obs::span!(
            "blackbox_train",
            epochs = config.epochs,
            rows = n,
            start_epoch = state.epoch,
        );
        while state.epoch < config.epochs {
            state.order.shuffle(&mut state.rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in state.order.chunks(config.batch_size) {
                let xb = x.gather_rows_pooled(chunk);
                let yb = y.gather_rows_pooled(chunk);
                tape.reset();
                pv.clear();
                let xv = tape.leaf(xb);
                let logits = self.net.forward(
                    &mut tape,
                    xv,
                    &mut pv,
                    true,
                    &mut state.rng,
                );
                let loss = tape.sigmoid_bce(logits, &yb);
                yb.recycle();
                total += tape.value(loss).item();
                batches += 1;
                tape.backward(loss);
                let grads = tape.grads_of(&pv);
                state.opt.step_refs(&mut self.net, &grads);
            }
            let mean = total / batches.max(1) as f32;
            epoch_losses.push(mean);
            cfx_obs::event!(
                "blackbox_epoch",
                epoch = state.epoch,
                loss = mean,
                batches = batches,
            );
            state.epoch += 1;
            train_ckpt.save(&self.net, &state, |c| {
                c.put_f32s("losses", &epoch_losses)
            })?;
        }
        Ok(epoch_losses)
    }

    /// Raw logits `(n, 1)` for a batch.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        self.net.predict(x)
    }

    /// `P(class = 1)` per row.
    pub fn predict_proba(&self, x: &Tensor) -> Vec<f32> {
        let logits = self.logits(x);
        let probs =
            logits.as_slice().iter().map(|&z| stable_sigmoid(z)).collect();
        logits.recycle();
        probs
    }

    /// Hard 0/1 predictions per row.
    pub fn predict(&self, x: &Tensor) -> Vec<u8> {
        let logits = self.logits(x);
        let preds =
            logits.as_slice().iter().map(|&z| (z >= 0.0) as u8).collect();
        logits.recycle();
        preds
    }

    /// Confusion counts `(tp, fp, tn, fn)` against 0/1 labels.
    pub fn confusion(&self, x: &Tensor, y: &Tensor) -> (usize, usize, usize, usize) {
        let preds = self.predict(x);
        let mut tp = 0;
        let mut fp = 0;
        let mut tn = 0;
        let mut fal_n = 0;
        for (&p, &t) in preds.iter().zip(y.as_slice()) {
            match (p, t >= 0.5) {
                (1, true) => tp += 1,
                (1, false) => fp += 1,
                (0, false) => tn += 1,
                (0, true) => fal_n += 1,
                _ => unreachable!("predictions are 0/1"),
            }
        }
        (tp, fp, tn, fal_n)
    }

    /// F1 score of the positive class (0 when the classifier never
    /// predicts positive).
    pub fn f1(&self, x: &Tensor, y: &Tensor) -> f32 {
        let (tp, fp, _, fal_n) = self.confusion(x, y);
        if tp == 0 {
            return 0.0;
        }
        let precision = tp as f32 / (tp + fp) as f32;
        let recall = tp as f32 / (tp + fal_n) as f32;
        2.0 * precision * recall / (precision + recall)
    }

    /// Classification accuracy against 0/1 labels.
    pub fn accuracy(&self, x: &Tensor, y: &Tensor) -> f32 {
        let preds = self.predict(x);
        let hits = preds
            .iter()
            .zip(y.as_slice())
            .filter(|(&p, &t)| p as f32 == t)
            .count();
        hits as f32 / preds.len().max(1) as f32
    }

    /// Runs the classifier inside an existing tape so callers can
    /// differentiate the logit w.r.t. the input (dropout off, parameters
    /// registered but typically not updated — the model is frozen).
    pub fn forward_tape(&self, tape: &mut Tape, x: Var) -> Var {
        let mut pv = Vec::new();
        let mut rng = StdRng::seed_from_u64(0); // unused: train=false
        self.net.forward(tape, x, &mut pv, false, &mut rng)
    }

    /// Writes the classifier — architecture dims plus every parameter —
    /// into checkpoint sections under `prefix`.
    pub fn export_to(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_u64s(
            &format!("{prefix}.dims"),
            &[self.net.in_dim() as u64, self.net.out_dim() as u64],
        );
        ckpt.put_tensors(
            &format!("{prefix}.params"),
            &self.net.export_params(),
        );
    }

    /// Restores the classifier from [`export_to`](Self::export_to)
    /// sections, validating the recorded dims against this instance's
    /// architecture first — a checkpoint for a different input width is a
    /// [`CfxError::Corrupt`], never a silently misloaded model.
    pub fn import_from(
        &mut self,
        ckpt: &Checkpoint,
        prefix: &str,
    ) -> Result<(), CfxError> {
        let dims = ckpt.u64s(&format!("{prefix}.dims"))?;
        let want = [self.net.in_dim() as u64, self.net.out_dim() as u64];
        if dims != want {
            return Err(CfxError::corrupt(format!(
                "black-box dims mismatch: checkpoint {dims:?}, model {want:?}"
            )));
        }
        self.net.try_import_params(&ckpt.tensors(&format!("{prefix}.params"))?)
    }

    /// Access to the underlying network (e.g. for serialization).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access (e.g. for loading saved parameters).
    pub fn network_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

impl Module for BlackBox {
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.net.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.net.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_data::{DatasetId, EncodedDataset};

    fn toy_linearly_separable() -> (Tensor, Tensor) {
        // y = 1 iff x0 + x1 > 1.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut v = 0.05f32;
        for i in 0..400 {
            let a = (i as f32 * 0.61803) % 1.0;
            let b = (i as f32 * 0.32471 + v) % 1.0;
            v = (v + 0.013) % 0.1;
            xs.push(a);
            xs.push(b);
            ys.push(((a + b) > 1.0) as u8 as f32);
        }
        (Tensor::from_vec(400, 2, xs), Tensor::from_vec(400, 1, ys))
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = toy_linearly_separable();
        // 100 epochs on 400 rows: the loss is still descending steadily at
        // 40 under some init draws; a separable problem must end well under
        // 0.2 once given room to converge.
        let cfg = BlackBoxConfig { epochs: 100, ..Default::default() };
        let mut bb = BlackBox::new(2, &cfg);
        let losses = bb.train(&x, &y, &cfg);
        assert!(losses.last().unwrap() < &0.2, "final loss {losses:?}");
        assert!(bb.accuracy(&x, &y) > 0.95);
    }

    #[test]
    fn proba_matches_logit_sign() {
        let (x, y) = toy_linearly_separable();
        let cfg = BlackBoxConfig { epochs: 10, ..Default::default() };
        let mut bb = BlackBox::new(2, &cfg);
        bb.train(&x, &y, &cfg);
        let probas = bb.predict_proba(&x);
        let preds = bb.predict(&x);
        for (p, c) in probas.iter().zip(&preds) {
            assert_eq!((*p >= 0.5) as u8, *c);
        }
    }

    #[test]
    fn tape_forward_matches_predict() {
        let cfg = BlackBoxConfig::default();
        let bb = BlackBox::new(3, &cfg);
        let x = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.4, 0.7, 0.2, 0.6]);
        let direct = bb.logits(&x);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let out = bb.forward_tape(&mut tape, xv);
        for (a, b) in tape.value(out).as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradients_flow_through_tape() {
        let cfg = BlackBoxConfig::default();
        let bb = BlackBox::new(2, &cfg);
        let mut tape = Tape::new();
        let xv = tape.leaf(Tensor::row(&[0.5, 0.5]));
        let out = bb.forward_tape(&mut tape, xv);
        let loss = tape.sum(out);
        tape.backward(loss);
        let g = tape.grad(xv);
        // Gradient should generally be nonzero for a random init.
        assert!(g.max_abs() > 0.0, "no gradient reached the input");
    }

    #[test]
    fn confusion_and_f1_are_consistent() {
        let (x, y) = toy_linearly_separable();
        let cfg = BlackBoxConfig { epochs: 100, ..Default::default() };
        let mut bb = BlackBox::new(2, &cfg);
        bb.train(&x, &y, &cfg);
        let (tp, fp, tn, fal_n) = bb.confusion(&x, &y);
        assert_eq!(tp + fp + tn + fal_n, x.rows());
        let acc = (tp + tn) as f32 / x.rows() as f32;
        assert!((acc - bb.accuracy(&x, &y)).abs() < 1e-6);
        assert!(bb.f1(&x, &y) > 0.9, "f1 {}", bb.f1(&x, &y));
    }

    #[test]
    fn trains_above_chance_on_adult() {
        let raw = DatasetId::Adult.generate_clean(3000, 5);
        let enc = EncodedDataset::from_raw(&raw);
        let cfg = BlackBoxConfig { epochs: 15, ..Default::default() };
        let mut bb = BlackBox::new(enc.width(), &cfg);
        bb.train(&enc.x, &enc.y, &cfg);
        let acc = bb.accuracy(&enc.x, &enc.y);
        let base = {
            let pos = enc.y.as_slice().iter().filter(|&&v| v == 1.0).count();
            (pos as f32 / enc.len() as f32).max(1.0 - pos as f32 / enc.len() as f32)
        };
        assert!(
            acc > base + 0.02,
            "accuracy {acc} not above majority baseline {base}"
        );
    }
}
