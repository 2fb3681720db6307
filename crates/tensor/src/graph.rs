//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation as it executes (define-by-run, the
//! PyTorch model). Each op appends a [`Node`] holding its forward value and
//! enough information to propagate gradients; [`Tape::backward`] then walks
//! the tape in reverse. Because nodes are appended in execution order the
//! tape is already topologically sorted and a single reverse sweep suffices.
//!
//! The op set is deliberately small and fully enumerated ([`Op`]): every
//! rule is covered by a finite-difference gradient check in this module's
//! tests and by property tests in `tests/grad_prop.rs`.
//!
//! # Memory model
//!
//! Every tensor a tape materialises — forward values, gradients, op
//! context — is drawn from the thread-local [`pool`](crate::pool) and
//! handed back by [`Tape::reset`]. A training loop that keeps one tape
//! and resets it each step therefore reaches a steady state with zero
//! heap allocations: same shapes, recycled buffers. Gradient
//! accumulation is in place (first consumer writes the pooled buffer,
//! later consumers add into it); temporaries such as matmul gradient
//! products are recycled the moment they are consumed. The fused ops
//! ([`Tape::affine_relu`], [`Tape::sigmoid_bce`]) collapse the dominant
//! op chains into single nodes with exact combined backward rules —
//! bitwise identical to their unfused compositions.

use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The recorded operation of a node, with whatever context backward needs.
#[derive(Debug, Clone)]
enum Op {
    /// Input or parameter; no inputs.
    Leaf,
    /// `a @ b`.
    Matmul(Var, Var),
    /// `a + b`, same shapes.
    Add(Var, Var),
    /// `a (m,n) + b (1,n)` broadcast over rows.
    AddRow(Var, Var),
    /// `a - b`, same shapes.
    Sub(Var, Var),
    /// Element-wise `a * b`.
    Mul(Var, Var),
    /// Element-wise `a / b`.
    Div(Var, Var),
    /// `-a`.
    Neg(Var),
    /// `c * a` for a constant scalar.
    Scale(Var, f32),
    /// `a + c` for a constant scalar (the constant is not needed in
    /// backward — the gradient passes through unchanged).
    AddScalar(Var),
    /// `max(0, a)`.
    Relu(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// `ln(1 + e^a)`, numerically stabilized.
    Softplus(Var),
    /// `e^a`.
    Exp(Var),
    /// `|a|` (subgradient 0 at the kink).
    Abs(Var),
    /// `a^2`.
    Square(Var),
    /// Inverted dropout with a fixed 0/`1/keep` mask.
    Dropout(Var, Tensor),
    /// `[a | b]` horizontal concatenation.
    ConcatCols(Var, Var),
    /// Columns `[start, start+width)` of `a`.
    SliceCols(Var, usize, usize),
    /// Scalar sum of all elements.
    Sum(Var),
    /// Scalar mean of all elements.
    Mean(Var),
    /// Mean over all elements of binary cross-entropy with logits.
    /// Stored: target tensor (same shape as input logits).
    BceWithLogits(Var, Tensor),
    /// Mean hinge loss `mean(relu(margin - y*z))` for labels `y ∈ {-1,+1}`.
    Hinge(Var, Tensor, f32),
    /// Fused affine layer `act(x @ w + b)`, `act` ∈ {identity, relu}:
    /// one tape node — and one fault-injection op index — for the
    /// dominant matmul + row-bias + activation chain.
    Affine {
        /// Input batch `(m, k)`.
        x: Var,
        /// Weight matrix `(k, n)`.
        w: Var,
        /// Row bias `(1, n)`.
        b: Var,
        /// Whether a ReLU is fused onto the output.
        relu: bool,
    },
    /// Fused sigmoid + BCE-with-logits: forward computes the stable-form
    /// loss and σ(z); backward reuses the stored probabilities instead
    /// of recomputing the sigmoid.
    SigmoidBce {
        /// Logits node.
        z: Var,
        /// σ(z) captured during the forward pass.
        probs: Tensor,
        /// 0/1 targets (constant w.r.t. the loss — no gradient flows
        /// into them).
        targets: SbTargets,
    },
}

impl Op {
    fn kind(&self) -> crate::profile::OpKind {
        use crate::profile::OpKind as K;
        match self {
            Op::Leaf => K::Leaf,
            Op::Matmul(..) => K::Matmul,
            Op::Add(..) => K::Add,
            Op::AddRow(..) => K::AddRow,
            Op::Sub(..) => K::Sub,
            Op::Mul(..) => K::Mul,
            Op::Div(..) => K::Div,
            Op::Neg(..) => K::Neg,
            Op::Scale(..) => K::Scale,
            Op::AddScalar(..) => K::AddScalar,
            Op::Relu(..) => K::Relu,
            Op::Sigmoid(..) => K::Sigmoid,
            Op::Tanh(..) => K::Tanh,
            Op::Softplus(..) => K::Softplus,
            Op::Exp(..) => K::Exp,
            Op::Abs(..) => K::Abs,
            Op::Square(..) => K::Square,
            Op::Dropout(..) => K::Dropout,
            Op::ConcatCols(..) => K::ConcatCols,
            Op::SliceCols(..) => K::SliceCols,
            Op::Sum(..) => K::Sum,
            Op::Mean(..) => K::Mean,
            Op::BceWithLogits(..) => K::BceWithLogits,
            Op::Hinge(..) => K::Hinge,
            Op::SigmoidBce { .. } => K::SigmoidBce,
            Op::Affine { relu: false, .. } => K::Affine,
            Op::Affine { relu: true, .. } => K::AffineRelu,
        }
    }
}

/// Target operand of a fused [`Op::SigmoidBce`] node: an owned copy, or
/// a reference to another tape node (avoiding any per-step copy).
#[derive(Debug, Clone)]
enum SbTargets {
    Owned(Tensor),
    Node(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// A define-by-run autodiff tape.
///
/// Typical life cycle: create one tape per *loop* (not per step),
/// register parameters and inputs with [`Tape::leaf`] /
/// [`Tape::leaf_copy`], build the computation, call [`Tape::backward`]
/// on the (scalar) loss, read gradients with [`Tape::grad`], then call
/// [`Tape::reset`] at the top of the next step so every buffer recycles
/// through the [`pool`](crate::pool).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Recycle through the same path as `reset`: a tape that dies at
        // the end of a fit (or on unwind) hands its working set back to
        // the thread-local pool instead of freeing it, so the next loop
        // starts warm.
        self.reset();
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        // Fault-injection hook: every op construction flows through one
        // choke point, so an armed fault can corrupt a specific op
        // deterministically. Inert unless a fault is armed.
        let value = crate::guard::tamper(value);
        self.nodes.push(Node { value, grad: None, op });
        Var(self.nodes.len() - 1)
    }

    /// [`Tape::push`] plus forward-time accounting for the op profiler
    /// ([`crate::profile`]). Each constructor starts its timer before
    /// the forward compute; the timer is `None` unless the profiler is
    /// armed, and it adds no tape nodes and never perturbs op indices or
    /// values.
    fn push_profiled(
        &mut self,
        t: crate::profile::OpTimer,
        value: Tensor,
        op: Op,
    ) -> Var {
        crate::profile::record_forward(op.kind(), t);
        self.push(value, op)
    }

    /// [`Tape::push_profiled`] for compute-bound ops that know their
    /// FLOP count — lets the profiler report achieved GFLOP/s.
    fn push_profiled_flops(
        &mut self,
        t: crate::profile::OpTimer,
        value: Tensor,
        op: Op,
        flops: u64,
    ) -> Var {
        crate::profile::record_forward_flops(op.kind(), t, flops);
        self.push(value, op)
    }

    /// Registers a leaf (input or parameter). Gradients accumulate here.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let _t = crate::profile::op_start();
        self.push_profiled(_t, value, Op::Leaf)
    }

    /// Registers a leaf holding a pooled copy of `value` — the
    /// zero-allocation sibling of [`Tape::leaf`] for parameters and
    /// conditioning inputs re-registered on every training step.
    pub fn leaf_copy(&mut self, value: &Tensor) -> Var {
        let _t = crate::profile::op_start();
        self.push_profiled(_t, value.clone_pooled(), Op::Leaf)
    }

    /// Clears the tape, returning every buffer it owns — forward values,
    /// gradients, and op context tensors — to the thread-local
    /// [`pool`](crate::pool). Node storage keeps its capacity.
    ///
    /// A loop that holds one tape and resets it at the top of each step
    /// reaches a steady state where every tensor the step materialises
    /// is a pool hit: zero heap allocations (see `pool::stats`).
    pub fn reset(&mut self) {
        // Natural once-per-step point to publish this thread's op
        // timings (no-op unless the profiler is armed).
        crate::profile::flush_thread();
        for node in self.nodes.drain(..) {
            node.value.recycle();
            if let Some(g) = node.grad {
                g.recycle();
            }
            match node.op {
                Op::Dropout(_, mask) => mask.recycle(),
                Op::BceWithLogits(_, t) => t.recycle(),
                Op::Hinge(_, y, _) => y.recycle(),
                Op::SigmoidBce { probs, targets, .. } => {
                    probs.recycle();
                    if let SbTargets::Owned(t) = targets {
                        t.recycle();
                    }
                }
                _ => {}
            }
        }
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of the last [`backward`](Self::backward) root w.r.t. `v`,
    /// borrowed from the tape-owned (pooled) buffer — no clone.
    ///
    /// After `backward` every leaf has a gradient (zeros if it did not
    /// participate in the root).
    ///
    /// # Panics
    /// Panics if no gradient is recorded for `v` — i.e. `backward` has
    /// not run, or `v` is an interior node that did not contribute to
    /// the root.
    pub fn grad(&self, v: Var) -> &Tensor {
        self.nodes[v.0]
            .grad
            .as_ref()
            .expect("no gradient recorded: call backward first")
    }

    /// Gradients of `vars` (typically the registered parameters),
    /// borrowed in order — the shape
    /// [`Optimizer::step_refs`](crate::optim::Optimizer::step_refs)
    /// expects.
    pub fn grads_of(&self, vars: &[Var]) -> Vec<&Tensor> {
        vars.iter().map(|&v| self.grad(v)).collect()
    }

    /// Global-norm gradient clipping over `vars`, in place on the
    /// tape-owned buffers; returns the pre-clip norm. Bitwise identical
    /// to running [`crate::optim::clip_grad_norm`] on cloned gradients
    /// (per-tensor sums of squares accumulated in `vars` order).
    pub fn clip_grads(&mut self, vars: &[Var], max_norm: f32) -> f32 {
        let total: f32 = vars
            .iter()
            .map(|&v| {
                self.grad(v).as_slice().iter().map(|x| x * x).sum::<f32>()
            })
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let scale = max_norm / total;
            for &v in vars {
                if let Some(g) = self.nodes[v.0].grad.as_mut() {
                    g.map_inplace(|x| x * scale);
                }
            }
        }
        total
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- op constructors -------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let (m, k) = self.shape(a);
        let n = self.shape(b).1;
        let value = self.value(a).matmul_pooled(self.value(b));
        let flops = crate::kernel::gemm_flops(m, k, n);
        self.push_profiled_flops(_t, value, Op::Matmul(a, b), flops)
    }

    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).zip_pooled(self.value(b), |x, y| x + y);
        self.push_profiled(_t, value, Op::Add(a, b))
    }

    /// Adds a `(1, n)` row (e.g. a bias) to every row of `a`.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let (rows, cols) = self.shape(a);
        assert_eq!(self.shape(b), (1, cols), "add_row expects a (1,n) rhs");
        let mut value = self.value(a).clone_pooled();
        for r in 0..rows {
            for (v, &x) in value
                .row_slice_mut(r)
                .iter_mut()
                .zip(self.nodes[b.0].value.as_slice())
            {
                *v += x;
            }
        }
        self.push_profiled(_t, value, Op::AddRow(a, b))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).zip_pooled(self.value(b), |x, y| x - y);
        self.push_profiled(_t, value, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).zip_pooled(self.value(b), |x, y| x * y);
        self.push_profiled(_t, value, Op::Mul(a, b))
    }

    /// Element-wise quotient.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).zip_pooled(self.value(b), |x, y| x / y);
        self.push_profiled(_t, value, Op::Div(a, b))
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(|x| -x);
        self.push_profiled(_t, value, Op::Neg(a))
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(|x| c * x);
        self.push_profiled(_t, value, Op::Scale(a, c))
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(|x| x + c);
        self.push_profiled(_t, value, Op::AddScalar(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(|x| x.max(0.0));
        self.push_profiled(_t, value, Op::Relu(a))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(stable_sigmoid);
        self.push_profiled(_t, value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(f32::tanh);
        self.push_profiled(_t, value, Op::Tanh(a))
    }

    /// Numerically stable `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(stable_softplus);
        self.push_profiled(_t, value, Op::Softplus(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(f32::exp);
        self.push_profiled(_t, value, Op::Exp(a))
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(f32::abs);
        self.push_profiled(_t, value, Op::Abs(a))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).map_pooled(|x| x * x);
        self.push_profiled(_t, value, Op::Square(a))
    }

    /// Inverted dropout: zeroes each element with probability `1 - keep`
    /// and scales survivors by `1/keep`, using the supplied 0/1 mask.
    ///
    /// The caller draws the mask (so randomness stays outside the tape);
    /// pass a mask of ones to disable dropout at evaluation time.
    pub fn dropout(&mut self, a: Var, mask01: &Tensor, keep: f32) -> Var {
        let _t = crate::profile::op_start();
        assert!(keep > 0.0 && keep <= 1.0, "keep must be in (0, 1]");
        assert_eq!(self.shape(a), mask01.shape(), "dropout mask shape");
        let scaled = mask01.map_pooled(|m| m / keep);
        let value = self.value(a).zip_pooled(&scaled, |x, m| x * m);
        self.push_profiled(_t, value, Op::Dropout(a, scaled))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).concat_cols_pooled(self.value(b));
        self.push_profiled(_t, value, Op::ConcatCols(a, b))
    }

    /// Copies out columns `[start, start+width)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, width: usize) -> Var {
        let _t = crate::profile::op_start();
        let value = self.value(a).slice_cols_pooled(start, width);
        self.push_profiled(_t, value, Op::SliceCols(a, start, width))
    }

    /// Scalar sum of all elements.
    pub fn sum(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = Tensor::scalar_pooled(self.value(a).sum());
        self.push_profiled(_t, value, Op::Sum(a))
    }

    /// Scalar mean of all elements.
    pub fn mean(&mut self, a: Var) -> Var {
        let _t = crate::profile::op_start();
        let value = Tensor::scalar_pooled(self.value(a).mean());
        self.push_profiled(_t, value, Op::Mean(a))
    }

    /// Mean binary cross-entropy between logits `a` and 0/1 `targets`.
    ///
    /// Computed in the stable logits form
    /// `max(z,0) - z·t + ln(1 + e^{-|z|})`; gradient is `(σ(z) - t)/n`.
    pub fn bce_with_logits(&mut self, a: Var, targets: &Tensor) -> Var {
        let _t = crate::profile::op_start();
        assert_eq!(self.shape(a), targets.shape(), "bce target shape");
        let z = self.value(a);
        let n = z.len() as f32;
        let total: f32 = z
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&z, &t)| z.max(0.0) - z * t + stable_softplus(-z.abs()))
            .sum();
        self.push_profiled(_t, 
            Tensor::scalar_pooled(total / n),
            Op::BceWithLogits(a, targets.clone_pooled()),
        )
    }

    /// Fused sigmoid + BCE-with-logits against owned 0/1 `targets`.
    ///
    /// One tape node — one fault-injection op index — computing the same
    /// stable-form loss as [`Tape::bce_with_logits`] (bitwise identical)
    /// while also capturing `σ(z)`, so the backward rule
    /// `g·(σ(z) - t)/n` reuses the stored probabilities instead of
    /// recomputing the sigmoid per element.
    pub fn sigmoid_bce(&mut self, z: Var, targets: &Tensor) -> Var {
        assert_eq!(self.shape(z), targets.shape(), "bce target shape");
        self.sigmoid_bce_impl(z, SbTargets::Owned(targets.clone_pooled()))
    }

    /// Fused sigmoid + BCE where the targets are another tape node,
    /// treated as constant (no gradient flows into the targets). Avoids
    /// the per-step target copy entirely — the reconstruction-loss shape
    /// `bce(recon_logits, value_of(x))`.
    pub fn sigmoid_bce_node(&mut self, z: Var, targets: Var) -> Var {
        assert_eq!(self.shape(z), self.shape(targets), "bce target shape");
        self.sigmoid_bce_impl(z, SbTargets::Node(targets))
    }

    fn sigmoid_bce_impl(&mut self, z: Var, targets: SbTargets) -> Var {
        let _t = crate::profile::op_start();
        let probs = self.value(z).map_pooled(stable_sigmoid);
        let zv = self.value(z).as_slice();
        let tv = match &targets {
            SbTargets::Owned(t) => t.as_slice(),
            SbTargets::Node(t) => self.nodes[t.0].value.as_slice(),
        };
        let n = zv.len() as f32;
        let total: f32 = zv
            .iter()
            .zip(tv)
            .map(|(&z, &t)| z.max(0.0) - z * t + stable_softplus(-z.abs()))
            .sum();
        self.push_profiled(_t, 
            Tensor::scalar_pooled(total / n),
            Op::SigmoidBce { z, probs, targets },
        )
    }

    /// Mean hinge loss `mean(relu(margin - y·z))` for labels `y ∈ {-1,+1}`.
    ///
    /// This is the validity term of the paper's Eq. (3): it pushes the
    /// black-box logit of the counterfactual toward the desired class.
    pub fn hinge(&mut self, a: Var, labels: &Tensor, margin: f32) -> Var {
        let _t = crate::profile::op_start();
        assert_eq!(self.shape(a), labels.shape(), "hinge label shape");
        let z = self.value(a);
        let n = z.len() as f32;
        let total: f32 = z
            .as_slice()
            .iter()
            .zip(labels.as_slice())
            .map(|(&z, &y)| (margin - y * z).max(0.0))
            .sum();
        self.push_profiled(_t, 
            Tensor::scalar_pooled(total / n),
            Op::Hinge(a, labels.clone_pooled(), margin),
        )
    }

    /// Fused affine layer `x @ w + b` (identity activation) as a single
    /// tape node — one fault-injection op index instead of two. Bitwise
    /// identical to `matmul` → `add_row`.
    pub fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        self.affine_impl(x, w, b, false)
    }

    /// Fused `relu(x @ w + b)` — the dominant hidden-layer chain — as a
    /// single tape node. Bitwise identical to `matmul` → `add_row` →
    /// `relu`. The combined backward rule masks the incoming gradient by
    /// `out > 0` (equivalent to pre-activation `> 0` since
    /// `out = max(0, z)`), then feeds the masked gradient through the
    /// same fused `matmul_at`/`matmul_bt` kernels the unfused chain
    /// uses, in the same accumulation order (bias, input, weights).
    pub fn affine_relu(&mut self, x: Var, w: Var, b: Var) -> Var {
        self.affine_impl(x, w, b, true)
    }

    fn affine_impl(&mut self, x: Var, w: Var, b: Var, relu: bool) -> Var {
        let _t = crate::profile::op_start();
        let (rows, inner) = self.shape(x);
        let n = self.shape(w).1;
        assert_eq!(self.shape(b), (1, n), "affine expects a (1,n) bias");
        let mut value = self.value(x).matmul_pooled(self.value(w));
        for r in 0..rows {
            for (v, &x) in value
                .row_slice_mut(r)
                .iter_mut()
                .zip(self.nodes[b.0].value.as_slice())
            {
                *v += x;
            }
        }
        if relu {
            value.map_inplace(|x| x.max(0.0));
        }
        // The matmul dominates; bias add and relu are O(rows·n) extra.
        let flops = crate::kernel::gemm_flops(rows, inner, n);
        self.push_profiled_flops(_t, value, Op::Affine { x, w, b, relu }, flops)
    }

    // ---- composite helpers ----------------------------------------------

    /// `mean(|a - b|)` — the L1 distance used for proximity terms.
    pub fn l1_loss(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let d = self.abs(d);
        self.mean(d)
    }

    /// `mean((a - b)^2)`.
    pub fn mse_loss(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let d = self.square(d);
        self.mean(d)
    }

    /// KL divergence of `N(mu, diag(exp(logvar)))` from `N(0, I)`,
    /// averaged over the batch (rows):
    /// `0.5/B · Σ (mu² + e^{logvar} - 1 - logvar)`.
    pub fn kl_gauss(&mut self, mu: Var, logvar: Var) -> Var {
        let batch = self.shape(mu).0 as f32;
        let mu2 = self.square(mu);
        let var = self.exp(logvar);
        let s = self.add(mu2, var);
        let s = self.sub(s, logvar);
        let s = self.add_scalar(s, -1.0);
        let total = self.sum(s);
        self.scale(total, 0.5 / batch)
    }

    /// Reparameterization `z = mu + eps ⊙ exp(logvar / 2)` with fixed noise.
    pub fn reparameterize(&mut self, mu: Var, logvar: Var, eps: &Tensor) -> Var {
        assert_eq!(self.shape(mu), eps.shape(), "eps shape");
        let half = self.scale(logvar, 0.5);
        let std = self.exp(half);
        let e = self.leaf_copy(eps);
        let noise = self.mul(std, e);
        self.add(mu, noise)
    }

    // ---- backward ---------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `root`.
    ///
    /// Clears all previous gradients first, seeds `d root/d root = 1`, and
    /// sweeps the tape in reverse construction order.
    ///
    /// Every op's inputs were recorded before the op itself, so splitting
    /// the node array at the current index gives simultaneous access to
    /// the node being differentiated (read-only: its gradient and
    /// context) and its inputs (mutable: their gradient slots) without
    /// cloning the recorded op or the incoming gradient. Matmul gradients
    /// use the fused [`Tensor::matmul_at`] / [`Tensor::matmul_bt`]
    /// kernels, so no transposed operand is ever materialized.
    ///
    /// Gradient accumulation is in place and pool-backed: the first
    /// consumer of a node *writes* its contribution into a pooled buffer
    /// (no zero-fill, no clone), later consumers add into it, and
    /// gradient temporaries (matmul products, scatter buffers) recycle
    /// through the pool as soon as they are consumed. After the sweep,
    /// every leaf without a recorded gradient gets pooled zeros so
    /// [`Tape::grad`] is total over leaves.
    ///
    /// # Panics
    /// Panics if `root` is not a `(1, 1)` tensor.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.shape(root),
            (1, 1),
            "backward root must be a scalar loss"
        );
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                g.recycle();
            }
        }
        self.nodes[root.0].grad = Some(Tensor::scalar_pooled(1.0));

        for i in (0..=root.0).rev() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            let Some(g) = node.grad.as_ref() else { continue };
            let _t = crate::profile::op_start();
            // GFLOP/s bookkeeping for the two matmul-backed ops; stays 0
            // for everything else so the profiler shows "-".
            let mut _bwd_flops = 0u64;
            match &node.op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    let (m, k) = before[a.0].value.shape();
                    let n = before[b.0].value.cols();
                    _bwd_flops = 2 * crate::kernel::gemm_flops(m, k, n);
                    let da = g.matmul_bt_pooled(&before[b.0].value);
                    accumulate_owned(before, *a, da);
                    let db = before[a.0].value.matmul_at_pooled(g);
                    accumulate_owned(before, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate_passthrough(before, *a, g);
                    accumulate_passthrough(before, *b, g);
                }
                Op::AddRow(a, b) => {
                    accumulate_owned(before, *b, g.sum_rows_pooled());
                    accumulate_passthrough(before, *a, g);
                }
                Op::Sub(a, b) => {
                    accumulate_passthrough(before, *a, g);
                    accumulate_map(before, *b, g, |x| -x);
                }
                Op::Mul(a, b) => {
                    let (slot, bv) = grad_and_value(before, *a, *b);
                    acc_zip(slot, g, bv, |g, b| g * b);
                    let (slot, av) = grad_and_value(before, *b, *a);
                    acc_zip(slot, g, av, |g, a| g * a);
                }
                Op::Div(a, b) => {
                    let (slot, bv) = grad_and_value(before, *a, *b);
                    acc_zip(slot, g, bv, |g, b| g / b);
                    // db is a two-stage product (`-g·a`, then `/ b²`);
                    // keep the staging so rounding matches the original
                    // rule bitwise, but in pooled, recycled buffers.
                    let mut db =
                        g.zip_pooled(&before[a.0].value, |g, a| -g * a);
                    for (x, &b) in db
                        .as_mut_slice()
                        .iter_mut()
                        .zip(before[b.0].value.as_slice())
                    {
                        *x /= b * b;
                    }
                    accumulate_owned(before, *b, db);
                }
                Op::Neg(a) => accumulate_map(before, *a, g, |x| -x),
                Op::Scale(a, c) => {
                    let c = *c;
                    accumulate_map(before, *a, g, move |x| c * x);
                }
                Op::AddScalar(a) => accumulate_passthrough(before, *a, g),
                Op::Relu(a) => {
                    let (slot, av) = grad_and_value(before, *a, *a);
                    acc_zip(slot, g, av, |g, x| if x > 0.0 { g } else { 0.0 });
                }
                Op::Sigmoid(a) => {
                    let slot = &mut before[a.0].grad;
                    acc_zip(slot, g, &node.value, |g, s| g * s * (1.0 - s));
                }
                Op::Tanh(a) => {
                    let slot = &mut before[a.0].grad;
                    acc_zip(slot, g, &node.value, |g, t| g * (1.0 - t * t));
                }
                Op::Softplus(a) => {
                    let (slot, av) = grad_and_value(before, *a, *a);
                    acc_zip(slot, g, av, |g, x| g * stable_sigmoid(x));
                }
                Op::Exp(a) => {
                    let slot = &mut before[a.0].grad;
                    acc_zip(slot, g, &node.value, |g, e| g * e);
                }
                Op::Abs(a) => {
                    let (slot, av) = grad_and_value(before, *a, *a);
                    acc_zip(slot, g, av, |g, x| g * sign(x));
                }
                Op::Square(a) => {
                    let (slot, av) = grad_and_value(before, *a, *a);
                    acc_zip(slot, g, av, |g, x| 2.0 * g * x);
                }
                Op::Dropout(a, mask) => {
                    let slot = &mut before[a.0].grad;
                    acc_zip(slot, g, mask, |g, m| g * m);
                }
                Op::ConcatCols(a, b) => {
                    let wa = before[a.0].value.cols();
                    let wb = before[b.0].value.cols();
                    accumulate_owned(before, *a, g.slice_cols_pooled(0, wa));
                    accumulate_owned(before, *b, g.slice_cols_pooled(wa, wb));
                }
                Op::SliceCols(a, start, width) => {
                    let (start, width) = (*start, *width);
                    let (rows, cols) = before[a.0].value.shape();
                    let mut da = Tensor::zeros_pooled(rows, cols);
                    for r in 0..rows {
                        let src = g.row_slice(r);
                        da.row_slice_mut(r)[start..start + width]
                            .copy_from_slice(src);
                    }
                    accumulate_owned(before, *a, da);
                }
                Op::Sum(a) => {
                    let node_a = &mut before[a.0];
                    let (rows, cols) = node_a.value.shape();
                    acc_fill(&mut node_a.grad, rows, cols, g.item());
                }
                Op::Mean(a) => {
                    let node_a = &mut before[a.0];
                    let (rows, cols) = node_a.value.shape();
                    let n = (rows * cols) as f32;
                    acc_fill(&mut node_a.grad, rows, cols, g.item() / n);
                }
                Op::BceWithLogits(a, t) => {
                    let n = t.len() as f32;
                    let gi = g.item();
                    let node_a = &mut before[a.0];
                    acc_zip(&mut node_a.grad, &node_a.value, t, |z, t| {
                        gi * (stable_sigmoid(z) - t) / n
                    });
                }
                Op::Hinge(a, y, margin) => {
                    let n = y.len() as f32;
                    let gi = g.item();
                    let margin = *margin;
                    let node_a = &mut before[a.0];
                    acc_zip(&mut node_a.grad, &node_a.value, y, |z, y| {
                        if margin - y * z > 0.0 {
                            -gi * y / n
                        } else {
                            0.0
                        }
                    });
                }
                Op::SigmoidBce { z: a, probs, targets } => {
                    let n = probs.len() as f32;
                    let gi = g.item();
                    let f = move |p: f32, t: f32| gi * (p - t) / n;
                    match targets {
                        SbTargets::Owned(t) => {
                            acc_zip(&mut before[a.0].grad, probs, t, f);
                        }
                        SbTargets::Node(t) => {
                            let (slot, tv) = grad_and_value(before, *a, *t);
                            acc_zip(slot, probs, tv, f);
                        }
                    }
                }
                Op::Affine { x, w, b, relu } => {
                    // Exactly the unfused chain's backward, collapsed:
                    // relu mask (out > 0 ⟺ pre-activation > 0), then
                    // bias/input/weight gradients in the same order the
                    // reverse sweep over matmul → add_row → relu visits
                    // them, through the same fused kernels.
                    let (rows, inner) = before[x.0].value.shape();
                    let n = before[w.0].value.cols();
                    _bwd_flops = 2 * crate::kernel::gemm_flops(rows, inner, n);
                    let dz_owned = relu.then(|| {
                        g.zip_pooled(&node.value, |g, o| {
                            if o > 0.0 {
                                g
                            } else {
                                0.0
                            }
                        })
                    });
                    let dz = dz_owned.as_ref().unwrap_or(g);
                    accumulate_owned(before, *b, dz.sum_rows_pooled());
                    let dx = dz.matmul_bt_pooled(&before[w.0].value);
                    accumulate_owned(before, *x, dx);
                    let dw = before[x.0].value.matmul_at_pooled(dz);
                    accumulate_owned(before, *w, dw);
                    if let Some(t) = dz_owned {
                        t.recycle();
                    }
                }
            }
            crate::profile::record_backward_flops(node.op.kind(), _t, _bwd_flops);
        }

        // Leaves that did not participate still answer `grad` with zeros,
        // from pooled buffers.
        for node in &mut self.nodes {
            if matches!(node.op, Op::Leaf) && node.grad.is_none() {
                let (rows, cols) = node.value.shape();
                node.grad = Some(Tensor::zeros_pooled(rows, cols));
            }
        }
    }
}

/// Adds `g` into the gradient slot of `nodes[v]`, taking ownership: the
/// first consumer's tensor *becomes* the gradient buffer; later
/// consumers fold it in and recycle it.
fn accumulate_owned(nodes: &mut [Node], v: Var, g: Tensor) {
    let slot = &mut nodes[v.0].grad;
    match slot {
        Some(existing) => {
            existing.axpy(1.0, &g);
            g.recycle();
        }
        None => *slot = Some(g),
    }
}

/// Pass-through accumulation (`+= g`): the first consumer takes a pooled
/// copy, later consumers add in place — no intermediate tensor.
fn accumulate_passthrough(nodes: &mut [Node], v: Var, g: &Tensor) {
    let slot = &mut nodes[v.0].grad;
    match slot {
        Some(existing) => {
            for (e, &x) in
                existing.as_mut_slice().iter_mut().zip(g.as_slice())
            {
                *e += x;
            }
        }
        None => *slot = Some(g.clone_pooled()),
    }
}

/// Element-wise mapped accumulation (`+= f(src)`): first consumer writes
/// a pooled buffer directly, later consumers add in place.
fn accumulate_map(
    nodes: &mut [Node],
    v: Var,
    src: &Tensor,
    f: impl Fn(f32) -> f32,
) {
    let slot = &mut nodes[v.0].grad;
    match slot {
        Some(existing) => {
            for (e, &s) in
                existing.as_mut_slice().iter_mut().zip(src.as_slice())
            {
                *e += f(s);
            }
        }
        None => *slot = Some(src.map_pooled(f)),
    }
}

/// Element-wise zipped accumulation (`+= f(a, b)`) straight into a
/// gradient slot: first consumer writes a pooled buffer, later consumers
/// add in place. Element arithmetic is identical to materializing the
/// zip and `axpy`-ing it, so results stay bitwise-stable.
fn acc_zip(
    slot: &mut Option<Tensor>,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) {
    match slot {
        Some(existing) => {
            for ((e, &x), &y) in existing
                .as_mut_slice()
                .iter_mut()
                .zip(a.as_slice())
                .zip(b.as_slice())
            {
                *e += f(x, y);
            }
        }
        None => *slot = Some(a.zip_pooled(b, f)),
    }
}

/// Constant-fill accumulation (`+= c` everywhere) for reduction rules.
fn acc_fill(slot: &mut Option<Tensor>, rows: usize, cols: usize, c: f32) {
    match slot {
        Some(existing) => {
            existing.as_mut_slice().iter_mut().for_each(|x| *x += c);
        }
        None => *slot = Some(Tensor::full_pooled(rows, cols, c)),
    }
}

/// Simultaneous access to the gradient slot of `gv` and the forward
/// value of `vv` — the split-borrow the in-place rules need. When the
/// two are the same node, splits the node's fields instead.
fn grad_and_value(
    nodes: &mut [Node],
    gv: Var,
    vv: Var,
) -> (&mut Option<Tensor>, &Tensor) {
    if gv.0 == vv.0 {
        let Node { value, grad, .. } = &mut nodes[gv.0];
        (grad, &*value)
    } else if gv.0 < vv.0 {
        let (lo, hi) = nodes.split_at_mut(vv.0);
        (&mut lo[gv.0].grad, &hi[0].value)
    } else {
        let (lo, hi) = nodes.split_at_mut(gv.0);
        (&mut hi[0].grad, &lo[vv.0].value)
    }
}

#[inline]
fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Sigmoid that never overflows `exp`.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `ln(1 + e^x)` without overflow for large `x`.
#[inline]
pub fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of `d loss / d input` for a scalar-valued
    /// computation `build(tape, input_var)`.
    fn check_grad(
        input: Tensor,
        build: impl Fn(&mut Tape, Var) -> Var,
        tol: f32,
    ) {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x);

        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f = |t: Tensor| {
                let mut tape = Tape::new();
                let x = tape.leaf(t);
                let loss = build(&mut tape, x);
                tape.value(loss).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn sample() -> Tensor {
        Tensor::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.05, -1.4, 2.2])
    }

    #[test]
    fn grad_relu_sum() {
        check_grad(sample(), |t, x| {
            let r = t.relu(x);
            t.sum(r)
        }, 1e-2);
    }

    #[test]
    fn grad_sigmoid_mean() {
        check_grad(sample(), |t, x| {
            let s = t.sigmoid(x);
            t.mean(s)
        }, 1e-2);
    }

    #[test]
    fn grad_tanh_square() {
        check_grad(sample(), |t, x| {
            let s = t.tanh(x);
            let s = t.square(s);
            t.sum(s)
        }, 1e-2);
    }

    #[test]
    fn grad_softplus_exp() {
        check_grad(sample(), |t, x| {
            let s = t.softplus(x);
            let s = t.exp(s);
            t.mean(s)
        }, 1e-2);
    }

    #[test]
    fn grad_matmul_chain() {
        let w = Tensor::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.6]);
        check_grad(sample(), move |t, x| {
            let wv = t.leaf(w.clone());
            let y = t.matmul(x, wv);
            let y = t.relu(y);
            t.sum(y)
        }, 1e-2);
    }

    #[test]
    fn grad_matmul_weight_side() {
        let x = Tensor::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.05, -1.4, 2.2]);
        let w0 = Tensor::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.6]);
        check_grad(w0, move |t, wv| {
            let xv = t.leaf(x.clone());
            let y = t.matmul(xv, wv);
            let y = t.square(y);
            t.mean(y)
        }, 1e-2);
    }

    #[test]
    fn grad_add_row_bias() {
        let b = Tensor::row(&[0.5, -0.5, 0.25]);
        check_grad(b, |t, bv| {
            let x = t.leaf(Tensor::from_vec(
                2,
                3,
                vec![0.3, -0.7, 1.2, 0.05, -1.4, 2.2],
            ));
            let y = t.add_row(x, bv);
            let y = t.square(y);
            t.sum(y)
        }, 1e-2);
    }

    #[test]
    fn grad_div_mul_mix() {
        let b = Tensor::from_vec(2, 3, vec![1.5, 2.0, 0.5, 3.0, 1.0, 2.5]);
        check_grad(sample(), move |t, x| {
            let bv = t.leaf(b.clone());
            let q = t.div(x, bv);
            let m = t.mul(q, x);
            t.mean(m)
        }, 1e-2);
    }

    #[test]
    fn grad_concat_slice() {
        check_grad(sample(), |t, x| {
            let left = t.slice_cols(x, 0, 2);
            let right = t.slice_cols(x, 2, 1);
            let cat = t.concat_cols(right, left);
            let s = t.square(cat);
            t.sum(s)
        }, 1e-2);
    }

    #[test]
    fn grad_bce_with_logits() {
        let targets = Tensor::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        check_grad(sample(), move |t, x| t.bce_with_logits(x, &targets), 1e-2);
    }

    #[test]
    fn grad_hinge() {
        let labels = Tensor::from_vec(2, 3, vec![1., -1., 1., -1., 1., -1.]);
        check_grad(sample(), move |t, x| t.hinge(x, &labels, 0.5), 1e-2);
    }

    #[test]
    fn grad_kl_gauss() {
        let logvar = Tensor::from_vec(2, 3, vec![0.1, -0.3, 0.2, 0.0, 0.4, -0.1]);
        check_grad(sample(), move |t, mu| {
            let lv = t.leaf(logvar.clone());
            t.kl_gauss(mu, lv)
        }, 1e-2);
        // And w.r.t. logvar.
        let mu = sample();
        check_grad(
            Tensor::from_vec(2, 3, vec![0.1, -0.3, 0.2, 0.0, 0.4, -0.1]),
            move |t, lv| {
                let m = t.leaf(mu.clone());
                t.kl_gauss(m, lv)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_reparameterize() {
        let eps = Tensor::from_vec(2, 3, vec![0.3, -1.1, 0.6, 0.9, -0.2, 1.3]);
        check_grad(sample(), move |t, mu| {
            let lv = t.leaf(Tensor::from_vec(
                2,
                3,
                vec![0.1, -0.3, 0.2, 0.0, 0.4, -0.1],
            ));
            let z = t.reparameterize(mu, lv, &eps);
            let z = t.square(z);
            t.mean(z)
        }, 1e-2);
    }

    #[test]
    fn grad_l1_and_mse() {
        let b = Tensor::from_vec(2, 3, vec![0.0, 0.5, 1.0, -0.5, 0.25, 0.75]);
        let b2 = b.clone();
        check_grad(sample(), move |t, x| {
            let bv = t.leaf(b.clone());
            t.mse_loss(x, bv)
        }, 1e-2);
        check_grad(sample(), move |t, x| {
            let bv = t.leaf(b2.clone());
            t.l1_loss(x, bv)
        }, 1e-2);
    }

    #[test]
    fn dropout_mask_scales_and_blocks_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let mask = Tensor::from_vec(1, 4, vec![1., 0., 1., 0.]);
        let d = tape.dropout(x, &mask, 0.5);
        assert_eq!(tape.value(d).as_slice(), &[2., 0., 6., 0.]);
        let s = tape.sum(d);
        tape.backward(s);
        assert_eq!(tape.grad(x).as_slice(), &[2., 0., 2., 0.]);
    }

    #[test]
    fn gradients_accumulate_on_reused_nodes() {
        // loss = sum(x*x + x) — x used by two consumers.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[3.0]));
        let sq = tape.mul(x, x);
        let both = tape.add(sq, x);
        let loss = tape.sum(both);
        tape.backward(loss);
        // d/dx (x² + x) = 2x + 1 = 7.
        assert_eq!(tape.grad(x).as_slice(), &[7.0]);
    }

    #[test]
    fn backward_clears_previous_grads() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[2.0]));
        let s1 = tape.sum(x);
        tape.backward(s1);
        tape.backward(s1);
        assert_eq!(tape.grad(x).as_slice(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_nonscalar_root() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[1.0, 2.0]));
        tape.backward(x);
    }

    #[test]
    fn backward_materializes_no_transposes() {
        // The Matmul backward rule must use the fused kernels; an explicit
        // transpose() inside backward would show up on the global counter.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(
            4,
            3,
            (0..12).map(|i| i as f32 * 0.1 - 0.5).collect(),
        ));
        let w1 = tape.leaf(Tensor::from_vec(
            3,
            5,
            (0..15).map(|i| i as f32 * 0.07 - 0.4).collect(),
        ));
        let w2 = tape.leaf(Tensor::from_vec(
            5,
            2,
            (0..10).map(|i| i as f32 * -0.09 + 0.3).collect(),
        ));
        let h = tape.matmul(x, w1);
        let h = tape.tanh(h);
        let y = tape.matmul(h, w2);
        let loss = tape.mean(y);
        let before = crate::tensor::transpose_count();
        tape.backward(loss);
        assert_eq!(
            crate::tensor::transpose_count(),
            before,
            "backward allocated a transposed tensor"
        );
        // And the gradients still match the transpose-based formulation.
        let g_y = Tensor::full(4, 2, 1.0 / 8.0);
        let h_v = tape.value(h).clone();
        let want_w2 = h_v.transpose().matmul(&g_y);
        assert_eq!(tape.grad(w2).as_slice(), want_w2.as_slice());
    }

    #[test]
    fn stable_helpers_behave_at_extremes() {
        assert!((stable_sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(stable_sigmoid(-100.0) < 1e-6);
        assert!((stable_softplus(50.0) - 50.0).abs() < 1e-4);
        assert!(stable_softplus(-50.0) < 1e-6);
        assert!((stable_softplus(0.0) - 2f32.ln()).abs() < 1e-6);
    }
}
