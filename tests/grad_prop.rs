//! Property tests: reverse-mode gradients agree with central finite
//! differences on randomized compositions of the op set.

use cfx::tensor::{Tape, Tensor, Var};
use proptest::prelude::*;

/// A randomly chosen differentiable unary op applied on the tape.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Relu,
    Sigmoid,
    Tanh,
    Softplus,
    Abs,
    Square,
    Neg,
    Scale(i8),
    AddScalar(i8),
}

impl UnaryOp {
    fn apply(self, tape: &mut Tape, v: Var) -> Var {
        match self {
            UnaryOp::Relu => tape.relu(v),
            UnaryOp::Sigmoid => tape.sigmoid(v),
            UnaryOp::Tanh => tape.tanh(v),
            UnaryOp::Softplus => tape.softplus(v),
            UnaryOp::Abs => tape.abs(v),
            UnaryOp::Square => tape.square(v),
            UnaryOp::Neg => tape.neg(v),
            UnaryOp::Scale(c) => tape.scale(v, c as f32 / 4.0),
            UnaryOp::AddScalar(c) => tape.add_scalar(v, c as f32 / 4.0),
        }
    }
}

fn unary_op() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Relu),
        Just(UnaryOp::Sigmoid),
        Just(UnaryOp::Tanh),
        Just(UnaryOp::Softplus),
        Just(UnaryOp::Abs),
        Just(UnaryOp::Square),
        Just(UnaryOp::Neg),
        (1i8..8).prop_map(UnaryOp::Scale),
        (-8i8..8).prop_map(UnaryOp::AddScalar),
    ]
}

/// Values bounded away from the |x| and relu kinks where the subgradient
/// makes finite differences disagree legitimately.
fn smooth_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![0.15f32..1.6, -1.6f32..-0.15],
        n..=n,
    )
}

fn run_chain(values: &[f32], ops: &[UnaryOp]) -> (f32, Vec<f32>) {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(1, values.len(), values.to_vec()));
    let mut v = x;
    for op in ops {
        v = op.apply(&mut tape, v);
    }
    let loss = tape.mean(v);
    let out = tape.value(loss).item();
    tape.backward(loss);
    (out, tape.grad(x).as_slice().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chained_unary_grads_match_finite_differences(
        values in smooth_values(5),
        ops in prop::collection::vec(unary_op(), 1..5),
    ) {
        let (_, analytic) = run_chain(&values, &ops);
        let eps = 5e-3f32;
        for i in 0..values.len() {
            let mut plus = values.clone();
            plus[i] += eps;
            let mut minus = values.clone();
            minus[i] -= eps;
            let (fp, _) = run_chain(&plus, &ops);
            let (fm, _) = run_chain(&minus, &ops);
            let numeric = (fp - fm) / (2.0 * eps);
            // Exp-of-square chains can blow magnitudes up; use a relative
            // tolerance.
            prop_assert!(
                (analytic[i] - numeric).abs() <= 0.05 * (1.0 + numeric.abs()),
                "op chain {ops:?}: grad[{i}] analytic {} vs numeric {}",
                analytic[i], numeric
            );
        }
    }

    #[test]
    fn matmul_grads_match_finite_differences(
        a in prop::collection::vec(-1.0f32..1.0, 6),
        b in prop::collection::vec(-1.0f32..1.0, 6),
    ) {
        let run = |a: &[f32], b: &[f32]| {
            let mut tape = Tape::new();
            let av = tape.leaf(Tensor::from_vec(2, 3, a.to_vec()));
            let bv = tape.leaf(Tensor::from_vec(3, 2, b.to_vec()));
            let c = tape.matmul(av, bv);
            let c = tape.square(c);
            let loss = tape.sum(c);
            let out = tape.value(loss).item();
            tape.backward(loss);
            (out, tape.grad(av).as_slice().to_vec(), tape.grad(bv).as_slice().to_vec())
        };
        let (_, ga, gb) = run(&a, &b);
        let eps = 1e-2f32;
        for i in 0..6 {
            let mut ap = a.clone();
            ap[i] += eps;
            let mut am = a.clone();
            am[i] -= eps;
            let numeric = (run(&ap, &b).0 - run(&am, &b).0) / (2.0 * eps);
            prop_assert!((ga[i] - numeric).abs() <= 0.03 * (1.0 + numeric.abs()));

            let mut bp = b.clone();
            bp[i] += eps;
            let mut bm = b.clone();
            bm[i] -= eps;
            let numeric = (run(&a, &bp).0 - run(&a, &bm).0) / (2.0 * eps);
            prop_assert!((gb[i] - numeric).abs() <= 0.03 * (1.0 + numeric.abs()));
        }
    }

    #[test]
    fn grad_accumulation_is_linear(
        values in smooth_values(4),
    ) {
        // d/dx [f(x) + f(x)] = 2 f'(x): reuse of the same node must
        // accumulate, not overwrite.
        let single = {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(1, 4, values.clone()));
            let s = tape.sigmoid(x);
            let loss = tape.sum(s);
            tape.backward(loss);
            tape.grad(x).as_slice().to_vec()
        };
        let double = {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(1, 4, values.clone()));
            let s = tape.sigmoid(x);
            let twice = tape.add(s, s);
            let loss = tape.sum(twice);
            tape.backward(loss);
            tape.grad(x).as_slice().to_vec()
        };
        for (s, d) in single.iter().zip(&double) {
            prop_assert!((2.0 * s - d).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_gauss_is_nonnegative_and_zero_at_standard_normal(
        mu in prop::collection::vec(-2.0f32..2.0, 6),
        logvar in prop::collection::vec(-2.0f32..2.0, 6),
    ) {
        let mut tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec(2, 3, mu));
        let lv = tape.leaf(Tensor::from_vec(2, 3, logvar));
        let kl = tape.kl_gauss(m, lv);
        prop_assert!(tape.value(kl).item() >= -1e-5);

        let mut tape = Tape::new();
        let m = tape.leaf(Tensor::zeros(2, 3));
        let lv = tape.leaf(Tensor::zeros(2, 3));
        let kl = tape.kl_gauss(m, lv);
        prop_assert!(tape.value(kl).item().abs() < 1e-6);
    }
}
