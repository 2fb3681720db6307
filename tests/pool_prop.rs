//! Property tests for the shape-keyed tensor pool and the fused
//! forward/backward kernels. The contract under test: a warm pool is
//! invisible — pooled tapes produce *bitwise* the same values and
//! gradients as fresh allocations — and the fused ops (`affine`,
//! `affine_relu`, `sigmoid_bce`) are bitwise identical to the unfused
//! compositions they replace, at every thread count.

use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::tensor::runtime::with_threads;
use cfx::tensor::{Module, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
    )
}

/// Bit pattern of every element — `-0.0` vs `0.0` and NaN payloads
/// count, so this is stricter than `==` on the float slices.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Forward + backward of `sum(relu(x @ w + b))` via the *unfused*
/// three-op chain; returns (value, grad x, grad w, grad b) bit patterns.
fn unfused_affine(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    relu: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let xv = tape.leaf_copy(x);
    let wv = tape.leaf_copy(w);
    let bv = tape.leaf_copy(b);
    let mm = tape.matmul(xv, wv);
    let z = tape.add_row(mm, bv);
    let out = if relu { tape.relu(z) } else { z };
    let value = bits(tape.value(out));
    let root = tape.sum(out);
    tape.backward(root);
    (value, bits(tape.grad(xv)), bits(tape.grad(wv)), bits(tape.grad(bv)))
}

/// Same quantity via the single fused op.
fn fused_affine(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    relu: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let xv = tape.leaf_copy(x);
    let wv = tape.leaf_copy(w);
    let bv = tape.leaf_copy(b);
    let out = if relu {
        tape.affine_relu(xv, wv, bv)
    } else {
        tape.affine(xv, wv, bv)
    };
    let value = bits(tape.value(out));
    let root = tape.sum(out);
    tape.backward(root);
    (value, bits(tape.grad(xv)), bits(tape.grad(wv)), bits(tape.grad(bv)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pooled tape kernels equal the plain (unpooled) tensor ops
    /// bitwise, and a warm pool changes nothing: the same graph built
    /// twice on fresh tapes — the second run drawing every buffer from
    /// the pool the first run just filled — yields identical bits.
    #[test]
    fn pooled_tape_matches_unpooled_tensor_ops(
        (m, k, n) in (1usize..24, 1usize..24, 1usize..24),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(m, k, &mut rng);
        let w = random_tensor(k, n, &mut rng);
        let c = random_tensor(m, k, &mut rng);

        // Unpooled references, straight from the tensor kernels.
        let want_mm = a.matmul(&w);
        let want_add = a.zip(&c, |p, q| p + q);
        let want_relu = a.map(|v| v.max(0.0));

        let mut runs = Vec::new();
        for _ in 0..2 {
            // Run 1 fills the thread-local pool (misses); run 2 reuses
            // those exact buffers (hits). Bits must not change.
            let mut tape = Tape::new();
            let av = tape.leaf_copy(&a);
            let wv = tape.leaf_copy(&w);
            let cv = tape.leaf_copy(&c);
            let mm = tape.matmul(av, wv);
            let add = tape.add(av, cv);
            let rl = tape.relu(av);
            prop_assert_eq!(bits(tape.value(mm)), bits(&want_mm));
            prop_assert_eq!(bits(tape.value(add)), bits(&want_add));
            prop_assert_eq!(bits(tape.value(rl)), bits(&want_relu));
            let root = tape.sum(mm);
            tape.backward(root);
            runs.push((bits(tape.grad(av)), bits(tape.grad(wv))));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
    }

    /// `affine` / `affine_relu` are bitwise identical to the unfused
    /// `matmul → add_row (→ relu)` chain, forward *and* backward, for
    /// every input of the fused op, at several thread counts.
    #[test]
    fn fused_affine_matches_unfused_bitwise(
        (m, k, n) in (1usize..20, 1usize..20, 1usize..20),
        relu in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_tensor(m, k, &mut rng);
        let w = random_tensor(k, n, &mut rng);
        let b = random_tensor(1, n, &mut rng);
        for threads in [1usize, 2, 4] {
            let (want, got) = with_threads(threads, || {
                (unfused_affine(&x, &w, &b, relu), fused_affine(&x, &w, &b, relu))
            });
            prop_assert_eq!(&got.0, &want.0, "value, threads = {}", threads);
            prop_assert_eq!(&got.1, &want.1, "grad x, threads = {}", threads);
            prop_assert_eq!(&got.2, &want.2, "grad w, threads = {}", threads);
            prop_assert_eq!(&got.3, &want.3, "grad b, threads = {}", threads);
        }
    }

    /// `sigmoid_bce` (and its node-targets variant) is bitwise identical
    /// to `bce_with_logits` — same stable-form loss, same `(σ(z)-t)/n`
    /// gradient — and no gradient leaks into the targets node.
    #[test]
    fn fused_sigmoid_bce_matches_unfused_bitwise(
        (m, n) in (1usize..20, 1usize..12),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let z = random_tensor(m, n, &mut rng);
        let t = Tensor::from_vec(
            m,
            n,
            (0..m * n).map(|_| f32::from(rng.gen_range(0u8..2))).collect(),
        );

        let mut ref_tape = Tape::new();
        let zr = ref_tape.leaf_copy(&z);
        let lr = ref_tape.bce_with_logits(zr, &t);
        let want_loss = bits(ref_tape.value(lr));
        ref_tape.backward(lr);
        let want_grad = bits(ref_tape.grad(zr));

        // Owned-targets fusion.
        let mut tape = Tape::new();
        let zv = tape.leaf_copy(&z);
        let loss = tape.sigmoid_bce(zv, &t);
        prop_assert_eq!(bits(tape.value(loss)), want_loss.clone());
        tape.backward(loss);
        prop_assert_eq!(bits(tape.grad(zv)), want_grad.clone());

        // Node-targets fusion: same bits, zero gradient to the targets.
        let mut tape = Tape::new();
        let zv = tape.leaf_copy(&z);
        let tv = tape.leaf_copy(&t);
        let loss = tape.sigmoid_bce_node(zv, tv);
        prop_assert_eq!(bits(tape.value(loss)), want_loss);
        tape.backward(loss);
        prop_assert_eq!(bits(tape.grad(zv)), want_grad);
        prop_assert!(tape.grad(tv).as_slice().iter().all(|&g| g == 0.0));
    }
}

/// Deterministic toy binary-classification data: label = sign of the
/// first feature, which a 2-layer net separates in a few epochs.
fn toy_data(rows: usize, cols: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = random_tensor(rows, cols, &mut rng);
    let y = Tensor::from_vec(
        rows,
        1,
        (0..rows).map(|r| f32::from(x.as_slice()[r * cols] > 0.0)).collect(),
    );
    (x, y)
}

fn toy_config() -> BlackBoxConfig {
    BlackBoxConfig {
        hidden: 8,
        learning_rate: 1e-2,
        batch_size: 16,
        epochs: 3,
        seed: 7,
    }
}

/// A full pooled 3-epoch fit is bitwise identical at 1/2/4 threads and
/// regardless of pool state: the fourth run repeats threads=1 after the
/// pool has been warmed by three complete fits.
#[test]
fn pooled_fit_is_bitwise_identical_across_threads_and_pool_state() {
    let (x, y) = toy_data(60, 5, 0xC0FFEE);
    let cfg = toy_config();
    let fit = |threads: usize| {
        with_threads(threads, || {
            let mut bb = BlackBox::new(5, &cfg);
            let losses = bb.train(&x, &y, &cfg);
            let params: Vec<Vec<u32>> = bb
                .network()
                .export_params()
                .iter()
                .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            (params, losses)
        })
    };
    let (params1, losses1) = fit(1);
    for threads in [2usize, 4, 1] {
        let (params, losses) = fit(threads);
        assert_eq!(params, params1, "params diverged at {threads} threads");
        assert_eq!(
            losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses1.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "epoch losses diverged at {threads} threads"
        );
    }
}

/// The zero-churn claim itself: after one warm-up fit (whose dropped
/// tape hands its working set back to the thread-local pool), an entire
/// identical fit — every forward value, gradient buffer, and gathered
/// mini-batch — is served from the pool with **zero** misses.
#[test]
fn steady_state_training_performs_zero_pool_misses() {
    use cfx::tensor::pool;
    let (x, y) = toy_data(60, 5, 0xBEEF);
    let cfg = toy_config();
    let mut bb = BlackBox::new(5, &cfg);
    bb.train(&x, &y, &cfg); // warm-up: populates the pool on drop
    pool::reset_stats();
    bb.train(&x, &y, &cfg);
    let s = pool::stats();
    assert!(s.hits > 0, "expected pooled takes during training");
    assert_eq!(
        s.misses, 0,
        "steady-state training must not allocate (hits = {})",
        s.hits
    );
}
