//! Property tests for the parallel compute layer: every threaded kernel
//! must be *bitwise* identical to its serial form, across random shapes
//! and thread counts. See `cfx_tensor::runtime` for the determinism
//! contract these tests enforce.

use cfx::manifold::{pairwise_sq_dists, Kde};
use cfx::tensor::runtime::{parallel_map, with_threads};
use cfx::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

fn random_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
    )
}

/// The transpose counter is process-global; serialize every test that
/// transposes or reads it, so one test's transposes never land inside
/// another's measurement window.
fn transpose_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Naive ikj serial reference, independent of the library kernel.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a.as_slice()[i * k + p];
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[p * n + j];
            }
        }
    }
    Tensor::from_vec(m, n, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// matmul is bitwise equal to the naive serial reference at every
    /// thread count (including counts far above the shape).
    #[test]
    fn matmul_bitwise_equals_serial(
        (m, k, n) in (1usize..40, 1usize..40, 1usize..40),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let want = reference_matmul(&a, &b);
        for threads in [1usize, 2, 3, 8] {
            let got = with_threads(threads, || a.matmul(&b));
            prop_assert_eq!(
                got.as_slice(), want.as_slice(),
                "threads = {}", threads
            );
        }
    }

    /// The fused transpose kernels match their materialized-transpose
    /// formulations bitwise, serial and threaded.
    #[test]
    fn fused_kernels_bitwise_equal_transposed_forms(
        (m, k, n) in (1usize..30, 1usize..30, 1usize..30),
        seed in any::<u64>(),
    ) {
        let _g = transpose_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        // matmul_at: (k, m)ᵀ @ (k, n).
        let a = random_tensor(k, m, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let want_at = reference_matmul(&a.transpose(), &b);
        // matmul_bt: (m, k) @ (n, k)ᵀ.
        let c = random_tensor(m, k, &mut rng);
        let d = random_tensor(n, k, &mut rng);
        let want_bt = reference_matmul(&c, &d.transpose());
        for threads in [1usize, 3, 8] {
            let (at, bt) = with_threads(threads, || {
                (a.matmul_at(&b), c.matmul_bt(&d))
            });
            prop_assert_eq!(at.as_slice(), want_at.as_slice());
            prop_assert_eq!(bt.as_slice(), want_bt.as_slice());
        }
    }

    /// Pairwise squared distances: the threaded full-row form equals the
    /// serial triangle-and-mirror form bitwise.
    #[test]
    fn pairwise_sq_dists_bitwise_stable(
        (n, d) in (2usize..30, 1usize..8),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        let serial = with_threads(1, || pairwise_sq_dists(&data));
        for threads in [2usize, 5] {
            let par = with_threads(threads, || pairwise_sq_dists(&data));
            prop_assert_eq!(&par, &serial, "threads = {}", threads);
        }
    }

    /// Batched KDE densities are bitwise independent of the thread count.
    #[test]
    fn kde_densities_bitwise_stable(
        (n, q) in (1usize..20, 1usize..40),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)])
            .collect();
        let queries: Vec<Vec<f32>> = (0..q)
            .map(|_| vec![rng.gen_range(-2.0f32..2.0), rng.gen_range(-2.0f32..2.0)])
            .collect();
        let kde = Kde::fit(pts, 0.5);
        let serial = with_threads(1, || kde.densities(&queries));
        let par = with_threads(4, || kde.densities(&queries));
        prop_assert_eq!(par, serial);
    }

    /// parallel_map returns results in index order at any thread count.
    #[test]
    fn parallel_map_is_order_stable(
        n in 0usize..120,
        threads in 1usize..9,
    ) {
        let got = with_threads(threads, || parallel_map(n, 1, |i| 3 * i + 1));
        prop_assert_eq!(got, (0..n).map(|i| 3 * i + 1).collect::<Vec<_>>());
    }
}

/// The autodiff backward pass must never materialize a transposed tensor
/// for Matmul nodes — its gradients go through the fused kernels.
#[test]
fn backward_pass_materializes_no_transposes() {
    use cfx::tensor::Tape;
    let mut rng = StdRng::seed_from_u64(99);
    let mut tape = Tape::new();
    let x = tape.leaf(random_tensor(8, 5, &mut rng));
    let w1 = tape.leaf(random_tensor(5, 7, &mut rng));
    let w2 = tape.leaf(random_tensor(7, 3, &mut rng));
    let h = tape.matmul(x, w1);
    let h = tape.relu(h);
    let y = tape.matmul(h, w2);
    let loss = tape.mean(y);
    let _g = transpose_lock();
    let before = cfx::tensor::tensor::transpose_count();
    tape.backward(loss);
    assert_eq!(
        cfx::tensor::tensor::transpose_count(),
        before,
        "Tape::backward allocated an explicit transpose"
    );
}
