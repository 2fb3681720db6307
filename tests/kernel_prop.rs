//! Property tests pinning the register-tiled microkernels
//! (`cfx_tensor::kernel`) bitwise-equal to a naive scalar reference,
//! across random shapes (including non-multiple-of-8 column counts and
//! remainder rows), thread counts, both tile shapes, and warm vs cold
//! buffer pool. The dispatch threshold is pinned to 0 inside the
//! threaded runs so the parallel split paths are exercised even on a
//! single-core host, where the cost-aware dispatcher would otherwise
//! (correctly) stay serial.

use cfx::tensor::pool;
use cfx::tensor::runtime::{dispatch_counts, with_par_threshold, with_threads};
use cfx::tensor::Tensor;
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

/// Scalar reference for `A(m,k) · B(k,n)`: one accumulator per output
/// element, summed in ascending-`k` order — the exact add sequence the
/// microkernels are required to reproduce.
fn ref_nn(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Scalar reference for `Aᵀ · B` with `a` stored `(k, m)`.
fn ref_at(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a.as_slice()[p * m + i] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Scalar reference for `A · Bᵀ` with `b` stored `(n, k)`.
fn ref_bt(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a.as_slice()[i * k + p] * b.as_slice()[j * k + p];
            }
            out[i * n + j] = s;
        }
    }
    out
}

/// Runs one kernel at 1/2/4 threads (parallel splits forced via a zero
/// dispatch threshold) with the requested pool temperature and checks
/// every result against `want` bitwise.
fn check_all_threads(
    label: &str,
    want: &[f32],
    cold_pool: bool,
    f: impl Fn() -> Tensor,
) -> Result<(), TestCaseError> {
    for threads in [1usize, 2, 4] {
        if cold_pool {
            pool::clear();
        }
        let got = with_par_threshold(0, || with_threads(threads, &f));
        prop_assert_eq!(
            got.as_slice(),
            want,
            "{} threads={} cold_pool={}",
            label,
            threads,
            cold_pool
        );
        got.recycle(); // warm the pool for the next round
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` — random shapes spanning both tile paths (n < 64 picks
    /// the 4×8 block, n ≥ 64 the 2×16 block), ragged column tails, and
    /// remainder rows.
    #[test]
    fn matmul_bitwise_equals_scalar_reference(
        (m, k, n) in (1usize..70, 1usize..90, 1usize..90),
        seed in any::<u64>(),
        cold_pool in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let want = ref_nn(&a, &b);
        check_all_threads("matmul", &want, cold_pool, || a.matmul_pooled(&b))?;
    }

    /// `matmul_at` (fused `Aᵀ·B`) against its scalar reference.
    #[test]
    fn matmul_at_bitwise_equals_scalar_reference(
        (m, k, n) in (1usize..50, 1usize..90, 1usize..90),
        seed in any::<u64>(),
        cold_pool in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(k, m, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let want = ref_at(&a, &b);
        check_all_threads("matmul_at", &want, cold_pool, || {
            a.matmul_at_pooled(&b)
        })?;
    }

    /// `matmul_bt` (fused `A·Bᵀ`) against its scalar reference.
    #[test]
    fn matmul_bt_bitwise_equals_scalar_reference(
        (m, k, n) in (1usize..50, 1usize..90, 1usize..90),
        seed in any::<u64>(),
        cold_pool in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(n, k, &mut rng);
        let want = ref_bt(&a, &b);
        check_all_threads("matmul_bt", &want, cold_pool, || {
            a.matmul_bt_pooled(&b)
        })?;
    }
}

/// Deterministic boundary sweep: shapes straddling every edge the tiled
/// kernels care about — single row/column, the 8-lane and 16-lane column
/// boundaries ±1, the MR row boundary, and `k` crossing the KC = 256
/// panel edge — for all three orientations.
#[test]
fn boundary_shapes_bitwise_equal_reference() {
    let mut rng = StdRng::seed_from_u64(42);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 257, 1),
        (2, 256, 16),
        (3, 255, 17),
        (4, 300, 8),
        (5, 7, 9),
        (7, 513, 63),
        (8, 40, 64),
        (9, 31, 65),
        (16, 17, 15),
        (65, 2, 130),
    ] {
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        assert_eq!(a.matmul(&b).as_slice(), ref_nn(&a, &b), "nn {m}x{k}x{n}");

        let at_a = random_tensor(k, m, &mut rng);
        assert_eq!(
            at_a.matmul_at(&b).as_slice(),
            ref_at(&at_a, &b),
            "at {m}x{k}x{n}"
        );

        let bt_b = random_tensor(n, k, &mut rng);
        assert_eq!(
            a.matmul_bt(&bt_b).as_slice(),
            ref_bt(&a, &bt_b),
            "bt {m}x{k}x{n}"
        );
    }
}

/// The zero-threshold override really forces the parallel path (the
/// test escape the properties above rely on), and the dispatcher's
/// decision counters move accordingly — also under `CFX_THREADS=1`,
/// because `with_threads` overrides the process-wide cap.
#[test]
fn zero_threshold_forces_parallel_dispatch() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_tensor(12, 9, &mut rng);
    let b = random_tensor(9, 11, &mut rng);

    let (_, par_before) = dispatch_counts();
    let forced = with_par_threshold(0, || {
        with_threads(3, || a.matmul(&b))
    });
    let (_, par_after) = dispatch_counts();
    assert!(
        par_after > par_before,
        "threshold 0 at 3 threads must take the parallel path"
    );

    // A tiny multiply under an enormous threshold stays serial.
    let (serial_before, _) = dispatch_counts();
    let serial = with_par_threshold(u64::MAX, || {
        with_threads(3, || a.matmul(&b))
    });
    let (serial_after, _) = dispatch_counts();
    assert!(serial_after > serial_before);
    assert_eq!(forced.as_slice(), serial.as_slice(), "paths must agree bitwise");
}
