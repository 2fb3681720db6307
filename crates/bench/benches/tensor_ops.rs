//! Microbenchmarks of the numerical substrate: matmul kernels, a full
//! tape forward+backward of the paper's VAE stack, and optimizer steps.

use cfx_models::Cvae;
use cfx_tensor::init::{randn_tensor, uniform_tensor};
use cfx_tensor::{
    pool, runtime, Activation, Adam, Mlp, Module, Optimizer, Tape, Tensor,
};
use criterion::{
    criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Thread counts swept by the kernel benches: the serial baseline plus
/// the parallel layer at 2 and 4 workers. The cost-aware dispatcher
/// (`runtime::dispatch_rows`) only actually spawns when a call clears
/// `runtime::DEFAULT_PAR_THRESHOLD` FLOPs per worker *and* the machine
/// has the cores, so on a single-core runner t2/t4 should match t1
/// rather than measure scheduling overhead — a t2/t4 entry slower than
/// its t1 counterpart in a re-recorded BENCH_tensor.json is a
/// regression.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    // The thread sweep compares entries against each other, so medians
    // need to be tight: more samples than the tape-level groups.
    group.sample_size(50);
    let mut rng = StdRng::seed_from_u64(0);
    for &(m, k, n) in &[
        (64usize, 32usize, 32usize),
        (2048, 30, 20),
        (2048, 200, 20),
        (512, 512, 512),
    ] {
        let a = uniform_tensor(m, k, -1.0, 1.0, &mut rng);
        let b = uniform_tensor(k, n, -1.0, 1.0, &mut rng);
        group.throughput(Throughput::Flops(cfx_tensor::kernel::gemm_flops(
            m, k, n,
        )));
        for threads in THREAD_SWEEP {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!(
                    "{m}x{k}x{n}/t{threads}"
                )),
                &(a.clone(), b.clone()),
                |bench, (a, b)| {
                    runtime::with_threads(threads, || {
                        bench.iter(|| black_box(a.matmul(b)))
                    })
                },
            );
        }
    }
    group.finish();
}

/// The fused backward kernels against their materialize-then-multiply
/// equivalents, at the batch/width shapes `Tape::backward` actually sees.
fn bench_fused_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused");
    group.sample_size(40);
    let mut rng = StdRng::seed_from_u64(7);
    for &(m, k, n) in &[(2048usize, 30usize, 20usize), (512, 512, 512)] {
        // dA = g @ Bᵀ with g: (m, n), B: (k, n).
        let g = uniform_tensor(m, n, -1.0, 1.0, &mut rng);
        let b = uniform_tensor(k, n, -1.0, 1.0, &mut rng);
        // dB = Aᵀ @ g with A: (m, k).
        let a = uniform_tensor(m, k, -1.0, 1.0, &mut rng);
        let dims = format!("{m}x{k}x{n}");
        group.throughput(Throughput::Flops(cfx_tensor::kernel::gemm_flops(
            m, k, n,
        )));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/bt_fused")),
            &(),
            |bench, _| bench.iter(|| black_box(g.matmul_bt(&b))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/bt_transpose")),
            &(),
            |bench, _| bench.iter(|| black_box(g.matmul(&b.transpose()))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/at_fused")),
            &(),
            |bench, _| bench.iter(|| black_box(a.matmul_at(&g))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/at_transpose")),
            &(),
            |bench, _| bench.iter(|| black_box(a.transpose().matmul(&g))),
        );
    }
    group.finish();
}

/// The shared pairwise-distance kernel at t-SNE / FACE-graph scale.
///
/// Bench assertion (checked whenever BENCH_tensor.json is re-recorded,
/// deliberately *not* a CI gate — wall-clock comparisons on shared
/// runners are flaky): the t2/t4 entries must never be slower than
/// their t1 counterpart at these paper-scale shapes. The cost-aware
/// dispatcher guarantees this structurally — it refuses to spawn when
/// the work is below `runtime::DEFAULT_PAR_THRESHOLD` per worker or
/// when the machine has fewer cores than the requested thread count.
fn bench_pairwise_sq_dists(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_sq_dists");
    group.sample_size(40);
    let mut rng = StdRng::seed_from_u64(11);
    for &(n, d) in &[(500usize, 16usize), (1500, 32)] {
        let data: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        // Sub, multiply, add per dimension over the unique pairs (the
        // kernel mirrors the other triangle instead of recomputing it).
        let flops = 3 * d as u64 * (n as u64 * (n as u64 - 1) / 2);
        group.throughput(Throughput::Flops(flops));
        for threads in THREAD_SWEEP {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("n{n}_d{d}/t{threads}")),
                &data,
                |bench, data| {
                    runtime::with_threads(threads, || {
                        bench.iter(|| {
                            black_box(cfx_manifold::pairwise_sq_dists(data))
                        })
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_vae_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("vae_tape");
    for &(batch, width) in &[(256usize, 30usize), (2048, 30), (2048, 200)] {
        let mut rng = StdRng::seed_from_u64(1);
        let vae = Cvae::paper(width, &mut rng);
        let x = uniform_tensor(batch, width, 0.0, 1.0, &mut rng);
        let cond = Tensor::zeros(batch, 1);
        let eps = randn_tensor(batch, vae.latent_dim(), &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{batch}_w{width}")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    let mut tape = Tape::new();
                    let xv = tape.leaf(x.clone());
                    let mut pv = Vec::new();
                    let mut rng2 = StdRng::seed_from_u64(2);
                    let out = vae.forward(
                        &mut tape, xv, &cond, &eps, &mut pv, true, &mut rng2,
                    );
                    let loss = tape.mse_loss(out.recon, xv);
                    tape.backward(loss);
                    black_box(tape.grad(pv[0]));
                })
            },
        );
    }
    group.finish();
}

/// A complete supervised train step — forward, fused BCE, backward,
/// Adam — in the zero-churn pattern (one hoisted tape, `reset()` per
/// step, hot pool) against the pre-pool shape: a fresh tape per step
/// with the pool emptied first, so every buffer is a heap allocation.
fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    for &(batch, width) in &[(256usize, 30usize), (2048, 30)] {
        let mut rng = StdRng::seed_from_u64(5);
        let x = uniform_tensor(batch, width, -1.0, 1.0, &mut rng);
        let y = Tensor::from_vec(
            batch,
            1,
            (0..batch)
                .map(|r| f32::from(x.as_slice()[r * width] > 0.0))
                .collect(),
        );
        let dims = format!("b{batch}_w{width}");

        let step = |tape: &mut Tape,
                    pv: &mut Vec<cfx_tensor::Var>,
                    net: &mut Mlp,
                    opt: &mut Adam| {
            tape.reset();
            pv.clear();
            let xv = tape.leaf_copy(&x);
            let mut drng = StdRng::seed_from_u64(9);
            let logits = net.forward(tape, xv, pv, true, &mut drng);
            let loss = tape.sigmoid_bce(logits, &y);
            tape.backward(loss);
            let grads = tape.grads_of(pv);
            opt.step_refs(net, &grads);
            tape.value(loss).item()
        };

        let mut net = Mlp::new(
            &[width, 16, 1],
            Activation::Relu,
            Activation::Identity,
            1.0,
            &mut StdRng::seed_from_u64(17),
        );
        let mut opt = Adam::with_lr(1e-2);
        let mut tape = Tape::new();
        let mut pv = Vec::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/pooled")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    black_box(step(&mut tape, &mut pv, &mut net, &mut opt))
                })
            },
        );
        drop(tape);

        let mut net = Mlp::new(
            &[width, 16, 1],
            Activation::Relu,
            Activation::Identity,
            1.0,
            &mut StdRng::seed_from_u64(17),
        );
        let mut opt = Adam::with_lr(1e-2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/unpooled")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    pool::clear();
                    let mut tape = Tape::new();
                    let mut pv = Vec::new();
                    black_box(step(&mut tape, &mut pv, &mut net, &mut opt))
                })
            },
        );
    }
    group.finish();
}

/// The fused tape ops against the unfused op chains they replace —
/// forward **and** backward of `relu(x @ w + b)` and of sigmoid + BCE.
/// (Bitwise equivalence is pinned by `tests/pool_prop.rs`; this
/// measures what collapsing three tape nodes into one is worth.)
fn bench_fused_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_ops");
    let mut rng = StdRng::seed_from_u64(13);
    for &(m, k, n) in &[(256usize, 30usize, 16usize), (2048, 30, 16)] {
        let x = uniform_tensor(m, k, -1.0, 1.0, &mut rng);
        let w = uniform_tensor(k, n, -1.0, 1.0, &mut rng);
        let b = uniform_tensor(1, n, -1.0, 1.0, &mut rng);
        let dims = format!("{m}x{k}x{n}");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/affine_relu_fused")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    let mut tape = Tape::new();
                    let xv = tape.leaf_copy(&x);
                    let wv = tape.leaf_copy(&w);
                    let bv = tape.leaf_copy(&b);
                    let out = tape.affine_relu(xv, wv, bv);
                    let root = tape.sum(out);
                    tape.backward(root);
                    black_box(tape.grad(wv).as_slice()[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dims}/affine_relu_unfused")),
            &(),
            |bench, _| {
                bench.iter(|| {
                    let mut tape = Tape::new();
                    let xv = tape.leaf_copy(&x);
                    let wv = tape.leaf_copy(&w);
                    let bv = tape.leaf_copy(&b);
                    let mm = tape.matmul(xv, wv);
                    let z = tape.add_row(mm, bv);
                    let out = tape.relu(z);
                    let root = tape.sum(out);
                    tape.backward(root);
                    black_box(tape.grad(wv).as_slice()[0])
                })
            },
        );
    }
    let z = uniform_tensor(2048, 1, -3.0, 3.0, &mut rng);
    let t = Tensor::from_vec(
        2048,
        1,
        (0..2048).map(|i| f32::from(i % 2 == 0)).collect(),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("2048x1/sigmoid_bce_fused"),
        &(),
        |bench, _| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let zv = tape.leaf_copy(&z);
                let loss = tape.sigmoid_bce(zv, &t);
                tape.backward(loss);
                black_box(tape.grad(zv).as_slice()[0])
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("2048x1/bce_with_logits_unfused"),
        &(),
        |bench, _| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let zv = tape.leaf_copy(&z);
                let loss = tape.bce_with_logits(zv, &t);
                tape.backward(loss);
                black_box(tape.grad(zv).as_slice()[0])
            })
        },
    );
    group.finish();
}

fn bench_adam_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut vae = Cvae::paper(30, &mut rng);
    let grads: Vec<Tensor> = vae
        .export_params()
        .iter()
        .map(|t| randn_tensor(t.rows(), t.cols(), &mut rng))
        .collect();
    let mut opt = Adam::with_lr(1e-3);
    c.bench_function("adam_step_full_vae", |b| {
        b.iter(|| opt.step(&mut vae, black_box(&grads)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_fused_kernels, bench_pairwise_sq_dists,
        bench_vae_forward_backward, bench_train_step, bench_fused_ops,
        bench_adam_step
}
criterion_main!(benches);
