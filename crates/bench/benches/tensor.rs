//! Benchmarks the tensor runtime: the two matmul kernels (naive oracle,
//! register-tiled microkernel), the microkernel with its SIMD dispatch
//! forced to each side, composed naive ops vs. the fused
//! matmul+bias+activation and softmax kernels, the streaming fused backward
//! epilogue vs. the composed backward chain, plus one full MoE training
//! step on both paths.

use criterion::{criterion_group, criterion_main, Criterion};
use ftsim_tensor::nn::{AdamW, ExpertKind, Linear, MoeLayer};
use ftsim_tensor::{ops, parallel, Activation, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const M: usize = 256;
const K: usize = 64;
const N: usize = 256;

/// Serial apples-to-apples comparison of the two kernels on identical
/// buffers: the naive i-p-j oracle and the register-tiled microkernel
/// behind `Tensor::matmul`.
fn matmul_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let lhs = Tensor::rand_normal([M, K], 1.0, &mut rng);
    let rhs = Tensor::rand_normal([K, N], 0.5, &mut rng);
    let mut out = vec![0.0f32; M * N];
    c.bench_function("tensor/matmul_naive", |bch| {
        bch.iter(|| {
            parallel::matmul_naive_into(lhs.data(), rhs.data(), &mut out, M, K, N);
            black_box(out[0])
        })
    });
    c.bench_function("tensor/matmul_microkernel", |bch| {
        bch.iter(|| {
            parallel::matmul_microkernel_into(lhs.data(), rhs.data(), &mut out, M, K, N);
            black_box(out[0])
        })
    });
}

/// The microkernel with its dispatch pinned to each side: forced scalar vs.
/// forced AVX2 (which downgrades to scalar on hosts without AVX2, making
/// the pair read ~1.0x there). Both sides produce bit-identical outputs.
fn matmul_simd_dispatch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let lhs = Tensor::rand_normal([M, K], 1.0, &mut rng);
    let rhs = Tensor::rand_normal([K, N], 0.5, &mut rng);
    let mut out = vec![0.0f32; M * N];
    ftsim_tensor::simd::force(Some(false));
    c.bench_function("tensor/matmul_microkernel_scalar", |bch| {
        bch.iter(|| {
            parallel::matmul_microkernel_into(lhs.data(), rhs.data(), &mut out, M, K, N);
            black_box(out[0])
        })
    });
    ftsim_tensor::simd::force(Some(true));
    c.bench_function("tensor/matmul_microkernel_simd", |bch| {
        bch.iter(|| {
            parallel::matmul_microkernel_into(lhs.data(), rhs.data(), &mut out, M, K, N);
            black_box(out[0])
        })
    });
    ftsim_tensor::simd::force(None);
}

/// One `linear_act` forward+backward at training-hot-loop scale, streaming
/// fused epilogue vs. the composed matmul → add_row → activate chain.
fn linear_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(29);
    let xt = Tensor::rand_normal([64, 32], 1.0, &mut rng);
    let wt = Tensor::rand_normal([32, 64], 0.5, &mut rng);
    let bt = Tensor::rand_normal([1, 64], 0.5, &mut rng);
    c.bench_function("tensor/linear_backward_fused", |bch| {
        bch.iter(|| {
            let (x, w, b) = (
                Var::constant(xt.clone()),
                Var::parameter(wt.clone()),
                Var::parameter(bt.clone()),
            );
            let loss = x
                .linear_act(&w, &b, Activation::Silu)
                .expect("shapes")
                .mean();
            loss.backward();
            black_box(loss.value().item())
        })
    });
    c.bench_function("tensor/linear_backward_composed", |bch| {
        bch.iter(|| {
            let (x, w, b) = (
                Var::constant(xt.clone()),
                Var::parameter(wt.clone()),
                Var::parameter(bt.clone()),
            );
            let loss = x
                .matmul(&w)
                .expect("shapes")
                .add_row(&b)
                .expect("shapes")
                .activate(Activation::Silu)
                .mean();
            loss.backward();
            black_box(loss.value().item())
        })
    });
}

fn kernel_inputs() -> (Tensor, Tensor, Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(11);
    (
        Tensor::rand_normal([M, K], 1.0, &mut rng),
        Tensor::rand_normal([K, N], 0.5, &mut rng),
        Tensor::rand_normal([1, N], 0.5, &mut rng),
        Tensor::rand_normal([2048, 64], 1.0, &mut rng),
    )
}

fn kernels(c: &mut Criterion) {
    let (x, w, b, logits) = kernel_inputs();

    c.bench_function("tensor/linear_naive", |bch| {
        bch.iter(|| {
            let y = x.matmul(&w).expect("conforming shapes");
            let mut biased = Tensor::zeros(y.shape().clone());
            for r in 0..M {
                for col in 0..N {
                    biased.set2(r, col, y.get2(r, col) + b.get2(0, col));
                }
            }
            black_box(biased.map(|v| Activation::Silu.apply(v)))
        })
    });
    c.bench_function("tensor/softmax_naive", |bch| {
        bch.iter(|| black_box(ops::softmax_rows_naive(&logits).expect("matrix")))
    });

    c.bench_function("tensor/linear_fused", |bch| {
        bch.iter(|| {
            black_box(ops::matmul_bias_act(&x, &w, Some(&b), Activation::Silu).expect("shapes"))
        })
    });
    c.bench_function("tensor/softmax_fused", |bch| {
        bch.iter(|| black_box(ops::softmax_rows(&logits).expect("matrix")))
    });
}

struct TrainFixture {
    moe: MoeLayer,
    head: Linear,
    params: Vec<Var>,
    opt: AdamW,
    x: Tensor,
    labels: Vec<usize>,
}

fn fixture() -> TrainFixture {
    let (hidden, ffn, experts, classes, batch) = (32, 64, 8, 8, 64);
    let mut rng = StdRng::seed_from_u64(7);
    let moe = MoeLayer::new(ExpertKind::SwiGlu, hidden, ffn, experts, experts, &mut rng)
        .expect("valid MoE configuration");
    let head = Linear::new(hidden, classes, &mut rng);
    let mut params = moe.parameters();
    params.extend(head.parameters());
    let opt = AdamW::new(1e-2, params.len());
    let x = Tensor::rand_normal([batch, hidden], 1.0, &mut rng);
    let labels = (0..batch).map(|_| rng.gen_range(0..classes)).collect();
    TrainFixture {
        moe,
        head,
        params,
        opt,
        x,
        labels,
    }
}

fn train_step(f: &mut TrainFixture, fused: bool) -> f32 {
    let x = Var::constant(f.x.clone());
    let (mixed, _) = f.moe.forward_with(&x, fused).expect("moe forward");
    let logits = if fused {
        f.head.forward_act(&mixed, Activation::Identity)
    } else {
        f.head.forward_naive(&mixed, Activation::Identity)
    }
    .expect("head projection");
    let loss = logits.cross_entropy(&f.labels).expect("labels in range");
    let out = loss.with_value(Tensor::item);
    loss.backward();
    f.opt.step(&f.params);
    out
}

fn train_steps(c: &mut Criterion) {
    let mut naive = fixture();
    c.bench_function("tensor/train_step_naive", |bch| {
        bch.iter(|| black_box(train_step(&mut naive, false)))
    });
    let mut fused = fixture();
    c.bench_function("tensor/train_step_fused", |bch| {
        bch.iter(|| black_box(train_step(&mut fused, true)))
    });
}

criterion_group! {
    name = tensor;
    config = Criterion::default().sample_size(10);
    targets = matmul_kernels, matmul_simd_dispatch, kernels, linear_backward, train_steps
}
criterion_main!(tensor);
