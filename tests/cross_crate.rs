//! Cross-crate consistency and determinism checks on the facade.

use ftsim::gpu::{CostModel, GpuSpec};
use ftsim::model::{presets, FineTuneConfig};
use ftsim::sim::StepSimulator;
use ftsim::tensor::{Quantized4Bit, Tensor, Var};

/// Simulated traces are deterministic: same inputs, identical output.
#[test]
fn step_traces_are_deterministic() {
    let build = || {
        StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        )
        .simulate_step(4, 128)
    };
    let a = build();
    let b = build();
    assert_eq!(a, b);
}

/// FLOP accounting is consistent between the model crate's parameter counts
/// and the sim crate's kernel traces (forward ≈ 2 · active params · tokens).
#[test]
fn params_and_flops_agree_across_crates() {
    use ftsim::sim::Stage;
    for (model, ft, topk) in [
        (
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            2usize,
        ),
        (presets::blackmamba_2p8b(), FineTuneConfig::full_dense(), 8),
    ] {
        let active = model.param_counts().active_total(topk) as f64;
        let tokens = 256.0;
        let trace = StepSimulator::new(model.clone(), ft, CostModel::new(GpuSpec::a40()))
            .simulate_step(2, 128);
        let fwd: f64 = trace
            .records()
            .filter(|r| r.stage == Stage::Forward)
            .map(|r| r.desc.flops)
            .sum();
        let ratio = fwd / (2.0 * active * tokens);
        assert!(
            (0.7..1.8).contains(&ratio),
            "{}: ratio {ratio:.2}",
            model.name
        );
    }
}

/// The tensor crate's quantizer agrees with the model crate's byte
/// accounting for NF4 storage.
#[test]
fn quantizer_matches_memory_accounting() {
    let per_elem = Quantized4Bit::bytes_per_element(64);
    let dtype = ftsim::model::Dtype::Nf4.bytes_per_param();
    assert!((per_elem - dtype).abs() < 1e-9);

    let weights: Vec<f32> = (0..4096)
        .map(|i| ((i as f32) * 0.01).sin() * 0.02)
        .collect();
    let q = Quantized4Bit::quantize(&weights, 64).expect("valid block");
    let actual = q.storage_bytes() as f64 / weights.len() as f64;
    assert!((actual - per_elem).abs() < 1e-9);
}

/// Autograd gradients drive real optimization through the facade path.
#[test]
fn facade_autograd_smoke() {
    let w = Var::parameter(Tensor::scalar(4.0));
    let opt = ftsim::tensor::nn::Sgd::new(0.1);
    for _ in 0..50 {
        let loss = w.mul(&w).expect("same shape").mean();
        loss.backward();
        opt.step(std::slice::from_ref(&w));
    }
    assert!(w.value().item().abs() < 0.1);
}

/// Doc-level invariant: every catalog GPU can run at least the sparse
/// BlackMamba recipe at CS lengths.
#[test]
fn every_catalog_gpu_fits_blackmamba() {
    let mem =
        ftsim::model::MemoryModel::new(&presets::blackmamba_2p8b(), &FineTuneConfig::full_sparse());
    for gpu in GpuSpec::catalog() {
        assert!(
            mem.max_batch_size(&gpu, 79) >= 1,
            "{} cannot fit BlackMamba sparse",
            gpu.name
        );
    }
}
