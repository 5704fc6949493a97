//! Ablation studies of the design choices the paper's setup commits to
//! (§III): gradient checkpointing, QLoRA quantization, and expert sparsity.
//!
//! The paper *uses* these techniques; the ablations quantify what each one
//! buys (memory) and costs (runtime) on the same simulated A40, which is
//! exactly the trade-off discussion of its Fig. 4 / Fig. 6 commentary
//! ("quantization reduces model size ... but can increase computation
//! time", "gradient checkpointing saves memory but increases the backward
//! stage runtime").

use crate::step::StepSimulator;
use ftsim_gpu::CostModel;
use ftsim_model::{FineTuneConfig, FineTuneMethod, MemoryModel, ModelConfig};
use serde::{Deserialize, Serialize};

/// One arm of an ablation: a named recipe variant with its measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationArm {
    /// Variant label (e.g. `"checkpointing=off"`).
    pub label: String,
    /// Step latency in seconds at the probe batch size.
    pub step_seconds: f64,
    /// Backward-stage share of the step.
    pub backward_share: f64,
    /// Maximum batch size on the probe GPU.
    pub max_batch: usize,
    /// Static (batch-independent) memory footprint in GB.
    pub static_gb: f64,
}

/// A pairwise ablation: baseline (the paper's choice) vs variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablation {
    /// What is being ablated.
    pub name: String,
    /// The paper's configuration.
    pub baseline: AblationArm,
    /// The ablated configuration.
    pub variant: AblationArm,
}

impl Ablation {
    /// Runtime ratio `variant / baseline` (> 1 means the variant is slower).
    pub fn slowdown(&self) -> f64 {
        self.variant.step_seconds / self.baseline.step_seconds
    }
}

fn measure(
    model: &ModelConfig,
    ft: FineTuneConfig,
    cost: &CostModel,
    label: impl Into<String>,
    batch: usize,
    seq: usize,
) -> AblationArm {
    let sim = StepSimulator::new(model.clone(), ft, cost.clone());
    let trace = sim.simulate_step(batch, seq);
    let mem = MemoryModel::new(model, &ft);
    AblationArm {
        label: label.into(),
        step_seconds: trace.total_seconds(),
        backward_share: trace.stage_seconds(crate::trace::Stage::Backward) / trace.total_seconds(),
        max_batch: mem.max_batch_size(cost.spec(), seq),
        static_gb: mem.breakdown(0, 0).static_gb(),
    }
}

/// Ablates gradient checkpointing for the given recipe.
///
/// The paper's finding: checkpointing saves activation memory but inflates
/// the backward stage with a forward re-computation.
pub fn ablate_checkpointing(
    model: &ModelConfig,
    base: FineTuneConfig,
    cost: &CostModel,
    batch: usize,
    seq: usize,
) -> Ablation {
    let mut off = base;
    off.gradient_checkpointing = false;
    Ablation {
        name: "gradient checkpointing".into(),
        baseline: measure(model, base, cost, "checkpointing=on", batch, seq),
        variant: measure(model, off, cost, "checkpointing=off", batch, seq),
    }
}

/// Ablates QLoRA quantization (NF4 base weights) against bf16 LoRA with the
/// same adapter rank.
///
/// The paper's finding: quantization shrinks the resident model (enabling
/// larger batches / fitting at all) at the price of de-quantization compute.
pub fn ablate_quantization(
    model: &ModelConfig,
    base: FineTuneConfig,
    cost: &CostModel,
    batch: usize,
    seq: usize,
) -> Ablation {
    let rank = base.method.lora_rank().unwrap_or(16);
    let mut bf16 = base;
    bf16.method = FineTuneMethod::Lora { rank };
    Ablation {
        name: "NF4 quantization".into(),
        baseline: measure(model, base, cost, "qlora-nf4", batch, seq),
        variant: measure(model, bf16, cost, "lora-bf16", batch, seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_gpu::GpuSpec;
    use ftsim_model::presets;

    fn a40() -> CostModel {
        CostModel::new(GpuSpec::a40())
    }

    #[test]
    fn checkpointing_trades_runtime_for_memory() {
        let model = presets::mixtral_8x7b();
        let ab = ablate_checkpointing(&model, FineTuneConfig::qlora_sparse(), &a40(), 2, 128);
        // Turning it OFF must be faster...
        assert!(ab.slowdown() < 1.0, "off/on runtime {}", ab.slowdown());
        // ...and shrink the backward share (no recomputation).
        assert!(ab.variant.backward_share < ab.baseline.backward_share);
    }

    #[test]
    fn quantization_shrinks_weights_but_costs_runtime() {
        let model = presets::mixtral_8x7b();
        let ab = ablate_quantization(&model, FineTuneConfig::qlora_sparse(), &a40(), 1, 128);
        // bf16 LoRA holds 46.7B × 2B ≈ 93 GB of weights — more static
        // memory than NF4...
        assert!(ab.variant.static_gb > 2.0 * ab.baseline.static_gb);
        // ...so it cannot fit on the 48 GB A40 at all (the paper's reason
        // for QLoRA), while QLoRA fits a real batch.
        assert_eq!(ab.variant.max_batch, 0);
        assert!(ab.baseline.max_batch >= 1);
        // And without dequant kernels the (hypothetical) step is faster.
        assert!(ab.slowdown() < 1.0);
    }

    #[test]
    fn checkpointing_ablation_leaves_capacity_direction_sane() {
        // Note: activation calibration is per-recipe-family, so the memory
        // side of the checkpointing ablation is inherited; assert only that
        // capacity does not *grow* when recomputation is dropped under the
        // same calibration.
        let model = presets::blackmamba_2p8b();
        let ab = ablate_checkpointing(&model, FineTuneConfig::full_sparse(), &a40(), 2, 128);
        assert!(ab.variant.max_batch <= ab.baseline.max_batch);
    }

    /// Queries/s at batch 1 and batch 8 with the GPU cost model's occupancy
    /// shape parameter κ set to `kappa`.
    fn qps_at_kappa(model: &ModelConfig, ft: FineTuneConfig, seq: usize, kappa: f64) -> (f64, f64) {
        let calib = ftsim_gpu::CalibrationProfile {
            occupancy_kappa: kappa,
            ..Default::default()
        };
        let cost = CostModel::with_calibration(GpuSpec::a40(), calib);
        let sim = StepSimulator::new(model.clone(), ft, cost);
        let q1 = 1.0 / sim.simulate_step(1, seq).total_seconds();
        let q8 = 8.0 / sim.simulate_step(8, seq).total_seconds();
        (q1, q8)
    }

    #[test]
    fn conclusions_robust_across_kappa() {
        // Sparse-over-dense and batch-scaling survive a 4× swing in the
        // occupancy constant, so the paper-shaped conclusions do not hinge
        // on one calibration constant.
        let model = presets::mixtral_8x7b();
        for kappa in [0.5, 1.0, 2.0] {
            let (s1, s8) = qps_at_kappa(&model, FineTuneConfig::qlora_sparse(), 79, kappa);
            let (d1, _) = qps_at_kappa(&model, FineTuneConfig::qlora_dense(), 79, kappa);
            assert!(s8 > s1, "kappa {kappa}: batching should help");
            assert!(s1 > d1, "kappa {kappa}: sparse should beat dense at bs1");
        }
    }
}
