//! GPU memory footprint model: weights, optimizer state, activations, and
//! the maximum batch size they admit (paper §IV-B1, Table III).

use crate::config::ModelConfig;
use crate::finetune::{FineTuneConfig, FineTuneMethod};
use ftsim_gpu::GpuSpec;
use serde::{Deserialize, Serialize};

/// Storage data types used during fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dtype {
    /// IEEE 754 single precision.
    F32,
    /// bfloat16.
    Bf16,
    /// NF4 with double-quantized scales — QLoRA's storage format. The paper's
    /// Table I "23.35 GB" for Mixtral equals params × 0.5 B, i.e. scale
    /// overhead amortized away by double quantization.
    Nf4DoubleQuant,
}

impl Dtype {
    /// Average bytes per parameter, including quantization metadata.
    pub fn bytes_per_param(&self) -> f64 {
        match self {
            Dtype::F32 => 4.0,
            Dtype::Bf16 => 2.0,
            Dtype::Nf4DoubleQuant => 0.5,
        }
    }
}

/// Empirical constants mapping tokens to activation bytes.
///
/// The per-token transient footprint of a real fine-tuning step (activations
/// kept for backward, de-quantization buffers, logits, allocator headroom)
/// is framework-dependent and far larger than the theoretical activation
/// size; these constants are calibrated so that
/// [`MemoryModel::max_batch_size`] reproduces the paper's measured Table III
/// on the A40. The `moe_fraction` plays the role of the paper's MoE
/// coefficient C₁ in Eq. (1): only that fraction of per-token memory scales
/// with expert sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationCalibration {
    /// Peak transient GB per token at dense (all-expert) activation.
    pub per_token_gb: f64,
    /// Fraction of per-token memory that scales with MoE sparsity.
    pub moe_fraction: f64,
    /// Fixed framework overhead in GB (CUDA context, fragmentation floor).
    pub overhead_gb: f64,
}

impl ActivationCalibration {
    /// Calibration for the paper's Mixtral-8x7B QLoRA setup
    /// (reproduces all four Mixtral cells of Table III and the Table IV
    /// A40 batch size of 4 on GSM8K exactly).
    pub fn mixtral() -> Self {
        ActivationCalibration {
            per_token_gb: 0.105,
            moe_fraction: 0.95,
            overhead_gb: 1.0,
        }
    }

    /// Calibration for the paper's BlackMamba-2.8B full fine-tuning setup
    /// (reproduces three of the four BlackMamba cells of Table III exactly,
    /// the fourth within +1).
    pub fn blackmamba() -> Self {
        ActivationCalibration {
            per_token_gb: 0.0263,
            moe_fraction: 0.9133,
            overhead_gb: 1.0,
        }
    }

    /// Picks the calibration matching `model`'s architecture family.
    pub fn for_model(model: &ModelConfig) -> Self {
        if model.is_attention() {
            Self::mixtral()
        } else {
            Self::blackmamba()
        }
    }

    /// Effective per-token multiplier for a sparsity ratio `s = k/E`:
    /// `(1 - moe_fraction) + moe_fraction × s` — the denominator structure
    /// of the paper's Eq. (1).
    pub fn sparsity_multiplier(&self, sparsity_ratio: f64) -> f64 {
        (1.0 - self.moe_fraction) + self.moe_fraction * sparsity_ratio
    }
}

/// A memory budget broken into its components, in decimal GB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Base model weights (quantized for QLoRA).
    pub weights_gb: f64,
    /// LoRA adapter weights (fp32), zero for full fine-tuning.
    pub adapters_gb: f64,
    /// Gradient storage for trainable parameters.
    pub gradients_gb: f64,
    /// AdamW moment state (fp32 m and v).
    pub optimizer_gb: f64,
    /// Fixed framework overhead.
    pub overhead_gb: f64,
    /// Activations / transients for the requested batch.
    pub activations_gb: f64,
}

impl MemoryBreakdown {
    /// Total footprint in GB.
    pub fn total_gb(&self) -> f64 {
        self.weights_gb
            + self.adapters_gb
            + self.gradients_gb
            + self.optimizer_gb
            + self.overhead_gb
            + self.activations_gb
    }

    /// Static (batch-independent) footprint in GB.
    pub fn static_gb(&self) -> f64 {
        self.total_gb() - self.activations_gb
    }
}

/// The memory model for one (model, fine-tuning recipe) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    model: ModelConfig,
    ft: FineTuneConfig,
    calib: ActivationCalibration,
}

impl MemoryModel {
    /// Memory model with the built-in calibration for `model`'s family.
    pub fn new(model: &ModelConfig, ft: &FineTuneConfig) -> Self {
        MemoryModel {
            model: model.clone(),
            ft: *ft,
            calib: ActivationCalibration::for_model(model),
        }
    }

    /// Memory model with an explicit calibration (for custom models).
    pub fn with_calibration(
        model: &ModelConfig,
        ft: &FineTuneConfig,
        calib: ActivationCalibration,
    ) -> Self {
        MemoryModel {
            model: model.clone(),
            ft: *ft,
            calib,
        }
    }

    /// The active calibration.
    pub fn calibration(&self) -> &ActivationCalibration {
        &self.calib
    }

    /// Storage dtype of the frozen base weights under this recipe.
    pub fn weight_dtype(&self) -> Dtype {
        if self.ft.method.is_quantized() {
            Dtype::Nf4DoubleQuant
        } else {
            Dtype::Bf16
        }
    }

    /// Base weight footprint in GB (paper Table I "Mem consump." column).
    pub fn weights_gb(&self) -> f64 {
        self.model.param_counts().total() as f64 * self.weight_dtype().bytes_per_param() / 1e9
    }

    /// Footprint of one training query of `seq_len` tokens, in GB.
    pub fn activation_gb_per_query(&self, seq_len: usize) -> f64 {
        let s = self.ft.sparsity.ratio(self.model.moe.num_experts);
        seq_len as f64 * self.calib.per_token_gb * self.calib.sparsity_multiplier(s)
    }

    /// Full footprint for a batch of `batch` queries of `seq_len` tokens.
    pub fn breakdown(&self, batch: usize, seq_len: usize) -> MemoryBreakdown {
        let trainable = self.ft.trainable_params(&self.model) as f64;
        let (adapters_gb, grad_bytes) = match self.ft.method {
            // Full fine-tuning: weights ARE the trainables; bf16 gradients.
            FineTuneMethod::Full => (0.0, 2.0),
            // Adapters are extra fp32 weights; fp32 gradients.
            FineTuneMethod::Lora { .. } | FineTuneMethod::QLora { .. } => {
                (trainable * 4.0 / 1e9, 4.0)
            }
        };
        MemoryBreakdown {
            weights_gb: self.weights_gb(),
            adapters_gb,
            gradients_gb: trainable * grad_bytes / 1e9,
            optimizer_gb: trainable * 8.0 / 1e9, // fp32 m and v
            overhead_gb: self.calib.overhead_gb,
            activations_gb: batch as f64 * self.activation_gb_per_query(seq_len),
        }
    }

    /// GB left for activations on a device with `mem_gb` of memory.
    pub fn available_gb(&self, mem_gb: f64) -> f64 {
        (mem_gb - self.breakdown(0, 0).static_gb()).max(0.0)
    }

    /// Maximum batch size fitting in `mem_gb` for `seq_len`-token queries
    /// (0 if even one query does not fit).
    pub fn max_batch_size_for_mem(&self, mem_gb: f64, seq_len: usize) -> usize {
        let per_query = self.activation_gb_per_query(seq_len);
        if per_query <= 0.0 {
            return 0;
        }
        (self.available_gb(mem_gb) / per_query).floor() as usize
    }

    /// Maximum batch size on `gpu` — the quantity of the paper's Table III.
    pub fn max_batch_size(&self, gpu: &GpuSpec, seq_len: usize) -> usize {
        self.max_batch_size_for_mem(gpu.mem_gb, seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finetune::Sparsity;
    use crate::presets;
    use proptest::prelude::*;

    fn mixtral_mem(ft: FineTuneConfig) -> MemoryModel {
        MemoryModel::new(&presets::mixtral_8x7b(), &ft)
    }

    fn blackmamba_mem(ft: FineTuneConfig) -> MemoryModel {
        MemoryModel::new(&presets::blackmamba_2p8b(), &ft)
    }

    #[test]
    fn table_i_weight_footprints() {
        let mx = mixtral_mem(FineTuneConfig::qlora_sparse());
        assert!(
            (mx.weights_gb() - 23.35).abs() < 0.1,
            "Mixtral NF4 footprint {:.2} GB vs Table I 23.35 GB",
            mx.weights_gb()
        );
        let bm = blackmamba_mem(FineTuneConfig::full_sparse());
        assert!(
            (bm.weights_gb() - 5.6).abs() < 0.1,
            "BlackMamba bf16 footprint {:.2} GB vs Table I 5.6 GB",
            bm.weights_gb()
        );
    }

    /// Paper Table III on the A40: maximum batch sizes for CS (median 79)
    /// and MATH (median 174).
    #[test]
    fn table_iii_mixtral_exact() {
        let a40 = GpuSpec::a40();
        let dense = mixtral_mem(FineTuneConfig::qlora_dense());
        let sparse = mixtral_mem(FineTuneConfig::qlora_sparse());
        assert_eq!(dense.max_batch_size(&a40, 79), 2, "Mixtral-D CS");
        assert_eq!(dense.max_batch_size(&a40, 174), 1, "Mixtral-D MATH");
        assert_eq!(sparse.max_batch_size(&a40, 79), 8, "Mixtral-S CS");
        assert_eq!(sparse.max_batch_size(&a40, 174), 3, "Mixtral-S MATH");
    }

    #[test]
    fn table_iv_mixtral_gsm8k_batch() {
        // Table IV: A40, Mixtral sparse on GS (median 148) → batch 4.
        let sparse = mixtral_mem(FineTuneConfig::qlora_sparse());
        assert_eq!(sparse.max_batch_size(&GpuSpec::a40(), 148), 4);
    }

    #[test]
    fn table_iii_blackmamba() {
        let a40 = GpuSpec::a40();
        let dense = blackmamba_mem(FineTuneConfig::full_dense());
        let sparse = blackmamba_mem(FineTuneConfig::full_sparse());
        assert_eq!(dense.max_batch_size(&a40, 79), 6, "BlackMamba-D CS");
        assert_eq!(dense.max_batch_size(&a40, 174), 2, "BlackMamba-D MATH");
        assert_eq!(sparse.max_batch_size(&a40, 79), 20, "BlackMamba-S CS");
        // Paper measures 8; the analytical model lands one off (9): the CS
        // and MATH sparse cells are not jointly satisfiable by any linear
        // token-capacity model (20·79 > (8+1)·174).
        let math_s = sparse.max_batch_size(&a40, 174);
        assert!((8..=9).contains(&math_s), "BlackMamba-S MATH = {math_s}");
    }

    #[test]
    fn more_memory_never_shrinks_batch() {
        let m = mixtral_mem(FineTuneConfig::qlora_sparse());
        let b48 = m.max_batch_size_for_mem(48.0, 148);
        let b80 = m.max_batch_size_for_mem(80.0, 148);
        let b120 = m.max_batch_size_for_mem(120.0, 148);
        assert!(b48 <= b80 && b80 <= b120);
        assert!(b120 > b48);
    }

    #[test]
    fn sparse_beats_dense_capacity() {
        let d = mixtral_mem(FineTuneConfig::qlora_dense());
        let s = mixtral_mem(FineTuneConfig::qlora_sparse());
        for seq in [64, 128, 256] {
            assert!(
                s.max_batch_size(&GpuSpec::a40(), seq) > d.max_batch_size(&GpuSpec::a40(), seq)
            );
        }
    }

    #[test]
    fn breakdown_components_sum() {
        let m = blackmamba_mem(FineTuneConfig::full_sparse());
        let b = m.breakdown(4, 128);
        let manual = b.weights_gb
            + b.adapters_gb
            + b.gradients_gb
            + b.optimizer_gb
            + b.overhead_gb
            + b.activations_gb;
        assert!((b.total_gb() - manual).abs() < 1e-12);
        assert!(b.static_gb() < b.total_gb());
    }

    #[test]
    fn full_finetune_optimizer_state_dominates_weights() {
        // AdamW fp32 moments are 4× the bf16 weights.
        let m = blackmamba_mem(FineTuneConfig::full_sparse());
        let b = m.breakdown(0, 0);
        assert!(b.optimizer_gb > 3.9 * b.weights_gb);
        assert_eq!(b.adapters_gb, 0.0);
    }

    #[test]
    fn qlora_optimizer_state_is_tiny() {
        let m = mixtral_mem(FineTuneConfig::qlora_sparse());
        let b = m.breakdown(0, 0);
        assert!(b.optimizer_gb < 0.1 * b.weights_gb);
    }

    #[test]
    fn zero_when_model_does_not_fit() {
        let m = mixtral_mem(FineTuneConfig::qlora_sparse());
        assert_eq!(m.max_batch_size_for_mem(10.0, 79), 0);
    }

    #[test]
    fn sparsity_multiplier_matches_eq1_denominator() {
        let c = ActivationCalibration::mixtral();
        assert!((c.sparsity_multiplier(1.0) - 1.0).abs() < 1e-12);
        let s = c.sparsity_multiplier(0.25);
        assert!((s - (0.05 + 0.95 * 0.25)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_batch_monotone_in_memory(mem1 in 24.0f64..200.0, mem2 in 24.0f64..200.0, seq in 16usize..512) {
            let m = mixtral_mem(FineTuneConfig::qlora_sparse());
            let (lo, hi) = if mem1 <= mem2 { (mem1, mem2) } else { (mem2, mem1) };
            prop_assert!(m.max_batch_size_for_mem(lo, seq) <= m.max_batch_size_for_mem(hi, seq));
        }

        #[test]
        fn prop_batch_antimonotone_in_seq(seq1 in 16usize..512, seq2 in 16usize..512) {
            let m = blackmamba_mem(FineTuneConfig::full_sparse());
            let (lo, hi) = if seq1 <= seq2 { (seq1, seq2) } else { (seq2, seq1) };
            prop_assert!(m.max_batch_size_for_mem(48.0, lo) >= m.max_batch_size_for_mem(48.0, hi));
        }

        #[test]
        fn prop_sparser_never_fits_less(k in 1usize..=8, seq in 16usize..512) {
            let model = presets::mixtral_8x7b();
            let mut ft = FineTuneConfig::qlora_sparse();
            ft.sparsity = Sparsity::TopK(k);
            let mk = MemoryModel::new(&model, &ft);
            ft.sparsity = Sparsity::Dense;
            let dense = MemoryModel::new(&model, &ft);
            prop_assert!(mk.max_batch_size_for_mem(48.0, seq) >= dense.max_batch_size_for_mem(48.0, seq));
        }
    }
}
