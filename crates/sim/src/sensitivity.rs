//! Sequence-length sensitivity study (paper §IV-B6).
//!
//! For each sequence length the batch size is set to the maximum that fits
//! in GPU memory, so the token count per step stays roughly constant. The
//! paper reports (figure omitted there for space): Mixtral latency stays
//! almost flat; BlackMamba latency drops slightly (~19–25%) at longer
//! sequences; throughput is higher for shorter sequences.

use crate::engine;
use crate::error::{SimError, SimErrorKind};
use crate::step::StepSimulator;
use ftsim_model::MemoryModel;
use serde::{Deserialize, Serialize};

/// Measurements at one sequence length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Padded sequence length.
    pub seq_len: usize,
    /// Maximum batch size that fits at this length.
    pub max_batch: usize,
    /// Tokens per step (`max_batch × seq_len`).
    pub tokens: usize,
    /// Step latency in seconds.
    pub step_seconds: f64,
    /// Queries per second.
    pub queries_per_second: f64,
    /// Time-weighted MoE SM utilization.
    pub moe_sm_util: f64,
    /// Time-weighted MoE DRAM utilization.
    pub moe_dram_util: f64,
}

/// The sensitivity curve for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityStudy {
    /// Configuration label.
    pub label: String,
    /// One point per sequence length, ascending.
    pub points: Vec<SensitivityPoint>,
    /// Lengths that could not be measured (no batch size fits), each
    /// recorded as a [`SimError`] carrying the label/GPU/seq-len context so
    /// downstream artifacts can report *which* points failed and why.
    pub skipped: Vec<SimError>,
}

impl SensitivityStudy {
    /// Runs the study over `seq_lens` (each at its own max batch size),
    /// fanning the lengths across the [`engine`]'s worker threads. Lengths
    /// whose max batch is zero are recorded in
    /// [`skipped`](SensitivityStudy::skipped) rather than silently dropped.
    pub fn run(sim: &StepSimulator, label: impl Into<String>, seq_lens: &[usize]) -> Self {
        let label = label.into();
        let mem = MemoryModel::new(sim.model(), sim.finetune());
        let gpu = sim.cost_model().spec().clone();
        let _sweep = ftsim_obs::span_lazy("sim.sweep", || format!("sensitivity:{label}"));
        let results = engine::parallel_map(seq_lens, |&seq_len| {
            let max_batch = mem.max_batch_size(&gpu, seq_len);
            if max_batch == 0 {
                return Err(SimError::new(SimErrorKind::SequenceDoesNotFit)
                    .with_label(label.clone())
                    .with_gpu(gpu.name.clone())
                    .with_seq_len(seq_len));
            }
            let _point = ftsim_obs::span_lazy("sim.sweep", || format!("seq_len:{seq_len}"));
            let trace = sim.simulate_step(max_batch, seq_len);
            let secs = trace.total_seconds();
            let util = trace.moe_overall_utilization();
            Ok(SensitivityPoint {
                seq_len,
                max_batch,
                tokens: max_batch * seq_len,
                step_seconds: secs,
                queries_per_second: max_batch as f64 / secs,
                moe_sm_util: util.sm_util,
                moe_dram_util: util.dram_util,
            })
        });
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for result in results {
            match result {
                Ok(point) => points.push(point),
                Err(err) => skipped.push(err),
            }
        }
        SensitivityStudy {
            label,
            points,
            skipped,
        }
    }

    /// Ratio of the longest-sequence latency to the shortest-sequence
    /// latency (1.0 = perfectly flat).
    pub fn latency_ratio(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) => last.step_seconds / first.step_seconds,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_gpu::{CostModel, GpuSpec};
    use ftsim_model::{presets, FineTuneConfig};

    const SEQS: [usize; 5] = [64, 128, 256, 512, 1024];

    fn study(model: ftsim_model::ModelConfig, ft: FineTuneConfig) -> SensitivityStudy {
        let sim = StepSimulator::new(model, ft, CostModel::new(GpuSpec::a40()));
        SensitivityStudy::run(&sim, "test", &SEQS)
    }

    #[test]
    fn max_batch_shrinks_with_sequence_length() {
        let s = study(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse());
        for w in s.points.windows(2) {
            assert!(w[1].max_batch <= w[0].max_batch);
        }
    }

    #[test]
    fn tokens_per_step_roughly_constant() {
        // "the varying maximum batch sizes ... resulting in a similar number
        // of tokens in each batch."
        let s = study(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse());
        let tokens: Vec<usize> = s.points.iter().map(|p| p.tokens).collect();
        let max = *tokens.iter().max().unwrap() as f64;
        let min = *tokens.iter().min().unwrap() as f64;
        assert!(max / min < 2.2, "token counts too spread: {tokens:?}");
    }

    #[test]
    fn mixtral_latency_is_nearly_flat() {
        let s = study(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse());
        let r = s.latency_ratio();
        assert!((0.6..1.3).contains(&r), "latency ratio {r:.2}");
    }

    #[test]
    fn throughput_favors_short_sequences() {
        // "throughput is higher for shorter sequences."
        let s = study(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse());
        let first = s.points.first().unwrap().queries_per_second;
        let last = s.points.last().unwrap().queries_per_second;
        assert!(first > last);
    }

    #[test]
    fn blackmamba_latency_does_not_grow() {
        // The paper saw BlackMamba latency *shrink* slightly at longer
        // sequences; at minimum it should not grow materially.
        let s = study(presets::blackmamba_2p8b(), FineTuneConfig::full_sparse());
        assert!(s.latency_ratio() < 1.25, "ratio {}", s.latency_ratio());
    }

    #[test]
    fn skips_lengths_that_do_not_fit() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_dense(),
            CostModel::new(GpuSpec::a40()),
        );
        // Dense Mixtral cannot fit batch 1 at very long sequences.
        let s = SensitivityStudy::run(&sim, "dense", &[64, 8192]);
        assert!(s.points.len() <= 1 || s.points.iter().all(|p| p.max_batch >= 1));
        // The skipped length is reported with full context, not dropped.
        if s.points.len() == 1 {
            assert_eq!(s.skipped.len(), 1);
            let err = &s.skipped[0];
            assert_eq!(err.kind, crate::SimErrorKind::SequenceDoesNotFit);
            assert_eq!(err.context.label.as_deref(), Some("dense"));
            assert_eq!(err.context.seq_len, Some(8192));
            assert!(err.context.gpu.is_some());
        }
    }

    #[test]
    fn fitting_lengths_leave_no_skips() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let s = SensitivityStudy::run(&sim, "fits", &[64, 128, 256]);
        assert_eq!(s.points.len(), 3);
        assert!(s.skipped.is_empty(), "{:?}", s.skipped);
    }
}
