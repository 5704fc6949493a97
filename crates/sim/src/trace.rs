//! Priced kernel traces of a fine-tuning step and their breakdowns.

use ftsim_gpu::{Breakdown, KernelCost, KernelDesc, KernelKind, UtilizationSummary};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three stages of a training step (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Forward pass over the batch.
    Forward,
    /// Backward pass, including gradient-checkpointing re-computation.
    Backward,
    /// Optimizer (AdamW) parameter update.
    Optimizer,
}

impl Stage {
    /// Lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Forward => "forward",
            Stage::Backward => "backward",
            Stage::Optimizer => "optimizer",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The model sub-layer a kernel belongs to (paper Fig. 5's categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Section {
    /// Token embedding lookup.
    Embedding,
    /// RMS / layer normalization (input + post-mixer norms).
    Norm,
    /// The sequence mixer: self-attention (Mixtral) or Mamba (BlackMamba).
    Mixer,
    /// The mixture-of-experts block, including router and de-quantization.
    Moe,
    /// Final norm + LM head + loss.
    Head,
    /// Optimizer state update.
    Optimizer,
}

impl Section {
    /// Label for reports; the mixer is named after the architecture
    /// (`"attention"` or `"mamba"`).
    pub fn label(&self, attention_mixer: bool) -> &'static str {
        match self {
            Section::Embedding => "embedding",
            Section::Norm => "norm",
            Section::Mixer => {
                if attention_mixer {
                    "attention"
                } else {
                    "mamba"
                }
            }
            Section::Moe => "moe",
            Section::Head => "lm_head",
            Section::Optimizer => "optimizer",
        }
    }
}

/// One priced kernel launch within a step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Training stage the kernel ran in.
    pub stage: Stage,
    /// Model sub-layer it belongs to.
    pub section: Section,
    /// What the kernel computes.
    pub desc: KernelDesc,
    /// What it cost on the modeled GPU.
    pub cost: KernelCost,
}

/// A run of consecutive kernels that repeats `repeat` times back-to-back.
///
/// Transformer steps launch an identical per-layer trace `num_layers` times;
/// storing the trace once with an explicit repeat count makes [`StepTrace`]
/// construction O(kernels) instead of O(layers × kernels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    records: Vec<KernelRecord>,
    repeat: usize,
}

impl TraceSegment {
    /// A segment that plays its records once.
    pub fn once(records: Vec<KernelRecord>) -> Self {
        TraceSegment::repeated(records, 1)
    }

    /// A segment that plays its records `repeat` times.
    pub fn repeated(records: Vec<KernelRecord>, repeat: usize) -> Self {
        TraceSegment { records, repeat }
    }

    /// The distinct records stored (one repetition's worth).
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// How many times the records repeat.
    pub fn repeat(&self) -> usize {
        self.repeat
    }

    /// Kernel launches this segment expands to.
    pub fn kernel_count(&self) -> usize {
        self.records.len() * self.repeat
    }
}

/// The complete priced trace of one training step.
///
/// Stored as run-length-compressed [`TraceSegment`]s; [`StepTrace::records`]
/// iterates the expanded launch sequence in exact emission order, so every
/// aggregation below sums floats in the same order as a naively emitted
/// trace and stays bit-identical to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTrace {
    segments: Vec<TraceSegment>,
    /// Batch size simulated.
    pub batch: usize,
    /// (Padded) sequence length simulated.
    pub seq_len: usize,
    /// Whether the mixer is attention (affects section labels).
    pub attention_mixer: bool,
}

impl StepTrace {
    /// Builds a trace from pre-compressed segments.
    pub fn from_segments(
        segments: Vec<TraceSegment>,
        batch: usize,
        seq_len: usize,
        attention_mixer: bool,
    ) -> Self {
        StepTrace {
            segments,
            batch,
            seq_len,
            attention_mixer,
        }
    }

    /// Builds a trace from a flat record list (single segment, repeat 1):
    /// the form the test oracles emit.
    #[cfg(test)]
    pub(crate) fn from_records(
        records: Vec<KernelRecord>,
        batch: usize,
        seq_len: usize,
        attention_mixer: bool,
    ) -> Self {
        StepTrace::from_segments(
            vec![TraceSegment::once(records)],
            batch,
            seq_len,
            attention_mixer,
        )
    }

    /// The compressed segments, in launch order.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// All kernel launches in emission order, with repeated segments
    /// expanded in place.
    pub fn records(&self) -> impl Iterator<Item = &KernelRecord> + '_ {
        self.segments
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.records.as_slice(), s.repeat).flatten())
    }

    /// Total step latency in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.records().map(|r| r.cost.latency_s).sum()
    }

    /// Number of kernel launches (after segment expansion).
    pub fn kernel_count(&self) -> usize {
        self.segments.iter().map(TraceSegment::kernel_count).sum()
    }

    /// Number of distinct records actually stored (and therefore priced);
    /// `kernel_count / unique_kernel_count` is the memoization ratio.
    pub fn unique_kernel_count(&self) -> usize {
        self.segments.iter().map(|s| s.records.len()).sum()
    }

    /// Latency breakdown by stage (paper Fig. 4).
    pub fn stage_breakdown(&self) -> Breakdown {
        self.records()
            .map(|r| (r.stage.label(), r.cost.latency_s))
            .collect()
    }

    /// Latency breakdown by model sub-layer (paper Fig. 5). The optimizer
    /// stage is excluded, matching the paper's layer-level figure, which
    /// covers forward + backward of the model layers.
    pub fn section_breakdown(&self) -> Breakdown {
        self.records()
            .filter(|r| r.stage != Stage::Optimizer)
            .map(|r| (r.section.label(self.attention_mixer), r.cost.latency_s))
            .collect()
    }

    /// Latency breakdown of the MoE section by kernel family (paper Fig. 6).
    pub fn moe_kernel_breakdown(&self) -> Breakdown {
        self.records()
            .filter(|r| r.section == Section::Moe)
            .map(|r| (r.desc.kind.label(), r.cost.latency_s))
            .collect()
    }

    /// Time-weighted utilization of MoE kernels of the given family
    /// (paper Figs. 9–10 plot these per family and batch size).
    pub fn moe_utilization(&self, kind: KernelKind) -> UtilizationSummary {
        UtilizationSummary::from_costs(
            self.records()
                .filter(|r| r.section == Section::Moe && r.desc.kind == kind)
                .map(|r| &r.cost),
        )
    }

    /// Time-weighted utilization over the whole MoE section.
    pub fn moe_overall_utilization(&self) -> UtilizationSummary {
        UtilizationSummary::from_costs(
            self.records()
                .filter(|r| r.section == Section::Moe)
                .map(|r| &r.cost),
        )
    }

    /// Seconds spent in `stage`.
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.records()
            .filter(|r| r.stage == stage)
            .map(|r| r.cost.latency_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_gpu::cost::Bound;

    fn record(stage: Stage, section: Section, kind: KernelKind, secs: f64) -> KernelRecord {
        KernelRecord {
            stage,
            section,
            desc: KernelDesc::new(kind, 1e9, 1e6, 100.0),
            cost: KernelCost {
                latency_s: secs,
                sm_util: 0.5,
                dram_util: 0.25,
                bound: Bound::Compute,
            },
        }
    }

    fn sample_trace() -> StepTrace {
        StepTrace::from_records(
            vec![
                record(Stage::Forward, Section::Moe, KernelKind::MatMul, 0.6),
                record(Stage::Forward, Section::Mixer, KernelKind::Attention, 0.1),
                record(Stage::Backward, Section::Moe, KernelKind::Dequant, 0.2),
                record(
                    Stage::Optimizer,
                    Section::Optimizer,
                    KernelKind::Optimizer,
                    0.1,
                ),
            ],
            2,
            128,
            true,
        )
    }

    #[test]
    fn totals_and_counts() {
        let t = sample_trace();
        assert!((t.total_seconds() - 1.0).abs() < 1e-12);
        assert_eq!(t.kernel_count(), 4);
        assert!((t.stage_seconds(Stage::Forward) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn stage_breakdown_has_three_stages() {
        let b = sample_trace().stage_breakdown();
        assert!((b.seconds("forward") - 0.7).abs() < 1e-12);
        assert!((b.seconds("backward") - 0.2).abs() < 1e-12);
        assert!((b.seconds("optimizer") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn section_breakdown_excludes_optimizer() {
        let b = sample_trace().section_breakdown();
        assert_eq!(b.seconds("optimizer"), 0.0);
        assert!((b.percent("moe") - 100.0 * 0.8 / 0.9).abs() < 1e-9);
        assert!(b.seconds("attention") > 0.0);
    }

    #[test]
    fn mamba_label_when_not_attention() {
        let mut t = sample_trace();
        t.attention_mixer = false;
        assert!(t.section_breakdown().seconds("mamba") > 0.0);
        assert_eq!(t.section_breakdown().seconds("attention"), 0.0);
    }

    #[test]
    fn moe_kernel_breakdown_filters_section() {
        let b = sample_trace().moe_kernel_breakdown();
        assert!((b.seconds("matmul") - 0.6).abs() < 1e-12);
        assert!((b.seconds("dequant") - 0.2).abs() < 1e-12);
        assert_eq!(b.seconds("attention"), 0.0);
    }

    #[test]
    fn repeated_segment_expands_in_order() {
        let layer = vec![
            record(Stage::Forward, Section::Norm, KernelKind::Norm, 0.1),
            record(Stage::Forward, Section::Moe, KernelKind::MatMul, 0.2),
        ];
        let t = StepTrace::from_segments(
            vec![
                TraceSegment::once(vec![record(
                    Stage::Forward,
                    Section::Embedding,
                    KernelKind::Elementwise,
                    0.05,
                )]),
                TraceSegment::repeated(layer.clone(), 3),
            ],
            1,
            64,
            true,
        );
        assert_eq!(t.kernel_count(), 7);
        assert_eq!(t.unique_kernel_count(), 3);
        let expanded: Vec<&KernelRecord> = t.records().collect();
        assert_eq!(expanded.len(), 7);
        // Expansion preserves launch order: embedding, then (norm, matmul) ×3.
        assert_eq!(expanded[0].section, Section::Embedding);
        for rep in 0..3 {
            assert_eq!(expanded[1 + 2 * rep], &layer[0]);
            assert_eq!(expanded[2 + 2 * rep], &layer[1]);
        }
        assert!((t.total_seconds() - (0.05 + 3.0 * 0.3)).abs() < 1e-12);
        // Aggregations see the expanded sequence, not the compressed one.
        assert!((t.stage_breakdown().seconds("forward") - 0.95).abs() < 1e-12);
        assert!((t.moe_kernel_breakdown().seconds("matmul") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn moe_utilization_by_kind() {
        let t = sample_trace();
        let u = t.moe_utilization(KernelKind::MatMul);
        assert!((u.seconds - 0.6).abs() < 1e-12);
        assert_eq!(t.moe_utilization(KernelKind::Router).seconds, 0.0);
        assert!((t.moe_overall_utilization().seconds - 0.8).abs() < 1e-12);
    }
}
