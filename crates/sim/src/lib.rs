//! # ftsim-sim
//!
//! The fine-tuning execution simulator: it expands a (model, fine-tuning
//! recipe, batch, sequence length) tuple into the full kernel trace of one
//! training step, prices it on a [`ftsim_gpu::CostModel`], and derives every
//! runtime quantity the paper characterizes — execution-time breakdowns
//! (Figs. 4–6), throughput (Fig. 8), SM/DRAM utilization (Figs. 9–10),
//! expert load imbalance (Fig. 11), and the sequence-length sensitivity
//! study (§IV-B6). It also hosts the *real* (CPU-scale, genuinely trained)
//! MoE models behind the trainability study (Fig. 3).
//!
//! ```
//! use ftsim_gpu::{CostModel, GpuSpec};
//! use ftsim_model::{presets, FineTuneConfig};
//! use ftsim_sim::StepSimulator;
//!
//! let sim = StepSimulator::new(
//!     presets::mixtral_8x7b(),
//!     FineTuneConfig::qlora_sparse(),
//!     CostModel::new(GpuSpec::a40()),
//! );
//! let trace = sim.simulate_step(1, 128);
//! // The MoE layer dominates (paper Fig. 5: ~85% on average).
//! let by_section = trace.section_breakdown();
//! assert!(by_section.percent("moe") > 60.0);
//! ```

pub mod ablation;
pub mod engine;
pub mod error;
pub mod learning;
pub mod moetrain;
pub mod report;
pub mod routing;
pub mod sensitivity;
pub mod step;
pub mod throughput;
pub mod trace;

pub use ablation::{Ablation, AblationArm};
pub use engine::{parallel_map, parallel_map_with, thread_count};
pub use error::{SimContext, SimError, SimErrorKind};
pub use learning::{LearningCurve, TrainabilityMatrix};
pub use moetrain::{MoeTrainConfig, MoeTrainOutcome};
pub use routing::{RouterDrift, TokenDistribution};
pub use sensitivity::{SensitivityPoint, SensitivityStudy};
pub use step::{CacheStats, StepSimulator};
pub use throughput::{ThroughputPoint, ThroughputSweep};
pub use trace::{KernelRecord, Section, Stage, StepTrace, TraceSegment};
