//! # ftsim-cost
//!
//! The paper's primary contribution: an analytical model that estimates the
//! cost of fine-tuning an LLM on a cloud GPU, built from three pieces:
//!
//! 1. **Maximum batch size** (paper Eq. 1):
//!    `Max_BSZ = ⌊C₀ · (GPU_mem − model_mem) / (seq_len · ((1−C₁) + C₁·sparsity))⌋`
//! 2. **Throughput** (paper Eq. 2):
//!    `Throughput = C₂ · ln(batch / sparsity) + C₄` (the paper's C₃ is
//!    absorbed into C₄; see [`throughput_model`])
//! 3. **Cost**: `epochs × queries / throughput × $/hour`.
//!
//! Coefficients are fitted (least squares, paper: scipy) to ground truth
//! generated by the `ftsim-sim` execution simulator, and validated exactly
//! as the paper does: RMSE of predicted vs measured throughput
//! (Figs. 14–15), projected max batch sizes (Fig. 13), and the Table IV cost
//! comparison across GPUs.
//!
//! ```
//! use ftsim_cost::ThroughputModel;
//!
//! // A fitted throughput model predicts queries/second from batch size.
//! let model = ThroughputModel { c2: 0.6, c4: 0.53 };
//! let sparse = model.predict(8.0, 0.25);
//! let dense = model.predict(2.0, 1.0);
//! assert!(sparse > dense);
//! ```
//!
//! Beyond the paper, [`topology`] and [`distributed`] extend the model to
//! multi-GPU fleets: data/tensor/expert parallelism over an analytic
//! communication roofline, with LLMem-style memory partitioning so Eq. 1
//! generalizes to N devices.

#![deny(missing_docs)]

pub mod batch_model;
pub mod cost;
pub mod distributed;
pub mod fit;
pub mod projection;
pub mod throughput_model;
pub mod topology;
pub mod validate;

pub use batch_model::{BatchSample, MaxBatchModel};
pub use cost::{CostEstimate, CostTable, FineTuneJob};
pub use distributed::{
    DevicePartition, DistributedPlan, DistributedStep, MemoryPartition, Parallelism,
};
pub use fit::rmse;
pub use projection::{MemoryProjection, ProjectionPoint};
pub use throughput_model::{ThroughputModel, ThroughputSample};
pub use topology::{Interconnect, Topology};
pub use validate::{validate_combo, ThroughputValidation};
