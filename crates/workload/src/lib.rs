//! # ftsim-workload
//!
//! Fine-tuning workloads: the four datasets of the paper's Table II with
//! their sequence-length distributions (Fig. 2), and the synthetic learnable
//! tasks that drive the real (CPU-scale) MoE training experiments standing
//! in for the paper's accuracy study (Fig. 3).
//!
//! ```
//! use ftsim_workload::{presets, SeqLenDistribution};
//! use rand::SeedableRng;
//!
//! let cs = presets::commonsense_15k();
//! assert_eq!(cs.median_seq_len, 79); // paper Table II
//!
//! let dist = SeqLenDistribution::for_dataset(&cs);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let lens = dist.sample_many(1000, &mut rng);
//! assert!(lens.iter().all(|&l| l >= 1));
//! ```

pub mod dataset;
pub mod distribution;
pub mod task;

pub use dataset::{presets, DatasetSpec, TaskDomain};
pub use distribution::SeqLenDistribution;
pub use task::{SyntheticTask, TaskSample};
