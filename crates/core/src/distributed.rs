//! The distributed step simulator: single-GPU step traces composed with an
//! analytic communication roofline over a [`Topology`].
//!
//! The paper's model stops at one GPU ("extending this model to multi-GPU
//! systems is left for future exploration", §VII). This module generalizes
//! it from first principles, one term per parallelism strategy:
//!
//! * **Data parallelism** — every rank runs the full model on its slice of
//!   the global batch, then gradients of the trainable parameters are
//!   ring-all-reduced: `t_comm = λ + 2(n−1)/n · G/B` (a ring moves each of
//!   the `G` gradient bytes out of and back into every rank except one, so
//!   `2(n−1)/n · G` bytes cross each link at bandwidth `B`).
//! * **Tensor parallelism** — every layer's weights are partitioned `1/n`;
//!   each layer boundary all-gathers the partial activations, once forward
//!   and once backward: `t_comm = 2L · (λ + (n−1)/n · A/B)` where `A` is
//!   the activation tensor (`batch · seq · hidden · 4` bytes).
//! * **Expert parallelism** — experts are partitioned across ranks; every
//!   MoE layer all-to-alls tokens to their experts (dispatch) and back
//!   (combine), forward and backward: `t_comm = 4L · (λ + (n−1)/n ·
//!   k·A/B)` with `k` the experts activated per token (top-k, or all of
//!   them in the dense configuration).
//!
//! Compute time is the **slowest rank's** — collectives are synchronous —
//! and on a mixed fleet the faster ranks idle until the straggler arrives.
//! That idle time is the *pipeline bubble* this module accounts:
//! `bubble = t_max − mean(t_rank)`, exactly zero on homogeneous fleets.
//!
//! Memory is partitioned LLMem-style: each strategy splits the single-GPU
//! [`MemoryBreakdown`] into a *sharded* portion (divided `1/n`) and a
//! *replicated* portion (copied per rank), and the Eq. 1 max-batch solver
//! runs against every device's capacity — see [`DistributedPlan::max_batch`].
//!
//! **Degeneracy guarantee.** A 1-GPU topology takes a dedicated branch that
//! returns the single-GPU simulator's numbers unchanged: step time is
//! bit-identical to [`StepSimulator::simulate_step`] and max batch to
//! [`MemoryModel::max_batch_size_for_mem`], with communication and bubble
//! exactly `0.0`. Property tests pin this.
//!
//! **Stateless.** A plan is immutable configuration. Each
//! [`DistributedPlan::simulate_step`] call builds one [`StepSimulator`] per
//! distinct device spec of the topology and prices that spec's step once,
//! however many ranks share it; nothing is kept for the next call, so a
//! stream of distinct scenarios cannot grow the plan.
//!
//! [`MemoryBreakdown`]: ftsim_model::MemoryBreakdown

use std::collections::HashMap;

use ftsim_gpu::CostModel;
use ftsim_model::{FineTuneConfig, MemoryModel, ModelConfig, Sparsity};
use ftsim_sim::{Section, StepSimulator};
use serde::{Deserialize, Serialize};

use crate::topology::Topology;

/// How the model and batch are spread across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Parallelism {
    /// Replicate the model, split the batch, all-reduce gradients.
    Data,
    /// Partition every layer's weights, all-gather activations.
    Tensor,
    /// Partition the experts, all-to-all tokens to them and back.
    Expert,
}

impl Parallelism {
    /// All strategies, in canonical order.
    pub fn all() -> [Parallelism; 3] {
        [Parallelism::Data, Parallelism::Tensor, Parallelism::Expert]
    }

    /// Lower-case wire name.
    pub fn key(&self) -> &'static str {
        match self {
            Parallelism::Data => "data",
            Parallelism::Tensor => "tensor",
            Parallelism::Expert => "expert",
        }
    }

    /// Parses the wire name (case-insensitive, `"dp"`/`"tp"`/`"ep"`
    /// accepted).
    pub fn parse(s: &str) -> Result<Parallelism, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "data" | "dp" => Ok(Parallelism::Data),
            "tensor" | "tp" => Ok(Parallelism::Tensor),
            "expert" | "ep" => Ok(Parallelism::Expert),
            other => Err(format!(
                "unknown parallelism {other:?} (want data, tensor, or expert)"
            )),
        }
    }
}

/// One distributed training step, split into its cost components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedStep {
    /// Devices participating.
    pub world_size: usize,
    /// Strategy that produced this estimate.
    pub parallelism: Parallelism,
    /// Queries processed by the whole fleet per step.
    pub global_batch: usize,
    /// Queries each rank computes (equals `global_batch` except for data
    /// parallelism, which splits the batch).
    pub per_device_batch: usize,
    /// Sequence length in tokens.
    pub seq_len: usize,
    /// Slowest rank's compute time in seconds.
    pub compute_seconds: f64,
    /// Communication roofline time in seconds (exactly `0.0` at world 1).
    pub comm_seconds: f64,
    /// Mean idle time per rank waiting on the straggler, in seconds
    /// (exactly `0.0` on homogeneous fleets).
    pub bubble_seconds: f64,
}

impl DistributedStep {
    /// Wall time of the step: slowest compute plus communication.
    pub fn total_seconds(&self) -> f64 {
        self.compute_seconds + self.comm_seconds
    }

    /// Aggregate fleet throughput in queries per second.
    pub fn queries_per_second(&self) -> f64 {
        self.global_batch as f64 / self.total_seconds()
    }

    /// Fraction of the step spent communicating, in `[0, 1)`.
    pub fn comm_fraction(&self) -> f64 {
        self.comm_seconds / self.total_seconds()
    }

    /// Fraction of the step spent computing — the synchronization
    /// efficiency (`1.0` at world 1, where no collective runs).
    pub fn compute_fraction(&self) -> f64 {
        self.compute_seconds / self.total_seconds()
    }
}

/// One rank's share of the fleet memory footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePartition {
    /// Device catalog name.
    pub device: String,
    /// Device memory capacity in GB.
    pub mem_gb: f64,
    /// This rank's `1/n` slice of the sharded components, in GB.
    pub sharded_gb: f64,
    /// Components every rank holds in full, in GB.
    pub replicated_gb: f64,
}

impl DevicePartition {
    /// This rank's total footprint in GB.
    pub fn total_gb(&self) -> f64 {
        self.sharded_gb + self.replicated_gb
    }

    /// Whether the rank's share fits its device.
    pub fn fits(&self) -> bool {
        self.total_gb() <= self.mem_gb
    }
}

/// An LLMem-style partition of the single-GPU memory footprint: which
/// components shard `1/n` across ranks and which replicate, per strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPartition {
    /// Strategy that produced the split.
    pub parallelism: Parallelism,
    /// One entry per rank.
    pub per_device: Vec<DevicePartition>,
    /// The sharded portion of the single-GPU footprint — per-rank
    /// `sharded_gb` values sum back to this (within float rounding).
    pub sharded_single_gb: f64,
    /// The replicated portion — every rank carries this in full.
    pub replicated_single_gb: f64,
}

impl MemoryPartition {
    /// Whether every rank's share fits its device.
    pub fn fits(&self) -> bool {
        self.per_device.iter().all(DevicePartition::fits)
    }
}

/// A distributed planning context for one (model, recipe) pair: the
/// single-GPU memory model plus the communication model, with single-GPU
/// [`StepSimulator`]s built per call. Methods take the [`Topology`] per
/// call, so one plan serves a whole sweep over world sizes, links, and
/// strategies.
///
/// ```
/// use ftsim_cost::{DistributedPlan, Interconnect, Parallelism, Topology};
/// use ftsim_gpu::GpuSpec;
/// use ftsim_model::{presets, FineTuneConfig};
///
/// let plan = DistributedPlan::new(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse());
/// let topo = Topology::homogeneous(GpuSpec::a40(), 4, Interconnect::pcie4());
///
/// // 4-way data parallelism: compute shrinks, an all-reduce appears.
/// let step = plan.simulate_step(&topo, Parallelism::Data, 8, 79);
/// assert_eq!(step.per_device_batch, 2);
/// assert!(step.comm_seconds > 0.0);
/// assert!(step.queries_per_second() > 0.0);
/// ```
///
/// The degenerate single-GPU placement is bit-identical to the plain
/// [`StepSimulator`] path:
///
/// ```
/// use ftsim_cost::{DistributedPlan, Parallelism, Topology};
/// use ftsim_gpu::{CostModel, GpuSpec};
/// use ftsim_model::{presets, FineTuneConfig};
/// use ftsim_sim::StepSimulator;
///
/// let model = presets::mixtral_8x7b();
/// let ft = FineTuneConfig::qlora_sparse();
/// let plan = DistributedPlan::new(model.clone(), ft);
/// let single = StepSimulator::new(model, ft, CostModel::new(GpuSpec::a40()));
///
/// let step = plan.simulate_step(&Topology::single(GpuSpec::a40()), Parallelism::Expert, 4, 79);
/// assert_eq!(step.total_seconds(), single.simulate_step(4, 79).total_seconds());
/// assert_eq!((step.comm_seconds, step.bubble_seconds), (0.0, 0.0));
/// ```
pub struct DistributedPlan {
    model: ModelConfig,
    ft: FineTuneConfig,
    mem: MemoryModel,
}

impl DistributedPlan {
    /// A plan for fine-tuning `model` with recipe `ft`.
    pub fn new(model: ModelConfig, ft: FineTuneConfig) -> Self {
        let mem = MemoryModel::new(&model, &ft);
        DistributedPlan { model, ft, mem }
    }

    /// The model architecture this plan fine-tunes.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The fine-tuning recipe this plan uses.
    pub fn finetune(&self) -> &FineTuneConfig {
        &self.ft
    }

    /// The single-GPU memory model the partitions divide.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// A single-GPU simulator for one device spec.
    fn simulator(&self, gpu: &ftsim_gpu::GpuSpec) -> StepSimulator {
        StepSimulator::new(self.model.clone(), self.ft, CostModel::new(gpu.clone()))
    }

    /// Experts each token activates under the recipe's sparsity.
    fn active_experts(&self) -> usize {
        match self.ft.sparsity {
            Sparsity::Dense => self.model.moe.num_experts,
            Sparsity::TopK(k) => k.min(self.model.moe.num_experts),
        }
    }

    /// Gradient bytes all-reduced per step under data parallelism: the
    /// trainable parameters at fp32 (LoRA/QLoRA adapters) or bf16 (full
    /// fine-tuning).
    fn grad_gb(&self) -> f64 {
        let bytes = if self.ft.method.lora_rank().is_some() {
            4.0
        } else {
            2.0
        };
        self.ft.trainable_params(&self.model) as f64 * bytes / 1e9
    }

    /// The fp32 activation tensor crossing a layer boundary, in GB.
    fn activation_gb(&self, global_batch: usize, seq_len: usize) -> f64 {
        (global_batch * seq_len * self.model.hidden) as f64 * 4.0 / 1e9
    }

    /// Per-step communication time for `parallelism` over `topology`, in
    /// seconds — the analytic roofline alone, no simulation. Exactly `0.0`
    /// at world size 1; strictly increasing in world size and strictly
    /// decreasing in link bandwidth above it.
    pub fn comm_seconds(
        &self,
        topology: &Topology,
        parallelism: Parallelism,
        global_batch: usize,
        seq_len: usize,
    ) -> f64 {
        let n = topology.world_size() as f64;
        if topology.is_single() {
            return 0.0;
        }
        let link = topology.link();
        let lat = link.latency_us * 1e-6;
        let bw = link.bandwidth_gbps;
        let remote = (n - 1.0) / n;
        let layers = self.model.num_layers as f64;
        match parallelism {
            // One ring all-reduce of the gradients per step.
            Parallelism::Data => lat + 2.0 * remote * self.grad_gb() / bw,
            // One activation all-gather per layer, forward and backward.
            Parallelism::Tensor => {
                let act = self.activation_gb(global_batch, seq_len);
                2.0 * layers * (lat + remote * act / bw)
            }
            // Dispatch + combine all-to-alls per MoE layer, forward and
            // backward; each token's activation travels to its k experts.
            Parallelism::Expert => {
                let act = self.activation_gb(global_batch, seq_len) * self.active_experts() as f64;
                4.0 * layers * (lat + remote * act / bw)
            }
        }
    }

    /// Simulates one distributed step of `global_batch` queries.
    ///
    /// Compute comes from single-GPU simulators, one per distinct device
    /// spec (the slowest rank gates the step; a mixed fleet's mean idle
    /// time is the bubble), communication from
    /// [`DistributedPlan::comm_seconds`]. The 1-GPU topology short-circuits
    /// to the plain single-GPU step, bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `global_batch` or `seq_len` is zero (same contract as
    /// [`StepSimulator::simulate_step`]).
    pub fn simulate_step(
        &self,
        topology: &Topology,
        parallelism: Parallelism,
        global_batch: usize,
        seq_len: usize,
    ) -> DistributedStep {
        assert!(global_batch >= 1, "global batch must be at least 1");
        let n = topology.world_size();
        if n == 1 {
            // Degenerate placement: the single-GPU path, unchanged.
            let sim = self.simulator(&topology.devices()[0]);
            return DistributedStep {
                world_size: 1,
                parallelism,
                global_batch,
                per_device_batch: global_batch,
                seq_len,
                compute_seconds: sim.simulate_step(global_batch, seq_len).total_seconds(),
                comm_seconds: 0.0,
                bubble_seconds: 0.0,
            };
        }
        let per_device_batch = match parallelism {
            Parallelism::Data => global_batch.div_ceil(n),
            Parallelism::Tensor | Parallelism::Expert => global_batch,
        };
        // One compute time per *distinct* device spec; ranks sharing a
        // spec share its priced step.
        let mut per_spec: HashMap<&str, f64> = HashMap::new();
        for gpu in topology.devices() {
            if per_spec.contains_key(gpu.name.as_str()) {
                continue;
            }
            let sim = self.simulator(gpu);
            let seconds = match parallelism {
                Parallelism::Data => sim.simulate_step(per_device_batch, seq_len).total_seconds(),
                Parallelism::Tensor => {
                    // Every layer's weights shard 1/n; each rank performs
                    // 1/n of the step's arithmetic on the full batch.
                    sim.simulate_step(global_batch, seq_len).total_seconds() / n as f64
                }
                Parallelism::Expert => {
                    // Expert FFN work shards across ranks; the shared
                    // layers (mixer, norms, router, head) replicate.
                    let trace = sim.simulate_step(global_batch, seq_len);
                    let moe: f64 = trace
                        .records()
                        .filter(|r| r.section == Section::Moe)
                        .map(|r| r.cost.latency_s)
                        .sum();
                    (trace.total_seconds() - moe) + moe / n as f64
                }
            };
            per_spec.insert(gpu.name.as_str(), seconds);
        }
        let compute_seconds = per_spec.values().fold(0.0f64, |a, &b| a.max(b));
        // Pipeline bubble: synchronous collectives drain at the slowest
        // rank; faster ranks idle for (t_max - t_rank). Exactly zero on a
        // homogeneous fleet (one distinct spec), by construction.
        let bubble_seconds = if per_spec.len() <= 1 {
            0.0
        } else {
            let mean: f64 = topology
                .devices()
                .iter()
                .map(|gpu| per_spec[gpu.name.as_str()])
                .sum::<f64>()
                / n as f64;
            compute_seconds - mean
        };
        DistributedStep {
            world_size: n,
            parallelism,
            global_batch,
            per_device_batch,
            seq_len,
            compute_seconds,
            comm_seconds: self.comm_seconds(topology, parallelism, global_batch, seq_len),
            bubble_seconds,
        }
    }

    /// Splits the single-GPU footprint of `global_batch` queries across
    /// the fleet, LLMem-style. Per strategy:
    ///
    /// * **Data** — activations shard with the batch; weights, adapters,
    ///   gradients, and optimizer state replicate on every rank.
    /// * **Tensor** — weights, adapters, gradients, and optimizer state
    ///   shard `1/n`; activations and overhead replicate.
    /// * **Expert** — the expert slice of the static state (the experts'
    ///   share of the parameter count) shards; the rest replicates.
    pub fn partition(
        &self,
        topology: &Topology,
        parallelism: Parallelism,
        global_batch: usize,
        seq_len: usize,
    ) -> MemoryPartition {
        let bd = self.mem.breakdown(global_batch, seq_len);
        let state_gb = bd.adapters_gb + bd.gradients_gb + bd.optimizer_gb + bd.weights_gb;
        let (sharded_single_gb, replicated_single_gb) = match parallelism {
            Parallelism::Data => (bd.activations_gb, state_gb + bd.overhead_gb),
            Parallelism::Tensor => (state_gb, bd.activations_gb + bd.overhead_gb),
            Parallelism::Expert => {
                let counts = self.model.param_counts();
                let expert_frac = counts.experts as f64 / counts.total() as f64;
                (
                    expert_frac * state_gb,
                    (1.0 - expert_frac) * state_gb + bd.activations_gb + bd.overhead_gb,
                )
            }
        };
        let n = topology.world_size() as f64;
        let per_device = topology
            .devices()
            .iter()
            .map(|gpu| DevicePartition {
                device: gpu.name.to_string(),
                mem_gb: gpu.mem_gb,
                sharded_gb: sharded_single_gb / n,
                replicated_gb: replicated_single_gb,
            })
            .collect();
        MemoryPartition {
            parallelism,
            per_device,
            sharded_single_gb,
            replicated_single_gb,
        }
    }

    /// The largest global batch whose partition fits **every** rank — the
    /// paper's Eq. 1 generalized to N devices. At world size 1 this is
    /// exactly [`MemoryModel::max_batch_size_for_mem`] on the lone device.
    pub fn max_batch(
        &self,
        topology: &Topology,
        parallelism: Parallelism,
        seq_len: usize,
    ) -> usize {
        if topology.is_single() {
            // Degenerate placement: the paper's Eq. 1, unchanged.
            return self
                .mem
                .max_batch_size_for_mem(topology.devices()[0].mem_gb, seq_len);
        }
        let per_query = self.mem.activation_gb_per_query(seq_len);
        if per_query <= 0.0 {
            return 0;
        }
        let n = topology.world_size() as f64;
        let stat = self.partition(topology, parallelism, 0, 0);
        let static_per_device = stat.sharded_single_gb / n + stat.replicated_single_gb;
        // Activations shard with the batch under data parallelism and
        // replicate under tensor/expert (each rank sees the full batch).
        let per_query_per_device = match parallelism {
            Parallelism::Data => per_query / n,
            Parallelism::Tensor | Parallelism::Expert => per_query,
        };
        topology
            .devices()
            .iter()
            .map(|gpu| {
                let avail = (gpu.mem_gb - static_per_device).max(0.0);
                (avail / per_query_per_device).floor() as usize
            })
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Interconnect;
    use ftsim_gpu::GpuSpec;
    use ftsim_model::presets;
    use proptest::prelude::*;

    fn mixtral_plan() -> DistributedPlan {
        DistributedPlan::new(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse())
    }

    fn mamba_plan() -> DistributedPlan {
        DistributedPlan::new(presets::blackmamba_2p8b(), FineTuneConfig::full_sparse())
    }

    #[test]
    fn parallelism_round_trips_its_wire_names() {
        for p in Parallelism::all() {
            assert_eq!(Parallelism::parse(p.key()), Ok(p));
        }
        assert_eq!(Parallelism::parse("TP"), Ok(Parallelism::Tensor));
        assert!(Parallelism::parse("pipeline").is_err());
    }

    #[test]
    fn expert_alltoall_outweighs_tensor_allgather_per_token() {
        // Top-2 routing moves 2 activation copies through 4 collectives
        // per layer vs tensor's 1 copy through 2 — expert comm must cost
        // more at equal shape.
        let plan = mixtral_plan();
        let topo = Topology::homogeneous(GpuSpec::a40(), 4, Interconnect::pcie4());
        let tensor = plan.comm_seconds(&topo, Parallelism::Tensor, 8, 128);
        let expert = plan.comm_seconds(&topo, Parallelism::Expert, 8, 128);
        assert!(expert > tensor, "{expert} <= {tensor}");
    }

    #[test]
    fn data_parallel_splits_the_batch() {
        let plan = mamba_plan();
        let topo = Topology::homogeneous(GpuSpec::a100_80(), 4, Interconnect::nvlink3());
        let step = plan.simulate_step(&topo, Parallelism::Data, 8, 64);
        assert_eq!(step.per_device_batch, 2);
        let tp = plan.simulate_step(&topo, Parallelism::Tensor, 8, 64);
        assert_eq!(tp.per_device_batch, 8);
    }

    #[test]
    fn data_parallel_sync_tax_follows_the_trainable_set() {
        // Per-device batch fixed, so compute stays put as the fleet grows.
        let dp = |plan: &DistributedPlan, n: usize, link: Interconnect, batch: usize| {
            let topo = Topology::homogeneous(GpuSpec::a40(), n, link);
            plan.simulate_step(&topo, Parallelism::Data, n * batch, 128)
        };
        // QLoRA all-reduces ~0.9 GB of adapter gradients: negligible on NVLink.
        let qlora = mixtral_plan();
        for n in [2, 4, 8] {
            let eff = dp(&qlora, n, Interconnect::nvlink3(), 4).compute_fraction();
            assert!(eff > 0.99, "{n} GPUs: efficiency {eff:.3}");
        }
        // Full fine-tuning all-reduces ~5.6 GB of bf16 gradients: a real
        // tax on PCIe that NVLink mostly recovers.
        let full = mamba_plan();
        let pcie = dp(&full, 8, Interconnect::pcie4(), 8).compute_fraction();
        let nvlink = dp(&full, 8, Interconnect::nvlink3(), 8).compute_fraction();
        assert!(pcie < 0.60, "expected a heavy sync tax, got {pcie:.3}");
        assert!(nvlink > pcie + 0.2, "NVLink {nvlink:.3} vs PCIe {pcie:.3}");
        // Throughput still grows with the fleet despite the tax.
        let qps: Vec<f64> = [1, 2, 4, 8]
            .map(|n| dp(&full, n, Interconnect::pcie4(), 8).queries_per_second())
            .to_vec();
        assert!(qps.windows(2).all(|w| w[1] > w[0]), "{qps:?}");
    }

    #[test]
    fn heterogeneous_fleet_has_a_bubble_and_the_straggler_gates() {
        let plan = mixtral_plan();
        let mixed = Topology::mixed(
            vec![GpuSpec::h100_80(), GpuSpec::h100_80(), GpuSpec::a40()],
            Interconnect::ethernet100g(),
        );
        let step = plan.simulate_step(&mixed, Parallelism::Data, 6, 64);
        assert!(step.bubble_seconds > 0.0, "mixed fleet must idle");
        let a40_only = Topology::homogeneous(GpuSpec::a40(), 3, Interconnect::ethernet100g());
        let homo = plan.simulate_step(&a40_only, Parallelism::Data, 6, 64);
        assert_eq!(homo.bubble_seconds, 0.0, "homogeneous fleet never idles");
        assert_eq!(
            step.compute_seconds, homo.compute_seconds,
            "the A40 is the straggler in both fleets"
        );
    }

    #[test]
    fn tensor_parallelism_raises_max_batch_by_freeing_static_state() {
        let plan = mixtral_plan();
        let single = plan.max_batch(&Topology::single(GpuSpec::a40()), Parallelism::Tensor, 79);
        let topo = Topology::homogeneous(GpuSpec::a40(), 8, Interconnect::pcie4());
        let sharded = plan.max_batch(&topo, Parallelism::Tensor, 79);
        assert!(
            sharded > single,
            "sharding 23GB of NF4 weights must free activation room: {sharded} <= {single}"
        );
    }

    #[test]
    fn partition_fits_iff_every_rank_fits() {
        let plan = mamba_plan();
        let topo = Topology::homogeneous(GpuSpec::a40(), 2, Interconnect::pcie4());
        let max = plan.max_batch(&topo, Parallelism::Data, 128);
        assert!(max >= 1);
        assert!(plan.partition(&topo, Parallelism::Data, max, 128).fits());
        assert!(!plan
            .partition(&topo, Parallelism::Data, 10 * (max + 1), 128)
            .fits());
    }

    proptest! {
        /// Satellite (a): the degenerate 1-GPU placement is bit-identical
        /// to the existing single-GPU path, for every strategy.
        #[test]
        fn prop_single_gpu_placement_is_bit_identical(
            batch in 1usize..6,
            seq in 16usize..96,
            pi in 0usize..3,
        ) {
            let plan = mixtral_plan();
            let gpu = GpuSpec::a40();
            let reference = StepSimulator::new(
                presets::mixtral_8x7b(),
                FineTuneConfig::qlora_sparse(),
                CostModel::new(gpu.clone()),
            );
            let step = plan.simulate_step(
                &Topology::single(gpu.clone()),
                Parallelism::all()[pi],
                batch,
                seq,
            );
            let expected = reference.simulate_step(batch, seq).total_seconds();
            prop_assert_eq!(step.total_seconds().to_bits(), expected.to_bits());
            prop_assert_eq!(step.comm_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(step.bubble_seconds.to_bits(), 0.0f64.to_bits());
            // Eq. 1 generalization degenerates the same way.
            let mem = MemoryModel::new(&presets::mixtral_8x7b(), &FineTuneConfig::qlora_sparse());
            prop_assert_eq!(
                plan.max_batch(&Topology::single(gpu.clone()), Parallelism::all()[pi], seq),
                mem.max_batch_size_for_mem(gpu.mem_gb, seq)
            );
        }

        /// Satellite (b), half 1: communication time is monotone
        /// non-decreasing in world size, for every strategy.
        #[test]
        fn prop_comm_monotone_in_world_size(
            n1 in 1usize..16,
            n2 in 1usize..16,
            batch in 1usize..8,
            seq in 16usize..256,
            pi in 0usize..3,
        ) {
            let plan = mixtral_plan();
            let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
            let par = Parallelism::all()[pi];
            let link = Interconnect::pcie4();
            let c_lo = plan.comm_seconds(
                &Topology::homogeneous(GpuSpec::a40(), lo, link), par, batch, seq);
            let c_hi = plan.comm_seconds(
                &Topology::homogeneous(GpuSpec::a40(), hi, link), par, batch, seq);
            prop_assert!(c_lo <= c_hi + 1e-15, "comm({lo})={c_lo} > comm({hi})={c_hi}");
            // At a fixed per-device batch, data-parallel efficiency falls as
            // the fleet grows.
            if par == Parallelism::Data {
                let eff = |n: usize| {
                    let topo = Topology::homogeneous(GpuSpec::a40(), n, link);
                    plan.simulate_step(&topo, par, n * batch, seq).compute_fraction()
                };
                let (e_lo, e_hi) = (eff(lo), eff(hi));
                prop_assert!(e_hi <= e_lo, "efficiency({hi})={e_hi} > efficiency({lo})={e_lo}");
                prop_assert!(e_hi > 0.0 && e_lo <= 1.0);
            }
        }

        /// Satellite (b), half 2: communication time is inversely monotone
        /// in link bandwidth (faster link, never slower step).
        #[test]
        fn prop_comm_inverse_monotone_in_bandwidth(
            n in 2usize..16,
            batch in 1usize..8,
            seq in 16usize..256,
            pi in 0usize..3,
            bw1 in 5.0f64..900.0,
            bw2 in 5.0f64..900.0,
        ) {
            let plan = mamba_plan();
            let par = Parallelism::all()[pi];
            let (slow, fast) = if bw1 <= bw2 { (bw1, bw2) } else { (bw2, bw1) };
            let link_at = |bw| Interconnect { name: "custom", bandwidth_gbps: bw, latency_us: 20.0 };
            let c_slow = plan.comm_seconds(
                &Topology::homogeneous(GpuSpec::a40(), n, link_at(slow)), par, batch, seq);
            let c_fast = plan.comm_seconds(
                &Topology::homogeneous(GpuSpec::a40(), n, link_at(fast)), par, batch, seq);
            prop_assert!(c_fast <= c_slow + 1e-15, "bw {fast} cost {c_fast} > bw {slow} cost {c_slow}");
        }

        /// Satellite (c): per-device partitions sum back to the
        /// single-device footprint within rounding — sharded components
        /// across ranks plus one replica's share of the replicated ones.
        #[test]
        fn prop_partitions_sum_to_the_single_device_total(
            n in 1usize..16,
            batch in 1usize..12,
            seq in 16usize..256,
            pi in 0usize..3,
            which_model in 0usize..2,
        ) {
            let plan = if which_model == 0 { mixtral_plan() } else { mamba_plan() };
            let par = Parallelism::all()[pi];
            let topo = Topology::homogeneous(GpuSpec::a100_80(), n, Interconnect::nvlink3());
            let part = plan.partition(&topo, par, batch, seq);
            let single = plan.memory().breakdown(batch, seq).total_gb();

            // The split itself covers the whole single-GPU footprint.
            let covered = part.sharded_single_gb + part.replicated_single_gb;
            prop_assert!((covered - single).abs() <= 1e-9 * single.max(1.0),
                "split covers {covered} of {single}");

            // The shards reassemble: sum of per-rank sharded slices equals
            // the sharded portion, and every rank replicates the rest.
            let shard_sum: f64 = part.per_device.iter().map(|d| d.sharded_gb).sum();
            prop_assert!((shard_sum - part.sharded_single_gb).abs()
                <= 1e-9 * part.sharded_single_gb.max(1.0));
            for d in &part.per_device {
                prop_assert_eq!(d.replicated_gb.to_bits(), part.replicated_single_gb.to_bits());
            }
        }
    }
}
