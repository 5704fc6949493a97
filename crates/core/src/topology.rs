//! Device-fleet topologies for the distributed step simulator.
//!
//! A [`Topology`] is the placement half of a distributed scenario: which
//! GPUs participate (a homogeneous fleet or a mixed A40/A100/H100 one,
//! drawn from the `ftsim-gpu` catalog) and what link connects them (an
//! [`Interconnect`] tier — NVLink, PCIe, or Ethernet — each a bandwidth +
//! latency pair). The compute half lives in [`crate::distributed`], which
//! composes a topology with the single-GPU [`StepSimulator`] and an
//! analytic communication roofline.
//!
//! [`StepSimulator`]: ftsim_sim::StepSimulator

use ftsim_gpu::GpuSpec;
use serde::{Deserialize, Serialize};

/// Interconnect between replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Human-readable name.
    pub name: &'static str,
    /// Per-GPU bus bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Per-step collective launch latency in microseconds.
    pub latency_us: f64,
}

impl Interconnect {
    /// NVLink 3 (A100-class): 600 GB/s aggregate.
    pub fn nvlink3() -> Self {
        Interconnect {
            name: "NVLink3",
            bandwidth_gbps: 600.0,
            latency_us: 20.0,
        }
    }

    /// PCIe 4.0 x16: ~32 GB/s — the realistic budget option for A40 boxes.
    pub fn pcie4() -> Self {
        Interconnect {
            name: "PCIe4x16",
            bandwidth_gbps: 32.0,
            latency_us: 50.0,
        }
    }

    /// 100 GbE (~12.5 GB/s, RDMA-class latency): the cross-node tier for
    /// commodity clusters — what heterogeneous non-premium MoE fleets
    /// actually train over.
    pub fn ethernet100g() -> Self {
        Interconnect {
            name: "Ethernet100G",
            bandwidth_gbps: 12.5,
            latency_us: 150.0,
        }
    }

    /// Every built-in link tier, fastest first.
    pub fn catalog() -> Vec<Interconnect> {
        vec![
            Interconnect::nvlink3(),
            Interconnect::pcie4(),
            Interconnect::ethernet100g(),
        ]
    }

    /// Looks a tier up by name, case-insensitively, accepting the common
    /// short spellings (`"nvlink"`, `"pcie"`, `"ethernet"`/`"100gbe"`).
    pub fn by_name(name: &str) -> Option<Interconnect> {
        match name.trim().to_ascii_lowercase().as_str() {
            "nvlink" | "nvlink3" => Some(Interconnect::nvlink3()),
            "pcie" | "pcie4" | "pcie4x16" => Some(Interconnect::pcie4()),
            "ethernet" | "ethernet100g" | "100gbe" | "eth" => Some(Interconnect::ethernet100g()),
            _ => None,
        }
    }
}

/// A fleet of GPUs joined by one interconnect tier.
///
/// The device list is ordered (device 0, device 1, …) but the cost model is
/// placement-symmetric: only the multiset of device specs and the link
/// matter. A single-device topology is the degenerate case every
/// distributed estimate must collapse to — see
/// [`DistributedPlan`](crate::distributed::DistributedPlan).
///
/// ```
/// use ftsim_cost::Topology;
/// use ftsim_gpu::GpuSpec;
///
/// // Four A40s on PCIe — the budget box the paper prices per-GPU.
/// let topo = Topology::homogeneous(GpuSpec::a40(), 4, ftsim_cost::Interconnect::pcie4());
/// assert_eq!(topo.world_size(), 4);
/// assert_eq!(topo.min_mem_gb(), 48.0);
/// assert!(!topo.is_single());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Participating devices, one entry per rank.
    devices: Vec<GpuSpec>,
    /// The link every collective crosses.
    link: Interconnect,
}

impl Topology {
    /// A fleet of `world_size` identical `gpu` devices joined by `link`.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero.
    pub fn homogeneous(gpu: GpuSpec, world_size: usize, link: Interconnect) -> Self {
        assert!(world_size >= 1, "world size must be at least 1");
        Topology {
            devices: vec![gpu; world_size],
            link,
        }
    }

    /// A mixed fleet — e.g. A40s and H100s side by side, as in
    /// heterogeneous-cluster MoE training ("Every FLOP Counts").
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn mixed(devices: Vec<GpuSpec>, link: Interconnect) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        Topology { devices, link }
    }

    /// A one-device topology: the degenerate case with no communication.
    /// The link is irrelevant (no collective ever crosses it) but kept so
    /// the type stays uniform; PCIe is recorded as a placeholder.
    pub fn single(gpu: GpuSpec) -> Self {
        Topology::homogeneous(gpu, 1, Interconnect::pcie4())
    }

    /// Number of participating devices.
    pub fn world_size(&self) -> usize {
        self.devices.len()
    }

    /// `true` iff exactly one device participates.
    pub fn is_single(&self) -> bool {
        self.devices.len() == 1
    }

    /// The participating devices, one per rank.
    pub fn devices(&self) -> &[GpuSpec] {
        &self.devices
    }

    /// The interconnect every collective crosses.
    pub fn link(&self) -> Interconnect {
        self.link
    }

    /// Memory of the smallest device — the per-rank capacity bound for any
    /// placement that gives every rank the same shard sizes.
    pub fn min_mem_gb(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.mem_gb)
            .fold(f64::INFINITY, f64::min)
    }

    /// The realistic default link for a device class: PCIe for the A40
    /// (no NVLink bridge in the paper's testbed), NVLink for the
    /// datacenter A100/H100 parts. Matches the planner service's choice.
    pub fn default_link_for(gpu: &GpuSpec) -> Interconnect {
        if gpu.name == "A40" {
            Interconnect::pcie4()
        } else {
            Interconnect::nvlink3()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_replicates_the_device() {
        let topo = Topology::homogeneous(GpuSpec::a100_80(), 8, Interconnect::nvlink3());
        assert_eq!(topo.world_size(), 8);
        assert!(topo.devices().iter().all(|d| d.name == "A100-80GB"));
        assert_eq!(topo.min_mem_gb(), 80.0);
    }

    #[test]
    fn mixed_fleet_capacity_is_bounded_by_the_smallest_device() {
        let topo = Topology::mixed(
            vec![GpuSpec::h100_80(), GpuSpec::a40(), GpuSpec::a100_80()],
            Interconnect::ethernet100g(),
        );
        assert_eq!(topo.world_size(), 3);
        assert_eq!(topo.min_mem_gb(), 48.0, "A40 bounds the fleet");
    }

    #[test]
    fn single_is_degenerate() {
        let topo = Topology::single(GpuSpec::a40());
        assert!(topo.is_single());
        assert_eq!(topo.world_size(), 1);
    }

    #[test]
    fn default_link_matches_the_device_class() {
        assert_eq!(Topology::default_link_for(&GpuSpec::a40()).name, "PCIe4x16");
        assert_eq!(
            Topology::default_link_for(&GpuSpec::h100_80()).name,
            "NVLink3"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_world_size_panics() {
        Topology::homogeneous(GpuSpec::a40(), 0, Interconnect::pcie4());
    }
}
