//! GPU device specifications and the catalog of devices used in the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Static hardware parameters of a GPU.
///
/// Peak compute refers to dense bf16/fp16 tensor-core throughput, the number
/// that bounds GEMM-heavy fine-tuning workloads. Values are the public
/// datasheet numbers for each device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A40"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Peak dense bf16 tensor throughput in TFLOP/s.
    pub peak_tflops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// DRAM capacity in GB (decimal, as marketed).
    pub mem_gb: f64,
    /// Fixed per-kernel launch overhead in microseconds (driver + scheduling).
    pub kernel_launch_overhead_us: f64,
}

impl GpuSpec {
    /// NVIDIA A40 48 GB (Ampere) — the paper's primary characterization GPU.
    pub fn a40() -> Self {
        GpuSpec {
            name: "A40".into(),
            sm_count: 84,
            peak_tflops: 149.7,
            mem_bandwidth_gbps: 696.0,
            mem_gb: 48.0,
            kernel_launch_overhead_us: 8.0,
        }
    }

    /// NVIDIA A100 40 GB (SXM).
    pub fn a100_40() -> Self {
        GpuSpec {
            name: "A100-40GB".into(),
            sm_count: 108,
            peak_tflops: 312.0,
            mem_bandwidth_gbps: 1555.0,
            mem_gb: 40.0,
            kernel_launch_overhead_us: 8.0,
        }
    }

    /// NVIDIA A100 80 GB (SXM).
    pub fn a100_80() -> Self {
        GpuSpec {
            name: "A100-80GB".into(),
            sm_count: 108,
            peak_tflops: 312.0,
            mem_bandwidth_gbps: 2039.0,
            mem_gb: 80.0,
            kernel_launch_overhead_us: 8.0,
        }
    }

    /// NVIDIA H100 80 GB (SXM).
    pub fn h100_80() -> Self {
        GpuSpec {
            name: "H100-80GB".into(),
            sm_count: 132,
            peak_tflops: 989.0,
            mem_bandwidth_gbps: 3350.0,
            mem_gb: 80.0,
            kernel_launch_overhead_us: 6.0,
        }
    }

    /// The four devices evaluated in the paper, in its order.
    pub fn catalog() -> Vec<GpuSpec> {
        vec![
            GpuSpec::a40(),
            GpuSpec::a100_40(),
            GpuSpec::a100_80(),
            GpuSpec::h100_80(),
        ]
    }

    /// Case-insensitive catalog lookup by marketing name. Accepts the short
    /// aliases used in scenario specs (`"a100-40"` for `"A100-40GB"`, etc.),
    /// so declarative query specs canonicalize to one device per spelling.
    pub fn by_name(name: &str) -> Option<GpuSpec> {
        // Built once: a lookup runs on every planner request.
        static CATALOG: OnceLock<Vec<GpuSpec>> = OnceLock::new();
        let wanted = name.trim();
        CATALOG
            .get_or_init(Self::catalog)
            .iter()
            .find(|gpu| {
                let full = gpu.name.as_str();
                full.eq_ignore_ascii_case(wanted)
                    || full
                        .strip_suffix("GB")
                        .is_some_and(|short| short.eq_ignore_ascii_case(wanted))
            })
            .cloned()
    }

    /// A hypothetical future device: this device's compute with `mem_gb`
    /// of memory. Used for the paper's Fig. 13 projection to 100 GB / 120 GB
    /// GPUs.
    pub fn with_memory(&self, mem_gb: f64) -> GpuSpec {
        GpuSpec {
            name: format!("{}@{mem_gb:.0}GB", self.name),
            mem_gb,
            ..self.clone()
        }
    }

    /// Machine balance: FLOPs per byte at peak (roofline ridge point).
    pub fn ridge_flops_per_byte(&self) -> f64 {
        (self.peak_tflops * 1e12) / (self.mem_bandwidth_gbps * 1e9)
    }

    /// DRAM capacity in bytes (decimal GB).
    pub fn mem_bytes(&self) -> f64 {
        self.mem_gb * 1e9
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0} TFLOP/s bf16, {:.0} GB/s, {:.0} GB)",
            self.name, self.sm_count, self.peak_tflops, self.mem_bandwidth_gbps, self.mem_gb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_devices() {
        let names: Vec<String> = GpuSpec::catalog().into_iter().map(|g| g.name).collect();
        assert_eq!(names, ["A40", "A100-40GB", "A100-80GB", "H100-80GB"]);
        // Lookup is case-insensitive and accepts the GB-less alias.
        assert_eq!(GpuSpec::by_name("a40").unwrap().name, "A40");
        assert_eq!(GpuSpec::by_name("A100-40").unwrap().name, "A100-40GB");
        assert_eq!(GpuSpec::by_name("h100-80gb").unwrap().name, "H100-80GB");
        assert!(GpuSpec::by_name("tpu-v5").is_none());
    }

    #[test]
    fn a40_is_the_48gb_ampere_card() {
        let g = GpuSpec::a40();
        assert_eq!(g.mem_gb, 48.0);
        assert_eq!(g.sm_count, 84);
    }

    #[test]
    fn h100_outclasses_a100_in_both_dimensions() {
        let (h, a) = (GpuSpec::h100_80(), GpuSpec::a100_80());
        assert!(h.peak_tflops > a.peak_tflops);
        assert!(h.mem_bandwidth_gbps > a.mem_bandwidth_gbps);
    }

    #[test]
    fn with_memory_projects_capacity_only() {
        let base = GpuSpec::a40();
        let big = base.with_memory(120.0);
        assert_eq!(big.mem_gb, 120.0);
        assert_eq!(big.peak_tflops, base.peak_tflops);
        assert!(big.name.contains("120"));
    }

    #[test]
    fn ridge_point_is_flops_per_byte() {
        let g = GpuSpec::a40();
        let ridge = g.ridge_flops_per_byte();
        assert!((ridge - 149.7e12 / 696e9).abs() < 1e-6);
        // Modern GPUs are strongly compute-dense: ridge >> 1.
        assert!(ridge > 100.0);
    }

    #[test]
    fn mem_bytes_uses_decimal_gb() {
        assert_eq!(GpuSpec::a40().mem_bytes(), 48.0e9);
    }
}
