//! Fine-tuning cost estimation (paper §V-C, Table IV).
//!
//! `cost = epochs × queries / throughput(max batch) × $/hour`, evaluated
//! per GPU, then ranked to find the most cost-efficient device.

use crate::throughput_model::ThroughputModel;
use ftsim_gpu::{GpuSpec, PriceTable};
use ftsim_model::MemoryModel;
use ftsim_workload::DatasetSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fine-tuning job to be priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FineTuneJob {
    /// Queries in the fine-tuning dataset.
    pub queries: usize,
    /// Training epochs (the paper budgets 10).
    pub epochs: usize,
}

impl FineTuneJob {
    /// A 10-epoch job over `dataset` (the paper's setup).
    pub fn ten_epochs(dataset: &DatasetSpec) -> Self {
        FineTuneJob {
            queries: dataset.num_queries,
            epochs: 10,
        }
    }

    /// Total queries processed over all epochs.
    pub fn total_queries(&self) -> f64 {
        self.queries as f64 * self.epochs as f64
    }
}

/// The cost estimate for one GPU — one row of the paper's Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// GPU name.
    pub gpu: String,
    /// Device memory in GB.
    pub mem_gb: f64,
    /// Maximum batch size used (Table IV "MBS").
    pub max_batch: usize,
    /// Estimated throughput at that batch in queries/second.
    pub throughput_qps: f64,
    /// Rental rate in USD/hour.
    pub usd_per_hour: f64,
    /// Wall-clock hours for the job.
    pub hours: f64,
    /// Total cost in USD.
    pub usd: f64,
}

impl fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>4.0}GB  MBS={:<3} {:>6.2} q/s  ${:<5.2}/hr  {:>8.1} hr  ${:.1}",
            self.gpu,
            self.mem_gb,
            self.max_batch,
            self.throughput_qps,
            self.usd_per_hour,
            self.hours,
            self.usd
        )
    }
}

/// A ranked cost comparison across GPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostTable {
    /// Per-GPU estimates, cheapest first.
    pub rows: Vec<CostEstimate>,
}

impl CostTable {
    /// Prices `job` on each GPU.
    ///
    /// For each device: the memory model gives the maximum batch size, the
    /// fitted Eq. 2 model (for that device) gives throughput at that batch,
    /// and the price table supplies the hourly rate. GPUs that cannot fit a
    /// single query or have no listed price are skipped.
    pub fn build(
        gpus_with_models: &[(GpuSpec, ThroughputModel)],
        memory: &MemoryModel,
        sparsity: f64,
        seq_len: usize,
        job: FineTuneJob,
        prices: &PriceTable,
    ) -> Self {
        let mut rows: Vec<CostEstimate> = gpus_with_models
            .iter()
            .filter_map(|(gpu, tput)| {
                let max_batch = memory.max_batch_size(gpu, seq_len);
                if max_batch == 0 {
                    return None;
                }
                let usd_per_hour = prices.usd_per_hour(&gpu.name)?;
                let qps = tput.predict(max_batch as f64, sparsity);
                let hours = job.total_queries() / qps / 3600.0;
                Some(CostEstimate {
                    gpu: gpu.name.clone(),
                    mem_gb: gpu.mem_gb,
                    max_batch,
                    throughput_qps: qps,
                    usd_per_hour,
                    hours,
                    usd: hours * usd_per_hour,
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            a.usd
                .partial_cmp(&b.usd)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        CostTable { rows }
    }

    /// The most cost-efficient estimate, if any GPU qualified.
    pub fn cheapest(&self) -> Option<&CostEstimate> {
        self.rows.first()
    }

    /// Scales every row's cost to a different dataset size (the paper's
    /// OpenOrca projection "by scaling the cost by number of queries").
    pub fn scaled_to_queries(&self, from: FineTuneJob, to: FineTuneJob) -> CostTable {
        let factor = to.total_queries() / from.total_queries();
        CostTable {
            rows: self
                .rows
                .iter()
                .map(|r| CostEstimate {
                    hours: r.hours * factor,
                    usd: r.usd * factor,
                    ..r.clone()
                })
                .collect(),
        }
    }
}

impl fmt::Display for CostTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_gpu::CloudProvider;
    use ftsim_model::{presets, FineTuneConfig};
    use ftsim_workload::presets as data;

    fn table() -> CostTable {
        // Throughput models shaped like the paper's Table IV column: A40
        // ~1 qps, A100-80 ~2.7, H100 ~4.9 at their max batches.
        let combos = vec![
            (GpuSpec::a40(), ThroughputModel { c2: 0.35, c4: 0.05 }),
            (GpuSpec::a100_80(), ThroughputModel { c2: 0.70, c4: 0.30 }),
            (GpuSpec::h100_80(), ThroughputModel { c2: 1.30, c4: 0.50 }),
        ];
        let mem = MemoryModel::new(&presets::mixtral_8x7b(), &FineTuneConfig::qlora_sparse());
        CostTable::build(
            &combos,
            &mem,
            0.25,
            data::gsm8k().median_seq_len,
            FineTuneJob::ten_epochs(&data::math_14k()),
            &PriceTable::for_provider(CloudProvider::Cudo),
        )
    }

    #[test]
    fn h100_is_most_cost_effective() {
        // The paper's Table IV conclusion: despite the highest hourly rate,
        // the H100 is the cheapest overall.
        let t = table();
        assert_eq!(t.cheapest().unwrap().gpu, "H100-80GB");
        // And the A40 — the cheapest per hour — is the most expensive total.
        assert_eq!(t.rows.last().unwrap().gpu, "A40");
    }

    #[test]
    fn a40_batch_matches_table_iv() {
        let t = table();
        let a40 = t.rows.iter().find(|r| r.gpu == "A40").unwrap();
        assert_eq!(a40.max_batch, 4); // Table IV MBS column
    }

    #[test]
    fn costs_are_tens_of_dollars() {
        // Table IV: $17.9–$32.7 for 10 epochs of MATH-scale fine-tuning.
        for row in &table().rows {
            assert!(
                (5.0..120.0).contains(&row.usd),
                "{}: ${:.1}",
                row.gpu,
                row.usd
            );
        }
    }

    #[test]
    fn openorca_scaling() {
        // §V-C: scaling to 2M queries lands in the thousands of dollars.
        let t = table();
        let small = FineTuneJob::ten_epochs(&data::math_14k());
        let big = FineTuneJob::ten_epochs(&data::openorca());
        let scaled = t.scaled_to_queries(small, big);
        let cheapest = scaled.cheapest().unwrap();
        assert_eq!(cheapest.gpu, "H100-80GB");
        assert!(
            (1000.0..12_000.0).contains(&cheapest.usd),
            "OpenOrca cost ${:.0}",
            cheapest.usd
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let s = table().to_string();
        assert!(s.contains("A40") && s.contains("H100"));
        assert!(s.contains("MBS="));
    }

    #[test]
    fn unpriced_gpus_are_skipped() {
        let combos = vec![(GpuSpec::a40(), ThroughputModel { c2: 0.5, c4: 0.2 })];
        let mem = MemoryModel::new(&presets::mixtral_8x7b(), &FineTuneConfig::qlora_sparse());
        let t = CostTable::build(
            &combos,
            &mem,
            0.25,
            148,
            FineTuneJob {
                queries: 1000,
                epochs: 1,
            },
            &PriceTable::custom(), // empty price book
        );
        assert!(t.rows.is_empty());
        assert!(t.cheapest().is_none());
    }
}
