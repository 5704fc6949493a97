//! Fine-tuning throughput sweeps (paper Fig. 8 and the ground truth behind
//! the Eq. 2 throughput model of Figs. 14–15).

use crate::engine;
use crate::error::{validate_batches, SimError, SimErrorKind};
use crate::step::StepSimulator;
use serde::{Deserialize, Serialize};

/// Throughput at one batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Batch size.
    pub batch: usize,
    /// Wall-clock seconds per training step.
    pub step_seconds: f64,
    /// Queries processed per second (`batch / step_seconds`) — the paper's
    /// throughput metric.
    pub queries_per_second: f64,
    /// Time-weighted SM utilization of the MoE section.
    pub moe_sm_util: f64,
    /// Time-weighted DRAM utilization of the MoE section.
    pub moe_dram_util: f64,
}

/// A throughput-vs-batch-size curve for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSweep {
    /// Configuration label (e.g. `"Mixtral-S/CS"`).
    pub label: String,
    /// Sequence length used.
    pub seq_len: usize,
    /// Sparsity ratio (`active experts / total experts`).
    pub sparsity_ratio: f64,
    /// Measured points, in ascending batch order.
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputSweep {
    /// Runs the simulator at every batch size in `batches`, fanning the
    /// points across the [`engine`]'s worker threads. Points come back in
    /// input order, so results are identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `batches` is empty, contains zero, or is not
    /// strictly ascending.
    pub fn run(
        sim: &StepSimulator,
        label: impl Into<String>,
        seq_len: usize,
        batches: &[usize],
    ) -> Result<Self, SimError> {
        Self::run_with_threads(sim, label, seq_len, batches, engine::thread_count())
    }

    /// [`ThroughputSweep::run`] with an explicit worker count (`1` forces
    /// the serial path; used by the determinism tests).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid batch list, with the sweep's
    /// label, GPU spec name, sequence length, and (where one exists) the
    /// offending batch size attached as context.
    pub fn run_with_threads(
        sim: &StepSimulator,
        label: impl Into<String>,
        seq_len: usize,
        batches: &[usize],
        threads: usize,
    ) -> Result<Self, SimError> {
        let label = label.into();
        if let Err(kind) = validate_batches(batches) {
            let mut err = SimError::new(kind)
                .with_label(label)
                .with_gpu(sim.cost_model().spec().name.clone())
                .with_seq_len(seq_len);
            err.context.batch = match kind {
                SimErrorKind::ZeroBatch => Some(0),
                SimErrorKind::UnsortedBatches { next, .. } => Some(next),
                _ => None,
            };
            return Err(err);
        }
        let _sweep = ftsim_obs::span_lazy("sim.sweep", || format!("throughput:{label}"));
        let points = engine::parallel_map_with(threads, batches, |&batch| {
            let _point = ftsim_obs::span_lazy("sim.sweep", || format!("batch:{batch}"));
            let trace = sim.simulate_step(batch, seq_len);
            let secs = trace.total_seconds();
            let util = trace.moe_overall_utilization();
            ThroughputPoint {
                batch,
                step_seconds: secs,
                queries_per_second: batch as f64 / secs,
                moe_sm_util: util.sm_util,
                moe_dram_util: util.dram_util,
            }
        });
        Ok(ThroughputSweep {
            label,
            seq_len,
            sparsity_ratio: sim.finetune().sparsity.ratio(sim.model().moe.num_experts),
            points,
        })
    }

    /// Throughput at the largest batch size.
    pub fn peak_qps(&self) -> f64 {
        self.points
            .last()
            .map(|p| p.queries_per_second)
            .unwrap_or(0.0)
    }

    /// Throughput at batch size 1 (if measured).
    pub fn qps_at(&self, batch: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.batch == batch)
            .map(|p| p.queries_per_second)
    }

    /// `(batch, qps)` pairs for fitting the Eq. 2 throughput model.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.batch as f64, p.queries_per_second))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_gpu::{CostModel, GpuSpec};
    use ftsim_model::{presets, FineTuneConfig};

    fn sweep(ft: FineTuneConfig, batches: &[usize]) -> ThroughputSweep {
        let sim = StepSimulator::new(presets::mixtral_8x7b(), ft, CostModel::new(GpuSpec::a40()));
        ThroughputSweep::run(&sim, "test", 79, batches).expect("valid batches")
    }

    #[test]
    fn qps_grows_with_batch_but_saturates() {
        // Paper Fig. 8: throughput rises with batch size, sub-linearly.
        let s = sweep(FineTuneConfig::qlora_sparse(), &[1, 2, 4, 8]);
        let q: Vec<f64> = s.points.iter().map(|p| p.queries_per_second).collect();
        assert!(q.windows(2).all(|w| w[1] > w[0]), "{q:?}");
        let gain_1_2 = q[1] / q[0];
        let gain_4_8 = q[3] / q[2];
        assert!(
            gain_4_8 < gain_1_2,
            "marginal gain should shrink: {gain_1_2:.2} vs {gain_4_8:.2}"
        );
        // Paper: batch 1→2 gives ~1.9×; ours should be near-linear too.
        assert!((1.5..2.0).contains(&gain_1_2), "1→2 gain {gain_1_2:.2}");
    }

    #[test]
    fn sparse_beats_dense_at_equal_batch() {
        // Paper: dense 0.5 qps vs sparse 0.7 qps at batch 2 (Mixtral-CS).
        let sparse = sweep(FineTuneConfig::qlora_sparse(), &[2]);
        let dense = sweep(FineTuneConfig::qlora_dense(), &[2]);
        assert!(sparse.peak_qps() > dense.peak_qps());
    }

    #[test]
    fn sparse_peak_throughput_wins_via_bigger_batch() {
        // Paper Takeaway 4: the sparse model's larger max batch size gives
        // it the higher end-to-end throughput.
        let sparse = sweep(FineTuneConfig::qlora_sparse(), &[1, 2, 4, 8]); // max bs 8
        let dense = sweep(FineTuneConfig::qlora_dense(), &[1, 2]); // max bs 2
        assert!(sparse.peak_qps() > 1.5 * dense.peak_qps());
    }

    #[test]
    fn absolute_a40_throughput_in_paper_ballpark() {
        // Paper Fig. 8, Mixtral-CS sparse: ~0.37 qps at batch 1 and
        // ~1.8 qps at batch 8. The simulator should land within ~2× of
        // those absolute numbers (shape matters more than magnitude).
        let s = sweep(FineTuneConfig::qlora_sparse(), &[1, 8]);
        let q1 = s.qps_at(1).unwrap();
        let q8 = s.qps_at(8).unwrap();
        assert!((0.18..0.80).contains(&q1), "qps@1 = {q1:.3}");
        assert!((0.9..3.8).contains(&q8), "qps@8 = {q8:.3}");
    }

    #[test]
    fn sm_util_rises_and_dram_util_falls() {
        let s = sweep(FineTuneConfig::qlora_sparse(), &[1, 8]);
        assert!(s.points[1].moe_sm_util > s.points[0].moe_sm_util);
        assert!(s.points[1].moe_dram_util < s.points[0].moe_dram_util);
    }

    #[test]
    fn samples_expose_fit_inputs() {
        let s = sweep(FineTuneConfig::qlora_sparse(), &[1, 2]);
        let pts = s.samples();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, 1.0);
        assert!(pts[1].1 > 0.0);
    }

    #[test]
    fn invalid_batch_lists_are_errors_not_panics() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let err = ThroughputSweep::run(&sim, "t", 79, &[4, 2]).unwrap_err();
        assert_eq!(err.kind, SimErrorKind::UnsortedBatches { prev: 4, next: 2 });
        assert_eq!(err.context.batch, Some(2));
        assert_eq!(
            ThroughputSweep::run(&sim, "t", 79, &[]).unwrap_err().kind,
            SimErrorKind::EmptyBatches
        );
        assert_eq!(
            ThroughputSweep::run(&sim, "t", 79, &[0, 1])
                .unwrap_err()
                .kind,
            SimErrorKind::ZeroBatch
        );
    }

    #[test]
    fn sweep_errors_carry_gpu_and_shape_context() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let err = ThroughputSweep::run(&sim, "Mixtral-S/CS", 79, &[0]).unwrap_err();
        assert_eq!(err.context.label.as_deref(), Some("Mixtral-S/CS"));
        assert_eq!(
            err.context.gpu.as_deref(),
            Some(sim.cost_model().spec().name.as_str())
        );
        assert_eq!(err.context.seq_len, Some(79));
        assert_eq!(err.context.batch, Some(0));
        let msg = err.to_string();
        assert!(msg.contains("Mixtral-S/CS"), "{msg}");
        assert!(msg.contains("seq_len 79"), "{msg}");
    }

    #[test]
    fn parallel_sweep_emits_ordered_spans_from_worker_threads() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let batches: Vec<usize> = (1..=16).collect();
        ftsim_obs::enable();
        ThroughputSweep::run_with_threads(&sim, "span-test", 64, &batches, 4).expect("valid");
        ftsim_obs::disable();
        let events: Vec<ftsim_obs::Event> = ftsim_obs::drain_events()
            .into_iter()
            .filter(|e| e.cat == "sim.sweep" && e.name.starts_with("batch:"))
            .collect();
        assert!(events.len() >= batches.len(), "{} spans", events.len());
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert!(
            tids.len() >= 2,
            "expected multiple worker threads: {tids:?}"
        );
        // One shared monotonic timeline across workers.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let batches: Vec<usize> = (1..=10).collect();
        let serial = ThroughputSweep::run_with_threads(&sim, "t", 79, &batches, 1).expect("valid");
        let parallel =
            ThroughputSweep::run_with_threads(&sim, "t", 79, &batches, 8).expect("valid");
        assert_eq!(serial, parallel);
    }
}
