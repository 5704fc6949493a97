//! The metric snapshot of a throughput sweep must not depend on the worker
//! count. This is the only test in its binary: the registry and the enable
//! flag are process-global, so any test running beside it that prices a
//! kernel while observability is on would add to the counters compared
//! here.

use ftsim_gpu::{CostModel, GpuSpec};
use ftsim_model::{presets, FineTuneConfig};
use ftsim_sim::{StepSimulator, ThroughputSweep};

/// Registry delta (counters and gauges) of one sweep on a fresh simulator,
/// so every run starts from the same empty trace cache.
fn sweep_metrics(threads: usize) -> ftsim_obs::Snapshot {
    let sim = StepSimulator::new(
        presets::mixtral_8x7b(),
        FineTuneConfig::qlora_sparse(),
        CostModel::new(GpuSpec::a40()),
    );
    let batches: Vec<usize> = (1..=8).collect();
    let registry = ftsim_obs::registry();
    let before = registry.snapshot();
    ThroughputSweep::run_with_threads(&sim, "t", 79, &batches, threads).expect("valid");
    registry.snapshot().diff(&before)
}

#[test]
fn sweep_metrics_are_thread_count_invariant() {
    ftsim_obs::enable();
    let serial = sweep_metrics(1);
    assert!(serial.counters["gpu.cost.kernels_priced"] > 0, "{serial:?}");
    for run in 0..10 {
        let parallel = sweep_metrics(4);
        assert_eq!(parallel.counters, serial.counters, "run {run}: counters");
        assert_eq!(parallel.gauges, serial.gauges, "run {run}: gauges");
    }
    ftsim_obs::disable();
}
