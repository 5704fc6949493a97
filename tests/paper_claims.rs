//! The paper's six takeaways, asserted against this reproduction.

use ftsim::gpu::{CostModel, GpuSpec};
use ftsim::model::{presets, FineTuneConfig, MemoryModel, Sparsity};
use ftsim::sim::moetrain::{train, MoeTrainConfig};
use ftsim::sim::{StepSimulator, ThroughputSweep};
use ftsim::workload::SyntheticTask;

fn a40_sim(model: ftsim::model::ModelConfig, ft: FineTuneConfig) -> StepSimulator {
    StepSimulator::new(model, ft, CostModel::new(GpuSpec::a40()))
}

/// Takeaway 1: a sparse model can be trained as well as its dense
/// counterpart — verified by genuinely training both.
#[test]
fn takeaway1_sparse_trains_as_well_as_dense() {
    let task = SyntheticTask::commonsense(16, 4, 42);
    let sparse = train(&task, &MoeTrainConfig::mixtral_like(2), "sparse");
    let dense = train(&task, &MoeTrainConfig::mixtral_like(8), "dense");
    assert!(
        sparse.peak_accuracy() > 0.8,
        "sparse {:.3}",
        sparse.peak_accuracy()
    );
    assert!(
        (sparse.peak_accuracy() - dense.peak_accuracy()).abs() < 0.10,
        "sparse {:.3} vs dense {:.3}",
        sparse.peak_accuracy(),
        dense.peak_accuracy()
    );
}

/// Takeaway 2: fine-tuning reaches peak accuracy within ten epochs —
/// here the trained CS-task model is within 0.02 of its 10-epoch peak by
/// epoch 5. (The MATH task is still rising at epoch 10; see EXPERIMENTS.md.)
#[test]
fn takeaway2_ten_epochs_suffice() {
    let task = SyntheticTask::commonsense(16, 4, 7);
    let out = train(&task, &MoeTrainConfig::mixtral_like(2), "t2");
    assert_eq!(out.curve.len(), 10);
    let best = out.peak_accuracy();
    let by_epoch5 = out.curve[..5]
        .iter()
        .map(|m| m.eval_accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        by_epoch5 >= best - 0.02,
        "best of epochs 1-5 {by_epoch5:.3} vs 10-epoch peak {best:.3}"
    );
}

/// Takeaway 3: MoE matmuls dominate end-to-end execution time.
#[test]
fn takeaway3_moe_is_the_costliest_layer() {
    let mut shares = Vec::new();
    for (model, ft, batch) in [
        (presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse(), 8),
        (presets::mixtral_8x7b(), FineTuneConfig::qlora_dense(), 2),
        (
            presets::blackmamba_2p8b(),
            FineTuneConfig::full_sparse(),
            12,
        ),
        (presets::blackmamba_2p8b(), FineTuneConfig::full_dense(), 3),
    ] {
        let trace = a40_sim(model, ft).simulate_step(batch, 128);
        let b = trace.section_breakdown();
        assert_eq!(b.sorted()[0].0, "moe");
        shares.push(b.percent("moe"));
        // Within the MoE layer, matmul is the top kernel at max batch.
        assert_eq!(trace.moe_kernel_breakdown().sorted()[0].0, "matmul");
    }
    let avg = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(
        (75.0..97.0).contains(&avg),
        "avg MoE share {avg:.1}% (paper ~85%)"
    );
}

/// Takeaway 4: the sparse model's throughput advantage comes through the
/// larger batch it affords.
#[test]
fn takeaway4_sparse_improves_throughput() {
    let model = presets::mixtral_8x7b();
    let gpu = GpuSpec::a40();
    let seq = 79;
    let sparse_ft = FineTuneConfig::qlora_sparse();
    let dense_ft = FineTuneConfig::qlora_dense();
    let sparse_max = MemoryModel::new(&model, &sparse_ft).max_batch_size(&gpu, seq);
    let dense_max = MemoryModel::new(&model, &dense_ft).max_batch_size(&gpu, seq);
    assert!(sparse_max > dense_max);

    let sparse = ThroughputSweep::run(
        &a40_sim(model.clone(), sparse_ft),
        "sparse",
        seq,
        &(1..=sparse_max).collect::<Vec<_>>(),
    )
    .expect("valid batch list");
    let dense = ThroughputSweep::run(
        &a40_sim(model, dense_ft),
        "dense",
        seq,
        &(1..=dense_max).collect::<Vec<_>>(),
    )
    .expect("valid batch list");
    // Faster at the same batch AND at peak.
    assert!(sparse.qps_at(dense_max).unwrap() > dense.qps_at(dense_max).unwrap());
    assert!(sparse.peak_qps() > 1.5 * dense.peak_qps());
}

/// Takeaway 5: growing the batch moves the workload from memory-bound to
/// compute-bound.
#[test]
fn takeaway5_memory_to_compute_bound() {
    use ftsim::gpu::cost::Bound;
    use ftsim::sim::{Section, Stage};
    let model = presets::mixtral_8x7b();
    let sim = a40_sim(model, FineTuneConfig::qlora_sparse());
    let share_compute_bound = |batch: usize| -> f64 {
        let trace = sim.simulate_step(batch, 128);
        let matmuls: Vec<_> = trace
            .records()
            .filter(|r| {
                r.section == Section::Moe
                    && r.stage == Stage::Forward
                    && r.desc.kind == ftsim::gpu::KernelKind::MatMul
            })
            .collect();
        let total: f64 = matmuls.iter().map(|r| r.cost.latency_s).sum();
        let compute: f64 = matmuls
            .iter()
            .filter(|r| r.cost.bound == Bound::Compute)
            .map(|r| r.cost.latency_s)
            .sum();
        compute / total
    };
    assert!(share_compute_bound(16) > share_compute_bound(1));
    // Utilization signature: SM up, DRAM down.
    let t1 = sim.simulate_step(1, 128).moe_overall_utilization();
    let t16 = sim.simulate_step(16, 128).moe_overall_utilization();
    assert!(t16.sm_util > t1.sm_util);
    assert!(t16.dram_util < t1.dram_util);
}

/// Takeaway 6: fine-tuning's effect on expert load imbalance is model- and
/// dataset-dependent — measured on `repro fig11`'s grid of two trained
/// models × two tasks (the paper's published variances are data in
/// `results/fig11.json`).
#[test]
fn takeaway6_load_imbalance_is_config_dependent() {
    let cs = SyntheticTask::commonsense(16, 4, 42);
    let math = SyntheticTask::math(16, 4, 42);
    let mut deltas = Vec::new();
    for cfg in [
        MoeTrainConfig::mixtral_like(2),
        MoeTrainConfig::blackmamba_like(2),
    ] {
        for task in [&cs, &math] {
            deltas.push(train(task, &cfg, "t6").imbalance_delta());
        }
    }
    // Fine-tuning moves every router...
    assert!(deltas.iter().all(|d| d.abs() > 1.0), "{deltas:?}");
    // ...but not all in one direction.
    assert!(
        deltas.iter().any(|&d| d > 0.0) && deltas.iter().any(|&d| d < 0.0),
        "{deltas:?}"
    );
}

/// Fig. 4 structure: optimizer dominates BlackMamba small-batch steps but is
/// negligible for Mixtral QLoRA; backward exceeds forward everywhere.
#[test]
fn stage_breakdown_matches_fig4() {
    use ftsim::sim::Stage;
    let bm =
        a40_sim(presets::blackmamba_2p8b(), FineTuneConfig::full_sparse()).simulate_step(1, 128);
    let share = bm.stage_seconds(Stage::Optimizer) / bm.total_seconds();
    assert!(
        (0.25..0.70).contains(&share),
        "BlackMamba optimizer share {share:.2}"
    );

    let mx = a40_sim(presets::mixtral_8x7b(), FineTuneConfig::qlora_sparse()).simulate_step(1, 128);
    assert!(mx.stage_seconds(Stage::Optimizer) / mx.total_seconds() < 0.05);

    for t in [&bm, &mx] {
        assert!(t.stage_seconds(Stage::Backward) > t.stage_seconds(Stage::Forward));
    }
}

/// Table III is reproduced cell-for-cell (one BlackMamba cell within +1,
/// as documented in EXPERIMENTS.md).
#[test]
fn table_iii_reproduction() {
    let gpu = GpuSpec::a40();
    let grid = [
        (presets::mixtral_8x7b(), true, 79, 8),
        (presets::mixtral_8x7b(), false, 79, 2),
        (presets::mixtral_8x7b(), true, 174, 3),
        (presets::mixtral_8x7b(), false, 174, 1),
        (presets::blackmamba_2p8b(), true, 79, 20),
        (presets::blackmamba_2p8b(), false, 79, 6),
        (presets::blackmamba_2p8b(), false, 174, 2),
    ];
    for (model, sparse, seq, expect) in grid {
        let s = if sparse {
            Sparsity::TopK(2)
        } else {
            Sparsity::Dense
        };
        let ft = FineTuneConfig::for_model(&model, s);
        let got = MemoryModel::new(&model, &ft).max_batch_size(&gpu, seq);
        assert_eq!(got, expect, "{} sparse={sparse} seq={seq}", model.name);
    }
    // The one near-miss: BlackMamba-S on MATH (paper 8, ours 9).
    let ft = FineTuneConfig::full_sparse();
    let got = MemoryModel::new(&presets::blackmamba_2p8b(), &ft).max_batch_size(&gpu, 174);
    assert!((8..=9).contains(&got));
}
