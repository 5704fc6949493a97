//! End-to-end pipeline: simulator → sweeps → analytical fits → cloud cost,
//! mirroring the paper's full §IV + §V flow across crates.

use ftsim::cost::{validate_combo, CostTable, FineTuneJob, ThroughputModel, ThroughputValidation};
use ftsim::gpu::{CloudProvider, CostModel, GpuSpec, PriceTable};
use ftsim::model::{presets, FineTuneConfig, MemoryModel};
use ftsim::workload::presets as data;

/// Table IV's Eq. 2 fits: Mixtral QLoRA-sparse on GS, one per GPU.
fn table_iv_fits() -> Vec<(GpuSpec, ThroughputValidation)> {
    let seq = data::gsm8k().median_seq_len;
    [GpuSpec::a40(), GpuSpec::a100_80(), GpuSpec::h100_80()]
        .into_iter()
        .map(|gpu| {
            let v = validate_combo(
                format!("Mixtral/GS @ {}", gpu.name),
                &presets::mixtral_8x7b(),
                &CostModel::new(gpu.clone()),
                seq,
                2,
            );
            (gpu, v)
        })
        .collect()
}

/// The full Table IV protocol, from scratch.
#[test]
fn simulate_fit_and_price_mixtral_gs() {
    let model = presets::mixtral_8x7b();
    let ft = FineTuneConfig::qlora_sparse();
    let mem = MemoryModel::new(&model, &ft);
    let seq = data::gsm8k().median_seq_len;

    let fitted: Vec<(GpuSpec, ThroughputModel)> = table_iv_fits()
        .into_iter()
        .map(|(gpu, v)| {
            // Every fit must be usable (paper's validation gate).
            assert!(
                v.rmse < 0.6 || v.relative_rmse() < 0.25,
                "{}: rmse {:.3} rel {:.3}",
                gpu.name,
                v.rmse,
                v.relative_rmse()
            );
            (gpu, v.model)
        })
        .collect();

    let table = CostTable::build(
        &fitted,
        &mem,
        0.25,
        seq,
        FineTuneJob::ten_epochs(&data::math_14k()),
        &PriceTable::for_provider(CloudProvider::Cudo),
    );

    // Paper Table IV structure: 3 rows, H100 cheapest despite the highest
    // hourly rate; A40 MBS = 4.
    assert_eq!(table.rows.len(), 3);
    assert_eq!(table.cheapest().unwrap().gpu, "H100-80GB");
    let a40 = table.rows.iter().find(|r| r.gpu == "A40").unwrap();
    assert_eq!(a40.max_batch, 4);
    assert!(a40.usd > table.cheapest().unwrap().usd);

    // Costs are tens of dollars at 14K-query scale...
    for row in &table.rows {
        assert!((1.0..200.0).contains(&row.usd), "{}: ${}", row.gpu, row.usd);
    }
    // ...and thousands at OpenOrca scale (paper: $3460).
    let orca = table.scaled_to_queries(
        FineTuneJob::ten_epochs(&data::math_14k()),
        FineTuneJob::ten_epochs(&data::openorca()),
    );
    let best = orca.cheapest().unwrap();
    assert!(
        (300.0..30_000.0).contains(&best.usd),
        "OpenOrca: ${:.0}",
        best.usd
    );
}

/// Table IV prices Eq. 2 at each GPU's max batch, while the planner prices
/// the simulator there. The two paths disagree by a per-GPU gap, pinned
/// here at its measured value: Eq. 2 reads 4.0%, 9.9% and 4.6% low, and
/// only on A100-80 does the gap (0.58 q/s) exceed the fit's RMSE (0.521).
#[test]
fn table_iv_eq2_vs_simulator_gap() {
    let mem = MemoryModel::new(&presets::mixtral_8x7b(), &FineTuneConfig::qlora_sparse());
    let seq = data::gsm8k().median_seq_len;
    let expected = [
        ("A40", -0.0398, false),
        ("A100-80GB", -0.0987, true),
        ("H100-80GB", -0.0458, false),
    ];
    for ((gpu, v), (name, gap, exceeds_rmse)) in table_iv_fits().into_iter().zip(expected) {
        assert_eq!(gpu.name, name);
        let batch = mem.max_batch_size(&gpu, seq);
        let simulated = v.sparse.qps_at(batch).expect("sweep covers max batch");
        let eq2 = v.model.predict(batch as f64, 0.25);
        let measured = eq2 / simulated - 1.0;
        assert!(
            (measured - gap).abs() < 5e-4,
            "{name} @ batch {batch}: Eq. 2 {eq2:.4} vs simulator {simulated:.4} q/s, \
             gap {measured:.4}, pinned {gap}"
        );
        assert_eq!((simulated - eq2).abs() > v.rmse, exceeds_rmse, "{name}");
    }
}

/// The Fig. 14 protocol for every (model, dataset) combo the paper keeps.
#[test]
fn throughput_model_validates_on_a40() {
    let a40 = CostModel::new(GpuSpec::a40());
    let combos = [
        ("Mixtral/CS", presets::mixtral_8x7b(), 79usize),
        ("Mixtral/MATH", presets::mixtral_8x7b(), 174),
        ("BlackMamba/CS", presets::blackmamba_2p8b(), 79),
    ];
    for (label, model, seq) in combos {
        let v = validate_combo(label, &model, &a40, seq, 2);
        assert!(
            v.rmse < 0.55 || v.relative_rmse() < 0.20,
            "{label}: rmse {:.3} rel {:.3}",
            v.rmse,
            v.relative_rmse()
        );
        // The fitted curve must preserve the sparse-beats-dense ordering.
        assert!(
            v.model.predict(2.0, 0.25) > v.model.predict(2.0, 1.0),
            "{label}"
        );
    }
}

/// Eq. 1 fitted across the GPU catalog predicts capacity on a held-out GPU.
#[test]
fn batch_model_generalizes_across_gpus() {
    use ftsim::cost::{BatchSample, MaxBatchModel};
    let model = presets::mixtral_8x7b();
    let ft = FineTuneConfig::qlora_sparse();
    let mem = MemoryModel::new(&model, &ft);

    // Train on A40 + A100-40 + A100-80, hold out H100-80.
    let sample = |gpu: &GpuSpec, seq: usize, sparsity: f64, sparse: bool| {
        let ft = if sparse {
            FineTuneConfig::qlora_sparse()
        } else {
            FineTuneConfig::qlora_dense()
        };
        let m = MemoryModel::new(&model, &ft);
        BatchSample {
            gpu_mem_gb: gpu.mem_gb,
            model_mem_gb: m.weights_gb(),
            seq_len: seq,
            sparsity,
            max_batch: m.max_batch_size(gpu, seq),
        }
    };
    let mut train = Vec::new();
    for gpu in [GpuSpec::a40(), GpuSpec::a100_40(), GpuSpec::a100_80()] {
        for seq in [79usize, 148, 174] {
            for (s, is_sparse) in [(0.25, true), (1.0, false)] {
                let smp = sample(&gpu, seq, s, is_sparse);
                if smp.max_batch > 0 {
                    train.push(smp);
                }
            }
        }
    }
    let (fitted, _) = MaxBatchModel::fit(&train);

    let h100 = GpuSpec::h100_80();
    for seq in [79usize, 148, 174] {
        let truth = mem.max_batch_size(&h100, seq);
        let pred = fitted.predict(h100.mem_gb, mem.weights_gb(), seq, 0.25);
        let err = pred.abs_diff(truth);
        assert!(
            err <= 2,
            "H100 seq {seq}: predicted {pred} vs measured {truth}"
        );
    }
}
