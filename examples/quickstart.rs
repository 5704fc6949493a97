//! Quickstart: the paper's pipeline in one page.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Simulates one fine-tuning step of Mixtral-8x7B (QLoRA, sparse top-2) on
//! an A40, sweeps throughput, fits the paper's Eq. 2 model, and prices the
//! job on the cloud.

use ftsim::cost::{validate_combo, CostTable, FineTuneJob};
use ftsim::gpu::{CloudProvider, CostModel, GpuSpec, PriceTable};
use ftsim::model::{presets, FineTuneConfig, MemoryModel};
use ftsim::sim::StepSimulator;
use ftsim::workload::presets as data;

fn main() {
    let model = presets::mixtral_8x7b();
    let ft = FineTuneConfig::qlora_sparse();
    let gpu = GpuSpec::a40();
    let dataset = data::commonsense_15k();

    println!("model: {} ({})", model.name, ft);
    println!("gpu:   {gpu}");
    println!("data:  {dataset}\n");

    // 1. How large a batch fits? (paper Table III)
    let mem = MemoryModel::new(&model, &ft);
    let max_bs = mem.max_batch_size(&gpu, dataset.median_seq_len);
    println!("max batch size: {max_bs}");

    // 2. What does a training step look like? (paper Figs. 4-6)
    let sim = StepSimulator::new(model.clone(), ft, CostModel::new(gpu.clone()));
    let trace = sim.simulate_step(max_bs, dataset.median_seq_len);
    println!(
        "step: {:.2} s over {} kernels; MoE layer share {:.0}%",
        trace.total_seconds(),
        trace.kernel_count(),
        trace.section_breakdown().percent("moe")
    );

    // 3. Fit the analytical throughput model (paper Eq. 2 / Fig. 14).
    let v = validate_combo(
        "Mixtral/CS @ A40",
        &model,
        &CostModel::new(gpu.clone()),
        dataset.median_seq_len,
        2,
    );
    println!(
        "Eq.2 fit: C2={:.2} C4={:.2} (RMSE {:.3})",
        v.model.c2, v.model.c4, v.rmse
    );

    // 4. Price a 10-epoch fine-tuning job (paper Table IV).
    let table = CostTable::build(
        &[(gpu, v.model)],
        &mem,
        0.25,
        dataset.median_seq_len,
        FineTuneJob::ten_epochs(&dataset),
        &PriceTable::for_provider(CloudProvider::Cudo),
    );
    println!("\ncost on CUDO:\n{table}");
}
