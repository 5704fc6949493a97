//! Experiment implementations behind the `repro` binary: one function per
//! table/figure of the paper, each returning a human-readable report and a
//! JSON artifact.

use ftsim_cost::{
    validate_combo, BatchSample, CostTable, FineTuneJob, MaxBatchModel, MemoryProjection,
    ThroughputModel,
};
use ftsim_gpu::{Breakdown, CloudProvider, CostModel, GpuSpec, PriceTable};
use ftsim_model::{presets as models, FineTuneConfig, MemoryModel, ModelConfig, Sparsity};
use ftsim_sim::report::moe_utilization_table;
use ftsim_sim::{moetrain, MoeTrainConfig, SensitivityStudy, StepSimulator, ThroughputSweep};
use ftsim_workload::{presets as data, SeqLenDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::path::Path;

pub mod cli;

/// The output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id (`"table1"`, `"fig8"`, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Formatted report text.
    pub text: String,
    /// Machine-readable artifact.
    pub json: Value,
}

/// All experiment ids in paper order.
pub fn experiment_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig2",
        "fig3",
        "table3",
        "fig4",
        "fig5",
        "fig6",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig13",
        "fig14",
        "fig15",
        "table4",
        "sensitivity",
        "ablation",
        "scaleout",
        "cluster",
        "alltoall",
    ]
}

/// Extra experiment ids that `repro` accepts but `repro all` skips:
/// `profile` traces the simulator itself (wall-clock span timings), not
/// the paper, so it would make the default artifact set nondeterministic.
/// Performance is measured by the repository benchmark (`ftbench/`).
pub fn extra_experiment_ids() -> Vec<&'static str> {
    vec!["profile"]
}

/// Key under which an experiment's JSON may carry extra named artifacts
/// (`{filename: document}`); the `repro` binary writes each entry as its own
/// file next to `{id}.json` and strips the key from `{id}.json` itself.
pub const ARTIFACTS_KEY: &str = "artifacts";

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id; use [`experiment_ids`] for the valid set.
pub fn run(id: &str) -> ExperimentResult {
    match id {
        "table1" => table1(),
        "table2" => table2(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "table3" => table3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "table4" => table4(),
        "sensitivity" => sensitivity(),
        "ablation" => ablation(),
        "scaleout" => scaleout(),
        "cluster" => cluster(),
        "alltoall" => alltoall(),
        "profile" => profile(),
        other => panic!("unknown experiment id {other:?}"),
    }
}

/// Writes each result's artifacts into `out_dir`, then prints its report
/// (title, text and the path of every file written) to `out`, in input
/// order. Files come first, so a reader that stops early never costs an
/// artifact: once `out` fails, printing stops and the remaining files are
/// still written. Returns the process exit code: 0, or 1 when `out` failed
/// with anything but a broken pipe. A write or serialization failure of one
/// artifact is a warning on stderr.
pub fn write_results(
    results: &[ExperimentResult],
    out_dir: &Path,
    out: &mut impl std::io::Write,
) -> i32 {
    let mut printed = Ok(());
    for result in results {
        let report = write_artifacts(result, out_dir);
        if printed.is_ok() {
            printed = out.write_all(report.as_bytes());
        }
    }
    match printed.and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("warning: cannot print the report: {e}");
            1
        }
        _ => 0,
    }
}

/// Writes `result`'s files into `out_dir` and returns its report text.
///
/// Extra named artifacts (e.g. the profile's Chrome trace) become their own
/// files, and are stripped from the main `{id}.json` so the (potentially
/// multi-megabyte) documents are not duplicated.
fn write_artifacts(result: &ExperimentResult, out_dir: &Path) -> String {
    let mut report = format!("== {} ==\n{}\n", result.title, result.text);
    let mut doc = result.json.clone();
    if let Value::Object(entries) = &mut doc {
        entries.retain(|(k, _)| k != ARTIFACTS_KEY);
    }
    if let Some(Value::Object(artifacts)) = result.json.get(ARTIFACTS_KEY) {
        for (name, value) in artifacts {
            let path = out_dir.join(name);
            // A string artifact is pre-rendered (raw file body); anything
            // else is serialized as pretty JSON.
            let body = match value {
                Value::String(s) => s.clone(),
                other => match serde_json::to_string_pretty(other) {
                    Ok(body) => body,
                    Err(e) => {
                        eprintln!("warning: cannot serialize {name}: {e}");
                        continue;
                    }
                },
            };
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                let _ = writeln!(report, "[artifact: {}]", path.display());
            }
        }
    }
    let path = out_dir.join(format!("{}.json", result.id));
    match serde_json::to_string_pretty(&doc) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                let _ = writeln!(report, "[artifact: {}]\n", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {}: {e}", result.id),
    }
    report
}

fn a40() -> CostModel {
    CostModel::new(GpuSpec::a40())
}

fn paper_recipe(model: &ModelConfig, sparse: bool) -> FineTuneConfig {
    let s = if sparse {
        Sparsity::TopK(2)
    } else {
        Sparsity::Dense
    };
    FineTuneConfig::for_model(model, s)
}

fn sim_for(model: &ModelConfig, sparse: bool, gpu: GpuSpec) -> StepSimulator {
    StepSimulator::new(
        model.clone(),
        paper_recipe(model, sparse),
        CostModel::new(gpu),
    )
}

/// The four (model, sparsity) combinations of the paper's runtime studies.
fn combos() -> Vec<(&'static str, ModelConfig, bool)> {
    vec![
        ("Mixtral-D", models::mixtral_8x7b(), false),
        ("Mixtral-S", models::mixtral_8x7b(), true),
        ("BlackMamba-D", models::blackmamba_2p8b(), false),
        ("BlackMamba-S", models::blackmamba_2p8b(), true),
    ]
}

/// Max batch size for a combo on a GPU at a sequence length.
fn max_batch(model: &ModelConfig, sparse: bool, gpu: &GpuSpec, seq: usize) -> usize {
    MemoryModel::new(model, &paper_recipe(model, sparse)).max_batch_size(gpu, seq)
}

// ---------------------------------------------------------------- Table I

fn table1() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(
        text,
        "{:<16} {:>9} {:>12} {:>8} {:>9}",
        "model", "#params", "mem", "#layers", "#experts"
    );
    for m in models::all() {
        let ft = FineTuneConfig::for_model(&m, Sparsity::TopK(2));
        let mem = MemoryModel::new(&m, &ft);
        let counts = m.param_counts();
        let _ = writeln!(
            text,
            "{:<16} {:>8.1}B {:>10.2}GB {:>8} {:>9}",
            m.name,
            counts.total() as f64 / 1e9,
            mem.weights_gb(),
            m.num_layers,
            m.moe.num_experts
        );
        rows.push(json!({
            "model": m.name,
            "params_b": counts.total() as f64 / 1e9,
            "weights_gb": mem.weights_gb(),
            "layers": m.num_layers,
            "experts": m.moe.num_experts,
        }));
    }
    let _ = writeln!(
        text,
        "paper: Mixtral 47B / 23.35GB / 32 layers; BlackMamba 2.8B / 5.6GB / 18 layers"
    );
    ExperimentResult {
        id: "table1",
        title: "Table I: LLM models",
        text,
        json: json!({ "rows": rows }),
    }
}

// --------------------------------------------------------------- Table II

fn table2() -> ExperimentResult {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<18} {:>9} {:>11} {:>14}",
        "dataset", "#queries", "median len", "type"
    );
    let rows: Vec<Value> = data::table_ii()
        .into_iter()
        .map(|d| {
            let _ = writeln!(
                text,
                "{:<18} {:>9} {:>11} {:>14}",
                d.name,
                d.num_queries,
                d.median_seq_len,
                d.domain.to_string()
            );
            json!({
                "name": d.name, "code": d.code, "queries": d.num_queries,
                "median_seq_len": d.median_seq_len, "domain": d.domain.to_string(),
            })
        })
        .collect();
    ExperimentResult {
        id: "table2",
        title: "Table II: datasets",
        text,
        json: json!({ "rows": rows }),
    }
}

// ----------------------------------------------------------------- Fig. 2

fn fig2() -> ExperimentResult {
    let mut rng = StdRng::seed_from_u64(2);
    let mut text = String::new();
    let mut series = Vec::new();
    for ds in [data::commonsense_15k(), data::math_14k()] {
        let dist = SeqLenDistribution::for_dataset(&ds);
        let samples = dist.sample_many(ds.num_queries, &mut rng);
        let hist = SeqLenDistribution::histogram(&samples, 16);
        let median = SeqLenDistribution::percentile(&samples, 50.0);
        let p95 = SeqLenDistribution::percentile(&samples, 95.0);
        let _ = writeln!(
            text,
            "{} — sampled median {median} (nominal {}), p95 {p95}",
            ds.name, ds.median_seq_len
        );
        let peak = hist.iter().map(|&(_, c)| c).max().unwrap_or(1);
        for &(edge, count) in &hist {
            let bar = "#".repeat(40 * count / peak.max(1));
            let _ = writeln!(text, "  ≤{edge:>5}: {bar} {count}");
        }
        series.push(json!({
            "dataset": ds.code, "median": median, "p95": p95,
            "histogram": hist.iter().map(|&(e, c)| json!([e, c])).collect::<Vec<_>>(),
        }));
    }
    ExperimentResult {
        id: "fig2",
        title: "Fig. 2: sequence length distribution",
        text,
        json: json!({ "series": series }),
    }
}

// ----------------------------------------------------------------- Fig. 3

fn fig3() -> ExperimentResult {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "[emergent: genuinely trained CPU-scale MoE (10 epochs)]"
    );
    let cs = ftsim_workload::SyntheticTask::commonsense(16, 4, 42);
    let math = ftsim_workload::SyntheticTask::math(16, 4, 42);
    let mut emergent = Vec::new();
    let runs = vec![
        ("big-D/CS", MoeTrainConfig::mixtral_like(8), &cs),
        ("big-S/CS", MoeTrainConfig::mixtral_like(2), &cs),
        ("big-S/MATH", MoeTrainConfig::mixtral_like(2), &math),
        ("small-S/CS", MoeTrainConfig::blackmamba_like(2), &cs),
    ];
    for (label, cfg, task) in runs {
        let out = moetrain::train(task, &cfg, label);
        let accs: Vec<String> = std::iter::once(out.initial_accuracy)
            .chain(out.curve.iter().map(|m| m.eval_accuracy))
            .map(|a| format!("{a:.2}"))
            .collect();
        let _ = writeln!(text, "{:<16} {}", label, accs.join(" "));
        emergent.push(json!({
            "label": label,
            "initial": out.initial_accuracy,
            "accuracy": out.curve.iter().map(|m| m.eval_accuracy).collect::<Vec<_>>(),
        }));
    }
    ExperimentResult {
        id: "fig3",
        title: "Fig. 3: testing accuracy vs epoch (dense vs sparse)",
        text,
        json: json!({ "emergent": emergent }),
    }
}

// --------------------------------------------------------------- Table III

fn table3() -> ExperimentResult {
    let gpu = GpuSpec::a40();
    // Paper ground truth (A40, CS median 79 / MATH median 174).
    let paper: Vec<(&str, &str, usize)> = vec![
        ("Mixtral-D", "CS", 2),
        ("Mixtral-S", "CS", 8),
        ("Mixtral-D", "MATH", 1),
        ("Mixtral-S", "MATH", 3),
        ("BlackMamba-D", "CS", 6),
        ("BlackMamba-S", "CS", 20),
        ("BlackMamba-D", "MATH", 2),
        ("BlackMamba-S", "MATH", 8),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<14} {:>6} {:>6} {:>6}",
        "combo", "data", "ours", "paper"
    );
    let mut rows = Vec::new();
    let mut exact = 0;
    for (combo, ds, truth) in &paper {
        let (model, sparse) = match *combo {
            "Mixtral-D" => (models::mixtral_8x7b(), false),
            "Mixtral-S" => (models::mixtral_8x7b(), true),
            "BlackMamba-D" => (models::blackmamba_2p8b(), false),
            _ => (models::blackmamba_2p8b(), true),
        };
        let seq = if *ds == "CS" { 79 } else { 174 };
        let ours = max_batch(&model, sparse, &gpu, seq);
        if ours == *truth {
            exact += 1;
        }
        let _ = writeln!(text, "{combo:<14} {ds:>6} {ours:>6} {truth:>6}");
        rows.push(json!({ "combo": combo, "dataset": ds, "ours": ours, "paper": truth }));
    }
    let _ = writeln!(text, "exact matches: {exact}/8");

    // Fit Eq. 1 per model across GPUs (the paper's §V-A protocol).
    let mut fits = Vec::new();
    for (name, model, sparse_pairs) in [
        ("Mixtral", models::mixtral_8x7b(), [0.25, 1.0]),
        ("BlackMamba", models::blackmamba_2p8b(), [0.25, 1.0]),
    ] {
        let weights = MemoryModel::new(&model, &paper_recipe(&model, true)).weights_gb();
        let mut samples = Vec::new();
        for gpu in GpuSpec::catalog() {
            for &seq in &[79usize, 148, 174] {
                for &s in &sparse_pairs {
                    let mb = max_batch(&model, s < 1.0, &gpu, seq);
                    if mb > 0 {
                        samples.push(BatchSample {
                            gpu_mem_gb: gpu.mem_gb,
                            model_mem_gb: weights,
                            seq_len: seq,
                            sparsity: s,
                            max_batch: mb,
                        });
                    }
                }
            }
        }
        let (fit, rmse) = MaxBatchModel::fit(&samples);
        let _ = writeln!(
            text,
            "Eq.1 fit {name}: C0={:.2} C1={:.3} (rmse {:.2}, exact {:.0}%; paper C0={} C1={})",
            fit.c0,
            fit.c1,
            rmse,
            100.0 * fit.exact_match_rate(&samples),
            if name == "Mixtral" { 82 } else { 83 },
            if name == "Mixtral" { 0.95 } else { 0.88 },
        );
        fits.push(json!({ "model": name, "c0": fit.c0, "c1": fit.c1, "rmse": rmse }));
    }
    ExperimentResult {
        id: "table3",
        title: "Table III: maximum batch size (A40)",
        text,
        json: json!({ "rows": rows, "eq1_fits": fits }),
    }
}

// ----------------------------------------------------------------- Fig. 4

fn fig4() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    for (label, model, sparse) in combos() {
        let seq = 128;
        let mb = max_batch(&model, sparse, &GpuSpec::a40(), seq).max(1);
        for batch in [1, mb] {
            let trace = sim_for(&model, sparse, GpuSpec::a40()).simulate_step(batch, seq);
            let b = trace.stage_breakdown();
            let _ = writeln!(
                text,
                "{label:<14} bs={batch:<3} fwd {:>5.1}%  bwd {:>5.1}%  opt {:>5.1}%  ({:.0} ms)",
                b.percent("forward"),
                b.percent("backward"),
                b.percent("optimizer"),
                trace.total_seconds() * 1e3
            );
            rows.push(json!({
                "combo": label, "batch": batch,
                "forward_pct": b.percent("forward"),
                "backward_pct": b.percent("backward"),
                "optimizer_pct": b.percent("optimizer"),
                "total_ms": trace.total_seconds() * 1e3,
            }));
        }
    }
    ExperimentResult {
        id: "fig4",
        title: "Fig. 4: execution time breakdown (fwd/bwd/optimizer)",
        text,
        json: json!({ "rows": rows }),
    }
}

// ----------------------------------------------------------------- Fig. 5

fn fig5() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut moe_shares = Vec::new();
    for (label, model, sparse) in combos() {
        let seq = 128;
        let mb = max_batch(&model, sparse, &GpuSpec::a40(), seq).max(1);
        for batch in [1, mb] {
            let trace = sim_for(&model, sparse, GpuSpec::a40()).simulate_step(batch, seq);
            let b = trace.section_breakdown();
            let moe = b.percent("moe");
            moe_shares.push(moe);
            let mixer = if model.is_attention() {
                "attention"
            } else {
                "mamba"
            };
            let _ = writeln!(
                text,
                "{label:<14} bs={batch:<3} moe {moe:>5.1}%  {mixer} {:>5.1}%  norm {:>5.1}%  other {:>5.1}%",
                b.percent(mixer),
                b.percent("norm"),
                100.0 - moe - b.percent(mixer) - b.percent("norm"),
            );
            rows.push(json!({
                "combo": label, "batch": batch, "moe_pct": moe,
                "mixer_pct": b.percent(mixer), "norm_pct": b.percent("norm"),
            }));
        }
    }
    let avg = moe_shares.iter().sum::<f64>() / moe_shares.len() as f64;
    let _ = writeln!(text, "average MoE share: {avg:.1}% (paper: ~85%)");
    ExperimentResult {
        id: "fig5",
        title: "Fig. 5: execution time breakdown by model layer",
        text,
        json: json!({ "rows": rows, "avg_moe_pct": avg }),
    }
}

// ----------------------------------------------------------------- Fig. 6

fn fig6() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    for (label, model, sparse) in combos() {
        let seq = 128;
        let mb = max_batch(&model, sparse, &GpuSpec::a40(), seq).max(1);
        for batch in [1, mb] {
            let trace = sim_for(&model, sparse, GpuSpec::a40()).simulate_step(batch, seq);
            let b = trace.moe_kernel_breakdown();
            let mut parts: Vec<String> = b
                .sorted()
                .into_iter()
                .map(|(k, s)| format!("{k} {:.1}%", 100.0 * s / b.total()))
                .collect();
            parts.truncate(4);
            let _ = writeln!(text, "{label:<14} bs={batch:<3} {}", parts.join("  "));
            rows.push(json!({
                "combo": label, "batch": batch,
                "kernels": b.sorted().into_iter()
                    .map(|(k, s)| json!({ "kernel": k, "pct": 100.0 * s / b.total() }))
                    .collect::<Vec<_>>(),
            }));
        }
    }
    ExperimentResult {
        id: "fig6",
        title: "Fig. 6: MoE layer kernel breakdown",
        text,
        json: json!({ "rows": rows }),
    }
}

// ----------------------------------------------------------------- Fig. 8

fn fig8() -> ExperimentResult {
    let mut text = String::new();
    let mut series = Vec::new();
    let cases: Vec<(&str, ModelConfig, bool, usize)> = vec![
        ("Mixtral-D/CS", models::mixtral_8x7b(), false, 79),
        ("Mixtral-S/CS", models::mixtral_8x7b(), true, 79),
        ("Mixtral-D/MATH", models::mixtral_8x7b(), false, 174),
        ("Mixtral-S/MATH", models::mixtral_8x7b(), true, 174),
        ("BlackMamba-D/CS", models::blackmamba_2p8b(), false, 79),
        ("BlackMamba-S/CS", models::blackmamba_2p8b(), true, 79),
    ];
    for (label, model, sparse, seq) in cases {
        let mb = max_batch(&model, sparse, &GpuSpec::a40(), seq).max(1);
        let batches: Vec<usize> = (1..=mb).collect();
        let sweep = ThroughputSweep::run(
            &sim_for(&model, sparse, GpuSpec::a40()),
            label,
            seq,
            &batches,
        )
        .unwrap_or_else(|e| panic!("throughput sweep failed: {e}"));
        let pts: Vec<String> = sweep
            .points
            .iter()
            .map(|p| format!("bs{}={:.2}", p.batch, p.queries_per_second))
            .collect();
        let _ = writeln!(text, "{label:<16} {}", pts.join(" "));
        series.push(json!({
            "label": label,
            "points": sweep.points.iter()
                .map(|p| json!({ "batch": p.batch, "qps": p.queries_per_second }))
                .collect::<Vec<_>>(),
        }));
    }
    let _ = writeln!(text, "paper anchors: Mixtral-CS dense bs2 ≈ 0.5 qps, sparse bs2 ≈ 0.7 qps; sparse 1→2 ≈ 1.9x, 1→8 ≈ 4.8x");
    ExperimentResult {
        id: "fig8",
        title: "Fig. 8: query throughput (A40)",
        text,
        json: json!({ "series": series }),
    }
}

// ------------------------------------------------------------ Figs. 9, 10

fn utilization_fig(id: &'static str, title: &'static str, sm: bool) -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    let seq = 128;
    for (label, model, sparse) in combos() {
        let quantized = model.is_attention();
        // Paper protocol: dense at {1, maxD}; sparse at {1, maxD, maxS}.
        let max_d = max_batch(&model, false, &GpuSpec::a40(), seq).max(1);
        let max_s = max_batch(&model, true, &GpuSpec::a40(), seq).max(1);
        let batches: Vec<usize> = if sparse {
            let mut v = vec![1, max_d, max_s];
            v.dedup();
            v
        } else {
            let mut v = vec![1, max_d];
            v.dedup();
            v
        };
        for batch in batches {
            let trace = sim_for(&model, sparse, GpuSpec::a40()).simulate_step(batch, seq);
            let table = moe_utilization_table(&trace, quantized);
            let parts: Vec<String> = table
                .iter()
                .map(|r| {
                    let u = if sm { r.util.sm_util } else { r.util.dram_util };
                    format!("{} {:.0}%", r.kind.label(), 100.0 * u)
                })
                .collect();
            let overall = trace.moe_overall_utilization();
            let o = if sm {
                overall.sm_util
            } else {
                overall.dram_util
            };
            let _ = writeln!(
                text,
                "{label:<14} bs={batch:<3} overall {:.0}%  [{}]",
                o * 100.0,
                parts.join(" ")
            );
            rows.push(json!({
                "combo": label, "batch": batch, "overall": o,
                "kernels": table.iter().map(|r| json!({
                    "kernel": r.kind.label(),
                    "util": if sm { r.util.sm_util } else { r.util.dram_util },
                })).collect::<Vec<_>>(),
            }));
        }
    }
    ExperimentResult {
        id,
        title,
        text,
        json: json!({ "rows": rows }),
    }
}

fn fig9() -> ExperimentResult {
    utilization_fig("fig9", "Fig. 9: GPU SM utilization of MoE kernels", true)
}

fn fig10() -> ExperimentResult {
    utilization_fig(
        "fig10",
        "Fig. 10: GPU DRAM bandwidth utilization of MoE kernels",
        false,
    )
}

// ---------------------------------------------------------------- Fig. 11

/// The expert-load variances the paper publishes for Fig. 11 (§IV-B5), kept
/// as data: (model, dataset, before, after, the paper's remark).
const PAPER_FIG11: [(&str, &str, f64, f64, Option<&str>); 4] = [
    (
        "Mixtral",
        "CS",
        55.0,
        112.0,
        Some("expert 3 dominant after tuning"),
    ),
    (
        "Mixtral",
        "GS",
        21.0,
        79.0,
        Some("expert 3 dominant after tuning"),
    ),
    ("BlackMamba", "CS", 150.0, 93.0, None),
    ("BlackMamba", "GS", 118.0, 120.0, Some("almost unchanged")),
];

fn fig11() -> ExperimentResult {
    let cs = ftsim_workload::SyntheticTask::commonsense(16, 4, 42);
    let math = ftsim_workload::SyntheticTask::math(16, 4, 42);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<11} {:<4} {:>18}   {:<10} {:>24}",
        "model", "data", "paper var (Δ)", "ours task", "measured var (Δ)"
    );
    let (mut paper, mut emergent) = (Vec::new(), Vec::new());
    for &(model, dataset, p_before, p_after, note) in &PAPER_FIG11 {
        // Each paper row beside its measured stand-in: the model's small
        // trained analogue, on the synthetic task for its dataset (GS pairs
        // with the MATH task).
        let cfg = match model {
            "Mixtral" => MoeTrainConfig::mixtral_like(2),
            _ => MoeTrainConfig::blackmamba_like(2),
        };
        let (label, task) = match dataset {
            "CS" => ("CS-task", &cs),
            _ => ("MATH-task", &math),
        };
        let out = moetrain::train(task, &cfg, label);
        let (before, after) = (out.routing_before.variance(), out.routing_after.variance());
        let dominant = out.routing_after.dominant_expert();
        let _ = writeln!(
            text,
            "{model:<11} {dataset:<4} {p_before:>4.0} → {p_after:>4.0} ({:+4.0})   {label:<10} \
             {before:>6.1} → {after:>6.1} ({:+6.1})  dominant e{dominant}{}",
            p_after - p_before,
            out.imbalance_delta(),
            note.map(|n| format!("  [paper: {n}]")).unwrap_or_default(),
        );
        paper.push(json!({
            "model": model, "dataset": dataset,
            "before_var": p_before, "after_var": p_after, "note": note,
        }));
        emergent.push(json!({
            "model": model, "dataset": dataset, "label": label,
            "before_var": before, "after_var": after, "after_dominant": dominant,
        }));
    }
    let _ = writeln!(
        text,
        "\nours: mixtral_like(2) / blackmamba_like(2) genuinely trained (seed 42)"
    );
    ExperimentResult {
        id: "fig11",
        title: "Fig. 11: token distribution across experts",
        text,
        json: json!({ "paper": paper, "emergent": emergent }),
    }
}

// ---------------------------------------------------------------- Fig. 13

fn fig13() -> ExperimentResult {
    let model = models::mixtral_8x7b();
    let ft = paper_recipe(&model, true);
    let mem = MemoryModel::new(&model, &ft);
    let seq = 148; // GS
                   // Fit over both sparse and dense ground truth across the catalog so C₁
                   // is identifiable; project the sparse curve to future capacities.
    let mut measured: Vec<(String, BatchSample)> = Vec::new();
    for gpu in GpuSpec::catalog() {
        for (tag, sparse, sparsity) in [("S", true, 0.25), ("D", false, 1.0)] {
            let mb = max_batch(&model, sparse, &gpu, seq);
            if mb == 0 {
                continue;
            }
            measured.push((
                format!("{}-{tag}", gpu.name),
                BatchSample {
                    gpu_mem_gb: gpu.mem_gb,
                    model_mem_gb: mem.weights_gb(),
                    seq_len: seq,
                    sparsity,
                    max_batch: mb,
                },
            ));
        }
    }
    let proj = MemoryProjection::build(&measured, &[100.0, 120.0], mem.weights_gb(), seq, 0.25);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Eq.1 fit: C0={:.2} C1={:.3} (rmse {:.2})",
        proj.model.c0, proj.model.c1, proj.fit_rmse
    );
    for p in &proj.points {
        let truth = p
            .ground_truth
            .map(|t| format!("{t}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            text,
            "{:<14} {:>5.0}GB  predicted {:>3}  measured {truth}",
            p.label, p.mem_gb, p.predicted
        );
    }
    let _ = writeln!(text, "paper projects 28 (100GB) and 35 (120GB) with its unit convention; shape (linear growth in memory) matches");
    ExperimentResult {
        id: "fig13",
        title: "Fig. 13: projected max batch size vs GPU memory (Mixtral sparse, GS)",
        text,
        json: json!({
            "c0": proj.model.c0, "c1": proj.model.c1, "rmse": proj.fit_rmse,
            "points": proj.points.iter().map(|p| json!({
                "label": p.label, "mem_gb": p.mem_gb,
                "predicted": p.predicted, "measured": p.ground_truth,
            })).collect::<Vec<_>>(),
        }),
    }
}

// ------------------------------------------------------------ Figs. 14, 15

fn fig14() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    let cases: Vec<(&str, ModelConfig, usize)> = vec![
        ("Mixtral/CS", models::mixtral_8x7b(), 79),
        ("Mixtral/MATH", models::mixtral_8x7b(), 174),
        ("BlackMamba/CS", models::blackmamba_2p8b(), 79),
        ("BlackMamba/MATH", models::blackmamba_2p8b(), 174),
    ];
    for (label, model, seq) in cases {
        let v = validate_combo(format!("{label} @ A40"), &model, &a40(), seq, 2);
        let clamped = v.model.clamped(&v.samples);
        let _ = writeln!(
            text,
            "{label:<16} C2={:>6.2} C4={:>7.2}  RMSE {:.3} (relative {:.3}), {clamped} clamped",
            v.model.c2,
            v.model.c4,
            v.rmse,
            v.relative_rmse()
        );
        rows.push(json!({
            "label": label, "c2": v.model.c2, "c4": v.model.c4, "clamped": clamped,
            "rmse": v.rmse, "relative_rmse": v.relative_rmse(),
            "samples": v.samples.iter().map(|s| json!([s.batch, s.sparsity, s.qps])).collect::<Vec<_>>(),
        }));
    }
    let _ = writeln!(text, "paper: RMSE < 0.8 on A40 (abstract: < 0.55)");
    ExperimentResult {
        id: "fig14",
        title: "Fig. 14: throughput model fit vs simulator ground truth (A40)",
        text,
        json: json!({ "rows": rows }),
    }
}

fn fig15() -> ExperimentResult {
    let mut text = String::new();
    let mut rows = Vec::new();
    for gpu in [GpuSpec::a100_40(), GpuSpec::a100_80(), GpuSpec::h100_80()] {
        let name = gpu.name.clone();
        let v = validate_combo(
            format!("Mixtral/GS @ {name}"),
            &models::mixtral_8x7b(),
            &CostModel::new(gpu),
            148,
            2,
        );
        let clamped = v.model.clamped(&v.samples);
        let _ = writeln!(
            text,
            "{name:<12} C2={:>6.2} C4={:>7.2}  RMSE {:.3} (relative {:.3}), {clamped} clamped",
            v.model.c2,
            v.model.c4,
            v.rmse,
            v.relative_rmse()
        );
        rows.push(json!({
            "gpu": name, "c2": v.model.c2, "c4": v.model.c4, "clamped": clamped,
            "rmse": v.rmse, "relative_rmse": v.relative_rmse(),
        }));
    }
    let _ = writeln!(text, "paper: RMSE < 0.6 on A100/H100");
    ExperimentResult {
        id: "fig15",
        title: "Fig. 15: throughput model fit on A100/H100 (Mixtral, GS)",
        text,
        json: json!({ "rows": rows }),
    }
}

// ---------------------------------------------------------------- Table IV

fn table4() -> ExperimentResult {
    let model = models::mixtral_8x7b();
    let seq = 148; // GS
    let mem = MemoryModel::new(&model, &paper_recipe(&model, true));
    // Fit one Eq. 2 model per GPU from simulator ground truth.
    let gpus_with_models: Vec<(GpuSpec, ThroughputModel)> =
        [GpuSpec::a40(), GpuSpec::a100_80(), GpuSpec::h100_80()]
            .into_iter()
            .map(|gpu| {
                let v = validate_combo(
                    format!("Mixtral/GS @ {}", gpu.name),
                    &model,
                    &CostModel::new(gpu.clone()),
                    seq,
                    2,
                );
                (gpu, v.model)
            })
            .collect();
    let job = FineTuneJob::ten_epochs(&data::math_14k());
    let prices = PriceTable::for_provider(CloudProvider::Cudo);
    let table = CostTable::build(&gpus_with_models, &mem, 0.25, seq, job, &prices);

    let mut text = String::new();
    let _ = writeln!(text, "{table}");
    let _ = writeln!(text, "paper Table IV: A40 $32.7 (MBS 4, 1.01 q/s) | A100-80 $25.4 (17, 2.74) | H100 $17.9 (17, 4.90)");
    let cheapest = table.cheapest().expect("catalog GPUs priced").clone();
    let _ = writeln!(text, "most cost-effective: {}", cheapest.gpu);

    // OpenOrca projection (§V-C).
    let orca = table.scaled_to_queries(job, FineTuneJob::ten_epochs(&data::openorca()));
    let orca_best = orca.cheapest().expect("non-empty").clone();
    let _ = writeln!(
        text,
        "OpenOrca (2M queries, 10 epochs) on {}: ${:.0} (paper: $3460 on H100)",
        orca_best.gpu, orca_best.usd
    );
    ExperimentResult {
        id: "table4",
        title: "Table IV: estimated cost of fine-tuning Mixtral on GS (sparse)",
        text,
        json: json!({
            "rows": table.rows.iter().map(|r| json!({
                "gpu": r.gpu, "mem_gb": r.mem_gb, "mbs": r.max_batch,
                "qps": r.throughput_qps, "usd_per_hour": r.usd_per_hour, "usd": r.usd,
            })).collect::<Vec<_>>(),
            "openorca_usd": orca_best.usd,
            "openorca_gpu": orca_best.gpu,
        }),
    }
}

// -------------------------------------------------------------- §IV-B6

fn sensitivity() -> ExperimentResult {
    let seqs = [64usize, 128, 256, 512, 1024];
    let mut text = String::new();
    let mut series = Vec::new();
    for (label, model, sparse) in combos() {
        let sim = sim_for(&model, sparse, GpuSpec::a40());
        let study = SensitivityStudy::run(&sim, label, &seqs);
        if study.points.is_empty() {
            continue;
        }
        let pts: Vec<String> = study
            .points
            .iter()
            .map(|p| {
                format!(
                    "L{}:bs{} {:.0}ms",
                    p.seq_len,
                    p.max_batch,
                    p.step_seconds * 1e3
                )
            })
            .collect();
        let _ = writeln!(
            text,
            "{label:<14} {}  (latency ratio {:.2})",
            pts.join(" "),
            study.latency_ratio()
        );
        series.push(json!({
            "label": label,
            "latency_ratio": study.latency_ratio(),
            "points": study.points.iter().map(|p| json!({
                "seq": p.seq_len, "batch": p.max_batch,
                "ms": p.step_seconds * 1e3, "qps": p.queries_per_second,
            })).collect::<Vec<_>>(),
        }));
    }
    let _ = writeln!(text, "paper: Mixtral latency ~flat; BlackMamba −19%/−25% at long sequences; shorter sequences give higher throughput");
    ExperimentResult {
        id: "sensitivity",
        title: "§IV-B6: sequence-length sensitivity",
        text,
        json: json!({ "series": series }),
    }
}

// ------------------------------------------------------------ extensions

fn ablation() -> ExperimentResult {
    use ftsim_sim::ablation::{ablate_checkpointing, ablate_quantization};
    let mut text = String::new();
    let mut rows = Vec::new();
    let cost = a40();
    for (model, ft, batch) in [
        (
            models::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            2usize,
        ),
        (models::blackmamba_2p8b(), FineTuneConfig::full_sparse(), 4),
    ] {
        let ck = ablate_checkpointing(&model, ft, &cost, batch, 128);
        let _ = writeln!(
            text,
            "{:<16} {}: off/on runtime {:.2}x, backward share {:.0}% → {:.0}%",
            model.name,
            ck.name,
            ck.slowdown(),
            ck.baseline.backward_share * 100.0,
            ck.variant.backward_share * 100.0
        );
        rows.push(json!({ "model": model.name, "ablation": ck.name, "slowdown": ck.slowdown() }));
    }
    let q = ablate_quantization(
        &models::mixtral_8x7b(),
        FineTuneConfig::qlora_sparse(),
        &cost,
        1,
        128,
    );
    let _ = writeln!(
        text,
        "Mixtral {}: bf16-LoRA static {:.0} GB vs NF4 {:.0} GB; bf16 max batch {} (does not fit the A40) vs NF4 {}",
        q.name, q.variant.static_gb, q.baseline.static_gb, q.variant.max_batch, q.baseline.max_batch
    );
    rows.push(json!({
        "model": "Mixtral-8x7B", "ablation": q.name,
        "bf16_static_gb": q.variant.static_gb, "nf4_static_gb": q.baseline.static_gb,
        "bf16_max_batch": q.variant.max_batch, "nf4_max_batch": q.baseline.max_batch,
    }));
    ExperimentResult {
        id: "ablation",
        title: "Ablations: gradient checkpointing & NF4 quantization trade-offs",
        text,
        json: json!({ "rows": rows }),
    }
}

fn scaleout() -> ExperimentResult {
    use ftsim_cost::{DistributedPlan, Interconnect, Parallelism, Topology};
    let mut text = String::new();
    let mut rows = Vec::new();
    let gpus = [1usize, 2, 4, 8];
    let cases = [
        (
            "Mixtral QLoRA (fp32 grads)",
            models::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            4usize,
        ),
        (
            "BlackMamba full (bf16 grads)",
            models::blackmamba_2p8b(),
            FineTuneConfig::full_sparse(),
            12,
        ),
    ];
    for (label, model, ft, batch) in cases {
        let plan = DistributedPlan::new(model, ft);
        for link in [Interconnect::nvlink3(), Interconnect::pcie4()] {
            let pts: Vec<_> = gpus
                .iter()
                .map(|&n| {
                    let topo = Topology::homogeneous(GpuSpec::a40(), n, link);
                    plan.simulate_step(&topo, Parallelism::Data, n * batch, 128)
                })
                .collect();
            let series: Vec<String> = pts
                .iter()
                .map(|p| {
                    format!(
                        "{}x{:.1}q/s({:.0}%)",
                        p.world_size,
                        p.queries_per_second(),
                        p.compute_fraction() * 100.0
                    )
                })
                .collect();
            let _ = writeln!(text, "{label:<30} {:<9} {}", link.name, series.join("  "));
            rows.push(json!({
                "case": label, "link": link.name,
                "points": pts.iter().map(|p| json!({
                    "gpus": p.world_size, "qps": p.queries_per_second(),
                    "efficiency": p.compute_fraction(),
                })).collect::<Vec<_>>(),
            }));
        }
    }
    let _ = writeln!(
        text,
        "extension of §VII future work: data-parallel scaling with ring all-reduce"
    );
    ExperimentResult {
        id: "scaleout",
        title: "Extension: multi-GPU data-parallel scaling estimate",
        text,
        json: json!({ "rows": rows }),
    }
}

// ------------------------------------------- Distributed cluster composition

/// One priced composition in the cluster cost table.
struct ClusterRow {
    gpu: String,
    world: usize,
    parallelism: &'static str,
    link: &'static str,
    max_batch: usize,
    fits: bool,
    step_seconds: f64,
    compute_seconds: f64,
    comm_seconds: f64,
    comm_pct: f64,
    qps: f64,
    usd_per_hour: f64,
    usd_per_million_queries: f64,
}

impl ClusterRow {
    fn to_json(&self) -> Value {
        json!({
            "gpu": self.gpu, "world": self.world, "parallelism": self.parallelism,
            "link": self.link, "max_batch": self.max_batch, "fits": self.fits,
            "step_seconds": self.step_seconds,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "comm_pct": self.comm_pct,
            "qps": self.qps,
            "usd_per_hour": self.usd_per_hour,
            "usd_per_million_queries": self.usd_per_million_queries,
        })
    }
}

fn cluster_row(
    plan: &ftsim_cost::DistributedPlan,
    gpu: &GpuSpec,
    world: usize,
    par: ftsim_cost::Parallelism,
    seq: usize,
    rate: f64,
) -> ClusterRow {
    use ftsim_cost::Topology;
    let topo = Topology::homogeneous(gpu.clone(), world, Topology::default_link_for(gpu));
    let mut row = ClusterRow {
        gpu: gpu.name.clone(),
        world,
        parallelism: par.key(),
        link: topo.link().name,
        max_batch: plan.max_batch(&topo, par, seq),
        fits: false,
        step_seconds: 0.0,
        compute_seconds: 0.0,
        comm_seconds: 0.0,
        comm_pct: 0.0,
        qps: 0.0,
        usd_per_hour: rate * world as f64,
        usd_per_million_queries: f64::INFINITY,
    };
    if row.max_batch == 0 {
        return row;
    }
    let step = plan.simulate_step(&topo, par, row.max_batch, seq);
    row.fits = true;
    row.step_seconds = step.total_seconds();
    row.compute_seconds = step.compute_seconds;
    row.comm_seconds = step.comm_seconds;
    row.comm_pct = 100.0 * step.comm_fraction();
    row.qps = step.queries_per_second();
    // Dollars to push one million queries through one fine-tuning epoch.
    row.usd_per_million_queries = row.usd_per_hour / (row.qps * 3600.0) * 1e6;
    row
}

/// Extension: the cost-optimal cluster-composition table. Prices every
/// (GPU type × world size × parallelism strategy) composition for the
/// paper's headline scenario (Mixtral-8x7B, QLoRA top-2, seq 79, CUDO
/// rates) with the distributed step simulator, at each point's largest
/// fitting global batch, and ranks compositions by dollars per million
/// queries. Pure math over the memoized traces — byte-stable, so CI diffs
/// the artifact across runs and against `baselines/cluster_baseline.json`.
fn cluster() -> ExperimentResult {
    use ftsim_cost::{DistributedPlan, Parallelism};

    let seq = 79usize;
    let model = models::mixtral_8x7b();
    let plan = DistributedPlan::new(model.clone(), FineTuneConfig::qlora_sparse());
    let prices = PriceTable::for_provider(CloudProvider::Cudo);
    let gpus = [GpuSpec::a40(), GpuSpec::a100_80(), GpuSpec::h100_80()];
    let worlds = [1usize, 2, 4, 8];

    let mut rows: Vec<ClusterRow> = Vec::new();
    for gpu in &gpus {
        let rate = prices
            .usd_per_hour(&gpu.name)
            .expect("CUDO lists every catalog GPU");
        for &world in &worlds {
            for par in Parallelism::all() {
                rows.push(cluster_row(&plan, gpu, world, par, seq, rate));
            }
        }
    }

    let best = rows
        .iter()
        .filter(|r| r.fits)
        .min_by(|a, b| {
            a.usd_per_million_queries
                .partial_cmp(&b.usd_per_million_queries)
                .expect("costs are finite")
        })
        .expect("at least one composition fits");

    // Deterministic metrics snapshot from a private registry (global obs
    // state untouched, so `repro all` concurrency cannot contaminate it);
    // the raw export doubles as the CI obs-diff baseline.
    let registry = ftsim_obs::Registry::default();
    registry.counter("cluster.rows").store(rows.len() as u64);
    registry
        .counter("cluster.rows.fit")
        .store(rows.iter().filter(|r| r.fits).count() as u64);
    registry
        .gauge("cluster.best.usd_per_million_queries")
        .store(best.usd_per_million_queries);
    registry
        .gauge("cluster.best.world")
        .store(best.world as f64);
    for r in &rows {
        // Reference point for the comm/compute split: the largest fleet of
        // the paper's baseline GPU.
        if r.gpu == "A40" && r.world == 8 && r.fits {
            registry
                .gauge(&format!("cluster.a40x8.{}.comm_pct", r.parallelism))
                .store(r.comm_pct);
        }
    }
    let metrics = registry.snapshot();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "cluster composition: Mixtral-S QLoRA, seq {seq}, CUDO rates, max-batch per point"
    );
    let _ = writeln!(
        text,
        "{:<10} {:>5} {:<7} {:<12} {:>6} {:>9} {:>7} {:>10}",
        "gpu", "world", "par", "link", "batch", "qps", "comm%", "$/Mquery"
    );
    for r in &rows {
        if r.fits {
            let _ = writeln!(
                text,
                "{:<10} {:>5} {:<7} {:<12} {:>6} {:>9.2} {:>6.1}% {:>10.2}",
                r.gpu,
                r.world,
                r.parallelism,
                r.link,
                r.max_batch,
                r.qps,
                r.comm_pct,
                r.usd_per_million_queries,
            );
        } else {
            let _ = writeln!(
                text,
                "{:<10} {:>5} {:<7} {:<12}   does not fit",
                r.gpu, r.world, r.parallelism, r.link,
            );
        }
    }
    let _ = writeln!(
        text,
        "cost-optimal: {}x{} {} at ${:.2}/Mquery",
        best.world, best.gpu, best.parallelism, best.usd_per_million_queries,
    );

    let table = json!({
        "scenario": json!({
            "model": "Mixtral-8x7B", "recipe": "qlora", "sparsity": "top-2",
            "seq_len": seq, "provider": "cudo",
        }),
        "rows": rows.iter().map(ClusterRow::to_json).collect::<Vec<_>>(),
        "best": best.to_json(),
    });
    ExperimentResult {
        id: "cluster",
        title: "Extension: cost-optimal cluster composition (distributed simulator)",
        text,
        json: Value::Object(vec![
            ("table".to_string(), table.clone()),
            (
                ARTIFACTS_KEY.to_string(),
                Value::Object(vec![
                    ("cluster_costs.json".to_string(), table),
                    (
                        "cluster_metrics.json".to_string(),
                        Value::String(metrics.to_json_string()),
                    ),
                ]),
            ),
        ]),
    }
}

/// Extension: expert-parallel all-to-all sensitivity. Fixes the fleet to
/// homogeneous A100-80GB and sweeps (link tier × world size × routing
/// density), reporting how much of each step the dispatch/combine
/// all-to-alls eat. Dense routing moves every token to all 8 experts —
/// the pathological upper bound the top-2 paper configuration avoids.
fn alltoall() -> ExperimentResult {
    use ftsim_cost::{DistributedPlan, Interconnect, Parallelism, Topology};

    let seq = 79usize;
    let batch = 8usize;
    let model = models::mixtral_8x7b();
    let cases = [
        ("top-2", FineTuneConfig::qlora_sparse()),
        ("dense", paper_recipe(&model, false)),
    ];

    let mut text = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(
        text,
        "expert-parallel all-to-all sensitivity: Mixtral on A100-80GB, batch {batch}, seq {seq}"
    );
    for (routing, ft) in cases {
        let plan = DistributedPlan::new(model.clone(), ft);
        for link in Interconnect::catalog() {
            let mut series = Vec::new();
            for world in [2usize, 4, 8, 16] {
                let topo = Topology::homogeneous(GpuSpec::a100_80(), world, link);
                let step = plan.simulate_step(&topo, Parallelism::Expert, batch, seq);
                series.push(format!("{}gpu {:.0}%", world, 100.0 * step.comm_fraction()));
                rows.push(json!({
                    "routing": routing, "link": link.name, "world": world,
                    "comm_seconds": step.comm_seconds,
                    "step_seconds": step.total_seconds(),
                    "comm_pct": 100.0 * step.comm_fraction(),
                    "qps": step.queries_per_second(),
                }));
            }
            let _ = writeln!(
                text,
                "{routing:<6} {:<12} comm share: {}",
                link.name,
                series.join("  ")
            );
        }
    }
    let _ = writeln!(
        text,
        "all-to-all bytes scale with activated experts: top-2 stays usable on \
         Ethernet, dense needs NVLink"
    );
    ExperimentResult {
        id: "alltoall",
        title: "Extension: expert-parallel all-to-all sensitivity sweep",
        text,
        json: json!({ "batch": batch, "seq_len": seq, "rows": rows }),
    }
}

// ----------------------------------------------------------------- Profile

/// Renders a [`Breakdown`] as `{key: {seconds, pct}}`.
fn breakdown_json(b: &Breakdown) -> Value {
    let total = b.total();
    Value::Object(
        b.sorted()
            .into_iter()
            .map(|(k, s)| (k, json!({ "seconds": s, "pct": 100.0 * s / total })))
            .collect(),
    )
}

/// Self-profile of the simulator under full observability: writes a
/// Chrome-trace (Perfetto-loadable) timeline and an aggregated summary as
/// named artifacts. Excluded from `repro all` because the recorded spans are
/// wall-clock timings.
///
/// Two process lanes share the trace document. `pid 1` is the *simulated*
/// A40 timeline: every priced kernel of one Mixtral-S step laid end to end
/// at its modeled latency — the Nsight-style view the paper's Figs. 4–6 are
/// read from. `pid 2` is the *wall-clock* timeline of the simulator's own
/// spans while it ran the Fig. 8 Mixtral-S/CS sweep and a small genuine MoE
/// training run.
///
/// The summary's stage/section/MoE-kernel percentages are computed from the
/// same `simulate_step` call the fig4/fig5/fig6 experiments price, so they
/// agree with those artifacts by construction.
fn profile() -> ExperimentResult {
    let model = models::mixtral_8x7b();
    let sparse = true;
    let gpu = GpuSpec::a40();
    let seq = 79; // Fig. 8's commonsense sequence length.
    let sim = sim_for(&model, sparse, gpu.clone());
    let mb = max_batch(&model, sparse, &gpu, seq).max(1);

    ftsim_obs::reset();
    ftsim_obs::enable();

    // Wall-clock work under the tracer: the Fig. 8 sweep (sim.sweep/sim.step
    // spans, per-kernel-class cost counters) ...
    let batches: Vec<usize> = (1..=mb).collect();
    let sweep = ThroughputSweep::run(&sim, "Mixtral-S/CS", seq, &batches)
        .unwrap_or_else(|e| panic!("throughput sweep failed: {e}"));

    // ... plus a genuine MoE training run (sim.train spans, loss and
    // tokens/sec gauges, the expert-token sketch and imbalance gauge).
    let task = ftsim_workload::SyntheticTask::commonsense(16, 4, 42);
    let outcome = moetrain::train(&task, &MoeTrainConfig::mixtral_like(2), "profile");

    // The simulated timeline: re-price the peak-batch step and read its
    // Nsight-style gauges.
    let trace = sim.simulate_step(mb, seq);
    trace
        .moe_overall_utilization()
        .publish_gauges("gpu.profile.moe");

    let metrics = ftsim_obs::registry().snapshot();
    ftsim_obs::disable();
    let events = ftsim_obs::drain_events();
    let tree = ftsim_obs::SpanTree::build(&events);

    let mut chrome = ftsim_obs::ChromeTrace::new();
    chrome.name_process(1, format!("simulated {} (modeled time)", gpu.name));
    chrome.name_thread(1, 0, "kernel stream");
    let attention = model.is_attention();
    let mut cursor_us = 0.0;
    for r in trace.records() {
        let dur_us = r.cost.latency_s * 1e6;
        chrome.add_complete(
            1,
            0,
            r.desc.kind.label(),
            format!("{}:{}", r.stage.label(), r.section.label(attention)),
            cursor_us,
            dur_us,
        );
        cursor_us += dur_us;
    }
    chrome.name_process(2, "ftsim (wall clock)");
    chrome.add_recorded(&events, 2);

    let stage = trace.stage_breakdown();
    let section = trace.section_breakdown();
    let moe_kernels = trace.moe_kernel_breakdown();
    let util = trace.moe_overall_utilization();

    let summary = json!({
        "config": json!({
            "model": "Mixtral-8x7B", "recipe": "qlora", "sparsity": "top-2",
            "gpu": gpu.name.clone(), "seq_len": seq, "batch": mb,
        }),
        "step": json!({
            "total_seconds": trace.total_seconds(),
            "kernels": trace.kernel_count(),
            "unique_kernels": trace.unique_kernel_count(),
            "stage_breakdown": breakdown_json(&stage),
            "section_breakdown": breakdown_json(&section),
            "moe_kernel_breakdown": breakdown_json(&moe_kernels),
            "moe_utilization": json!({
                "sm": util.sm_util, "dram": util.dram_util, "seconds": util.seconds,
            }),
        }),
        "sweep": json!({
            "label": sweep.label.clone(), "seq_len": sweep.seq_len,
            "points": sweep.points.len(),
            "qps_at_batch_1": sweep.qps_at(1).unwrap_or(0.0),
            "peak_qps": sweep.peak_qps(),
        }),
        "training": json!({
            "final_accuracy": outcome.final_accuracy(),
            "imbalance_delta": outcome.imbalance_delta(),
        }),
        "span_count": events.len(),
        "chrome_event_count": chrome.len(),
        "metrics": serde_json::from_str(&metrics.to_json_string())
            .expect("registry snapshot is valid JSON"),
    });

    let mut text = String::new();
    let _ = writeln!(
        text,
        "profile: Mixtral-S/CS on {}, seq {seq}, batch {mb}",
        gpu.name
    );
    let _ = writeln!(
        text,
        "simulated step: {:.0} ms, {} kernels ({} unique)",
        trace.total_seconds() * 1e3,
        trace.kernel_count(),
        trace.unique_kernel_count()
    );
    let _ = writeln!(
        text,
        "  stages: fwd {:.1}%  bwd {:.1}%  opt {:.1}%",
        stage.percent("forward"),
        stage.percent("backward"),
        stage.percent("optimizer")
    );
    let _ = writeln!(
        text,
        "  moe utilization: sm {:.0}%  dram {:.0}%",
        util.sm_util * 100.0,
        util.dram_util * 100.0
    );
    let _ = writeln!(
        text,
        "sweep: {} points, peak {:.2} qps; training: final acc {:.2}",
        sweep.points.len(),
        sweep.peak_qps(),
        outcome.final_accuracy()
    );
    let _ = writeln!(
        text,
        "{} wall-clock spans, {} chrome events; span tree:",
        events.len(),
        chrome.len()
    );
    text.push_str(&tree.render());

    ExperimentResult {
        id: "profile",
        title: "Self-profile: Chrome trace + metrics across the full stack",
        text,
        json: Value::Object(vec![
            ("summary".to_string(), summary.clone()),
            (
                ARTIFACTS_KEY.to_string(),
                Value::Object(vec![
                    (
                        "profile_trace.json".to_string(),
                        Value::String(chrome.to_json_string()),
                    ),
                    ("profile_summary.json".to_string(), summary),
                    // The raw registry export, byte-stable (sorted keys), so
                    // it can serve directly as an `obs-diff` baseline.
                    (
                        "profile_metrics.json".to_string(),
                        Value::String(metrics.to_json_string()),
                    ),
                ]),
            ),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_run_and_produce_output() {
        // fig3/fig11 do real training; keep them but this is the slowest test.
        for id in experiment_ids() {
            let r = run(id);
            assert_eq!(r.id, id);
            assert!(!r.text.is_empty(), "{id} produced no text");
            assert!(!r.json.is_null(), "{id} produced no json");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run("fig99");
    }

    /// A stdout whose reader is gone, or that fails some other way.
    struct FailingOut(std::io::ErrorKind);

    impl std::io::Write for FailingOut {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_closed_stdout_drops_no_artifact() {
        // `cluster` carries a JSON and a pre-rendered extra artifact.
        let results = [run("table1"), run("cluster")];
        let root = std::env::temp_dir().join(format!("repro-report-{}", std::process::id()));
        let files = |dir: &Path| {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };

        let open_dir = root.join("open");
        std::fs::create_dir_all(&open_dir).unwrap();
        let mut printed = Vec::new();
        assert_eq!(write_results(&results, &open_dir, &mut printed), 0);
        let printed = String::from_utf8(printed).unwrap();
        assert_eq!(
            files(&open_dir),
            [
                "cluster.json",
                "cluster_costs.json",
                "cluster_metrics.json",
                "table1.json"
            ]
        );
        for name in files(&open_dir) {
            let line = format!("[artifact: {}]", open_dir.join(&name).display());
            assert!(printed.contains(&line), "{name} not reported");
        }

        for (kind, code) in [
            (std::io::ErrorKind::BrokenPipe, 0),
            (std::io::ErrorKind::Other, 1),
        ] {
            let dir = root.join(format!("{kind:?}"));
            std::fs::create_dir_all(&dir).unwrap();
            assert_eq!(write_results(&results, &dir, &mut FailingOut(kind)), code);
            assert_eq!(files(&dir), files(&open_dir), "{kind:?}");
            for name in files(&dir) {
                assert_eq!(
                    std::fs::read(dir.join(&name)).unwrap(),
                    std::fs::read(open_dir.join(&name)).unwrap(),
                    "{kind:?}: {name}"
                );
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Unwraps an array value.
    fn rows_of<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
        match v.get(key) {
            Some(Value::Array(rows)) => rows,
            other => panic!("expected {key} array, got {other:?}"),
        }
    }

    /// Unwraps a float (ints promote, matching the artifact encoding).
    fn num_of(v: &Value, key: &str) -> f64 {
        match v.get(key) {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            other => panic!("expected number {key}, got {other:?}"),
        }
    }

    #[test]
    fn cluster_table_covers_the_grid_and_is_byte_stable() {
        let r = run("cluster");
        let table = r.json.get("table").expect("table");
        let rows = rows_of(table, "rows");
        // ≥3 GPU types × ≥3 world sizes × {data, tensor, expert}.
        assert_eq!(rows.len(), 3 * 4 * 3);
        let distinct = |key: &str| {
            let mut v: Vec<String> = rows
                .iter()
                .map(|r| format!("{:?}", r.get(key).expect(key)))
                .collect();
            v.sort();
            v.dedup();
            v.len()
        };
        assert_eq!(distinct("gpu"), 3);
        assert_eq!(distinct("world"), 4);
        assert_eq!(distinct("parallelism"), 3);
        let best = table.get("best").expect("best");
        assert_eq!(best.get("fits"), Some(&Value::Bool(true)));
        assert!(num_of(best, "usd_per_million_queries") > 0.0);

        // Pure math over memoized traces: a second run is byte-identical.
        let again = run("cluster");
        assert_eq!(
            serde_json::to_string(&r.json).unwrap(),
            serde_json::to_string(&again.json).unwrap()
        );
    }

    #[test]
    fn cluster_degenerate_row_matches_the_single_gpu_estimate() {
        let r = run("cluster");
        let rows = rows_of(r.json.get("table").expect("table"), "rows");
        let row = rows
            .iter()
            .find(|r| {
                r.get("gpu") == Some(&json!("A40"))
                    && r.get("world") == Some(&json!(1))
                    && r.get("parallelism") == Some(&json!("data"))
            })
            .expect("degenerate A40 row");
        // Bit-identical to the paper's single-GPU path: same Eq. 1 max
        // batch, same simulated step time.
        let model = models::mixtral_8x7b();
        let ft = FineTuneConfig::qlora_sparse();
        let batch = MemoryModel::new(&model, &ft).max_batch_size(&GpuSpec::a40(), 79);
        assert_eq!(row.get("max_batch"), Some(&json!(batch)));
        let step = StepSimulator::new(model, ft, a40())
            .simulate_step(batch, 79)
            .total_seconds();
        assert_eq!(num_of(row, "step_seconds").to_bits(), step.to_bits());
        assert_eq!(num_of(row, "comm_seconds"), 0.0);
    }

    #[test]
    fn alltoall_comm_share_grows_with_world_and_shrinks_with_bandwidth() {
        let r = run("alltoall");
        let rows = rows_of(&r.json, "rows");
        let pct = |routing: &str, link: &str, world: usize| -> f64 {
            let row = rows
                .iter()
                .find(|r| {
                    r.get("routing") == Some(&json!(routing))
                        && r.get("link") == Some(&json!(link))
                        && r.get("world") == Some(&json!(world))
                })
                .unwrap_or_else(|| panic!("missing row {routing}/{link}/{world}"));
            num_of(row, "comm_pct")
        };
        for routing in ["top-2", "dense"] {
            assert!(pct(routing, "NVLink3", 16) > pct(routing, "NVLink3", 2));
            assert!(pct(routing, "Ethernet100G", 8) > pct(routing, "NVLink3", 8));
        }
        // Dense routing moves 4x the bytes of top-2.
        assert!(pct("dense", "PCIe4x16", 8) > pct("top-2", "PCIe4x16", 8));
    }

    #[test]
    fn profile_artifacts_parse_and_agree_with_figure_aggregates() {
        let r = run("profile");
        assert_eq!(r.id, "profile");
        assert!(!experiment_ids().contains(&"profile"));
        assert!(extra_experiment_ids().contains(&"profile"));

        let artifacts = match r.json.get(ARTIFACTS_KEY) {
            Some(Value::Object(a)) => a,
            other => panic!("missing artifacts object: {other:?}"),
        };
        let lookup = |name: &str| -> &Value {
            artifacts
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing artifact {name}"))
        };

        // The Chrome trace parses back and has complete events on both the
        // simulated-GPU lane (pid 1) and the wall-clock lane (pid 2).
        let raw = match lookup("profile_trace.json") {
            Value::String(s) => s,
            other => panic!("trace artifact should be a raw string: {other:?}"),
        };
        let trace = serde_json::from_str(raw).expect("trace is valid JSON");
        let events = match trace.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("missing traceEvents: {other:?}"),
        };
        let on_lane = |e: &Value, pid: i64| {
            matches!(e.get("ph"), Some(Value::String(p)) if p == "X")
                && matches!(e.get("pid"), Some(Value::Int(p)) if *p == pid)
        };
        let lane = |pid: i64| events.iter().filter(|e| on_lane(e, pid)).count();
        assert!(lane(1) > 100, "simulated lane has {} events", lane(1));
        assert!(lane(2) > 10, "wall-clock lane has {} events", lane(2));

        // The summary's stage shares come from the same simulate_step the
        // figure experiments price; re-derive the reference breakdown and
        // require agreement within 5 percentage points.
        let summary = lookup("profile_summary.json");
        let pct = |stage: &str| -> f64 {
            let v = summary
                .get("step")
                .and_then(|s| s.get("stage_breakdown"))
                .and_then(|b| b.get(stage))
                .and_then(|s| s.get("pct"));
            match v {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                other => panic!("missing {stage} pct: {other:?}"),
            }
        };
        let model = models::mixtral_8x7b();
        let mb = max_batch(&model, true, &GpuSpec::a40(), 79).max(1);
        let reference = sim_for(&model, true, GpuSpec::a40())
            .simulate_step(mb, 79)
            .stage_breakdown();
        for stage in ["forward", "backward", "optimizer"] {
            let got = pct(stage);
            let want = reference.percent(stage);
            assert!(
                (got - want).abs() < 5.0,
                "{stage}: profile {got:.1}% vs reference {want:.1}%"
            );
        }

        // The simulated lane draws the same `trace.records()` the summary
        // aggregates: its durations summed by the stage prefix of `cat`
        // ("<stage>:<section>") reproduce every stage share within 0.1 pp.
        let mut lane_us = std::collections::BTreeMap::<&str, f64>::new();
        for e in events.iter().filter(|e| on_lane(e, 1)) {
            let stage = match e.get("cat") {
                Some(Value::String(cat)) => cat.split(':').next().unwrap_or(cat),
                other => panic!("simulated event without a cat: {other:?}"),
            };
            *lane_us.entry(stage).or_default() += num_of(e, "dur");
        }
        let lane_total: f64 = lane_us.values().sum();
        assert_eq!(
            lane_us.len(),
            3,
            "stages on the simulated lane: {lane_us:?}"
        );
        for (stage, us) in &lane_us {
            let got = 100.0 * us / lane_total;
            let want = pct(stage);
            assert!(
                (got - want).abs() < 0.1,
                "{stage}: trace lane {got:.3}% vs summary {want:.3}%"
            );
        }
    }

    #[test]
    fn table3_reports_exact_matches() {
        let r = run("table3");
        assert!(
            r.text.contains("exact matches: 7/8") || r.text.contains("exact matches: 8/8"),
            "{}",
            r.text
        );
    }

    #[test]
    fn table4_ranks_h100_cheapest() {
        let r = run("table4");
        assert!(
            r.text.contains("most cost-effective: H100-80GB"),
            "{}",
            r.text
        );
    }
}
