//! Golden training outcomes: every line of `golden_outcomes.jsonl` must be
//! reproduced bit for bit. Each line is one genuine one-epoch fine-tune —
//! the eight seed-1 tasks of the `finetune-sparse` benchmark at
//! `mixtral_like(2)`, plus one dense `mixtral_like(8)` run and one
//! `blackmamba_like(2)` run — on the fused and the naive kernel path. Every
//! `f64` of the `MoeTrainOutcome` (accuracies, losses, both routing
//! distributions) is written as the hex of its `to_bits`, so a change that
//! moves any result by one ulp fails here.

use ftsim_sim::moetrain::train_with_options;
use ftsim_sim::{MoeTrainConfig, MoeTrainOutcome};
use ftsim_workload::SyntheticTask;

const GOLDEN: &str = include_str!("golden_outcomes.jsonl");

/// The runs, in file order: (model name, config, task seed).
fn runs() -> Vec<(&'static str, MoeTrainConfig, u64)> {
    let one_epoch = |cfg: MoeTrainConfig| MoeTrainConfig { epochs: 1, ..cfg };
    let mut runs: Vec<_> = (0..8)
        .map(|k| {
            (
                "mixtral_like(2)",
                one_epoch(MoeTrainConfig::mixtral_like(2)),
                8 + k,
            )
        })
        .collect();
    runs.push((
        "mixtral_like(8)",
        one_epoch(MoeTrainConfig::mixtral_like(8)),
        8,
    ));
    runs.push((
        "blackmamba_like(2)",
        one_epoch(MoeTrainConfig::blackmamba_like(2)),
        8,
    ));
    runs
}

fn bits(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

fn bits_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| bits(v)).collect();
    format!("[{}]", items.join(","))
}

fn render(model: &str, task: u64, fused: bool, out: &MoeTrainOutcome) -> String {
    let curve: Vec<String> = out
        .curve
        .iter()
        .map(|m| {
            format!(
                "[{},{},{}]",
                m.epoch,
                bits(m.train_loss),
                bits(m.eval_accuracy)
            )
        })
        .collect();
    format!(
        "{{\"model\":\"{model}\",\"task\":{task},\"fused\":{fused},\"initial_accuracy\":{},\"curve\":[{}],\"routing_before\":{},\"routing_after\":{}}}",
        bits(out.initial_accuracy),
        curve.join(","),
        bits_list(&out.routing_before.pct),
        bits_list(&out.routing_after.pct),
    )
}

#[test]
fn training_outcomes_match_the_golden_bits() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let cases: Vec<(&str, MoeTrainConfig, u64, bool)> = runs()
        .into_iter()
        .flat_map(|(model, cfg, task)| [true, false].map(|fused| (model, cfg, task, fused)))
        .collect();
    assert_eq!(golden.len(), cases.len(), "one golden line per run");
    // Two workers keep the debug-build run short; each run is
    // single-threaded, so the outcomes do not depend on the split.
    let rendered: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = cases
            .chunks(cases.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(model, cfg, task, fused)| {
                            let out = train_with_options(
                                &SyntheticTask::commonsense(16, 4, task),
                                &cfg,
                                "golden",
                                fused,
                                1,
                            );
                            render(model, task, fused, &out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("golden worker panicked"))
            .collect()
    });
    for (line, expected) in rendered.iter().zip(&golden) {
        assert_eq!(line, expected, "outcome diverged from the golden bits");
    }
}
