//! `finetune-sparse`: repeated one-epoch fine-tunes of the paper's sparse
//! top-2 MoE, and the traced probe that splits a unit into its layers.

use std::time::{Duration, Instant};

use ftsim_sim::moetrain::train_with_options;
use ftsim_sim::{MoeTrainConfig, MoeTrainOutcome};
use ftsim_tensor::nn::{AdamW, Linear, MoeLayer};
use ftsim_tensor::{autograd, pool, Activation, Tensor, Var};
use ftsim_workload::{SyntheticTask, TaskSample};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{mean, median, overhead_pct, Tracer, Windows};
use crate::{Report, TRAIN_THREADS};

/// Times the tasks are built and warmed up; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Rounds of the traced probe; fixed so its counters repeat exactly.
const PROBE_ROUNDS: usize = 10;
/// Tasks a run trains in rotation. The task alone moves a unit's cost by up
/// to ±18% (its data decides how tokens route, and so the expert matmul
/// shapes), so a run averages eight tasks rather than depending on one.
const TASKS: u64 = 8;

/// The unit's configuration: `mixtral_like(2)` trained for one epoch, i.e.
/// 8 AdamW steps of batch 64, each split into 4 microbatches of 16.
pub fn config() -> MoeTrainConfig {
    MoeTrainConfig {
        epochs: 1,
        ..MoeTrainConfig::mixtral_like(2)
    }
}

/// Task `k` of the rotation for workload seed `seed`; seeds never share a
/// task.
pub fn task(seed: u64, k: u64) -> SyntheticTask {
    SyntheticTask::commonsense(16, 4, seed.wrapping_mul(TASKS).wrapping_add(k))
}

pub fn tasks(seed: u64) -> Vec<SyntheticTask> {
    (0..TASKS).map(|k| task(seed, k)).collect()
}

fn steps_per_unit(cfg: &MoeTrainConfig) -> usize {
    cfg.epochs * cfg.train_examples.div_ceil(cfg.batch)
}

/// One unit of work: a whole `train_with_options` call.
pub fn unit(task: &SyntheticTask, cfg: &MoeTrainConfig, fused: bool) -> MoeTrainOutcome {
    train_with_options(task, cfg, "ftbench", fused, TRAIN_THREADS)
}

/// A unit is correct when it reproduces the warm-up unit exactly and the
/// fine-tune improved held-out accuracy.
fn unit_ok(out: &MoeTrainOutcome, reference: &MoeTrainOutcome) -> bool {
    out == reference && out.final_accuracy() > out.initial_accuracy
}

/// Runs `f` on a fresh thread: the buffer pool and node arena are
/// thread-local, so each call starts with them empty.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("benchmark thread panicked"))
}

/// The end-to-end run. Traced, every other window is recorded as a span and
/// the report holds the traced throughput and the tracing overhead.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let cfg = config();
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut first_references: Option<Vec<MoeTrainOutcome>> = None;
    let mut timed = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (setup_s, references, phase) = on_fresh_thread(|| {
            let started = Instant::now();
            let tasks = tasks(seed);
            let references: Vec<_> = tasks.iter().map(|t| unit(t, &cfg, true)).collect();
            let setup_s = started.elapsed().as_secs_f64();
            let phase = last.then(|| timed_units(&tasks, &cfg, &references, seconds, traced));
            (setup_s, references, phase)
        });
        setups.push(setup_s);
        let first = first_references.get_or_insert_with(|| references.clone());
        for (reference, first) in references.iter().zip(first.iter()) {
            report.check(unit_ok(reference, first));
        }
        timed = timed.or(phase);
    }
    let (plain, spans, checked) = timed.expect("the last set-up runs the timed phase");
    report.absorb_counts(&checked);
    let examples = (TASKS as usize * cfg.train_examples) as f64;
    eprintln!("rotations of {TASKS} units: {}", plain.describe());
    if traced {
        report.metric("trace.throughput_per_s", spans.rate(examples), "1/s");
        report.metric("trace.overhead_pct", overhead_pct(&plain, &spans), "%");
    } else {
        report.metric("throughput_per_s", plain.rate(examples), "1/s");
        report.metric("latency_p50_us", plain.p50_us(), "us");
        report.metric("latency_p90_us", plain.p90_us(), "us");
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mib", crate::stats::peak_rss_mib(), "MiB");
    }
    report
}

/// The timed phase: rotations over the tasks until `seconds` have passed.
/// Each rotation (one unit per task) is one equal-work window. Returns the
/// untraced and traced windows and the checks.
fn timed_units(
    tasks: &[SyntheticTask],
    cfg: &MoeTrainConfig,
    references: &[MoeTrainOutcome],
    seconds: f64,
    traced: bool,
) -> (Windows, Windows, Report) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain, mut spans) = (Windows::default(), Windows::default());
    let mut tracer = Tracer::default();
    let mut checked = Report::default();
    let mut unit_us = Vec::with_capacity(tasks.len());
    while Instant::now() < deadline {
        let trace_this = traced && (plain.secs.len() + spans.secs.len()) % 2 == 1;
        unit_us.clear();
        for (task, reference) in tasks.iter().zip(references) {
            let started = Instant::now();
            let out = if trace_this {
                tracer.span("sim.moetrain.unit", None, || unit(task, cfg, true))
            } else {
                unit(task, cfg, true)
            };
            let secs = started.elapsed().as_secs_f64();
            checked.check(unit_ok(&out, reference));
            unit_us.push(secs * 1e6);
        }
        let windows = if trace_this { &mut spans } else { &mut plain };
        windows.push(unit_us.iter().sum::<f64>() / 1e6, &unit_us);
    }
    (plain, spans, checked)
}

/// The moetrain model rebuilt from public `nn` calls: same shapes, same
/// initialization order, so it routes and learns like the unit's model.
struct Replica {
    input: Linear,
    moe: MoeLayer,
    head: Linear,
    params: Vec<Var>,
    opt: AdamW,
    train: TaskSample,
}

impl Replica {
    fn new(task: &SyntheticTask, cfg: &MoeTrainConfig) -> Replica {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let input = Linear::new(task.dim(), cfg.hidden, &mut rng);
        let moe = MoeLayer::new(
            cfg.expert_kind,
            cfg.hidden,
            cfg.ffn,
            cfg.num_experts,
            cfg.top_k,
            &mut rng,
        )
        .expect("valid MoE configuration");
        let head = Linear::new(cfg.hidden, task.classes(), &mut rng);
        let mut params = input.parameters();
        params.extend(moe.parameters());
        params.extend(head.parameters());
        let opt = AdamW::new(cfg.lr, params.len());
        let train = task.sample(cfg.train_examples, &mut rng);
        Replica {
            input,
            moe,
            head,
            params,
            opt,
            train,
        }
    }

    fn gather(&self, rows: std::ops::Range<usize>) -> (Tensor, Vec<usize>) {
        let dim = self.train.features.shape().dims()[1];
        let mut data = Vec::with_capacity(rows.len() * dim);
        for i in rows.clone() {
            data.extend_from_slice(self.train.features.row(i));
        }
        let labels = self.train.labels[rows.clone()].to_vec();
        (
            Tensor::new([rows.len(), dim], data).expect("consistent dims"),
            labels,
        )
    }

    /// One optimizer step over batch `index`, with spans for the forward
    /// passes, the backward passes and the AdamW update. Gradients of the
    /// microbatches accumulate in place; there is no snapshot, replica
    /// rebuild or tree reduction. Adds expert token counts to `tokens`.
    fn step(
        &mut self,
        cfg: &MoeTrainConfig,
        index: usize,
        tracer: &mut Tracer,
        tokens: &mut [usize],
    ) {
        let step = tracer.begin("tensor.step", None);
        let start = index * cfg.batch;
        let end = (start + cfg.batch).min(self.train.len());
        let scale_base = (end - start) as f32;
        for mb in (start..end).step_by(cfg.microbatch) {
            let rows = mb..(mb + cfg.microbatch).min(end);
            let share = rows.len() as f32 / scale_base;
            let (x, labels) = self.gather(rows);
            let loss = tracer.span("tensor.nn.forward", Some(step), || {
                let hidden = self
                    .input
                    .forward_act(&Var::constant(x), Activation::Relu)
                    .expect("input projection");
                let (mixed, routing) = self.moe.forward_with(&hidden, true).expect("moe forward");
                for (total, n) in tokens.iter_mut().zip(&routing.tokens_per_expert) {
                    *total += n;
                }
                let res = mixed.add(&hidden).expect("same shape");
                let logits = self
                    .head
                    .forward_act(&res, Activation::Identity)
                    .expect("head");
                logits
                    .cross_entropy(&labels)
                    .expect("labels in range")
                    .scale(share)
            });
            tracer.span("tensor.autograd.backward", Some(step), || loss.backward());
        }
        tracer.span("tensor.nn.adamw", Some(step), || {
            self.opt.step(&self.params)
        });
        tracer.end(step);
    }
}

/// Coefficient of variation (population std / mean) of per-expert counts.
fn cv(counts: &[usize]) -> f64 {
    let values: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let m = mean(&values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / m
}

/// The traced layer probe: `PROBE_ROUNDS` rounds, each timing a fused unit,
/// an eval-only call (`epochs = 0`), one unit's worth of replica steps and
/// a naive-kernel unit. Runs on one fresh thread so its pool and arena
/// counters start from zero and repeat exactly.
pub fn probe(seed: u64) -> Report {
    on_fresh_thread(|| {
        let cfg = config();
        let eval_cfg = MoeTrainConfig { epochs: 0, ..cfg };
        let steps = steps_per_unit(&cfg);
        let task = task(seed, 0);
        let mut report = Report::default();
        let reference = unit(&task, &cfg, true);
        report.check(reference.final_accuracy() > reference.initial_accuracy);
        let mut tracer = Tracer::default();
        let mut tokens = vec![0usize; cfg.num_experts];
        let (mut fresh_buffers, mut fresh_nodes) = (0, 0);
        for _ in 0..PROBE_ROUNDS {
            let (pool0, arena0) = (pool::stats(), autograd::arena_stats());
            let out = tracer.span("sim.moetrain.unit", None, || unit(&task, &cfg, true));
            fresh_buffers = pool::stats().allocs_since(&pool0);
            fresh_nodes = autograd::arena_stats().allocs_since(&arena0);
            report.check(unit_ok(&out, &reference));
            tracer.span("sim.moetrain.eval", None, || unit(&task, &eval_cfg, true));
            let mut replica = Replica::new(&task, &cfg);
            // Routing imbalance is read on the first round only, so the
            // figure is the same whatever the round count.
            let mut sink = vec![0usize; cfg.num_experts];
            let counts = if tokens.iter().all(|&t| t == 0) {
                &mut tokens
            } else {
                &mut sink
            };
            for s in 0..steps {
                replica.step(&cfg, s, &mut tracer, counts);
            }
            let naive = tracer.span("sim.moetrain.naive_unit", None, || unit(&task, &cfg, false));
            report.check(naive == reference);
        }
        let t = tracer.totals();
        let per_step = |name: &str| t[name].total_us / t["tensor.step"].count as f64;
        let (unit_us, eval_us, step_us) = (
            t["sim.moetrain.unit"].mean_us(),
            t["sim.moetrain.eval"].mean_us(),
            t["tensor.step"].mean_us(),
        );
        let overhead_us = (unit_us - eval_us) / steps as f64 - step_us;
        report.metric("sim.moetrain.unit_us", unit_us, "us");
        report.metric("sim.moetrain.eval_us", eval_us, "us");
        report.metric("sim.moetrain.step_overhead_us", overhead_us, "us");
        report.metric(
            "sim.moetrain.naive_unit_us",
            t["sim.moetrain.naive_unit"].mean_us(),
            "us",
        );
        report.metric("tensor.step_us", step_us, "us");
        report.metric("tensor.nn.forward_us", per_step("tensor.nn.forward"), "us");
        report.metric(
            "tensor.autograd.backward_us",
            per_step("tensor.autograd.backward"),
            "us",
        );
        report.metric("tensor.nn.adamw_us", per_step("tensor.nn.adamw"), "us");
        report.metric(
            "tensor.step.remainder_us",
            t["tensor.step"].mean_self_us(),
            "us",
        );
        report.metric(
            "tensor.pool.fresh_per_step",
            fresh_buffers as f64 / steps as f64,
            "count",
        );
        report.metric("tensor.pool.resident", pool::resident() as f64, "count");
        report.metric(
            "tensor.autograd.fresh_nodes_per_step",
            fresh_nodes as f64 / steps as f64,
            "count",
        );
        report.metric("tensor.nn.expert_rows_cv", cv(&tokens), "ratio");
        report.metric(
            "tensor.simd_active",
            f64::from(u8::from(ftsim_tensor::simd::active())),
            "bool",
        );
        eprintln!(
            "finetune tree (us): unit {unit_us:.1} = eval {eval_us:.1} + {steps} x (replica step {step_us:.1} + overhead {overhead_us:.1}); \
             replica step = forward {:.1} + backward {:.1} + adamw {:.1} + remainder {:.1}",
            per_step("tensor.nn.forward"),
            per_step("tensor.autograd.backward"),
            per_step("tensor.nn.adamw"),
            t["tensor.step"].mean_self_us(),
        );
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_units() {
        let cfg = config();
        assert_eq!(tasks(3), tasks(3));
        assert_ne!(tasks(3)[0], tasks(4)[0]);
        assert_ne!(tasks(3)[0], tasks(3)[1]);
        let a = unit(&task(3, 0), &cfg, true);
        let b = unit(&task(3, 0), &cfg, true);
        assert!(unit_ok(&a, &b), "unit must repeat exactly and learn");
        assert_eq!(steps_per_unit(&cfg), 8);
    }

    #[test]
    fn every_task_learns_within_one_epoch() {
        let cfg = config();
        for seed in 1..=3 {
            for (k, task) in tasks(seed).iter().enumerate() {
                let out = unit(task, &cfg, true);
                assert!(
                    out.final_accuracy() > out.initial_accuracy,
                    "seed {seed} task {k}: {} -> {}",
                    out.initial_accuracy,
                    out.final_accuracy()
                );
            }
        }
    }

    #[test]
    fn coefficient_of_variation() {
        assert_eq!(cv(&[4, 4, 4, 4]), 0.0);
        assert!((cv(&[0, 8]) - 1.0).abs() < 1e-12);
    }
}
