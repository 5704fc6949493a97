//! Genuinely-trained CPU-scale MoE models (the emergent counterpart of the
//! paper's Fig. 3 trainability study and Fig. 11 load-imbalance study).
//!
//! A small classifier — input projection, one mixture-of-experts layer with
//! top-k softmax gating, classification head — is trained with real AdamW
//! on the synthetic tasks of [`ftsim_workload::task`]. Nothing about the
//! outcome is scripted: learning curves, sparse-vs-dense parity, and
//! routing-distribution drift all emerge from optimization, at a scale a
//! laptop CPU handles in milliseconds.

use crate::routing::TokenDistribution;
use ftsim_tensor::nn::{AdamW, ExpertKind, Linear, MoeLayer};
use ftsim_tensor::{ops, Activation, Tensor, Var};
use ftsim_workload::task::{SyntheticTask, TaskSample};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoeTrainConfig {
    /// Width of the residual stream.
    pub hidden: usize,
    /// Expert inner width.
    pub ffn: usize,
    /// Number of experts.
    pub num_experts: usize,
    /// Experts activated per token (`num_experts` = dense).
    pub top_k: usize,
    /// Expert architecture.
    pub expert_kind: ExpertKind,
    /// Fine-tuning epochs (the paper uses 10).
    pub epochs: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Microbatch size for the data-parallel training step: each batch is
    /// split into a fixed grid of `microbatch`-sized slices whose gradients
    /// are computed by up to `FTSIM_THREADS` workers and combined by a
    /// deterministic tree reduction. `0` (the serde default, for configs
    /// written before this field existed) means one microbatch per batch —
    /// bit-identical to the historical single-threaded full-batch step.
    /// The grid depends only on this value, never on the worker count, so
    /// results are bit-identical at any thread count.
    #[serde(default)]
    pub microbatch: usize,
    /// Training examples drawn from the task.
    pub train_examples: usize,
    /// Held-out evaluation examples.
    pub eval_examples: usize,
    /// RNG seed (initialization + batching).
    pub seed: u64,
}

impl MoeTrainConfig {
    /// A Mixtral-like small model: SwiGLU experts, 8 experts.
    pub fn mixtral_like(top_k: usize) -> Self {
        MoeTrainConfig {
            hidden: 32,
            ffn: 64,
            num_experts: 8,
            top_k,
            expert_kind: ExpertKind::SwiGlu,
            epochs: 10,
            lr: 8e-3,
            batch: 64,
            microbatch: 16,
            train_examples: 512,
            eval_examples: 256,
            seed: 1234,
        }
    }

    /// A BlackMamba-like smaller model: GELU-FFN experts, less capacity —
    /// mirrors "the smaller model takes relatively more epochs".
    pub fn blackmamba_like(top_k: usize) -> Self {
        MoeTrainConfig {
            hidden: 16,
            ffn: 32,
            expert_kind: ExpertKind::GeluFfn,
            lr: 6e-3,
            ..Self::mixtral_like(top_k)
        }
    }
}

/// Metrics after one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochMetric {
    /// Epoch index (1-based; epoch 0 is the untrained model).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Held-out accuracy after the epoch.
    pub eval_accuracy: f64,
}

/// The outcome of one genuine training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoeTrainOutcome {
    /// Run label.
    pub label: String,
    /// Accuracy of the untrained model (epoch 0).
    pub initial_accuracy: f64,
    /// Per-epoch metrics.
    pub curve: Vec<EpochMetric>,
    /// Expert token distribution on the eval set before training.
    pub routing_before: TokenDistribution,
    /// Expert token distribution on the eval set after training.
    pub routing_after: TokenDistribution,
}

impl MoeTrainOutcome {
    /// Final held-out accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.curve.last().map(|m| m.eval_accuracy).unwrap_or(0.0)
    }

    /// Best held-out accuracy over all epochs.
    pub fn peak_accuracy(&self) -> f64 {
        self.curve
            .iter()
            .map(|m| m.eval_accuracy)
            .fold(self.initial_accuracy, f64::max)
    }

    /// Change in routing-imbalance variance caused by fine-tuning
    /// (the Fig. 11 metric, measured rather than calibrated).
    pub fn imbalance_delta(&self) -> f64 {
        self.routing_after.variance() - self.routing_before.variance()
    }
}

/// The small MoE classifier.
struct Classifier {
    input: Linear,
    moe: MoeLayer,
    head: Linear,
}

impl Classifier {
    fn new(task_dim: usize, classes: usize, cfg: &MoeTrainConfig, rng: &mut StdRng) -> Self {
        Classifier {
            input: Linear::new(task_dim, cfg.hidden, rng),
            moe: MoeLayer::new(
                cfg.expert_kind,
                cfg.hidden,
                cfg.ffn,
                cfg.num_experts,
                cfg.top_k,
                rng,
            )
            .expect("valid MoE configuration"),
            head: Linear::new(cfg.hidden, classes, rng),
        }
    }

    /// Rebuilds the classifier from a parameter snapshot, in the order
    /// [`Classifier::parameters`] reports it. `Var` graphs are thread-local
    /// (`Rc`-based), so each data-parallel worker reconstructs its own
    /// replica from the `Send` tensor snapshot instead of sharing variables.
    fn from_parameters(cfg: &MoeTrainConfig, params: &mut impl Iterator<Item = Tensor>) -> Self {
        let input = Linear::from_parts(
            params.next().expect("input weight"),
            params.next().expect("input bias"),
        );
        let moe = MoeLayer::from_parameters(cfg.expert_kind, cfg.num_experts, cfg.top_k, params)
            .expect("valid MoE configuration");
        let head = Linear::from_parts(
            params.next().expect("head weight"),
            params.next().expect("head bias"),
        );
        Classifier { input, moe, head }
    }

    fn parameters(&self) -> Vec<Var> {
        let mut p = self.input.parameters();
        p.extend(self.moe.parameters());
        p.extend(self.head.parameters());
        p
    }

    fn forward(&self, x: &Var) -> Var {
        self.forward_with(x, true)
    }

    /// Forward pass with an explicit kernel choice: `fused = true` runs
    /// every linear layer through `Var::linear_act` — the fused
    /// matmul+bias+activation forward on the register-tiled microkernel,
    /// with the streaming backward epilogue that never materializes the
    /// pre-activation gradient (the production path) — while
    /// `fused = false` composes the naive ops. The two are bit-identical
    /// in values and gradients.
    fn forward_with(&self, x: &Var, fused: bool) -> Var {
        let hidden = if fused {
            self.input.forward_act(x, Activation::Relu)
        } else {
            self.input.forward_naive(x, Activation::Relu)
        }
        .expect("input projection");
        let (mixed, _) = self.moe.forward_with(&hidden, fused).expect("moe forward");
        // Residual connection around the MoE block.
        let res = mixed.add(&hidden).expect("same shape");
        if fused {
            self.head.forward_act(&res, Activation::Identity)
        } else {
            self.head.forward_naive(&res, Activation::Identity)
        }
        .expect("head projection")
    }

    fn logits(&self, features: &Tensor) -> Tensor {
        self.forward(&Var::constant(features.clone())).value()
    }

    /// Routing distribution of the (post-input-projection) eval tokens.
    fn routing(&self, features: &Tensor) -> TokenDistribution {
        let hidden = self
            .input
            .forward_act(&Var::constant(features.clone()), Activation::Relu)
            .expect("input projection");
        let stats = self.moe.route_only(&hidden).expect("routing");
        TokenDistribution::from_counts(&stats.tokens_per_expert)
    }
}

/// Trains the classifier on `task` and measures everything the paper's
/// Fig. 3 / Fig. 11 report. Uses the fused kernel path.
pub fn train(
    task: &SyntheticTask,
    cfg: &MoeTrainConfig,
    label: impl Into<String>,
) -> MoeTrainOutcome {
    train_with_kernels(task, cfg, label, true)
}

/// Publishes the routing distribution into the metrics registry: one
/// `sim.train.expert_token_pct` sketch sample per expert (token share in
/// percent; a starved expert's 0% lands in the sketch's floor bucket) plus
/// the imbalance coefficient (variance of the shares — the Fig. 11 metric)
/// as a gauge.
fn publish_routing(dist: &TokenDistribution) {
    if !ftsim_obs::enabled() {
        return;
    }
    let registry = ftsim_obs::registry();
    let shares = registry.sketch("sim.train.expert_token_pct");
    for &pct in &dist.pct {
        shares.record(pct);
    }
    registry.gauge_set("sim.train.imbalance", dist.variance());
}

/// [`train`] with an explicit kernel choice. `fused = false` composes the
/// naive per-op path retained as the reference; results are bit-identical
/// to the fused path (`MoeTrainOutcome` derives `PartialEq`, so this is
/// testable directly) — only the wall-clock and allocation behavior differ.
///
/// When observability is on, the run is instrumented observation-only (the
/// outcome stays bit-identical): per-epoch, per-step, and per-microbatch
/// spans under the `sim.train` category, a `sim.train.loss` gauge updated
/// every optimizer step, `sim.train.threads` / `sim.train.simd_active`
/// gauges recording the execution configuration, a
/// `sim.train.tokens_per_sec` gauge updated every epoch, and the
/// expert-token sketch + imbalance gauge of `publish_routing`.
pub fn train_with_kernels(
    task: &SyntheticTask,
    cfg: &MoeTrainConfig,
    label: impl Into<String>,
    fused: bool,
) -> MoeTrainOutcome {
    train_with_options(task, cfg, label, fused, crate::engine::thread_count())
}

/// [`train_with_kernels`] with an explicit worker-thread count for the
/// data-parallel step (instead of `FTSIM_THREADS`). The outcome is
/// bit-identical at every `threads` value: the microbatch grid is fixed by
/// `cfg.microbatch`, per-microbatch gradients are computed on thread-local
/// model replicas, and the combine is a fixed-order pairwise tree over the
/// microbatch index — the reduction shape never depends on `threads`.
pub fn train_with_options(
    task: &SyntheticTask,
    cfg: &MoeTrainConfig,
    label: impl Into<String>,
    fused: bool,
    threads: usize,
) -> MoeTrainOutcome {
    let _run = ftsim_obs::span("sim.train", "train");
    ftsim_obs::registry().gauge_set("sim.train.threads", threads.max(1) as f64);
    ftsim_obs::registry().gauge_set(
        "sim.train.simd_active",
        f64::from(u8::from(ftsim_tensor::simd::active())),
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = Classifier::new(task.dim(), task.classes(), cfg, &mut rng);
    let params = model.parameters();
    let mut opt = AdamW::new(cfg.lr, params.len());

    let train_set = task.sample(cfg.train_examples, &mut rng);
    let eval_set = task.eval_split(cfg.eval_examples);

    let initial_accuracy = eval_accuracy(&model, &eval_set);
    let routing_before = model.routing(&eval_set.features);
    publish_routing(&routing_before);

    let mut curve = Vec::with_capacity(cfg.epochs);
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for epoch in 1..=cfg.epochs {
        let _epoch_span = ftsim_obs::span_lazy("sim.train", || format!("epoch:{epoch}"));
        let epoch_start = ftsim_obs::enabled().then(std::time::Instant::now);
        order.shuffle(&mut rng);
        let mut losses = Vec::new();
        for chunk in order.chunks(cfg.batch) {
            let _step_span = ftsim_obs::span("sim.train", "step");
            let loss_value = train_step(cfg, &params, &mut opt, &train_set, chunk, fused, threads);
            losses.push(loss_value);
            ftsim_obs::registry().gauge_set("sim.train.loss", loss_value);
            ftsim_obs::registry().counter_add("sim.train.steps", 1);
        }
        ftsim_obs::registry().gauge_set("sim.train.epoch", epoch as f64);
        if let Some(start) = epoch_start {
            let secs = start.elapsed().as_secs_f64();
            if secs > 0.0 {
                ftsim_obs::registry()
                    .gauge_set("sim.train.tokens_per_sec", train_set.len() as f64 / secs);
            }
        }
        curve.push(EpochMetric {
            epoch,
            train_loss: losses.iter().sum::<f64>() / losses.len().max(1) as f64,
            eval_accuracy: eval_accuracy(&model, &eval_set),
        });
    }

    let routing_after = model.routing(&eval_set.features);
    publish_routing(&routing_after);
    MoeTrainOutcome {
        label: label.into(),
        initial_accuracy,
        curve,
        routing_before,
        routing_after,
    }
}

/// One data-parallel optimizer step over `chunk` (indices into the
/// training set); returns the chunk loss.
///
/// Deterministic-reduction contract (DESIGN.md "Kernel contracts"):
///
/// 1. The microbatch grid is `chunk.chunks(cfg.microbatch)` — fixed by the
///    config, independent of `threads`.
/// 2. Each microbatch's loss is scaled by its token share
///    (`mb_len / chunk_len`), so the chunk gradient is the same weighted
///    mean the full-batch step computes, and a single-microbatch grid
///    (`microbatch == 0`) reproduces the historical full-batch step
///    bitwise (`scale(1.0)` is exact).
/// 3. Workers compute gradients on thread-local model replicas rebuilt
///    from a parameter snapshot; [`crate::engine::parallel_map_with`]
///    returns results in input order regardless of scheduling.
/// 4. Per-parameter gradients and the loss are combined by a fixed-order
///    pairwise tree over the microbatch index — adjacent pairs (0,1),
///    (2,3), … reduced repeatedly — so the floating-point addition
///    sequence is a function of the grid alone, never the thread count.
fn train_step(
    cfg: &MoeTrainConfig,
    params: &[Var],
    opt: &mut AdamW,
    train_set: &TaskSample,
    chunk: &[usize],
    fused: bool,
    threads: usize,
) -> f64 {
    let mb_len = if cfg.microbatch == 0 {
        chunk.len()
    } else {
        cfg.microbatch.min(chunk.len())
    };
    let micro: Vec<(usize, &[usize])> = chunk.chunks(mb_len).enumerate().collect();
    let chunk_len = chunk.len() as f32;
    // Snapshot the parameter tensors once: `Tensor` is `Send`, `Var` is not.
    let snapshot: Vec<Tensor> = params.iter().map(Var::value).collect();
    let results = crate::engine::parallel_map_with(threads.min(micro.len()), &micro, |(w, idx)| {
        let _mb_span = ftsim_obs::span_lazy("sim.train", || format!("microbatch:{w}"));
        let (bx, by) = gather(train_set, idx);
        let replica = Classifier::from_parameters(cfg, &mut snapshot.iter().cloned());
        let rparams = replica.parameters();
        let logits = replica.forward_with(&Var::constant(bx), fused);
        let loss = logits
            .cross_entropy(&by)
            .expect("labels in range")
            .scale(idx.len() as f32 / chunk_len);
        let loss_value = loss.value().item();
        loss.backward();
        // Hand the accumulated grads back as Send tensors; parameters the
        // microbatch never touched (inactive experts) stay `None`.
        let grads: Vec<Option<Tensor>> = rparams.iter().map(Var::take_grad).collect();
        (loss_value, grads)
    });
    let (loss, grads) = tree_reduce(results);
    for (p, g) in params.iter().zip(grads) {
        if let Some(g) = g {
            p.seed_grad(g);
        }
    }
    opt.step(params);
    f64::from(loss)
}

/// Fixed-order pairwise tree reduction over per-microbatch results: reduces
/// adjacent pairs (0,1), (2,3), … repeatedly until one remains. The
/// addition order per parameter element depends only on the number of
/// microbatches, which is what makes the step thread-count invariant.
fn tree_reduce(mut layer: Vec<(f32, Vec<Option<Tensor>>)>) -> (f32, Vec<Option<Tensor>>) {
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut pairs = layer.into_iter();
        while let Some((loss_a, grads_a)) = pairs.next() {
            match pairs.next() {
                Some((loss_b, grads_b)) => {
                    let grads = grads_a
                        .into_iter()
                        .zip(grads_b)
                        .map(|(a, b)| match (a, b) {
                            (Some(mut a), Some(b)) => {
                                a.add_assign(&b).expect("gradient shapes match");
                                Some(a)
                            }
                            (Some(a), None) => Some(a),
                            (None, b) => b,
                        })
                        .collect();
                    next.push((loss_a + loss_b, grads));
                }
                None => next.push((loss_a, grads_a)),
            }
        }
        layer = next;
    }
    layer.pop().expect("at least one microbatch")
}

fn gather(sample: &TaskSample, idx: &[usize]) -> (Tensor, Vec<usize>) {
    let dim = sample.features.shape().dims()[1];
    let mut data = Vec::with_capacity(idx.len() * dim);
    let mut labels = Vec::with_capacity(idx.len());
    for &i in idx {
        data.extend_from_slice(sample.features.row(i));
        labels.push(sample.labels[i]);
    }
    (
        Tensor::new([idx.len(), dim], data).expect("consistent dims"),
        labels,
    )
}

fn eval_accuracy(model: &Classifier, eval: &TaskSample) -> f64 {
    ops::accuracy(&model.logits(&eval.features), &eval.labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: MoeTrainConfig, task: &SyntheticTask) -> MoeTrainOutcome {
        train(task, &cfg, "test")
    }

    fn small(mut cfg: MoeTrainConfig) -> MoeTrainConfig {
        // Keep unit tests fast.
        cfg.train_examples = 256;
        cfg.eval_examples = 128;
        cfg.epochs = 6;
        cfg
    }

    #[test]
    fn sparse_moe_learns_the_easy_task() {
        let task = SyntheticTask::commonsense(16, 4, 42);
        let out = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        assert!(
            out.peak_accuracy() > 0.80,
            "sparse accuracy only {:.3}",
            out.peak_accuracy()
        );
        assert!(
            out.initial_accuracy < 0.5,
            "untrained should be near chance"
        );
    }

    #[test]
    fn sparse_matches_dense_within_margin() {
        // Paper Takeaway 1, measured: top-2 of 8 learns about as well as
        // dense.
        let task = SyntheticTask::commonsense(16, 4, 42);
        let sparse = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        let dense = quick(small(MoeTrainConfig::mixtral_like(8)), &task);
        assert!(
            sparse.peak_accuracy() > dense.peak_accuracy() - 0.08,
            "sparse {:.3} vs dense {:.3}",
            sparse.peak_accuracy(),
            dense.peak_accuracy()
        );
    }

    #[test]
    fn math_like_task_is_harder() {
        // Paper observation: math is harder — lower accuracy at equal
        // budget.
        let cs = quick(
            small(MoeTrainConfig::mixtral_like(2)),
            &SyntheticTask::commonsense(16, 4, 7),
        );
        let math = quick(
            small(MoeTrainConfig::mixtral_like(2)),
            &SyntheticTask::math(16, 4, 7),
        );
        assert!(
            math.peak_accuracy() < cs.peak_accuracy(),
            "math {:.3} should trail commonsense {:.3}",
            math.peak_accuracy(),
            cs.peak_accuracy()
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let task = SyntheticTask::commonsense(16, 4, 13);
        let out = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        let first = out.curve.first().unwrap().train_loss;
        let last = out.curve.last().unwrap().train_loss;
        assert!(last < first * 0.7, "loss {first:.3} -> {last:.3}");
    }

    #[test]
    fn routing_distributions_are_valid() {
        let task = SyntheticTask::commonsense(16, 4, 99);
        let out = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        for d in [&out.routing_before, &out.routing_after] {
            assert_eq!(d.pct.len(), 8);
            assert!((d.pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn finetuning_changes_routing() {
        // Fig. 11's core finding, measured: fine-tuning moves the expert
        // token distribution.
        let task = SyntheticTask::commonsense(16, 4, 5);
        let out = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        let moved: f64 = out
            .routing_before
            .pct
            .iter()
            .zip(&out.routing_after.pct)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(moved > 1.0, "routing barely moved: {moved:.2}%");
    }

    #[test]
    fn deterministic_given_seed() {
        let task = SyntheticTask::commonsense(16, 4, 21);
        let a = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        let b = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        assert_eq!(a, b);
    }

    #[test]
    fn training_metrics_flow_into_registry_without_changing_the_outcome() {
        let task = SyntheticTask::commonsense(16, 4, 64);
        let mut cfg = MoeTrainConfig::mixtral_like(2);
        cfg.train_examples = 96;
        cfg.eval_examples = 64;
        cfg.epochs = 2;
        // Reference run with observability off.
        let plain = train(&task, &cfg, "obs-test");
        let registry = ftsim_obs::registry();
        let shares_before = registry.sketch("sim.train.expert_token_pct").snapshot();
        ftsim_obs::enable();
        let observed = train(&task, &cfg, "obs-test");
        ftsim_obs::disable();
        // Instrumentation is observation-only: bit-identical outcome.
        assert_eq!(plain, observed);
        let shares_after = registry.sketch("sim.train.expert_token_pct").snapshot();
        // Our run sampled 8 experts twice (before + after training); other
        // tests may add concurrently, so assert a lower bound on the delta.
        assert!(
            shares_after.count() >= shares_before.count() + 16,
            "{} -> {}",
            shares_before.count(),
            shares_after.count()
        );
        assert!(registry.gauge("sim.train.imbalance").get() >= 0.0);
        assert!(registry.gauge("sim.train.loss").get().is_finite());
        assert!(registry.gauge("sim.train.tokens_per_sec").get() >= 0.0);
    }

    #[test]
    fn fused_and_naive_kernel_paths_train_identically() {
        // End-to-end version of the tensor-level equivalence guarantee:
        // a full multi-epoch run (many optimizer steps) is bit-identical
        // whichever kernel path executes it.
        let task = SyntheticTask::commonsense(16, 4, 33);
        let mut cfg = MoeTrainConfig::mixtral_like(2);
        cfg.train_examples = 96;
        cfg.eval_examples = 64;
        cfg.epochs = 3;
        let fused = train_with_kernels(&task, &cfg, "fused", true);
        let naive = train_with_kernels(&task, &cfg, "naive", false);
        assert_eq!(fused.initial_accuracy, naive.initial_accuracy);
        assert_eq!(fused.curve, naive.curve);
        assert_eq!(fused.routing_after, naive.routing_after);
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        // The deterministic-reduction contract, end to end: the microbatch
        // grid and tree reduction fix the floating-point addition order, so
        // worker count changes scheduling but never a single bit of the
        // outcome — for both kernel paths.
        let task = SyntheticTask::commonsense(16, 4, 55);
        let mut cfg = small(MoeTrainConfig::mixtral_like(2));
        cfg.train_examples = 96;
        cfg.eval_examples = 64;
        cfg.epochs = 2;
        cfg.microbatch = 8;
        for fused in [true, false] {
            let reference = train_with_options(&task, &cfg, "threads", fused, 1);
            for threads in [2, 4, 8] {
                let run = train_with_options(&task, &cfg, "threads", fused, threads);
                assert_eq!(
                    run, reference,
                    "outcome diverged at {threads} threads (fused={fused})"
                );
            }
        }
    }

    #[test]
    fn training_is_bit_identical_across_simd_dispatch() {
        // Scalar and AVX2 kernel bodies round identically (mul+add, never
        // fmadd), so a full training run must not differ by a single bit.
        // On hosts without AVX2 the forced-SIMD run downgrades to scalar
        // and the assertion holds trivially.
        let task = SyntheticTask::commonsense(16, 4, 56);
        let mut cfg = small(MoeTrainConfig::mixtral_like(2));
        cfg.train_examples = 96;
        cfg.eval_examples = 64;
        cfg.epochs = 2;
        ftsim_tensor::simd::force(Some(false));
        let scalar = train(&task, &cfg, "simd");
        ftsim_tensor::simd::force(Some(true));
        let simd = train(&task, &cfg, "simd");
        ftsim_tensor::simd::force(None);
        assert_eq!(scalar, simd, "scalar and SIMD training outcomes diverged");
    }

    #[test]
    fn single_microbatch_grid_matches_full_batch_step() {
        // microbatch == batch produces a one-slice grid; microbatch == 0 is
        // the explicit full-batch escape. Both must be bitwise the same run
        // (scale(1.0) and the replica indirection are exact).
        let task = SyntheticTask::commonsense(16, 4, 57);
        let mut cfg = small(MoeTrainConfig::mixtral_like(2));
        cfg.train_examples = 96;
        cfg.eval_examples = 64;
        cfg.epochs = 2;
        cfg.microbatch = 0;
        let full = train(&task, &cfg, "mb");
        cfg.microbatch = cfg.batch;
        let one_slice = train(&task, &cfg, "mb");
        assert_eq!(full, one_slice);
    }

    #[test]
    fn smaller_model_learns_slower() {
        // Paper observation 2: BlackMamba (smaller) takes more epochs.
        let task = SyntheticTask::commonsense(16, 4, 17);
        let big = quick(small(MoeTrainConfig::mixtral_like(2)), &task);
        let small_model = quick(small(MoeTrainConfig::blackmamba_like(2)), &task);
        // Compare accuracy after the FIRST epoch: the bigger model should be
        // ahead early (or at minimum not behind by much at the end).
        let big_e1 = big.curve[0].eval_accuracy;
        let small_e1 = small_model.curve[0].eval_accuracy;
        assert!(
            big_e1 + 0.02 >= small_e1,
            "bigger model should not trail early: {big_e1:.3} vs {small_e1:.3}"
        );
    }
}
