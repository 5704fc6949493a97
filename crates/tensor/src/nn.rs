//! Neural-network building blocks on top of the autograd engine: linear
//! layers, mixture-of-experts layers with top-k gating, and optimizers
//! (SGD / AdamW).
//!
//! These power the *real* (CPU-scale) MoE fine-tuning experiments in
//! `ftsim-sim::moetrain` — the sparse-vs-dense trainability study (paper
//! Fig. 3) and the expert load-imbalance study (paper Fig. 11).

use crate::autograd::Var;
use crate::ops;
use crate::ops::Activation;
use crate::tensor::{Tensor, TensorError};
use rand::Rng;

/// A fully-connected layer `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Var,
    bias: Var,
}

impl Linear {
    /// Creates a layer with Kaiming-style uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let scale = (1.0 / in_dim as f32).sqrt();
        Linear {
            weight: Var::parameter(Tensor::rand_uniform([in_dim, out_dim], scale, rng)),
            bias: Var::parameter(Tensor::zeros([1, out_dim])),
        }
    }

    /// Applies the layer to a `[tokens, in_dim]` batch via the fused
    /// matmul+bias kernel (bit-identical to the composed
    /// matmul-then-add_row path).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward(&self, x: &Var) -> Result<Var, TensorError> {
        self.forward_act(x, Activation::Identity)
    }

    /// Fused `act(x @ W + b)` as a single graph node.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward_act(&self, x: &Var, act: Activation) -> Result<Var, TensorError> {
        x.linear_act(&self.weight, &self.bias, act)
    }

    /// Reference composed path — matmul, row-bias, and activation as
    /// separate graph nodes. Retained so equivalence tests can prove the
    /// fused path bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` has the wrong inner dimension.
    pub fn forward_naive(&self, x: &Var, act: Activation) -> Result<Var, TensorError> {
        let pre = x.matmul(&self.weight)?.add_row(&self.bias)?;
        Ok(match act {
            Activation::Identity => pre,
            act => pre.activate(act),
        })
    }

    /// Rebuilds a layer from snapshot tensors, in the order
    /// [`Linear::parameters`] reports them (weight, then bias).
    ///
    /// This is how the data-parallel trainer constructs per-thread model
    /// replicas: `Var` graphs are thread-local (`Rc`-based), so workers
    /// rebuild the model from a `Send` parameter snapshot instead of
    /// sharing variables.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not a matrix or `bias` does not hold one
    /// element per output column.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        let (_, out_dim) = weight
            .shape()
            .as_matrix()
            .expect("linear weight must be a matrix");
        assert_eq!(bias.numel(), out_dim, "bias length must match out_dim");
        Linear {
            weight: Var::parameter(weight),
            bias: Var::parameter(bias),
        }
    }

    /// The trainable parameters of this layer.
    pub fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.with_value(Tensor::numel) + self.bias.with_value(Tensor::numel)
    }
}

/// Expert feed-forward architecture, mirroring the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ExpertKind {
    /// `W2( gelu(W1 x) )` — BlackMamba-style expert.
    GeluFfn,
    /// `W2( silu(W1 x) ⊙ (W3 x) )` — Mixtral-style SwiGLU expert.
    SwiGlu,
}

/// One expert network of an MoE layer.
///
/// An [`MoeLayer`] runs each expert on its routed tokens only
/// ([`Expert::forward_rows`]); [`Expert::forward`] applies it to a whole
/// batch.
#[derive(Debug, Clone)]
pub struct Expert {
    kind: ExpertKind,
    w1: Linear,
    w2: Linear,
    w3: Option<Linear>,
}

impl Expert {
    /// Creates an expert with hidden width `hidden` and inner width `inner`.
    pub fn new(kind: ExpertKind, hidden: usize, inner: usize, rng: &mut impl Rng) -> Self {
        Expert {
            kind,
            w1: Linear::new(hidden, inner, rng),
            w2: Linear::new(inner, hidden, rng),
            w3: match kind {
                ExpertKind::SwiGlu => Some(Linear::new(hidden, inner, rng)),
                ExpertKind::GeluFfn => None,
            },
        }
    }

    /// Applies the expert to a `[tokens, hidden]` batch via the fused
    /// linear+activation kernels.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying linear layers.
    pub fn forward(&self, x: &Var) -> Result<Var, TensorError> {
        self.forward_with(x, true)
    }

    /// Applies the expert to every row of `x` using either the fused kernels
    /// (`fused = true`, the production path) or the composed naive ops
    /// (`fused = false`, the retained reference path); the two are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying linear layers.
    pub fn forward_with(&self, x: &Var, fused: bool) -> Result<Var, TensorError> {
        self.apply(&|| Ok(x.clone()), fused)
    }

    /// Applies the expert to rows `rows` of `x` only, returning a
    /// `[rows.len(), hidden]` batch whose row `i` is bit-identical to row
    /// `rows[i]` of [`Expert::forward_with`] on all of `x` (each output row
    /// depends on its input row alone).
    ///
    /// Every linear layer that reads `x` (W1, and W3 for SwiGLU) gathers
    /// the rows itself, so each layer's input gradient lands in `x`'s
    /// gradient on its own, in the order the all-rows expert delivers it —
    /// one shared gather would sum the two first and round differently.
    ///
    /// # Errors
    ///
    /// Returns an error if a row index is out of range; propagates shape
    /// errors from the underlying linear layers.
    pub fn forward_rows(&self, x: &Var, rows: &[usize], fused: bool) -> Result<Var, TensorError> {
        self.apply(&|| x.gather_rows(rows), fused)
    }

    /// The expert over the input `input()` yields; called once per linear
    /// layer that reads the input.
    fn apply(
        &self,
        input: &dyn Fn() -> Result<Var, TensorError>,
        fused: bool,
    ) -> Result<Var, TensorError> {
        let layer = |l: &Linear, x: &Var, act: Activation| {
            if fused {
                l.forward_act(x, act)
            } else {
                l.forward_naive(x, act)
            }
        };
        match self.kind {
            ExpertKind::GeluFfn => {
                let h = layer(&self.w1, &input()?, Activation::Gelu)?;
                layer(&self.w2, &h, Activation::Identity)
            }
            ExpertKind::SwiGlu => {
                let gate = layer(&self.w1, &input()?, Activation::Silu)?;
                let up = layer(
                    self.w3.as_ref().expect("SwiGlu expert always has W3"),
                    &input()?,
                    Activation::Identity,
                )?;
                layer(&self.w2, &gate.mul(&up)?, Activation::Identity)
            }
        }
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.w1.parameters();
        p.extend(self.w2.parameters());
        if let Some(w3) = &self.w3 {
            p.extend(w3.parameters());
        }
        p
    }

    /// Rebuilds an expert from snapshot tensors drawn off `params`, in the
    /// order [`Expert::parameters`] reports them (w1, w2, then w3 for
    /// SwiGLU experts; weight before bias within each layer).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields too few tensors or tensors of
    /// inconsistent shapes.
    pub fn from_parameters(kind: ExpertKind, params: &mut impl Iterator<Item = Tensor>) -> Self {
        let mut linear = |which: &str| {
            let weight = params
                .next()
                .unwrap_or_else(|| panic!("missing {which} weight"));
            let bias = params
                .next()
                .unwrap_or_else(|| panic!("missing {which} bias"));
            Linear::from_parts(weight, bias)
        };
        let w1 = linear("w1");
        let w2 = linear("w2");
        let w3 = match kind {
            ExpertKind::SwiGlu => Some(linear("w3")),
            ExpertKind::GeluFfn => None,
        };
        Expert { kind, w1, w2, w3 }
    }
}

/// Routing decision for one forward pass of an [`MoeLayer`].
#[derive(Debug, Clone, Default)]
pub struct RoutingStats {
    /// `tokens_per_expert[e]` = number of (token, expert) assignments sent to
    /// expert `e` during the pass.
    pub tokens_per_expert: Vec<usize>,
}

impl RoutingStats {
    /// Population variance of the per-expert token counts — the imbalance
    /// metric of the paper's Fig. 11.
    pub fn imbalance_variance(&self) -> f64 {
        let counts: Vec<f64> = self.tokens_per_expert.iter().map(|&c| c as f64).collect();
        ops::variance(&counts)
    }
}

/// A mixture-of-experts layer with top-k softmax gating, implementing the
/// pseudo-code of the paper's Fig. 12: each expert runs on the tokens routed
/// to it and nothing else, so top-2 of 8 experts does about a quarter of
/// the dense expert work.
///
/// With `top_k == num_experts` this is the *dense* configuration; the paper's
/// *sparse* configuration uses `top_k = 2` of 8 experts.
#[derive(Debug, Clone)]
pub struct MoeLayer {
    gate: Linear,
    experts: Vec<Expert>,
    top_k: usize,
}

impl MoeLayer {
    /// Creates an MoE layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `top_k` is zero or exceeds
    /// `num_experts`, or if `num_experts` is zero.
    pub fn new(
        kind: ExpertKind,
        hidden: usize,
        inner: usize,
        num_experts: usize,
        top_k: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, TensorError> {
        if num_experts == 0 {
            return Err(TensorError::InvalidArgument(
                "num_experts must be > 0".into(),
            ));
        }
        if top_k == 0 || top_k > num_experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {top_k} out of range 1..={num_experts}"
            )));
        }
        Ok(MoeLayer {
            gate: Linear::new(hidden, num_experts, rng),
            experts: (0..num_experts)
                .map(|_| Expert::new(kind, hidden, inner, rng))
                .collect(),
            top_k,
        })
    }

    /// Rebuilds an MoE layer from snapshot tensors drawn off `params`, in
    /// the order [`MoeLayer::parameters`] reports them (gate first, then
    /// experts in order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for the same `top_k` /
    /// `num_experts` violations as [`MoeLayer::new`].
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields too few tensors or tensors of
    /// inconsistent shapes.
    pub fn from_parameters(
        kind: ExpertKind,
        num_experts: usize,
        top_k: usize,
        params: &mut impl Iterator<Item = Tensor>,
    ) -> Result<Self, TensorError> {
        if num_experts == 0 {
            return Err(TensorError::InvalidArgument(
                "num_experts must be > 0".into(),
            ));
        }
        if top_k == 0 || top_k > num_experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {top_k} out of range 1..={num_experts}"
            )));
        }
        let gate = Linear::from_parts(
            params.next().expect("missing gate weight"),
            params.next().expect("missing gate bias"),
        );
        let experts = (0..num_experts)
            .map(|_| Expert::from_parameters(kind, params))
            .collect();
        Ok(MoeLayer {
            gate,
            experts,
            top_k,
        })
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Experts activated per token.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Routes `x` (`[tokens, hidden]`) through the gated experts, returning
    /// the combined output and the routing statistics of this pass.
    ///
    /// Gradients flow into the gate through the selected softmax weights and
    /// into each expert through its weighted contribution.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the gate or experts.
    pub fn forward(&self, x: &Var) -> Result<(Var, RoutingStats), TensorError> {
        self.forward_with(x, true)
    }

    /// [`MoeLayer::forward`] with an explicit kernel choice: `fused = true`
    /// routes every linear layer through the fused matmul+bias+activation
    /// kernel, `fused = false` uses the composed naive ops. Both paths are
    /// bit-identical in values and gradients.
    ///
    /// The expert loop of Fig. 12: top-k selection records each expert's
    /// routed token rows in ascending order; each expert with at least one
    /// token runs on those rows only ([`Expert::forward_rows`]), its output
    /// rows are weighted by its own gate entries `(row, e)`, and the
    /// weighted rows are index-added into a zero `[tokens, hidden]` output
    /// in expert order. Values and gradients are bit-identical to running
    /// every active expert on all tokens and masking the unrouted rows with
    /// a zero gate weight: the skipped rows only ever contributed exact
    /// zeros.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the gate or experts.
    pub fn forward_with(&self, x: &Var, fused: bool) -> Result<(Var, RoutingStats), TensorError> {
        let logits = if fused {
            self.gate.forward_act(x, Activation::Identity)?
        } else {
            self.gate.forward_naive(x, Activation::Identity)?
        };
        let (masks, routed) = logits.with_value(|l| self.select(l));
        let stats = RoutingStats {
            tokens_per_expert: routed.iter().map(Vec::len).collect(),
        };
        // softmax over the selected experts only (paper Fig. 12, lines 2-3).
        let weights = logits.masked_softmax_rows(&masks)?;
        let mut out = Var::constant(x.with_value(|v| Tensor::zeros(v.shape().clone())));
        for (ei, (expert, rows)) in self.experts.iter().zip(&routed).enumerate() {
            if rows.is_empty() {
                continue;
            }
            let weighted = expert
                .forward_rows(x, rows, fused)?
                .mul_col(&weights.gather_column(rows, ei)?)?;
            out = out.index_add_rows(rows, &weighted)?;
        }
        Ok((out, stats))
    }

    /// All trainable parameters (gate first, then experts in order).
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.gate.parameters();
        for e in &self.experts {
            p.extend(e.parameters());
        }
        p
    }

    /// Top-k selection over gate logits `[tokens, experts]` (a
    /// non-differentiable index choice, like `torch.topk`): each token's
    /// expert mask, and each expert's routed token rows in ascending order.
    fn select(&self, logits: &Tensor) -> (Vec<Vec<bool>>, Vec<Vec<usize>>) {
        let (tokens, e) = logits.shape().as_matrix().expect("gate output is a matrix");
        let mut masks = vec![vec![false; e]; tokens];
        let mut routed = vec![Vec::new(); e];
        for (t, mask) in masks.iter_mut().enumerate() {
            for (idx, _) in ops::topk(logits.row(t), self.top_k) {
                mask[idx] = true;
                routed[idx].push(t);
            }
        }
        (masks, routed)
    }
}

/// Stochastic gradient descent with optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Applies one update step to every parameter with a gradient, then
    /// clears the gradients.
    pub fn step(&self, params: &[Var]) {
        let (lr, wd) = (self.lr, self.weight_decay);
        for p in params {
            p.update_with_grad(|v, g| {
                for (vi, gi) in v.data_mut().iter_mut().zip(g.data()) {
                    *vi -= lr * (gi + wd * *vi);
                }
            });
        }
    }
}

/// AdamW optimizer (decoupled weight decay), the optimizer used for the
/// paper's fine-tuning runs.
#[derive(Debug)]
pub struct AdamW {
    /// Learning rate (the paper uses 5e-5 for LLM fine-tuning).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    step_count: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl AdamW {
    /// Creates an AdamW optimizer with standard betas for `params_len`
    /// parameter tensors.
    pub fn new(lr: f32, params_len: usize) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            step_count: 0,
            moments: vec![(Vec::new(), Vec::new()); params_len],
        }
    }

    /// Applies one AdamW step to `params` (order must stay stable across
    /// calls), then clears gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the length given to [`AdamW::new`].
    pub fn step(&mut self, params: &[Var]) {
        assert_eq!(
            params.len(),
            self.moments.len(),
            "parameter list length must match optimizer state"
        );
        self.step_count += 1;
        let t = self.step_count as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        for (p, (m, v)) in params.iter().zip(self.moments.iter_mut()) {
            p.update_with_grad(|val, g| {
                if m.is_empty() {
                    m.resize(g.numel(), 0.0);
                    v.resize(g.numel(), 0.0);
                }
                // One zipped pass with no indexing, so no bounds check keeps
                // the loop from vectorizing. Each lane does the same
                // operations in the same order as a per-index loop (every
                // `/` and `sqrt` is correctly rounded in any width), so the
                // update is bit-identical to one.
                for (((w, &gi), mi), vi) in val
                    .data_mut()
                    .iter_mut()
                    .zip(g.data())
                    .zip(m.iter_mut())
                    .zip(v.iter_mut())
                {
                    *mi = b1 * *mi + c1 * gi;
                    *vi = b2 * *vi + c2 * gi * gi;
                    let mhat = *mi / bc1;
                    let vhat = *vi / bc2;
                    *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::zeros([2, 4]));
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(l.param_count(), 4 * 3 + 3);
    }

    #[test]
    fn expert_swiglu_has_three_matrices() {
        let mut rng = StdRng::seed_from_u64(2);
        let swiglu = Expert::new(ExpertKind::SwiGlu, 4, 8, &mut rng);
        let gelu = Expert::new(ExpertKind::GeluFfn, 4, 8, &mut rng);
        assert_eq!(swiglu.parameters().len(), 6); // 3 weights + 3 biases
        assert_eq!(gelu.parameters().len(), 4);
        let x = Var::constant(Tensor::zeros([3, 4]));
        assert_eq!(swiglu.forward(&x).unwrap().shape().dims(), &[3, 4]);
        assert_eq!(gelu.forward(&x).unwrap().shape().dims(), &[3, 4]);
    }

    #[test]
    fn moe_rejects_bad_top_k() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 0, &mut rng).is_err());
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 5, &mut rng).is_err());
        assert!(MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 0, 1, &mut rng).is_err());
    }

    #[test]
    fn moe_routing_counts_match_top_k() {
        let mut rng = StdRng::seed_from_u64(4);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 6, 12, 8, 2, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([10, 6], 1.0, &mut rng));
        let (out, stats) = moe.forward(&x).unwrap();
        assert_eq!(out.shape().dims(), &[10, 6]);
        assert_eq!(stats.tokens_per_expert.iter().sum::<usize>(), 10 * 2);
    }

    #[test]
    fn dense_moe_assigns_every_expert_every_token() {
        let mut rng = StdRng::seed_from_u64(5);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 4, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([7, 4], 1.0, &mut rng));
        let (_, stats) = moe.forward(&x).unwrap();
        assert!(stats.tokens_per_expert.iter().all(|&c| c == 7));
        assert_eq!(stats.imbalance_variance(), 0.0);
    }

    #[test]
    fn moe_gradients_reach_gate_and_experts() {
        let mut rng = StdRng::seed_from_u64(6);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 4, 8, 4, 2, &mut rng).unwrap();
        let x = Var::constant(Tensor::rand_uniform([6, 4], 1.0, &mut rng));
        let (out, stats) = moe.forward(&x).unwrap();
        out.mean().backward();
        let with_grad = moe
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // Gate always gets gradients; active experts do too.
        assert!(with_grad >= 2, "only {with_grad} parameters got gradients");
        let active = stats.tokens_per_expert.iter().filter(|&&c| c > 0).count();
        assert!(active >= 2);
    }

    /// The dense-masked layer the routed one replaced, kept as its oracle:
    /// every expert with at least one token runs on *all* tokens, and an
    /// `[e, 1]` selector matmul pulls its gate column, which is zero on the
    /// rows the expert was not routed.
    fn dense_masked_forward(moe: &MoeLayer, x: &Var, fused: bool) -> (Var, RoutingStats) {
        let logits = if fused {
            moe.gate.forward_act(x, Activation::Identity)
        } else {
            moe.gate.forward_naive(x, Activation::Identity)
        }
        .unwrap();
        let logits_val = logits.value();
        let (tokens, e) = logits_val.shape().as_matrix().unwrap();
        let mut masks = vec![vec![false; e]; tokens];
        let mut stats = RoutingStats {
            tokens_per_expert: vec![0; e],
        };
        for (t, mask) in masks.iter_mut().enumerate() {
            for (idx, _) in ops::topk(logits_val.row(t), moe.top_k) {
                mask[idx] = true;
                stats.tokens_per_expert[idx] += 1;
            }
        }
        let weights = logits.masked_softmax_rows(&masks).unwrap();
        let mut out: Option<Var> = None;
        for (ei, expert) in moe.experts.iter().enumerate() {
            if stats.tokens_per_expert[ei] == 0 {
                continue;
            }
            let mut selector = Tensor::zeros([e, 1]);
            selector.set2(ei, 0, 1.0);
            let col = weights.matmul(&Var::constant(selector)).unwrap();
            let contribution = expert
                .forward_with(x, fused)
                .unwrap()
                .mul_col(&col)
                .unwrap();
            out = Some(match out {
                Some(acc) => acc.add(&contribution).unwrap(),
                None => contribution,
            });
        }
        (out.unwrap(), stats)
    }

    #[test]
    fn routed_layer_matches_dense_masked_oracle_bitwise() {
        type Forward = fn(&MoeLayer, &Var, bool) -> (Var, RoutingStats);
        let routed: Forward = |moe, x, fused| moe.forward_with(x, fused).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut starved_batches = 0;
        for kind in [ExpertKind::GeluFfn, ExpertKind::SwiGlu] {
            for top_k in [1, 2, 8] {
                for tokens in [5, 16] {
                    for fused in [true, false] {
                        // The same layer and input on each side; the loss
                        // reads the output through a residual, as moetrain's
                        // classifier does, so `x` gathers gradient from the
                        // gate, the experts and the residual.
                        let run = |forward: Forward| {
                            let mut rng = StdRng::seed_from_u64(60 + top_k as u64);
                            let moe = MoeLayer::new(kind, 6, 12, 8, top_k, &mut rng).unwrap();
                            let x =
                                Var::parameter(Tensor::rand_uniform([tokens, 6], 1.0, &mut rng));
                            let probe =
                                Var::constant(Tensor::rand_uniform([tokens, 6], 1.0, &mut rng));
                            let (out, stats) = forward(&moe, &x, fused);
                            out.add(&x).unwrap().mul(&probe).unwrap().sum().backward();
                            let mut grads: Vec<Option<Vec<u32>>> = moe
                                .parameters()
                                .iter()
                                .map(|p| p.grad().map(|g| bits(&g)))
                                .collect();
                            grads.push(x.grad().map(|g| bits(&g)));
                            (bits(&out.value()), stats.tokens_per_expert, grads)
                        };
                        let (out, counts, grads) = run(routed);
                        let (oracle_out, oracle_counts, oracle_grads) = run(dense_masked_forward);
                        let case = format!("{kind:?} top-{top_k} {tokens} tokens fused={fused}");
                        assert_eq!(counts, oracle_counts, "{case}: routing");
                        assert_eq!(out, oracle_out, "{case}: output");
                        assert_eq!(grads.len(), oracle_grads.len());
                        for (i, (g, o)) in grads.iter().zip(&oracle_grads).enumerate() {
                            assert_eq!(g, o, "{case}: gradient {i}");
                        }
                        assert!(grads.last().unwrap().is_some(), "{case}: input gradient");
                        if counts.contains(&0) {
                            starved_batches += 1;
                        }
                    }
                }
            }
        }
        assert!(
            starved_batches > 0,
            "no batch left an expert without a token"
        );
    }

    #[test]
    fn sgd_descends_quadratic() {
        let w = Var::parameter(Tensor::scalar(5.0));
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            let loss = w.mul(&w).unwrap().mean();
            loss.backward();
            opt.step(std::slice::from_ref(&w));
        }
        assert!(w.value().item().abs() < 1e-3);
    }

    #[test]
    fn adamw_descends_quadratic() {
        let w = Var::parameter(Tensor::scalar(5.0));
        let mut opt = AdamW::new(0.3, 1);
        opt.weight_decay = 0.0;
        for _ in 0..200 {
            let loss = w.mul(&w).unwrap().mean();
            loss.backward();
            opt.step(std::slice::from_ref(&w));
        }
        assert!(w.value().item().abs() < 1e-2, "w = {}", w.value().item());
    }

    #[test]
    fn vectorized_adamw_matches_the_indexed_loop_bitwise() {
        // The per-index loop the zipped pass replaced, kept as its oracle.
        fn indexed_step(
            opt: &AdamW,
            t: u64,
            w: &mut [f32],
            g: &[f32],
            m: &mut [f32],
            v: &mut [f32],
        ) {
            let t = t as f32;
            let bc1 = 1.0 - opt.beta1.powf(t);
            let bc2 = 1.0 - opt.beta2.powf(t);
            let (lr, b1, b2, eps, wd) = (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay);
            for i in 0..w.len() {
                let gi = g[i];
                m[i] = b1 * m[i] + (1.0 - b1) * gi;
                v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                w[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * w[i]);
            }
        }
        let mut rng = StdRng::seed_from_u64(45);
        // 37 elements: full vector lanes plus a tail.
        let init = Tensor::rand_uniform([1, 37], 1.0, &mut rng);
        let param = Var::parameter(init.clone());
        let mut opt = AdamW::new(0.05, 1);
        opt.weight_decay = 0.1;
        let mut w = init.data().to_vec();
        let (mut m, mut v) = (vec![0.0; 37], vec![0.0; 37]);
        for t in 1..=3 {
            let g = Tensor::rand_uniform([1, 37], 2.0, &mut rng);
            indexed_step(&opt, t, &mut w, g.data(), &mut m, &mut v);
            param.seed_grad(g);
            opt.step(std::slice::from_ref(&param));
            let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(
                bits(param.value().data()),
                bits(&w),
                "weights diverged at step {t}"
            );
            assert_eq!(bits(&opt.moments[0].0), bits(&m), "m diverged at step {t}");
            assert_eq!(bits(&opt.moments[0].1), bits(&v), "v diverged at step {t}");
        }
    }

    /// Trains a small MoE classifier for `steps` steps on fixed data and
    /// returns (per-step losses, final parameter tensors).
    fn train_moe(kind: ExpertKind, fused: bool, steps: usize) -> (Vec<f32>, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(40);
        let moe = MoeLayer::new(kind, 4, 8, 4, 2, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([20, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut losses = Vec::new();
        for _ in 0..steps {
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward_with(&xv, fused).unwrap();
            let logits = if fused {
                head.forward_act(&h, Activation::Identity).unwrap()
            } else {
                head.forward_naive(&h, Activation::Identity).unwrap()
            };
            let loss = logits.cross_entropy(&labels).unwrap();
            losses.push(loss.value().item());
            loss.backward();
            opt.step(&params);
        }
        (losses, params.iter().map(|p| p.value()).collect())
    }

    #[test]
    fn fused_training_bit_identical_to_naive_over_steps() {
        // The tentpole equivalence guarantee: fused kernels + reusable tape
        // produce bit-identical losses AND parameter trajectories to the
        // composed naive ops over multiple optimizer steps.
        for kind in [ExpertKind::GeluFfn, ExpertKind::SwiGlu] {
            let (fused_losses, fused_params) = train_moe(kind, true, 4);
            let (naive_losses, naive_params) = train_moe(kind, false, 4);
            for (s, (a, b)) in fused_losses.iter().zip(&naive_losses).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{kind:?} loss diverged at step {s}: {a} vs {b}"
                );
            }
            for (i, (a, b)) in fused_params.iter().zip(&naive_params).enumerate() {
                assert_eq!(a, b, "{kind:?} parameter {i} diverged after training");
            }
        }
    }

    #[test]
    fn steady_state_steps_report_identical_allocation_counts() {
        // Tensor buffers and graph nodes are plain allocations, counted per
        // thread. Dense routing (top_k == num_experts) keeps every step's op
        // structure identical, so two steady-state steps must report the
        // same exact, nonzero deltas.
        let mut rng = StdRng::seed_from_u64(41);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 4, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([16, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut step = || {
            let before = (crate::pool::stats(), crate::autograd::arena_stats());
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward(&xv).unwrap();
            let loss = head.forward(&h).unwrap().cross_entropy(&labels).unwrap();
            loss.backward();
            opt.step(&params);
            (
                crate::pool::stats().allocs_since(&before.0),
                crate::autograd::arena_stats().allocs_since(&before.1),
            )
        };
        // The first step also creates the optimizer moments.
        step();
        let first = step();
        let second = step();
        assert_eq!(first, second, "steady-state steps must count alike");
        assert!(first.0 > 0, "tensor buffers must be counted");
        assert!(first.1 > 0, "graph nodes must be counted");
    }

    #[test]
    fn replica_from_parameters_trains_bit_identically() {
        // The data-parallel trainer rebuilds models from parameter
        // snapshots; a rebuilt replica must be indistinguishable from the
        // original — same forward values, same gradients.
        let mut rng = StdRng::seed_from_u64(44);
        let moe = MoeLayer::new(ExpertKind::SwiGlu, 4, 8, 4, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform([9, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let snapshot: Vec<Tensor> = moe.parameters().iter().map(Var::value).collect();
        let replica =
            MoeLayer::from_parameters(ExpertKind::SwiGlu, 4, 2, &mut snapshot.into_iter()).unwrap();
        let run = |m: &MoeLayer| -> (f32, Vec<Option<Tensor>>) {
            let (h, _) = m.forward(&Var::constant(x.clone())).unwrap();
            let loss = h.cross_entropy(&labels).unwrap();
            let out = loss.value().item();
            loss.backward();
            (out, m.parameters().iter().map(Var::take_grad).collect())
        };
        let (loss_a, grads_a) = run(&moe);
        let (loss_b, grads_b) = run(&replica);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "loss diverged");
        for (i, (a, b)) in grads_a.iter().zip(&grads_b).enumerate() {
            assert_eq!(a, b, "gradient {i} diverged between original and replica");
        }
    }

    #[test]
    fn adamw_trains_moe_to_fit_labels() {
        // A real end-to-end training smoke test: the MoE must fit a small
        // synthetic classification problem.
        let mut rng = StdRng::seed_from_u64(8);
        let moe = MoeLayer::new(ExpertKind::GeluFfn, 4, 16, 4, 2, &mut rng).unwrap();
        let head = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform([30, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let mut params = moe.parameters();
        params.extend(head.parameters());
        let mut opt = AdamW::new(0.02, params.len());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let xv = Var::constant(x.clone());
            let (h, _) = moe.forward(&xv).unwrap();
            let logits = head.forward(&h).unwrap();
            let loss = logits.cross_entropy(&labels).unwrap();
            last = loss.value().item();
            first.get_or_insert(last);
            loss.backward();
            opt.step(&params);
        }
        let first = first.unwrap();
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
    }
}
