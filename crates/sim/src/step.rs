//! Expansion of one fine-tuning step into its kernel trace.
//!
//! The builder walks the model layer by layer and emits every kernel a
//! PyTorch-eager fine-tuning step launches: normalization, mixer
//! (attention or Mamba), router, top-k selection, per-expert GEMMs with
//! optional NF4 de-quantization and LoRA adapters, the LM head, the
//! backward mirror of all of it (including gradient-checkpointing
//! re-computation), and the optimizer sweep.

use crate::trace::{KernelRecord, Section, Stage, StepTrace, TraceSegment};
use ftsim_gpu::{CostModel, KernelDesc, KernelKind};
use ftsim_model::{FineTuneConfig, FineTuneMethod, ModelConfig, SequenceMixer};
use ftsim_tensor::nn::ExpertKind;

/// Always-zero trace-cache counters, returned by the
/// [`StepSimulator::cache_stats`] shim. A simulator retains nothing between
/// steps, so there is nothing to count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub entries: usize,
}

/// Simulates training steps for one (model, recipe, GPU) combination.
///
/// Immutable configuration: a simulator keeps no state from one
/// [`StepSimulator::simulate_step`] call to the next.
#[derive(Debug, Clone)]
pub struct StepSimulator {
    model: ModelConfig,
    ft: FineTuneConfig,
    cost: CostModel,
}

#[cfg(test)]
thread_local! {
    /// Kernels priced on this thread, so a test can count one step's pricing
    /// without racing other tests on the process-global obs registry.
    static PRICED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Internal builder accumulating the kernels of one step or layer.
struct TraceBuilder<'a> {
    cost: &'a CostModel,
    records: Vec<KernelRecord>,
    stage: Stage,
}

impl<'a> TraceBuilder<'a> {
    /// Pre-sizes the record vector; hot sweep paths pass the exact kernel
    /// count (see the `*_kernels` estimators) so emission never reallocates.
    fn with_capacity(cost: &'a CostModel, kernels: usize) -> Self {
        TraceBuilder {
            cost,
            records: Vec::with_capacity(kernels),
            stage: Stage::Forward,
        }
    }

    fn emit(&mut self, section: Section, desc: KernelDesc) {
        #[cfg(test)]
        PRICED.with(|n| n.set(n.get() + 1));
        let cost = self.cost.kernel_cost(&desc);
        self.records.push(KernelRecord {
            stage: self.stage,
            section,
            desc,
            cost,
        });
    }
}

impl StepSimulator {
    /// Creates a simulator.
    pub fn new(model: ModelConfig, ft: FineTuneConfig, cost: CostModel) -> Self {
        StepSimulator { model, ft, cost }
    }

    /// The model being simulated.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The fine-tuning recipe.
    pub fn finetune(&self) -> &FineTuneConfig {
        &self.ft
    }

    /// The GPU cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Simulates one full training step (forward + backward + optimizer)
    /// over `batch` queries padded to `seq_len` tokens.
    ///
    /// All `num_layers` layers launch the same kernels, so each layer half
    /// (forward, backward, and the checkpointing re-computation) is priced
    /// once per call and replayed `num_layers` times as a repeated segment
    /// — O(kernels), not O(layers × kernels). Nothing is kept between
    /// calls. The result is bit-identical to the test-only oracle
    /// `simulate_step_naive`, which emits every layer's kernels
    /// individually.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq_len` is zero.
    pub fn simulate_step(&self, batch: usize, seq_len: usize) -> StepTrace {
        assert!(batch >= 1, "batch must be at least 1");
        assert!(seq_len >= 1, "seq_len must be at least 1");
        let _step = ftsim_obs::span("sim.step", "simulate_step");
        let layers = self.model.num_layers;

        // ---- Forward ----
        let (prologue, fwd_layer, head) = {
            let _stage = ftsim_obs::span("sim.step", "forward");
            let mut prologue = TraceBuilder::with_capacity(&self.cost, self.embedding_kernels());
            self.emit_embedding(&mut prologue, batch, seq_len);
            let mut fwd_layer =
                TraceBuilder::with_capacity(&self.cost, self.layer_forward_kernels());
            self.emit_layer_forward(&mut fwd_layer, batch, seq_len);
            let mut head = TraceBuilder::with_capacity(&self.cost, self.head_kernels());
            self.emit_head(&mut head, batch, seq_len);
            (prologue, fwd_layer, head)
        };

        // ---- Backward ----
        // LM head backward first (loss gradient), then the layers.
        let (head_bwd, bwd_block) = {
            let _stage = ftsim_obs::span("sim.step", "backward");
            let mut head_bwd =
                TraceBuilder::with_capacity(&self.cost, self.head_backward_kernels());
            head_bwd.stage = Stage::Backward;
            self.emit_head_backward(&mut head_bwd, batch, seq_len);
            let mut bwd_block =
                TraceBuilder::with_capacity(&self.cost, self.layer_block_backward_kernels());
            bwd_block.stage = Stage::Backward;
            if self.ft.gradient_checkpointing {
                // Recompute the layer's forward before differentiating it: the
                // repeated block is [recompute ++ backward].
                self.emit_layer_forward(&mut bwd_block, batch, seq_len);
            }
            self.emit_layer_backward(&mut bwd_block, batch, seq_len);
            (head_bwd, bwd_block)
        };

        // ---- Optimizer ----
        let opt = {
            let _stage = ftsim_obs::span("sim.step", "optimizer");
            let mut opt = TraceBuilder::with_capacity(&self.cost, self.optimizer_kernels());
            opt.stage = Stage::Optimizer;
            self.emit_optimizer(&mut opt);
            opt
        };

        StepTrace::from_segments(
            vec![
                TraceSegment::once(prologue.records),
                TraceSegment::repeated(fwd_layer.records, layers),
                TraceSegment::once(head.records),
                TraceSegment::once(head_bwd.records),
                TraceSegment::repeated(bwd_block.records, layers),
                TraceSegment::once(opt.records),
            ],
            batch,
            seq_len,
            self.model.is_attention(),
        )
    }

    /// Reference path: emits every layer's kernels individually, with no
    /// memoization or segment compression — O(layers × kernels). Kept as
    /// the oracle [`StepSimulator::simulate_step`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq_len` is zero.
    #[cfg(test)]
    pub(crate) fn simulate_step_naive(&self, batch: usize, seq_len: usize) -> StepTrace {
        assert!(batch >= 1, "batch must be at least 1");
        assert!(seq_len >= 1, "seq_len must be at least 1");
        let mut b = TraceBuilder::with_capacity(&self.cost, self.step_kernels());

        // ---- Forward ----
        b.stage = Stage::Forward;
        self.emit_embedding(&mut b, batch, seq_len);
        for _ in 0..self.model.num_layers {
            self.emit_layer_forward(&mut b, batch, seq_len);
        }
        self.emit_head(&mut b, batch, seq_len);

        // ---- Backward ----
        b.stage = Stage::Backward;
        self.emit_head_backward(&mut b, batch, seq_len);
        for _ in 0..self.model.num_layers {
            if self.ft.gradient_checkpointing {
                self.emit_layer_forward(&mut b, batch, seq_len);
            }
            self.emit_layer_backward(&mut b, batch, seq_len);
        }

        // ---- Optimizer ----
        b.stage = Stage::Optimizer;
        self.emit_optimizer(&mut b);

        StepTrace::from_records(b.records, batch, seq_len, self.model.is_attention())
    }

    /// Compatibility shim returning all-zero counters: the simulator has no
    /// trace cache. `ftbench` still reads it; it goes when the benchmark
    /// drops its `sim.step.trace_*` rows.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Tokens routed to each expert under the configured sparsity, assuming
    /// balanced routing (the paper's load-imbalance analysis is separate,
    /// in [`crate::routing`]).
    fn tokens_per_expert(&self, tokens: usize) -> usize {
        let k = self.ft.sparsity.active_experts(self.model.moe.num_experts);
        (tokens * k).div_ceil(self.model.moe.num_experts).max(1)
    }

    /// `true` when base weights are NF4 and must be de-quantized per use.
    fn quantized(&self) -> bool {
        self.ft.method.is_quantized()
    }

    // ---- Kernel-count estimators ----
    //
    // Each mirrors the matching `emit_*` method exactly (a unit test pins
    // them together) so `TraceBuilder::with_capacity` can pre-size record
    // vectors and emission never reallocates in hot sweep loops.

    fn expert_mats(&self) -> usize {
        match self.model.moe.expert_kind {
            ExpertKind::SwiGlu => 3,
            ExpertKind::GeluFfn => 2,
        }
    }

    fn embedding_kernels(&self) -> usize {
        1
    }

    fn mixer_forward_kernels(&self) -> usize {
        match self.model.mixer {
            SequenceMixer::Attention { .. } => usize::from(self.quantized()) + 4,
            SequenceMixer::Mamba { .. } => 8,
        }
    }

    fn moe_forward_kernels(&self) -> usize {
        let mats = self.expert_mats();
        let lora = if self.ft.method.lora_rank().is_some() {
            2 * mats
        } else {
            0
        };
        let per_expert = usize::from(self.quantized()) + (mats - 1) + 3 + lora;
        3 + self.model.moe.num_experts * per_expert
    }

    fn layer_forward_kernels(&self) -> usize {
        2 + self.mixer_forward_kernels() + self.moe_forward_kernels()
    }

    fn mixer_backward_kernels(&self) -> usize {
        let full = usize::from(matches!(self.ft.method, FineTuneMethod::Full));
        3 + 2 * full
    }

    fn layer_backward_kernels(&self) -> usize {
        let mats = self.expert_mats();
        let full = matches!(self.ft.method, FineTuneMethod::Full);
        // dX matmuls through W2, W1 (and W3) + the activation backward.
        let mut per_expert = mats + 1;
        if full {
            per_expert += mats;
        }
        if self.ft.method.lora_rank().is_some() {
            per_expert += 4 * mats;
        }
        self.model.moe.num_experts * per_expert + 1 + self.mixer_backward_kernels() + 1
    }

    /// The repeated backward block: the checkpointing re-computation of
    /// the layer's forward, if enabled, then its backward.
    fn layer_block_backward_kernels(&self) -> usize {
        let recompute = if self.ft.gradient_checkpointing {
            self.layer_forward_kernels()
        } else {
            0
        };
        recompute + self.layer_backward_kernels()
    }

    fn head_kernels(&self) -> usize {
        3
    }

    fn head_backward_kernels(&self) -> usize {
        2 + usize::from(matches!(self.ft.method, FineTuneMethod::Full))
    }

    fn optimizer_kernels(&self) -> usize {
        1
    }

    /// Exact kernel launches in one (uncompressed) step trace.
    #[cfg(test)]
    fn step_kernels(&self) -> usize {
        let layers = self.model.num_layers;
        self.embedding_kernels()
            + layers * self.layer_forward_kernels()
            + self.head_kernels()
            + self.head_backward_kernels()
            + layers * self.layer_block_backward_kernels()
            + self.optimizer_kernels()
    }

    fn emit_embedding(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = (batch * seq_len) as f64;
        let h = self.model.hidden as f64;
        b.emit(
            Section::Embedding,
            KernelDesc::elementwise(KernelKind::Elementwise, tokens * h, 1.0, 4.0),
        );
    }

    fn emit_norm(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = (batch * seq_len) as f64;
        let h = self.model.hidden as f64;
        b.emit(
            Section::Norm,
            KernelDesc::elementwise(KernelKind::Norm, tokens * h, 8.0, 4.0),
        );
    }

    fn emit_layer_forward(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        self.emit_norm(b, batch, seq_len); // input norm
        self.emit_mixer_forward(b, batch, seq_len);
        self.emit_norm(b, batch, seq_len); // post-mixer norm
        self.emit_moe_forward(b, batch, seq_len);
    }

    fn emit_mixer_forward(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = batch * seq_len;
        let h = self.model.hidden;
        match self.model.mixer {
            SequenceMixer::Attention {
                heads,
                kv_heads,
                head_dim,
            } => {
                let q_dim = heads * head_dim;
                let kv_dim = kv_heads * head_dim;
                if self.quantized() {
                    let attn_weights = (h * q_dim + 2 * h * kv_dim + q_dim * h) as f64;
                    b.emit(Section::Mixer, KernelDesc::dequant(attn_weights));
                }
                // Fused QKV projection.
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, q_dim + 2 * kv_dim, h, 2),
                );
                // FlashAttention-2: 2 GEMM-like passes over the score matrix.
                let flops = 4.0 * tokens as f64 * seq_len as f64 * q_dim as f64;
                let bytes = 4.0 * tokens as f64 * q_dim as f64 * 2.0;
                let tiles = (batch * heads) as f64 * (seq_len as f64 / 64.0).ceil();
                b.emit(
                    Section::Mixer,
                    KernelDesc::new(KernelKind::Attention, flops, bytes, tiles),
                );
                // Output projection + residual.
                b.emit(Section::Mixer, KernelDesc::matmul(tokens, h, q_dim, 2));
                b.emit(
                    Section::Mixer,
                    KernelDesc::elementwise(KernelKind::Elementwise, (tokens * h) as f64, 1.0, 6.0),
                );
            }
            SequenceMixer::Mamba {
                expand,
                state_dim,
                conv_width,
                dt_rank,
            } => {
                let d_inner = expand * h;
                // Input projection for the x and gate paths.
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, 2 * d_inner, h, 2),
                );
                // Depthwise conv (elementwise-ish) + selective scan.
                b.emit(
                    Section::Mixer,
                    KernelDesc::elementwise(
                        KernelKind::Elementwise,
                        (tokens * d_inner) as f64,
                        2.0 * conv_width as f64,
                        6.0,
                    ),
                );
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, dt_rank + 2 * state_dim, d_inner, 2),
                );
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, d_inner, dt_rank, 2),
                );
                // Selective scan: ~9 FLOPs per (token, channel, state) with
                // parallelism over batch × channels only (sequential in L).
                let scan_flops = 9.0 * (tokens * d_inner * state_dim) as f64;
                let scan_bytes = (tokens * d_inner) as f64 * 12.0;
                let scan_tiles = batch as f64 * (d_inner as f64 / 128.0).ceil();
                b.emit(
                    Section::Mixer,
                    KernelDesc::new(KernelKind::MambaScan, scan_flops, scan_bytes, scan_tiles),
                );
                // Gate multiply + output projection + residual.
                b.emit(
                    Section::Mixer,
                    KernelDesc::elementwise(
                        KernelKind::Elementwise,
                        (tokens * d_inner) as f64,
                        4.0,
                        6.0,
                    ),
                );
                b.emit(Section::Mixer, KernelDesc::matmul(tokens, h, d_inner, 2));
                b.emit(
                    Section::Mixer,
                    KernelDesc::elementwise(KernelKind::Elementwise, (tokens * h) as f64, 1.0, 6.0),
                );
            }
        }
    }

    fn emit_moe_forward(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = batch * seq_len;
        let h = self.model.hidden;
        let f = self.model.moe.ffn_dim;
        let e = self.model.moe.num_experts;
        let te = self.tokens_per_expert(tokens);

        // Router: gate projection, softmax, top-k (paper Fig. 12 lines 1-3).
        b.emit(Section::Moe, {
            let mut d = KernelDesc::matmul(tokens, e, h, 2);
            d.kind = KernelKind::Router;
            d
        });
        b.emit(
            Section::Moe,
            KernelDesc::elementwise(KernelKind::Softmax, (tokens * e) as f64, 6.0, 8.0),
        );
        b.emit(
            Section::Moe,
            KernelDesc::elementwise(KernelKind::TopK, (tokens * e) as f64, 4.0, 8.0),
        );

        let expert_mats = match self.model.moe.expert_kind {
            ExpertKind::SwiGlu => 3usize,
            ExpertKind::GeluFfn => 2,
        };
        let lora_rank = self.ft.method.lora_rank();

        // Expert loop (paper Fig. 12 lines 4-8). Every expert receives
        // tokens in expectation at these batch sizes, so all `e` experts
        // launch their kernels; sparsity shows up as fewer tokens each.
        for _ in 0..e {
            if self.quantized() {
                b.emit(
                    Section::Moe,
                    KernelDesc::dequant((expert_mats * h * f) as f64),
                );
            }
            // W1 (and W3 for SwiGLU): h → f.
            b.emit(Section::Moe, KernelDesc::matmul(te, f, h, 2));
            if expert_mats == 3 {
                b.emit(Section::Moe, KernelDesc::matmul(te, f, h, 2));
            }
            // Activation (+ gating multiply for SwiGLU).
            b.emit(
                Section::Moe,
                KernelDesc::elementwise(KernelKind::Elementwise, (te * f) as f64, 10.0, 6.0),
            );
            // W2: f → h.
            b.emit(Section::Moe, KernelDesc::matmul(te, h, f, 2));
            if let Some(r) = lora_rank {
                // Two small GEMMs per adapted matrix: x@A then (xA)@B.
                for _ in 0..expert_mats {
                    b.emit(Section::Moe, KernelDesc::matmul(te, r, h, 2));
                    b.emit(Section::Moe, KernelDesc::matmul(te, f, r, 2));
                }
            }
            // Weighted scatter back into the hidden states (Fig. 12 line 8).
            b.emit(
                Section::Moe,
                KernelDesc::elementwise(KernelKind::IndexAdd, (te * h) as f64, 2.0, 10.0),
            );
        }
    }

    fn emit_head(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = batch * seq_len;
        let h = self.model.hidden;
        let v = self.model.vocab;
        self.emit_norm(b, batch, seq_len);
        b.emit(Section::Head, KernelDesc::matmul(tokens, v, h, 2));
        // Cross-entropy over the vocabulary.
        b.emit(
            Section::Head,
            KernelDesc::elementwise(KernelKind::Softmax, (tokens * v) as f64, 6.0, 6.0),
        );
    }

    fn emit_head_backward(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = batch * seq_len;
        let h = self.model.hidden;
        let v = self.model.vocab;
        // dLogits (elementwise) + dX through the LM head.
        b.emit(
            Section::Head,
            KernelDesc::elementwise(KernelKind::Elementwise, (tokens * v) as f64, 4.0, 6.0),
        );
        b.emit(Section::Head, KernelDesc::matmul(tokens, h, v, 2));
        if matches!(self.ft.method, FineTuneMethod::Full) {
            // Weight gradient for the head.
            b.emit(Section::Head, KernelDesc::matmul(v, h, tokens, 2));
        }
    }

    fn emit_layer_backward(&self, b: &mut TraceBuilder, batch: usize, seq_len: usize) {
        let tokens = batch * seq_len;
        let h = self.model.hidden;
        let f = self.model.moe.ffn_dim;
        let e = self.model.moe.num_experts;
        let te = self.tokens_per_expert(tokens);
        let full = matches!(self.ft.method, FineTuneMethod::Full);
        let lora_rank = self.ft.method.lora_rank();
        let expert_mats = match self.model.moe.expert_kind {
            ExpertKind::SwiGlu => 3usize,
            ExpertKind::GeluFfn => 2,
        };

        // --- MoE backward ---
        for _ in 0..e {
            // dX through W2 then W1 (and W3): same GEMM volume as forward.
            b.emit(Section::Moe, KernelDesc::matmul(te, f, h, 2));
            b.emit(Section::Moe, KernelDesc::matmul(te, h, f, 2));
            if expert_mats == 3 {
                b.emit(Section::Moe, KernelDesc::matmul(te, h, f, 2));
            }
            b.emit(
                Section::Moe,
                KernelDesc::elementwise(KernelKind::Elementwise, (te * f) as f64, 12.0, 8.0),
            );
            if full {
                // Weight gradients for every expert matrix.
                b.emit(Section::Moe, KernelDesc::matmul(h, f, te, 2));
                b.emit(Section::Moe, KernelDesc::matmul(f, h, te, 2));
                if expert_mats == 3 {
                    b.emit(Section::Moe, KernelDesc::matmul(h, f, te, 2));
                }
            }
            if let Some(r) = lora_rank {
                // dX and dW for both adapter factors.
                for _ in 0..expert_mats {
                    b.emit(Section::Moe, KernelDesc::matmul(te, h, r, 2));
                    b.emit(Section::Moe, KernelDesc::matmul(te, r, f, 2));
                    b.emit(Section::Moe, KernelDesc::matmul(r, h, te, 2));
                    b.emit(Section::Moe, KernelDesc::matmul(r, f, te, 2));
                }
            }
        }
        // Router backward (always trained: full FT trains it, and the
        // paper's QLoRA setup adapts the routers too).
        b.emit(Section::Moe, {
            let mut d = KernelDesc::matmul(tokens, h, e, 2);
            d.kind = KernelKind::Router;
            d
        });

        // --- Mixer backward ---
        match self.model.mixer {
            SequenceMixer::Attention {
                heads,
                kv_heads,
                head_dim,
            } => {
                let q_dim = heads * head_dim;
                let kv_dim = kv_heads * head_dim;
                // dX through output and QKV projections.
                b.emit(Section::Mixer, KernelDesc::matmul(tokens, q_dim, h, 2));
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, h, q_dim + 2 * kv_dim, 2),
                );
                // Attention backward ≈ 2× forward.
                let flops = 8.0 * tokens as f64 * seq_len as f64 * q_dim as f64;
                let bytes = 6.0 * tokens as f64 * q_dim as f64 * 2.0;
                let tiles = (batch * heads) as f64 * (seq_len as f64 / 64.0).ceil();
                b.emit(
                    Section::Mixer,
                    KernelDesc::new(KernelKind::Attention, flops, bytes, tiles),
                );
                if full {
                    b.emit(
                        Section::Mixer,
                        KernelDesc::matmul(q_dim + 2 * kv_dim, h, tokens, 2),
                    );
                    b.emit(Section::Mixer, KernelDesc::matmul(h, q_dim, tokens, 2));
                }
            }
            SequenceMixer::Mamba {
                expand, state_dim, ..
            } => {
                let d_inner = expand * h;
                b.emit(
                    Section::Mixer,
                    KernelDesc::matmul(tokens, h, 2 * d_inner, 2),
                );
                b.emit(Section::Mixer, KernelDesc::matmul(tokens, d_inner, h, 2));
                // Scan backward ≈ 2× forward.
                let scan_flops = 18.0 * (tokens * d_inner * state_dim) as f64;
                let scan_bytes = (tokens * d_inner) as f64 * 20.0;
                let scan_tiles = batch as f64 * (d_inner as f64 / 128.0).ceil();
                b.emit(
                    Section::Mixer,
                    KernelDesc::new(KernelKind::MambaScan, scan_flops, scan_bytes, scan_tiles),
                );
                if full {
                    b.emit(
                        Section::Mixer,
                        KernelDesc::matmul(2 * d_inner, h, tokens, 2),
                    );
                    b.emit(Section::Mixer, KernelDesc::matmul(h, d_inner, tokens, 2));
                }
            }
        }

        // Norm backward (both norms).
        let tokens_h = (tokens * h) as f64;
        b.emit(
            Section::Norm,
            KernelDesc::elementwise(KernelKind::Norm, 2.0 * tokens_h, 12.0, 8.0),
        );
    }

    fn emit_optimizer(&self, b: &mut TraceBuilder) {
        let trainable = self.ft.trainable_params(&self.model) as f64;
        // AdamW read-modify-write traffic per parameter:
        //   full FT: bf16 params r/w (4 B) + bf16 grad read (2 B)
        //            + fp32 m, v r/w (16 B) = 22 B
        //   LoRA/QLoRA: fp32 params r/w (8 B) + fp32 grad (4 B)
        //            + fp32 m, v r/w (16 B) = 28 B
        let bytes_per_param = match self.ft.method {
            FineTuneMethod::Full => 22.0,
            FineTuneMethod::Lora { .. } | FineTuneMethod::QLora { .. } => 28.0,
        };
        b.emit(
            Section::Optimizer,
            KernelDesc::new(
                KernelKind::Optimizer,
                16.0 * trainable,
                bytes_per_param * trainable,
                (trainable / 65_536.0).ceil(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stage;
    use ftsim_gpu::GpuSpec;
    use ftsim_model::presets;
    use proptest::prelude::*;

    fn mixtral_sim(ft: FineTuneConfig) -> StepSimulator {
        StepSimulator::new(presets::mixtral_8x7b(), ft, CostModel::new(GpuSpec::a40()))
    }

    fn blackmamba_sim(ft: FineTuneConfig) -> StepSimulator {
        StepSimulator::new(
            presets::blackmamba_2p8b(),
            ft,
            CostModel::new(GpuSpec::a40()),
        )
    }

    #[test]
    fn trace_has_all_three_stages() {
        let t = mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(1, 128);
        for stage in [Stage::Forward, Stage::Backward, Stage::Optimizer] {
            assert!(t.stage_seconds(stage) > 0.0, "{stage} missing");
        }
    }

    #[test]
    fn moe_dominates_mixtral_step() {
        // Paper Fig. 5: the MoE layer is the most time-consuming, ~85% on
        // average across configurations.
        let t = mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(1, 128);
        let moe_pct = t.section_breakdown().percent("moe");
        assert!(moe_pct > 70.0, "MoE share only {moe_pct:.1}%");
    }

    #[test]
    fn moe_dominates_blackmamba_step() {
        let t = blackmamba_sim(FineTuneConfig::full_sparse()).simulate_step(1, 128);
        let moe_pct = t.section_breakdown().percent("moe");
        assert!(moe_pct > 50.0, "MoE share only {moe_pct:.1}%");
        assert!(t.section_breakdown().seconds("mamba") > 0.0);
    }

    #[test]
    fn backward_exceeds_forward() {
        // Paper Fig. 4: the backward stage typically takes more time than
        // forward (gradient computation + checkpoint recomputation).
        for t in [
            mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(2, 128),
            blackmamba_sim(FineTuneConfig::full_sparse()).simulate_step(2, 128),
        ] {
            assert!(t.stage_seconds(Stage::Backward) > t.stage_seconds(Stage::Forward));
        }
    }

    #[test]
    fn optimizer_share_blackmamba_vs_mixtral() {
        // Paper Fig. 4: optimizer is a large share for BlackMamba full FT
        // (up to ~53% at sparse batch 1) and negligible for Mixtral QLoRA.
        let bm = blackmamba_sim(FineTuneConfig::full_sparse()).simulate_step(1, 128);
        let bm_share = bm.stage_seconds(Stage::Optimizer) / bm.total_seconds();
        assert!(
            (0.30..0.70).contains(&bm_share),
            "BlackMamba optimizer share {bm_share:.2}"
        );
        let mx = mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(1, 128);
        let mx_share = mx.stage_seconds(Stage::Optimizer) / mx.total_seconds();
        assert!(mx_share < 0.05, "Mixtral optimizer share {mx_share:.3}");
    }

    #[test]
    fn dense_step_is_slower_than_sparse() {
        let sparse = mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(2, 128);
        let dense = mixtral_sim(FineTuneConfig::qlora_dense()).simulate_step(2, 128);
        assert!(dense.total_seconds() > sparse.total_seconds());
    }

    #[test]
    fn bigger_batch_takes_longer_but_sublinearly() {
        let sim = mixtral_sim(FineTuneConfig::qlora_sparse());
        let t1 = sim.simulate_step(1, 128).total_seconds();
        let t8 = sim.simulate_step(8, 128).total_seconds();
        assert!(t8 > t1);
        assert!(
            t8 < 8.0 * t1,
            "step time should grow sublinearly: {t1} -> {t8}"
        );
    }

    #[test]
    fn dequant_only_for_qlora() {
        let mx = mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(1, 64);
        assert!(mx.moe_kernel_breakdown().seconds("dequant") > 0.0);
        let bm = blackmamba_sim(FineTuneConfig::full_sparse()).simulate_step(1, 64);
        assert_eq!(bm.moe_kernel_breakdown().seconds("dequant"), 0.0);
    }

    #[test]
    fn matmul_is_largest_moe_kernel() {
        // Paper Fig. 6 / Takeaway 3: matrix multiplication dominates the
        // MoE layer.
        for t in [
            mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(8, 128),
            blackmamba_sim(FineTuneConfig::full_dense()).simulate_step(6, 128),
        ] {
            let b = t.moe_kernel_breakdown();
            assert_eq!(b.sorted()[0].0, "matmul", "{:?}", b.sorted());
        }
    }

    #[test]
    fn checkpointing_inflates_backward() {
        let mut ft = FineTuneConfig::qlora_sparse();
        let with = mixtral_sim(ft).simulate_step(2, 128);
        ft.gradient_checkpointing = false;
        let without = mixtral_sim(ft).simulate_step(2, 128);
        assert!(with.stage_seconds(Stage::Backward) > 1.3 * without.stage_seconds(Stage::Backward));
        // Forward is unaffected.
        let fw = with.stage_seconds(Stage::Forward);
        let fwo = without.stage_seconds(Stage::Forward);
        assert!((fw - fwo).abs() < 1e-9);
    }

    #[test]
    fn flop_accounting_matches_active_params() {
        // Forward GEMM flops should be ≈ 2 × active params × tokens.
        let sim = mixtral_sim(FineTuneConfig::qlora_sparse());
        let t = sim.simulate_step(1, 128);
        let fwd_flops: f64 = t
            .records()
            .filter(|r| r.stage == Stage::Forward)
            .map(|r| r.desc.flops)
            .sum();
        let active = presets::mixtral_8x7b().param_counts().active_total(2) as f64;
        let expected = 2.0 * active * 128.0;
        let ratio = fwd_flops / expected;
        assert!(
            (0.8..1.6).contains(&ratio),
            "forward flops {fwd_flops:.3e} vs 2·P_active·T {expected:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        mixtral_sim(FineTuneConfig::qlora_sparse()).simulate_step(0, 128);
    }

    /// All (model, recipe) combinations the equivalence tests sweep.
    fn preset_sims() -> Vec<StepSimulator> {
        let mut sims = vec![
            mixtral_sim(FineTuneConfig::qlora_sparse()),
            mixtral_sim(FineTuneConfig::qlora_dense()),
            blackmamba_sim(FineTuneConfig::full_sparse()),
            blackmamba_sim(FineTuneConfig::full_dense()),
        ];
        // Cover the no-checkpointing segment layout too.
        let mut no_ckpt = FineTuneConfig::qlora_sparse();
        no_ckpt.gradient_checkpointing = false;
        sims.push(mixtral_sim(no_ckpt));
        sims
    }

    /// The memoized path must match the naive per-layer emission to the
    /// last bit: same expanded record sequence implies the same f64
    /// summation order in every aggregation.
    fn assert_traces_identical(memo: &StepTrace, naive: &StepTrace) {
        assert_eq!(memo.kernel_count(), naive.kernel_count());
        assert_eq!(
            memo.total_seconds().to_bits(),
            naive.total_seconds().to_bits(),
            "total_seconds diverged"
        );
        for stage in [Stage::Forward, Stage::Backward, Stage::Optimizer] {
            assert_eq!(
                memo.stage_seconds(stage).to_bits(),
                naive.stage_seconds(stage).to_bits(),
                "stage_seconds({stage}) diverged"
            );
        }
        let (mu, nu) = (
            memo.moe_overall_utilization(),
            naive.moe_overall_utilization(),
        );
        assert_eq!(mu.seconds.to_bits(), nu.seconds.to_bits());
        assert_eq!(mu.sm_util.to_bits(), nu.sm_util.to_bits());
        assert_eq!(mu.dram_util.to_bits(), nu.dram_util.to_bits());
        // Record-by-record identity (covers desc, cost, stage, section).
        assert!(
            memo.records().eq(naive.records()),
            "record sequences diverged"
        );
    }

    #[test]
    fn memoized_step_matches_naive_bit_for_bit() {
        for sim in preset_sims() {
            for (batch, seq_len) in [(1, 64), (3, 128), (8, 517)] {
                let memo = sim.simulate_step(batch, seq_len);
                let naive = sim.simulate_step_naive(batch, seq_len);
                assert_traces_identical(&memo, &naive);
            }
        }
    }

    #[test]
    fn step_prices_one_layer_per_layer_half() {
        // Mixtral has 32 layers. With gradient checkpointing a step prices
        // one layer's forward, re-computation and backward kernels, plus
        // the one-off embedding, head and optimizer kernels, and replays
        // the layer halves; it never prices 32 × those. Nothing carries
        // over, so the second step prices the same count again.
        let sim = mixtral_sim(FineTuneConfig::qlora_sparse());
        assert!(sim.finetune().gradient_checkpointing);
        assert!(sim.model().num_layers >= 32);
        let one_layer = sim.embedding_kernels()
            + sim.layer_forward_kernels()
            + sim.head_kernels()
            + sim.head_backward_kernels()
            + sim.layer_block_backward_kernels()
            + sim.optimizer_kernels();
        for _ in 0..2 {
            let before = PRICED.with(|n| n.get());
            let t = sim.simulate_step(2, 128);
            assert_eq!(PRICED.with(|n| n.get()) - before, one_layer);
            assert_eq!(t.unique_kernel_count(), one_layer);
            assert_eq!(t.kernel_count(), sim.step_kernels());
            assert!(t.kernel_count() > 10 * one_layer);
        }
    }

    #[test]
    fn kernel_count_estimators_match_emission() {
        for sim in preset_sims() {
            let naive = sim.simulate_step_naive(2, 96);
            assert_eq!(
                sim.step_kernels(),
                naive.kernel_count(),
                "step_kernels drifted from emission for {:?}/{:?}",
                sim.model().name,
                sim.finetune().method,
            );
            let mut fwd = TraceBuilder::with_capacity(&sim.cost, 0);
            sim.emit_layer_forward(&mut fwd, 2, 96);
            assert_eq!(sim.layer_forward_kernels(), fwd.records.len());
            let mut bwd = TraceBuilder::with_capacity(&sim.cost, 0);
            sim.emit_layer_backward(&mut bwd, 2, 96);
            assert_eq!(sim.layer_backward_kernels(), bwd.records.len());
        }
    }

    proptest! {
        /// Property: across random shapes and every preset, the memoized
        /// trace matches the naive emission exactly — `total_seconds`,
        /// `stage_breakdown`, and `moe_overall_utilization` are compared at
        /// the bit level.
        fn prop_memoized_equals_naive(
            batch in 1usize..=16,
            seq_len in 16usize..512,
            which in 0usize..5,
        ) {
            let sim = &preset_sims()[which];
            let memo = sim.simulate_step(batch, seq_len);
            let naive = sim.simulate_step_naive(batch, seq_len);
            prop_assert_eq!(memo.kernel_count(), naive.kernel_count());
            prop_assert_eq!(
                memo.total_seconds().to_bits(),
                naive.total_seconds().to_bits()
            );
            let (mb, nb) = (memo.stage_breakdown(), naive.stage_breakdown());
            for stage in [Stage::Forward, Stage::Backward, Stage::Optimizer] {
                prop_assert_eq!(
                    mb.seconds(stage.label()).to_bits(),
                    nb.seconds(stage.label()).to_bits()
                );
            }
            let (mu, nu) = (memo.moe_overall_utilization(), naive.moe_overall_utilization());
            prop_assert_eq!(mu.seconds.to_bits(), nu.seconds.to_bits());
            prop_assert_eq!(mu.sm_util.to_bits(), nu.sm_util.to_bits());
            prop_assert_eq!(mu.dram_util.to_bits(), nu.dram_util.to_bits());
        }
    }
}
