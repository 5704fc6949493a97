//! Thread configuration and the matmul microkernel family.
//!
//! `ftsim-tensor` cannot depend on `ftsim-sim`'s engine (the dependency
//! points the other way), so it reads the same `FTSIM_THREADS` environment
//! variable itself.
//!
//! Two kernels live here, both bound by the same accumulation-order
//! contract (see DESIGN.md "Kernel contracts"):
//!
//! * `matmul_naive_into` — the i-p-j oracle (test-only). Slow, obviously
//!   correct, and the reference every other kernel must match bit-for-bit.
//! * `matmul_microkernel_into` — the production kernel: cache-blocked
//!   over the inner dimension and tiled into fixed `MR`×`NR` register
//!   accumulators. Its band tiles, the fused epilogue's bias add, and the
//!   backward epilogue's `db`/`dw` sweeps dispatch at runtime to explicit
//!   AVX2 bodies in [`crate::simd`] when the host supports them, with the
//!   scalar tiles as the always-compiled fallback (`FTSIM_NO_SIMD=1`
//!   forces it).
//!
//! The contract: every output element accumulates its products in
//! ascending inner-index (`p`) order, skipping terms whose *lhs* factor is
//! exactly `0.0`. Because each element's addition sequence is fixed,
//! results are bit-identical across both kernels, across the scalar
//! and SIMD bodies (which round identically — see `crate::simd`), and at
//! every thread count (row partitioning never reorders a single element's
//! sums). `linear_act_backward_into` extends the same contract to the
//! fused backward epilogue.

/// Environment variable overriding the worker-thread count (shared with
/// `ftsim-sim`'s engine).
pub const THREADS_ENV: &str = "FTSIM_THREADS";

/// Inner-dimension panel width: 64 lhs columns × 4 B keeps a panel of the
/// rhs rows resident in L1/L2 while a row block streams over it.
pub(crate) const K_BLOCK: usize = 64;

/// Microkernel lane width: 8 f32 lanes, one AVX2 `ymm` register (or two
/// NEON `q` registers). Output columns are walked in strips of `NR` so the
/// inner loop is a fixed-width FMA the autovectorizer cannot miss.
pub(crate) const NR: usize = 8;

/// Microkernel register-tile height: each inner-kernel invocation carries
/// `MR` rows of accumulators (6×8 f32 = 12 SSE `xmm` or 6 AVX2 `ymm`
/// registers), so one load of an rhs lane strip is reused `MR` times before
/// the next `p` step. 6 beat 4 and 8 on the baseline x86-64 target: 8
/// spills accumulators, 4 under-uses the register file.
pub(crate) const MR: usize = 6;

/// Below this many multiply-adds the thread-spawn overhead outweighs the
/// work; run on the calling thread. The autograd fused backward uses the
/// same threshold to decide between the streaming epilogue and the
/// materialized (threadable) matmul path.
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 1 << 20;

/// Worker threads to use: `FTSIM_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    resolve_thread_count(std::env::var(THREADS_ENV).ok().as_deref())
}

fn resolve_thread_count(env_value: Option<&str>) -> usize {
    env_value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// `out[m×n] = lhs[m×k] @ rhs[k×n]` via the naive i-p-j triple loop.
///
/// This is the accumulation-order *oracle*: ascending `p` per output
/// element, with terms skipped when the lhs factor is exactly `0.0`. Every
/// other matmul kernel in the crate is tested bit-identical to this one.
/// `out` must be zero-initialized and of length `m*n`.
#[cfg(test)]
pub(crate) fn matmul_naive_into(
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * k, "lhs length");
    assert_eq!(rhs.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "out length");
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a = lhs[i * k + p];
            if a == 0.0 {
                continue;
            }
            let rhs_row = &rhs[p * n..(p + 1) * n];
            for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
    }
}

/// `out[m×n] = lhs[m×k] @ rhs[k×n]` via the register-tile microkernel
/// (serial). This is the kernel the crate-internal `matmul_into`
/// dispatcher drives under threads; the tests compare it against
/// [`matmul_naive_into`] without thread-count noise. `out` must be
/// zero-initialized, length `m*n`.
#[cfg(test)]
pub(crate) fn matmul_microkernel_into(
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * k, "lhs length");
    assert_eq!(rhs.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "out length");
    matmul_rows(lhs, rhs, out, 0, k, n);
}

/// One row × one `K_BLOCK` panel: ascending `p`, lhs zero-skip, full
/// column span. The microkernel's row-remainder path, in the same order as
/// the naive oracle.
#[allow(clippy::too_many_arguments)]
fn blocked_row_panel(
    lhs: &[f32],
    rhs: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    i: usize,
    p0: usize,
    p1: usize,
    k: usize,
    n: usize,
) {
    let lhs_row = &lhs[(row0 + i) * k..(row0 + i + 1) * k];
    let out_row = &mut out_rows[i * n..(i + 1) * n];
    for p in p0..p1 {
        let a = lhs_row[p];
        if a == 0.0 {
            continue;
        }
        let rhs_row = &rhs[p * n..(p + 1) * n];
        for (o, &b) in out_row.iter_mut().zip(rhs_row) {
            *o += a * b;
        }
    }
}

/// The inner microkernel: walks one `MR`-row band across all `NR`-wide
/// column strips for one K panel, carrying each `MR`×`NR` tile in a
/// fixed-size accumulator array (registers) and touching `out_rows` only at
/// tile load/store.
///
/// `ZERO_SKIP` monomorphizes the lhs `a == 0.0` skip in or out: the caller
/// scans the band's panels and picks `false` (straight-line FMAs, fully
/// vectorizable) when no exact zero exists — bit-identical because the skip
/// would never fire — and `true` otherwise.
fn band_tiles<const ZERO_SKIP: bool>(
    lhs_panels: &[&[f32]; MR],
    rhs: &[f32],
    out_rows: &mut [f32],
    i: usize,
    p0: usize,
    n_main: usize,
    n: usize,
) {
    let panel_len = lhs_panels[0].len();
    let mut j0 = 0;
    while j0 < n_main {
        // Load the MR×NR accumulator tile from the output.
        let mut acc = [[0.0f32; NR]; MR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let base = (i + r) * n + j0;
            acc_r.copy_from_slice(&out_rows[base..base + NR]);
        }
        for off in 0..panel_len {
            let p = p0 + off;
            let lane: &[f32; NR] = rhs[p * n + j0..p * n + j0 + NR]
                .try_into()
                .expect("NR-wide rhs strip");
            for (acc_r, lhs_panel) in acc.iter_mut().zip(lhs_panels) {
                let a = lhs_panel[off];
                if ZERO_SKIP && a == 0.0 {
                    continue;
                }
                for (acc_v, &b) in acc_r.iter_mut().zip(lane) {
                    *acc_v += a * b;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let base = (i + r) * n + j0;
            out_rows[base..base + NR].copy_from_slice(acc_r);
        }
        j0 += NR;
    }
}

/// `out[m×n] += lhs[m×k] @ rhs[k×n]` for a contiguous block of rows
/// starting at `row0`, via the register-tile microkernel. `out_rows` holds
/// exactly the output rows of the block.
///
/// Geometry: for each `K_BLOCK` inner panel, rows are walked in bands of
/// [`MR`] and columns in strips of [`NR`]; each `MR`×`NR` tile is loaded
/// into a fixed-size accumulator array, updated with ascending-`p` FMAs
/// across the panel, and stored back once. Loading the tile from `out` at
/// panel entry (rather than zeroing it) means each element performs exactly
/// the same addition sequence as the naive oracle —
/// ascending `p` with the lhs `0.0` skip — so results stay bit-identical.
/// Column remainders (`n % NR`) and row remainders (`rows % MR`) fall back
/// to the scalar panel loop in the same order.
fn matmul_rows(lhs: &[f32], rhs: &[f32], out_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out_rows.len() / n.max(1);
    let n_main = n - n % NR;
    // One dispatch decision per kernel call, hoisted out of the band loops.
    let simd = crate::simd::active();
    for p0 in (0..k).step_by(K_BLOCK) {
        let p1 = (p0 + K_BLOCK).min(k);
        let mut i = 0;
        while i + MR <= rows {
            let band = (row0 + i) * k;
            // Pre-slice each row's K panel so the p loop is bounds-check free.
            let lhs_panels: [&[f32]; MR] =
                std::array::from_fn(|r| &lhs[band + r * k + p0..band + r * k + p1]);
            // The zero-skip contract (`a == 0.0` contributes nothing, not
            // `acc + 0.0*b`) only fires when a panel holds an exact zero.
            // Scan once per band×panel and dispatch: the dense path drops
            // the per-element branch so the FMA tile stays straight-line,
            // and is trivially bit-identical because no element would have
            // been skipped anyway.
            let dense = lhs_panels
                .iter()
                .all(|panel| panel.iter().all(|&a| a != 0.0));
            if simd {
                // SAFETY: `simd::active()` returned true, so the host was
                // runtime-verified to support the AVX2 bodies; the slice
                // geometry is exactly what the scalar `band_tiles` uses.
                unsafe {
                    crate::simd::band_tiles(!dense, &lhs_panels, rhs, out_rows, i, p0, n_main, n);
                }
            } else if dense {
                band_tiles::<false>(&lhs_panels, rhs, out_rows, i, p0, n_main, n);
            } else {
                band_tiles::<true>(&lhs_panels, rhs, out_rows, i, p0, n_main, n);
            }
            // Scalar column tail: same ascending-p order over j >= n_main.
            if n_main < n {
                for (r, lhs_panel) in lhs_panels.iter().enumerate() {
                    let out_row = &mut out_rows[(i + r) * n + n_main..(i + r + 1) * n];
                    for (off, p) in (p0..p1).enumerate() {
                        let a = lhs_panel[off];
                        if a == 0.0 {
                            continue;
                        }
                        let rhs_tail = &rhs[p * n + n_main..(p + 1) * n];
                        for (o, &b) in out_row.iter_mut().zip(rhs_tail) {
                            *o += a * b;
                        }
                    }
                }
            }
            i += MR;
        }
        // Row remainder: the shared scalar panel loop.
        for ii in i..rows {
            blocked_row_panel(lhs, rhs, out_rows, row0, ii, p0, p1, k, n);
        }
    }
}

/// Counts which kernel body the dispatcher selected, so obs profiles (and
/// the obs-diff CI gate) surface silent fallbacks to the scalar path.
fn record_kernel_dispatch() {
    if ftsim_obs::enabled() {
        let name = if crate::simd::active() {
            "tensor.kernel.dispatch.simd"
        } else {
            "tensor.kernel.dispatch.scalar"
        };
        ftsim_obs::registry().counter_add(name, 1);
    }
}

/// Fills `out` (zero-initialized, length `m*n`) with `lhs[m×k] @ rhs[k×n]`,
/// splitting row blocks across up to [`thread_count`] scoped threads when
/// the product is large enough to amortize the spawns.
pub(crate) fn matmul_into(lhs: &[f32], rhs: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _span = ftsim_obs::span("tensor.kernel", "matmul");
    record_kernel_dispatch();
    let threads = thread_count().min(m).max(1);
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if threads <= 1 || flops < PARALLEL_FLOP_THRESHOLD {
        matmul_rows(lhs, rhs, out, 0, k, n);
        return;
    }
    let rows_per_thread = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (block, out_rows) in out.chunks_mut(rows_per_thread * n).enumerate() {
            scope.spawn(move || {
                matmul_rows(lhs, rhs, out_rows, block * rows_per_thread, k, n);
            });
        }
    });
}

/// `dst[j] += src[j]`, SIMD-dispatched. Lane-parallel adds touch each
/// element independently, so the SIMD body is bit-identical to this scalar
/// loop — no accumulation order exists to preserve.
pub(crate) fn add_assign_slices(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    if crate::simd::active() {
        // SAFETY: runtime-verified AVX2 support; equal lengths asserted.
        unsafe { crate::simd::add_assign(dst, src) }
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[j] += a * src[j]`, SIMD-dispatched with mul-then-add rounding on
/// both paths (never fmadd), so the two bodies are bit-identical.
pub(crate) fn axpy_slices(dst: &mut [f32], a: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    if crate::simd::active() {
        // SAFETY: runtime-verified AVX2 support; equal lengths asserted.
        unsafe { crate::simd::axpy(dst, a, src) }
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

/// Bias + activation epilogue over a block of freshly-computed matmul output
/// rows, applied while the tile is still cache-hot: each element becomes
/// `act(v + bias[j])`, and the post-bias pre-activation value is optionally
/// saved into `pre_rows` (same layout as `out_rows`) for the backward pass.
///
/// The bias add is the SIMD-dispatched [`add_assign_slices`]; the
/// activation stays scalar on purpose — `Gelu`/`Silu`/`Tanh` go through
/// libm and `Relu` relies on `f32::max` NaN/`-0.0` semantics that
/// `_mm256_max_ps` does not reproduce.
fn epilogue_rows(
    out_rows: &mut [f32],
    mut pre_rows: Option<&mut [f32]>,
    bias: Option<&[f32]>,
    act: crate::ops::Activation,
    n: usize,
) {
    if n == 0 {
        return;
    }
    for (ri, row) in out_rows.chunks_mut(n).enumerate() {
        if let Some(b) = bias {
            // Same per-element `v + bias[j]` add the scalar epilogue did.
            add_assign_slices(row, b);
        }
        if let Some(pre) = pre_rows.as_deref_mut() {
            pre[ri * n..(ri + 1) * n].copy_from_slice(row);
        }
        for o in row.iter_mut() {
            *o = act.apply(*o);
        }
    }
}

/// Fused `out = act(lhs @ rhs + bias)` using the same microkernel matmul as
/// [`matmul_into`], with the bias/activation epilogue running inside each
/// worker's row block. `pre`, when given, receives the pre-activation
/// (post-bias) values — the autograd fused node needs them for `act'`.
///
/// Bit-identical to matmul → row-bias add → elementwise activation at any
/// thread count: the matmul accumulation order is unchanged and the epilogue
/// performs the identical per-element `+ bias[j]` then `act(·)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_bias_act_into(
    lhs: &[f32],
    rhs: &[f32],
    bias: Option<&[f32]>,
    act: crate::ops::Activation,
    out: &mut [f32],
    pre: Option<&mut [f32]>,
    m: usize,
    k: usize,
    n: usize,
) {
    record_kernel_dispatch();
    let threads = thread_count().min(m).max(1);
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if threads <= 1 || flops < PARALLEL_FLOP_THRESHOLD {
        matmul_rows(lhs, rhs, out, 0, k, n);
        epilogue_rows(out, pre, bias, act, n);
        return;
    }
    let rows_per_thread = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut pre_rest = pre;
        for (block, out_rows) in out.chunks_mut(rows_per_thread * n).enumerate() {
            let pre_rows = pre_rest.take().map(|p| {
                let (head, tail) = p.split_at_mut(out_rows.len());
                pre_rest = Some(tail);
                head
            });
            scope.spawn(move || {
                matmul_rows(lhs, rhs, out_rows, block * rows_per_thread, k, n);
                epilogue_rows(out_rows, pre_rows, bias, act, n);
            });
        }
    });
}

/// Streaming fused backward epilogue for `y = act(x @ w + b)`.
///
/// Given the upstream gradient `up[m×n]` and the saved pre-activation
/// `pre[m×n]` (`None` means the activation was `Identity`), accumulates
///
/// * `db[n]    += Σ_r dpre[r]`                (bias gradient)
/// * `dx[m×k]  = dpre @ wᵀ`                   (input gradient)
/// * `dw[k×n]  = xᵀ @ dpre`                   (weight gradient)
///
/// where `dpre[r][j] = up[r][j] · act'(pre[r][j])` — but `dpre` is never
/// materialized as an `m×n` tensor. Instead a single row (`dpre_row`,
/// caller-provided scratch of length `n`) is recomputed per input row and
/// folded straight into the three accumulations. Each output is optional:
/// pass `None` for operands that do not require gradients and the
/// corresponding sweep is skipped entirely.
///
/// Bit-identity with the composed path (`dpre = up ⊙ act'(pre)` followed by
/// `dpre @ wᵀ` / `xᵀ @ dpre` matmuls and the row-sum bias reduction):
///
/// * `db[j]` adds `dpre[r][j]` in ascending `r` — the row-sum order.
/// * `dx[r][c]` accumulates `dpre[r][p] · w[c][p]` in ascending `p`,
///   skipping zero `dpre` factors — the matmul contract with `dpre` as lhs.
/// * `dw[c][j]` accumulates `x[r][c] · dpre[r][j]` in ascending `r`,
///   skipping zero `x` factors — the matmul contract with `xᵀ` as lhs.
///
/// All three outputs must be zero-initialized. Serial by design: this is
/// the small/medium-shape path (the per-step training hot loop); callers
/// fall back to the materialized matmul path — bit-identical by the above —
/// when shapes are large enough for row-partitioned threading to win.
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear_act_backward_into(
    up: &[f32],
    pre: Option<&[f32]>,
    act: crate::ops::Activation,
    x: &[f32],
    w: &[f32],
    mut db: Option<&mut [f32]>,
    mut dx: Option<&mut [f32]>,
    mut dw: Option<&mut [f32]>,
    dpre_row: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(up.len(), m * n, "upstream gradient length");
    assert_eq!(x.len(), m * k, "input length");
    assert_eq!(w.len(), k * n, "weight length");
    assert_eq!(dpre_row.len(), n, "dpre scratch length");
    if let Some(d) = db.as_deref() {
        assert_eq!(d.len(), n, "bias gradient length");
    }
    if let Some(d) = dx.as_deref() {
        assert_eq!(d.len(), m * k, "input gradient length");
    }
    if let Some(d) = dw.as_deref() {
        assert_eq!(d.len(), k * n, "weight gradient length");
    }
    if let Some(p) = pre {
        assert_eq!(p.len(), m * n, "pre-activation length");
    }
    for r in 0..m {
        let up_row = &up[r * n..(r + 1) * n];
        match pre {
            Some(pre_all) => {
                let pre_row = &pre_all[r * n..(r + 1) * n];
                for ((d, &g), &p) in dpre_row.iter_mut().zip(up_row).zip(pre_row) {
                    *d = g * act.grad(p);
                }
            }
            None => dpre_row.copy_from_slice(up_row),
        }
        if let Some(db) = db.as_deref_mut() {
            // Lane-parallel over j: ascending-r order per element preserved.
            add_assign_slices(db, dpre_row);
        }
        if let Some(dx) = dx.as_deref_mut() {
            // Stays scalar on purpose: dx[r][c] reduces along the would-be
            // vector axis (a dot product in ascending p), and any lane-wise
            // horizontal reduction would reorder those sums and break the
            // bit-identity contract.
            let dx_row = &mut dx[r * k..(r + 1) * k];
            for (c, slot) in dx_row.iter_mut().enumerate() {
                let w_row = &w[c * n..(c + 1) * n];
                let mut acc = *slot;
                for (p, &g) in dpre_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    acc += g * w_row[p];
                }
                *slot = acc;
            }
        }
        if let Some(dw) = dw.as_deref_mut() {
            let x_row = &x[r * k..(r + 1) * k];
            for (c, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                // Lane-parallel axpy over j: ascending-r order per element,
                // with the xᵀ-as-lhs zero-skip handled on the broadcast
                // factor above — identical to the scalar sweep.
                axpy_slices(&mut dw[c * n..(c + 1) * n], a, dpre_row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(lhs: &[f32], rhs: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        matmul_naive_into(lhs, rhs, &mut out, m, k, n);
        out
    }

    fn pseudo_data(len: usize, seed: u64) -> Vec<f32> {
        // Deterministic non-trivial values spanning sign and magnitude.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u32 << 23) as f32) - 0.5
            })
            .collect()
    }

    /// Like `pseudo_data`, but with roughly a quarter of the entries exactly
    /// zero so kernels exercise the lhs zero-skip branch.
    fn sparse_data(len: usize, seed: u64) -> Vec<f32> {
        let mut data = pseudo_data(len, seed);
        let mut state = seed ^ 0x9e3779b97f4a7c15;
        for v in &mut data {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(4) {
                *v = 0.0;
            }
        }
        data
    }

    #[test]
    fn env_parsing_matches_engine_semantics() {
        assert_eq!(resolve_thread_count(Some("3")), 3);
        let default = resolve_thread_count(None);
        assert!(default >= 1);
        assert_eq!(resolve_thread_count(Some("0")), default);
        assert_eq!(resolve_thread_count(Some("no")), default);
    }

    proptest! {
        /// The accumulation-order contract, machine-enforced: for arbitrary
        /// shapes (remainders included) and sparse data, the microkernel
        /// and the naive oracle agree bit-for-bit.
        #[test]
        fn prop_microkernel_matches_naive_bitwise(
            m in 1usize..14,
            k in 1usize..150,
            n in 1usize..28,
            seed in 0u64..512,
            sparse in 0usize..2,
        ) {
            // Sparse lhs drives the zero-skip tile path; dense lhs drives
            // the straight-line dispatch. Both must match the oracle.
            let lhs = if sparse == 1 {
                sparse_data(m * k, seed.wrapping_mul(2).wrapping_add(1))
            } else {
                pseudo_data(m * k, seed.wrapping_mul(2).wrapping_add(1))
            };
            let rhs = pseudo_data(k * n, seed.wrapping_mul(3).wrapping_add(7));
            let expect = naive(&lhs, &rhs, m, k, n);
            let mut micro = vec![0.0f32; m * n];
            matmul_microkernel_into(&lhs, &rhs, &mut micro, m, k, n);
            prop_assert!(
                micro.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                "microkernel diverged at ({},{},{})", m, k, n
            );
        }
    }

    proptest! {
        /// Scalar vs SIMD dispatch, machine-enforced: for arbitrary shapes —
        /// including non-multiple-of-8 column counts (tail lanes), widths
        /// crossing the 16-wide main tile, and sparse (zero-band) lhs — the
        /// forced-scalar and forced-SIMD kernels both match the oracle
        /// bit-for-bit. On hosts without AVX2 the forced-SIMD run downgrades
        /// to scalar, so the assertion still holds.
        #[test]
        fn prop_simd_dispatch_matches_scalar_bitwise(
            m in 1usize..14,
            k in 1usize..150,
            n in 1usize..40,
            seed in 0u64..256,
            sparse in 0usize..2,
        ) {
            let lhs = if sparse == 1 {
                sparse_data(m * k, seed.wrapping_mul(5).wrapping_add(3))
            } else {
                pseudo_data(m * k, seed.wrapping_mul(5).wrapping_add(3))
            };
            let rhs = pseudo_data(k * n, seed.wrapping_mul(7).wrapping_add(11));
            let expect = naive(&lhs, &rhs, m, k, n);
            // Both forced modes are compared against the oracle (not each
            // other) so concurrent tests racing on the global override can
            // never invalidate the assertion: every body is bit-identical.
            crate::simd::force(Some(false));
            let mut scalar = vec![0.0f32; m * n];
            matmul_microkernel_into(&lhs, &rhs, &mut scalar, m, k, n);
            crate::simd::force(Some(true));
            let mut simd = vec![0.0f32; m * n];
            matmul_microkernel_into(&lhs, &rhs, &mut simd, m, k, n);
            crate::simd::force(None);
            prop_assert!(
                scalar.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                "forced-scalar kernel diverged at ({},{},{})", m, k, n
            );
            prop_assert!(
                simd.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                "forced-SIMD kernel diverged at ({},{},{})", m, k, n
            );
        }
    }

    #[test]
    fn simd_helpers_match_scalar_sweeps_bitwise() {
        // add_assign / axpy across lengths covering the vector body and the
        // scalar tail, under both forced dispatch modes.
        for len in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let src = pseudo_data(len, 71);
            let base = pseudo_data(len, 73);
            let mut expect_add = base.clone();
            for (d, &s) in expect_add.iter_mut().zip(&src) {
                *d += s;
            }
            let a = 0.37f32;
            let mut expect_axpy = base.clone();
            for (d, &s) in expect_axpy.iter_mut().zip(&src) {
                *d += a * s;
            }
            for forced in [Some(false), Some(true)] {
                crate::simd::force(forced);
                let mut add = base.clone();
                add_assign_slices(&mut add, &src);
                let mut axpy = base.clone();
                axpy_slices(&mut axpy, a, &src);
                assert!(
                    add.iter()
                        .zip(&expect_add)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "add_assign diverged at len {len} (forced {forced:?})"
                );
                assert!(
                    axpy.iter()
                        .zip(&expect_axpy)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "axpy diverged at len {len} (forced {forced:?})"
                );
            }
            crate::simd::force(None);
        }
    }

    #[test]
    fn fused_epilogue_matches_composed_passes() {
        use crate::ops::Activation;
        let (m, k, n) = (9, 70, 11);
        let lhs = pseudo_data(m * k, 3);
        let rhs = pseudo_data(k * n, 7);
        let bias = pseudo_data(n, 13);
        for forced in [Some(false), Some(true)] {
            crate::simd::force(forced);
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::Gelu,
                Activation::Silu,
                Activation::Tanh,
            ] {
                let mut fused = vec![0.0f32; m * n];
                let mut pre = vec![0.0f32; m * n];
                matmul_bias_act_into(
                    &lhs,
                    &rhs,
                    Some(&bias),
                    act,
                    &mut fused,
                    Some(&mut pre),
                    m,
                    k,
                    n,
                );
                let mut composed = naive(&lhs, &rhs, m, k, n);
                for (i, v) in composed.iter_mut().enumerate() {
                    *v += bias[i % n];
                }
                for i in 0..m * n {
                    assert_eq!(pre[i].to_bits(), composed[i].to_bits(), "pre diverged");
                    assert_eq!(
                        fused[i].to_bits(),
                        act.apply(composed[i]).to_bits(),
                        "fused output diverged for {act:?} (forced {forced:?})"
                    );
                }
            }
        }
        crate::simd::force(None);
    }

    #[test]
    fn fused_row_partitioning_is_bit_identical() {
        use crate::ops::Activation;
        // Simulate the parallel split by running the serial fused kernel on
        // disjoint row chunks, exactly as matmul_bias_act_into's workers do.
        let (m, k, n) = (23, 80, 17);
        let lhs = pseudo_data(m * k, 31);
        let rhs = pseudo_data(k * n, 37);
        let bias = pseudo_data(n, 41);
        let mut reference = vec![0.0f32; m * n];
        let mut ref_pre = vec![0.0f32; m * n];
        matmul_bias_act_into(
            &lhs,
            &rhs,
            Some(&bias),
            Activation::Gelu,
            &mut reference,
            Some(&mut ref_pre),
            m,
            k,
            n,
        );
        for workers in [2, 5] {
            let rows_per = m.div_ceil(workers);
            let mut out = vec![0.0f32; m * n];
            let mut pre = vec![0.0f32; m * n];
            for ((block, chunk), pre_chunk) in out
                .chunks_mut(rows_per * n)
                .enumerate()
                .zip(pre.chunks_mut(rows_per * n))
            {
                matmul_rows(&lhs, &rhs, chunk, block * rows_per, k, n);
                epilogue_rows(chunk, Some(pre_chunk), Some(&bias), Activation::Gelu, n);
            }
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && pre
                        .iter()
                        .zip(&ref_pre)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{workers}-way fused split diverged"
            );
        }
    }

    #[test]
    fn row_partitioning_is_bit_identical() {
        // Simulate the parallel split at several worker counts by calling
        // the row-block kernel directly on disjoint chunks.
        let (m, k, n) = (37, 96, 29);
        let lhs = sparse_data(m * k, 5);
        let rhs = pseudo_data(k * n, 9);
        let mut reference = vec![0.0f32; m * n];
        matmul_rows(&lhs, &rhs, &mut reference, 0, k, n);
        for workers in [2, 3, 8] {
            let rows_per = m.div_ceil(workers);
            let mut out = vec![0.0f32; m * n];
            for (block, chunk) in out.chunks_mut(rows_per * n).enumerate() {
                matmul_rows(&lhs, &rhs, chunk, block * rows_per, k, n);
            }
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{workers}-way split diverged"
            );
        }
    }

    /// Composed reference for the fused backward epilogue: materialize dpre,
    /// then run the three grad products through the naive oracle exactly as
    /// the pre-fusion autograd closure did.
    #[allow(clippy::too_many_arguments)]
    fn composed_backward(
        up: &[f32],
        pre: Option<&[f32]>,
        act: crate::ops::Activation,
        x: &[f32],
        w: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let dpre: Vec<f32> = match pre {
            Some(pre_all) => up
                .iter()
                .zip(pre_all)
                .map(|(&g, &p)| g * act.grad(p))
                .collect(),
            None => up.to_vec(),
        };
        let mut db = vec![0.0f32; n];
        for r in 0..m {
            for (d, &g) in db.iter_mut().zip(&dpre[r * n..(r + 1) * n]) {
                *d += g;
            }
        }
        let mut wt = vec![0.0f32; n * k];
        for c in 0..k {
            for j in 0..n {
                wt[j * k + c] = w[c * n + j];
            }
        }
        let mut dx = vec![0.0f32; m * k];
        matmul_naive_into(&dpre, &wt, &mut dx, m, n, k);
        let mut xt = vec![0.0f32; k * m];
        for r in 0..m {
            for c in 0..k {
                xt[c * m + r] = x[r * k + c];
            }
        }
        let mut dw = vec![0.0f32; k * n];
        matmul_naive_into(&xt, &dpre, &mut dw, k, m, n);
        (db, dx, dw)
    }

    #[test]
    fn streaming_backward_epilogue_matches_composed_path_bitwise() {
        use crate::ops::Activation;
        for (forced, (m, k, n)) in [Some(false), Some(true), None]
            .into_iter()
            .flat_map(|f| {
                [(1, 1, 1), (5, 3, 7), (13, 70, 9), (8, 8, 8), (6, 9, 21)]
                    .into_iter()
                    .map(move |shape| (f, shape))
            })
            .collect::<Vec<_>>()
        {
            crate::simd::force(forced);
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::Gelu,
                Activation::Silu,
                Activation::Tanh,
            ] {
                let up = sparse_data(m * n, 51);
                let pre_data = pseudo_data(m * n, 53);
                let pre = (act != Activation::Identity).then_some(pre_data.as_slice());
                let x = sparse_data(m * k, 57);
                let w = pseudo_data(k * n, 59);
                let (db_ref, dx_ref, dw_ref) = composed_backward(&up, pre, act, &x, &w, m, k, n);
                let mut db = vec![0.0f32; n];
                let mut dx = vec![0.0f32; m * k];
                let mut dw = vec![0.0f32; k * n];
                let mut scratch = vec![0.0f32; n];
                linear_act_backward_into(
                    &up,
                    pre,
                    act,
                    &x,
                    &w,
                    Some(&mut db),
                    Some(&mut dx),
                    Some(&mut dw),
                    &mut scratch,
                    m,
                    k,
                    n,
                );
                let same =
                    |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same(&db, &db_ref), "db diverged for {act:?} ({m},{k},{n})");
                assert!(same(&dx, &dx_ref), "dx diverged for {act:?} ({m},{k},{n})");
                assert!(same(&dw, &dw_ref), "dw diverged for {act:?} ({m},{k},{n})");
            }
        }
        crate::simd::force(None);
    }
}
