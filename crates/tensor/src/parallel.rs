//! Thread configuration and the matmul microkernel family.
//!
//! The worker-thread count lives here, in the lowest crate that needs it;
//! `ftsim-sim` re-exports [`thread_count`], so the whole process resolves
//! `FTSIM_THREADS` once.
//!
//! Two kernels live here, both bound by the same accumulation-order
//! contract (see DESIGN.md "Kernel contracts"):
//!
//! * `matmul_naive_into` — the i-p-j oracle (test-only). Slow, obviously
//!   correct, and the reference every other kernel must match bit-for-bit.
//! * `matmul_microkernel_into` — the production kernel: cache-blocked
//!   over the inner dimension and tiled into fixed `MR`×`NR` register
//!   accumulators (and `R`×`NR`, `R < MR`, for the rows left over). Its
//!   band tiles and the fused epilogue's bias add dispatch at runtime to
//!   explicit AVX2 bodies in [`crate::simd`] when the host supports them,
//!   and the backward epilogue's `db`/`dx`/`dw` sweep to its one body
//!   compiled for AVX2, with the plain builds as the always-compiled
//!   fallback (`FTSIM_NO_SIMD=1` forces it).
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
///
/// Resolved once per process, on first use, and cached: the fallback
/// (`available_parallelism`) reads cgroup files on Linux, which cost tens of
/// microseconds a call, and every matmul asks. Setting the variable after
/// the first call has no effect.
pub fn thread_count() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| resolve_thread_count(std::env::var(THREADS_ENV).ok().as_deref()))
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

/// The inner microkernel: walks one `R`-row band (`R ≤ MR`) across all
/// `NR`-wide column strips for one K panel, carrying each `R`×`NR` tile in a
/// fixed-size accumulator array (registers) and touching `out_rows` only at
/// tile load/store.
///
/// `ZERO_SKIP` monomorphizes the lhs `a == 0.0` skip in or out; see
/// [`matmul_rows`] for when the branch-free body is bit-identical.
fn band_tiles<const R: usize, const ZERO_SKIP: bool>(
    lhs_panels: &[&[f32]; R],
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
        // Load the R×NR accumulator tile from the output.
        let mut acc = [[0.0f32; NR]; R];
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

/// Whether every element is finite; a branch-free fold, so it vectorizes.
fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// `out[m×n] += lhs[m×k] @ rhs[k×n]` for a contiguous block of rows
/// starting at `row0`, via the register-tile microkernel. `out_rows` holds
/// exactly the output rows of the block and must hold no `-0.0` (callers
/// pass it zero-initialized).
///
/// Geometry: for each `K_BLOCK` inner panel, rows are walked in bands of
/// [`MR`] — the last band takes the 1–5 rows left over, with a tile of its
/// own height — and columns in strips of [`NR`]; each tile is loaded into a
/// fixed-size accumulator array, updated with ascending-`p` multiply-adds
/// across the panel, and stored back once. Loading the tile from `out` at
/// panel entry (rather than zeroing it) means each element performs exactly
/// the same addition sequence as the naive oracle — ascending `p` with the
/// lhs `0.0` skip — so results stay bit-identical. The column remainder
/// (`n % NR`) falls back to a scalar loop in the same order.
///
/// The zero-skip (`a == 0.0` contributes nothing, not `acc + 0·b`) is
/// observable only when some rhs factor is `±inf` or NaN: an accumulator
/// starts at `+0.0`, a round-to-nearest sum that starts at `+0.0` is never
/// `-0.0` (with gradual underflow, a nonzero sum of floats never rounds to
/// zero), and adding `0·b = ±0` for a finite `b` to anything but `-0.0`
/// leaves every bit alone. So a band runs the branch-free tile when the rhs
/// is all finite (checked at most once per call) or the band's lhs panels
/// hold no exact zero, and keeps the per-element skip otherwise.
fn matmul_rows(lhs: &[f32], rhs: &[f32], out_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out_rows.len() / n.max(1);
    let mut band = Band {
        lhs,
        rhs,
        row0,
        k,
        n,
        n_main: n - n % NR,
        // One dispatch decision per kernel call, hoisted out of the band loops.
        simd: crate::simd::active(),
        rhs_finite: None,
    };
    for p0 in (0..k).step_by(K_BLOCK) {
        let p1 = (p0 + K_BLOCK).min(k);
        let mut i = 0;
        while i < rows {
            let height = (rows - i).min(MR);
            match height {
                6 => band.run::<6>(out_rows, i, p0, p1),
                5 => band.run::<5>(out_rows, i, p0, p1),
                4 => band.run::<4>(out_rows, i, p0, p1),
                3 => band.run::<3>(out_rows, i, p0, p1),
                2 => band.run::<2>(out_rows, i, p0, p1),
                _ => band.run::<1>(out_rows, i, p0, p1),
            }
            i += height;
        }
    }
}

/// The per-call state of [`matmul_rows`] that every band shares.
struct Band<'a> {
    lhs: &'a [f32],
    rhs: &'a [f32],
    row0: usize,
    k: usize,
    n: usize,
    n_main: usize,
    simd: bool,
    /// Whether the rhs is all finite; computed the first time a band's lhs
    /// holds a zero, since only then does the answer matter.
    rhs_finite: Option<bool>,
}

impl Band<'_> {
    /// One `R`-row band over the K panel `p0..p1`, starting at block row `i`.
    fn run<const R: usize>(&mut self, out_rows: &mut [f32], i: usize, p0: usize, p1: usize) {
        let (lhs, rhs, k, n, n_main) = (self.lhs, self.rhs, self.k, self.n, self.n_main);
        let base = (self.row0 + i) * k;
        // Pre-slice each row's K panel so the p loop is bounds-check free.
        let lhs_panels: [&[f32]; R] =
            std::array::from_fn(|r| &lhs[base + r * k + p0..base + r * k + p1]);
        let zero_skip = lhs_panels.iter().any(|panel| panel.contains(&0.0))
            && !*self.rhs_finite.get_or_insert_with(|| all_finite(rhs));
        if self.simd {
            // SAFETY: `simd::active()` returned true, so the host was
            // runtime-verified to support the AVX2 bodies; the slice
            // geometry is exactly what the scalar `band_tiles` uses.
            unsafe {
                crate::simd::band_tiles(zero_skip, &lhs_panels, rhs, out_rows, i, p0, n_main, n);
            }
        } else if zero_skip {
            band_tiles::<R, true>(&lhs_panels, rhs, out_rows, i, p0, n_main, n);
        } else {
            band_tiles::<R, false>(&lhs_panels, rhs, out_rows, i, p0, n_main, n);
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

/// Bias + activation epilogue over a block of freshly-computed matmul output
/// rows, applied while the tile is still cache-hot: each element becomes
/// `act(v + bias[j])`, and the activation's derivative at the post-bias
/// value, `act'(v + bias[j])`, is optionally saved into `dact_rows` (same
/// layout as `out_rows`) for the backward pass, so the backward never
/// re-evaluates `act'` and `Silu` computes its sigmoid once.
///
/// The bias add is the SIMD-dispatched [`add_assign_slices`]; the
/// activation stays scalar on purpose — `Gelu`/`Silu`/`Tanh` go through
/// libm and `Relu` relies on `f32::max` NaN/`-0.0` semantics that
/// `_mm256_max_ps` does not reproduce.
fn epilogue_rows(
    out_rows: &mut [f32],
    mut dact_rows: Option<&mut [f32]>,
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
        match dact_rows.as_deref_mut() {
            Some(dact) => {
                for (o, d) in row.iter_mut().zip(&mut dact[ri * n..(ri + 1) * n]) {
                    (*o, *d) = act.apply_and_grad(*o);
                }
            }
            None => {
                for o in row.iter_mut() {
                    *o = act.apply(*o);
                }
            }
        }
    }
}

/// Fused `out = act(lhs @ rhs + bias)` using the same microkernel matmul as
/// [`matmul_into`], with the bias/activation epilogue running inside each
/// worker's row block. `dact`, when given, receives `act'` at each
/// pre-activation (post-bias) value — the autograd fused node's backward
/// multiplies the upstream gradient by it.
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
    dact: Option<&mut [f32]>,
    m: usize,
    k: usize,
    n: usize,
) {
    record_kernel_dispatch();
    let threads = thread_count().min(m).max(1);
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if threads <= 1 || flops < PARALLEL_FLOP_THRESHOLD {
        matmul_rows(lhs, rhs, out, 0, k, n);
        epilogue_rows(out, dact, bias, act, n);
        return;
    }
    let rows_per_thread = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut dact_rest = dact;
        for (block, out_rows) in out.chunks_mut(rows_per_thread * n).enumerate() {
            let dact_rows = dact_rest.take().map(|p| {
                let (head, tail) = p.split_at_mut(out_rows.len());
                dact_rest = Some(tail);
                head
            });
            scope.spawn(move || {
                matmul_rows(lhs, rhs, out_rows, block * rows_per_thread, k, n);
                epilogue_rows(out_rows, dact_rows, bias, act, n);
            });
        }
    });
}

/// Streaming fused backward epilogue for `y = act(x @ w + b)`.
///
/// Given the upstream gradient `up[m×n]` and the saved activation
/// derivative `dact[m×n] = act'(pre)` (`None` means the activation was
/// `Identity`), accumulates
///
/// * `db[n]    += Σ_r dpre[r]`                (bias gradient)
/// * `dx[m×k]  = dpre @ wᵀ`                   (input gradient)
/// * `dw[k×n]  = xᵀ @ dpre`                   (weight gradient)
///
/// where `dpre[r][j] = up[r][j] · dact[r][j]` — but `dpre` is never
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
    dact: Option<&[f32]>,
    x: &[f32],
    w: &[f32],
    db: Option<&mut [f32]>,
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
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
    if let Some(d) = dact {
        assert_eq!(d.len(), m * n, "activation derivative length");
    }
    // wᵀ, row p = column p of w, so the dx sweep can run lane-parallel over
    // c.
    let wt = dx.is_some().then(|| {
        let mut wt = vec![0.0f32; n * k];
        transpose_into(w, &mut wt, k, n);
        wt
    });
    let sweep = Sweep {
        up,
        dact,
        x,
        wt: wt.as_deref(),
        db,
        dx,
        dw,
        dpre_row,
        k,
        n,
    };
    if crate::simd::active() {
        // SAFETY: runtime-verified AVX2 support; lengths asserted above.
        unsafe { crate::simd::backward_sweep(sweep) }
    } else {
        backward_sweep(sweep);
    }
}

/// `dst[cols×rows] = srcᵀ` for a row-major `src[rows×cols]`, SIMD-dispatched.
/// It only moves values, so every body is bit-identical.
fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose source length");
    assert_eq!(dst.len(), rows * cols, "transpose destination length");
    if crate::simd::active() {
        // SAFETY: runtime-verified AVX2 support; lengths asserted above.
        unsafe { crate::simd::transpose(src, dst, rows, cols) }
        return;
    }
    transpose_tail(src, dst, rows, cols, 0, 0);
}

/// The scalar transpose of every element outside the block
/// `[0, row0) × [0, col0)`, which a caller has already moved.
pub(crate) fn transpose_tail(
    src: &[f32],
    dst: &mut [f32],
    rows: usize,
    cols: usize,
    row0: usize,
    col0: usize,
) {
    for (i, src_row) in src.chunks_exact(cols.max(1)).enumerate() {
        let first = if i < row0 { col0 } else { 0 };
        for (j, &v) in src_row.iter().enumerate().skip(first) {
            dst[j * rows + i] = v;
        }
    }
}

/// The operands of [`backward_sweep`], lengths already checked.
pub(crate) struct Sweep<'a> {
    up: &'a [f32],
    dact: Option<&'a [f32]>,
    x: &'a [f32],
    wt: Option<&'a [f32]>,
    db: Option<&'a mut [f32]>,
    dx: Option<&'a mut [f32]>,
    dw: Option<&'a mut [f32]>,
    dpre_row: &'a mut [f32],
    k: usize,
    n: usize,
}

/// The row sweep of [`linear_act_backward_into`]. Inlined into both the
/// plain build and the AVX2 build (`simd::backward_sweep`), so every
/// slice loop below is a plain mul-then-add the compiler vectorizes at the
/// width the caller was compiled for; the lanes run across elements, never
/// along a reduction, so each element's sequence is the same at any width.
#[inline(always)]
pub(crate) fn backward_sweep(s: Sweep<'_>) {
    let Sweep {
        up,
        dact,
        x,
        wt,
        mut db,
        mut dx,
        mut dw,
        dpre_row,
        k,
        n,
    } = s;
    for (r, up_row) in up.chunks_exact(n.max(1)).enumerate() {
        match dact {
            Some(dact_all) => {
                let dact_row = &dact_all[r * n..(r + 1) * n];
                for ((d, &g), &a) in dpre_row.iter_mut().zip(up_row).zip(dact_row) {
                    *d = g * a;
                }
            }
            None => dpre_row.copy_from_slice(up_row),
        }
        if let Some(db) = db.as_deref_mut() {
            // Lane-parallel over j: ascending-r order per element preserved.
            for (d, &g) in db.iter_mut().zip(dpre_row.iter()) {
                *d += g;
            }
        }
        if let (Some(dx), Some(wt)) = (dx.as_deref_mut(), wt) {
            // Lane-parallel over c, never a horizontal reduction over p:
            // each p (ascending, zero dpre factors skipped) is one
            // mul-then-add axpy of wᵀ's row p, so every dx[r][c] adds its
            // terms in exactly the scalar dot product's order.
            let dx_row = &mut dx[r * k..(r + 1) * k];
            for (&g, wt_row) in dpre_row.iter().zip(wt.chunks_exact(k.max(1))) {
                if g != 0.0 {
                    for (d, &v) in dx_row.iter_mut().zip(wt_row) {
                        *d += g * v;
                    }
                }
            }
        }
        if let Some(dw) = dw.as_deref_mut() {
            let x_row = &x[r * k..(r + 1) * k];
            for (&a, dw_row) in x_row.iter().zip(dw.chunks_exact_mut(n.max(1))) {
                if a == 0.0 {
                    continue;
                }
                // Lane-parallel axpy over j: ascending-r order per element,
                // with the xᵀ-as-lhs zero-skip handled on the broadcast
                // factor above.
                for (d, &g) in dw_row.iter_mut().zip(dpre_row.iter()) {
                    *d += a * g;
                }
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
    fn resolves_env_override_and_defaults() {
        assert_eq!(resolve_thread_count(Some("4")), 4);
        assert_eq!(resolve_thread_count(Some(" 2 ")), 2);
        // Invalid or non-positive values fall back to the machine default.
        let default = resolve_thread_count(None);
        assert!(default >= 1);
        assert_eq!(resolve_thread_count(Some("0")), default);
        assert_eq!(resolve_thread_count(Some("lots")), default);
        assert_eq!(resolve_thread_count(Some("")), default);
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

    #[test]
    fn every_band_height_matches_the_oracle_on_zeros_and_non_finite_rhs() {
        // m in 1..=13 covers each 1–5-row remainder band alone and after one
        // or two full 6-row bands; k crosses a K panel and n has a 16-wide
        // strip, an 8-wide strip and a column tail. The lhs is zero-laden,
        // so the branch-free tile runs at every band height whenever the rhs
        // is all finite; one ±inf or NaN in the rhs makes `0·b` a NaN the
        // zero-skip must drop.
        let (k, n) = (70, 29);
        let finite = pseudo_data(k * n, 17);
        let mut cases = vec![("finite", finite.clone())];
        for (name, bad) in [
            ("+inf", f32::INFINITY),
            ("-inf", f32::NEG_INFINITY),
            ("NaN", f32::NAN),
        ] {
            let mut rhs = finite.clone();
            rhs[5 * n + 3] = bad;
            cases.push((name, rhs));
        }
        for m in 1..=13 {
            let mut lhs = sparse_data(m * k, 19 + m as u64);
            // Every row multiplies the non-finite rhs row 5 by an exact zero.
            for row in lhs.chunks_exact_mut(k) {
                row[5] = 0.0;
            }
            for (name, rhs) in &cases {
                let expect = naive(&lhs, rhs, m, k, n);
                for forced in [Some(false), Some(true)] {
                    crate::simd::force(forced);
                    let mut micro = vec![0.0f32; m * n];
                    matmul_microkernel_into(&lhs, rhs, &mut micro, m, k, n);
                    crate::simd::force(None);
                    assert!(
                        micro
                            .iter()
                            .zip(&expect)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "m = {m}, {name} rhs (forced {forced:?}) diverged"
                    );
                }
            }
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
    fn simd_add_assign_matches_scalar_sweep_bitwise() {
        // add_assign across lengths covering the vector body and the scalar
        // tail, under both forced dispatch modes.
        for len in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let src = pseudo_data(len, 71);
            let base = pseudo_data(len, 73);
            let mut expect_add = base.clone();
            for (d, &s) in expect_add.iter_mut().zip(&src) {
                *d += s;
            }
            for forced in [Some(false), Some(true)] {
                crate::simd::force(forced);
                let mut add = base.clone();
                add_assign_slices(&mut add, &src);
                assert!(
                    add.iter()
                        .zip(&expect_add)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "add_assign diverged at len {len} (forced {forced:?})"
                );
            }
            crate::simd::force(None);
        }
    }

    #[test]
    fn simd_transpose_matches_the_scalar_loop() {
        // 8×8 AVX2 blocks plus both scalar edges, under both dispatch modes.
        for rows in 1..=19 {
            for cols in 1..=19 {
                let src = pseudo_data(rows * cols, (rows * 31 + cols) as u64);
                let mut expect = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    for j in 0..cols {
                        expect[j * rows + i] = src[i * cols + j];
                    }
                }
                for forced in [Some(false), Some(true)] {
                    crate::simd::force(forced);
                    let mut dst = vec![f32::NAN; rows * cols];
                    transpose_into(&src, &mut dst, rows, cols);
                    crate::simd::force(None);
                    assert!(
                        dst.iter()
                            .zip(&expect)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{rows}x{cols} transpose diverged (forced {forced:?})"
                    );
                }
            }
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
                let mut dact = vec![0.0f32; m * n];
                matmul_bias_act_into(
                    &lhs,
                    &rhs,
                    Some(&bias),
                    act,
                    &mut fused,
                    Some(&mut dact),
                    m,
                    k,
                    n,
                );
                let mut composed = naive(&lhs, &rhs, m, k, n);
                for (i, v) in composed.iter_mut().enumerate() {
                    *v += bias[i % n];
                }
                for i in 0..m * n {
                    assert_eq!(
                        dact[i].to_bits(),
                        act.grad(composed[i]).to_bits(),
                        "saved derivative diverged for {act:?} (forced {forced:?})"
                    );
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
        let mut ref_dact = vec![0.0f32; m * n];
        matmul_bias_act_into(
            &lhs,
            &rhs,
            Some(&bias),
            Activation::Gelu,
            &mut reference,
            Some(&mut ref_dact),
            m,
            k,
            n,
        );
        for workers in [2, 5] {
            let rows_per = m.div_ceil(workers);
            let mut out = vec![0.0f32; m * n];
            let mut dact = vec![0.0f32; m * n];
            for ((block, chunk), dact_chunk) in out
                .chunks_mut(rows_per * n)
                .enumerate()
                .zip(dact.chunks_mut(rows_per * n))
            {
                matmul_rows(&lhs, &rhs, chunk, block * rows_per, k, n);
                epilogue_rows(chunk, Some(dact_chunk), Some(&bias), Activation::Gelu, n);
            }
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && dact
                        .iter()
                        .zip(&ref_dact)
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
                // The forward epilogue saves act'(pre) for the kernel.
                let dact: Option<Vec<f32>> = pre.map(|p| p.iter().map(|&v| act.grad(v)).collect());
                let mut db = vec![0.0f32; n];
                let mut dx = vec![0.0f32; m * k];
                let mut dw = vec![0.0f32; k * n];
                let mut scratch = vec![0.0f32; n];
                linear_act_backward_into(
                    &up,
                    dact.as_deref(),
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
