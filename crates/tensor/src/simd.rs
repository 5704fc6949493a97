//! Runtime-dispatched AVX2 lane kernels behind the microkernel family.
//!
//! The scalar kernels in [`crate::parallel`] are written so the
//! autovectorizer emits fixed-width FMA loops, but on the baseline x86-64
//! target that means 4-lane SSE. This module supplies explicit 8-lane
//! `std::arch` AVX2 bodies for the hot inner loops — the matmul register
//! tile at every band height, the bias-add epilogue and the backward's
//! 8×8-block `wᵀ` transpose — plus the fused backward epilogue's sweep
//! compiled with AVX2 enabled, selected by a one-time runtime CPUID check.
//!
//! ## Dispatch rules
//!
//! * [`active`] caches its answer in a process-global atomic after the first
//!   call: the SIMD path is taken iff the host CPU reports **both** `avx2`
//!   and `fma` (via `is_x86_feature_detected!`) and the `FTSIM_NO_SIMD`
//!   escape hatch is not set. Everything else — non-x86 targets, older
//!   CPUs, the env override — falls back to the scalar kernels, which are
//!   always compiled and always correct.
//! * [`force`] overrides the cached decision for tests and benches, so the
//!   scalar and SIMD bodies can be timed and bit-compared from one process.
//!
//! ## Bit-identity
//!
//! Every function here is **bit-identical** to its scalar counterpart, not
//! merely close: the accumulation-order contract (DESIGN.md "Kernel
//! contracts") promises identical results across kernels, and these bodies
//! keep it by using `_mm256_mul_ps` + `_mm256_add_ps` — two roundings per
//! lane, exactly like the scalar `acc += a * b` — and **never**
//! `_mm256_fmadd_ps`, whose single rounding would diverge in the last ulp.
//! (`fma` is still part of the detection predicate: it delimits the
//! hardware generation the 16-register tile is scheduled for, even though
//! contracted instructions are deliberately not emitted.) The compiled
//! backward sweep enables `avx2` only, never `fma`, so the compiler cannot
//! contract its mul-then-add loops either. The lhs zero-skip fires on the
//! broadcast scalar, uniformly across lanes, exactly as the scalar kernel
//! skips it per element.

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable that disables the SIMD paths when set to anything
/// other than `0` or the empty string — the always-available escape hatch
/// for debugging and for A/B runs on the same machine.
pub const NO_SIMD_ENV: &str = "FTSIM_NO_SIMD";

/// Dispatch cache states.
const UNKNOWN: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

/// Whether the AVX2 kernel bodies will be used for the next kernel call.
///
/// First call probes the CPU and the `FTSIM_NO_SIMD` environment variable
/// and caches the verdict; later calls are a single relaxed atomic load
/// (the kernels hoist even that out of their loops).
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNKNOWN => {
            let verdict = host_supported() && !no_simd_requested();
            STATE.store(if verdict { AVX2 } else { SCALAR }, Ordering::Relaxed);
            verdict
        }
        state => state == AVX2,
    }
}

/// Raw capability probe: does this CPU support the AVX2 kernel bodies?
///
/// Ignores `FTSIM_NO_SIMD` and any [`force`] override — this is the value
/// perf artifacts record so numbers are comparable across machines.
pub fn host_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `FTSIM_NO_SIMD` requests the scalar fallback.
pub fn no_simd_requested() -> bool {
    std::env::var_os(NO_SIMD_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

/// Test/bench hook overriding the dispatch decision: `Some(false)` forces
/// the scalar kernels, `Some(true)` requests the AVX2 kernels (downgraded
/// to scalar when the host lacks them, so forcing is always safe), and
/// `None` restores the runtime-detected default.
///
/// Because every kernel is bit-identical across the two bodies, concurrent
/// tests racing on this override still compute identical results — the
/// override changes *which* instructions run, never *what* they produce.
pub fn force(mode: Option<bool>) {
    let state = match mode {
        None => UNKNOWN,
        Some(false) => SCALAR,
        Some(true) if host_supported() => AVX2,
        Some(true) => SCALAR,
    };
    STATE.store(state, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{add_assign, backward_sweep, band_tiles, transpose};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::parallel::{Sweep, NR};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };

    /// AVX2 body of `parallel::band_tiles`: one `R`-row band (`R ≤ MR`)
    /// across the `NR`-aligned column span of one K panel, register
    /// accumulators only.
    ///
    /// Geometry: the main loop carries an R×16 tile (two `ymm` accumulators
    /// per row — at most 12 of the 16 vector registers — plus two rhs lane
    /// loads and one broadcast), then an R×8 tile for a trailing odd `NR`
    /// strip; the caller handles the scalar column tail past `n_main`,
    /// exactly as for the scalar body. Tile shape does not affect results:
    /// each output element owns one accumulator lane and still sums
    /// ascending-`p` products.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 support (see [`super::active`]) and the
    /// same slice geometry the scalar `band_tiles` requires: `out_rows`
    /// holds at least `i + R` rows of width `n`, every `lhs_panels[r]` has
    /// equal length ≤ the K panel, and `n_main ≤ n` is a multiple of `NR`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn band_tiles<const R: usize>(
        zero_skip: bool,
        lhs_panels: &[&[f32]; R],
        rhs: &[f32],
        out_rows: &mut [f32],
        i: usize,
        p0: usize,
        n_main: usize,
        n: usize,
    ) {
        // SAFETY: forwarded contract; monomorphized so the dense path is
        // branch-free in the inner loop, mirroring the scalar dispatch.
        unsafe {
            if zero_skip {
                band_tiles_impl::<R, true>(lhs_panels, rhs, out_rows, i, p0, n_main, n);
            } else {
                band_tiles_impl::<R, false>(lhs_panels, rhs, out_rows, i, p0, n_main, n);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn band_tiles_impl<const R: usize, const ZERO_SKIP: bool>(
        lhs_panels: &[&[f32]; R],
        rhs: &[f32],
        out_rows: &mut [f32],
        i: usize,
        p0: usize,
        n_main: usize,
        n: usize,
    ) {
        let panel_len = lhs_panels[0].len();
        let out = out_rows.as_mut_ptr();
        let rhs_ptr = rhs.as_ptr();
        let mut j0 = 0;
        // SAFETY: all indices stay within the bounds the caller guarantees;
        // they are the same indices the scalar body computes through slices.
        unsafe {
            while j0 + 2 * NR <= n_main {
                let mut acc0 = [_mm256_setzero_ps(); R];
                let mut acc1 = [_mm256_setzero_ps(); R];
                for (r, (a0, a1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                    let base = (i + r) * n + j0;
                    *a0 = _mm256_loadu_ps(out.add(base));
                    *a1 = _mm256_loadu_ps(out.add(base + NR));
                }
                for off in 0..panel_len {
                    let p = p0 + off;
                    let lane0 = _mm256_loadu_ps(rhs_ptr.add(p * n + j0));
                    let lane1 = _mm256_loadu_ps(rhs_ptr.add(p * n + j0 + NR));
                    for (r, (a0, a1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                        let a = *lhs_panels.get_unchecked(r).get_unchecked(off);
                        if ZERO_SKIP && a == 0.0 {
                            continue;
                        }
                        // mul + add, not fmadd: the contract rounds the
                        // product before the sum (see module docs).
                        let av = _mm256_set1_ps(a);
                        *a0 = _mm256_add_ps(*a0, _mm256_mul_ps(av, lane0));
                        *a1 = _mm256_add_ps(*a1, _mm256_mul_ps(av, lane1));
                    }
                }
                for (r, (a0, a1)) in acc0.iter().zip(acc1.iter()).enumerate() {
                    let base = (i + r) * n + j0;
                    _mm256_storeu_ps(out.add(base), *a0);
                    _mm256_storeu_ps(out.add(base + NR), *a1);
                }
                j0 += 2 * NR;
            }
            while j0 < n_main {
                let mut acc = [_mm256_setzero_ps(); R];
                for (r, a0) in acc.iter_mut().enumerate() {
                    *a0 = _mm256_loadu_ps(out.add((i + r) * n + j0));
                }
                for off in 0..panel_len {
                    let p = p0 + off;
                    let lane = _mm256_loadu_ps(rhs_ptr.add(p * n + j0));
                    for (r, a0) in acc.iter_mut().enumerate() {
                        let a = *lhs_panels.get_unchecked(r).get_unchecked(off);
                        if ZERO_SKIP && a == 0.0 {
                            continue;
                        }
                        *a0 = _mm256_add_ps(*a0, _mm256_mul_ps(_mm256_set1_ps(a), lane));
                    }
                }
                for (r, a0) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out.add((i + r) * n + j0), *a0);
                }
                j0 += NR;
            }
        }
    }

    /// AVX2 body of `parallel::transpose_into`: each 8×8 block is loaded as
    /// eight rows, transposed in registers (unpack, shuffle, lane permute)
    /// and stored as eight columns; `parallel::transpose_tail` moves the
    /// rows and columns past the last whole block. Moves only, so the result
    /// is the scalar loop's, bit for bit.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 support and
    /// `src.len() == dst.len() == rows * cols`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
        let (rows8, cols8) = (rows - rows % NR, cols - cols % NR);
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        // SAFETY: every block lies inside `[0, rows8) × [0, cols8)`, so each
        // load reads 8 floats of a source row and each store writes 8
        // floats of a destination row, all within the asserted lengths.
        unsafe {
            for i0 in (0..rows8).step_by(NR) {
                for j0 in (0..cols8).step_by(NR) {
                    let mut r = [_mm256_setzero_ps(); NR];
                    for (i, v) in r.iter_mut().enumerate() {
                        *v = _mm256_loadu_ps(s.add((i0 + i) * cols + j0));
                    }
                    let t = [
                        _mm256_unpacklo_ps(r[0], r[1]),
                        _mm256_unpackhi_ps(r[0], r[1]),
                        _mm256_unpacklo_ps(r[2], r[3]),
                        _mm256_unpackhi_ps(r[2], r[3]),
                        _mm256_unpacklo_ps(r[4], r[5]),
                        _mm256_unpackhi_ps(r[4], r[5]),
                        _mm256_unpacklo_ps(r[6], r[7]),
                        _mm256_unpackhi_ps(r[6], r[7]),
                    ];
                    let u = [
                        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
                        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
                        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
                        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
                    ];
                    let cols_out = [
                        _mm256_permute2f128_ps::<0x20>(u[0], u[4]),
                        _mm256_permute2f128_ps::<0x20>(u[1], u[5]),
                        _mm256_permute2f128_ps::<0x20>(u[2], u[6]),
                        _mm256_permute2f128_ps::<0x20>(u[3], u[7]),
                        _mm256_permute2f128_ps::<0x31>(u[0], u[4]),
                        _mm256_permute2f128_ps::<0x31>(u[1], u[5]),
                        _mm256_permute2f128_ps::<0x31>(u[2], u[6]),
                        _mm256_permute2f128_ps::<0x31>(u[3], u[7]),
                    ];
                    for (j, v) in cols_out.iter().enumerate() {
                        _mm256_storeu_ps(d.add((j0 + j) * rows + i0), *v);
                    }
                }
            }
        }
        crate::parallel::transpose_tail(src, dst, rows, cols, rows8, cols8);
    }

    /// `parallel::backward_sweep` compiled for AVX2: its body is
    /// `#[inline(always)]`, so every axpy and row add in it inlines here and
    /// vectorizes 8 lanes wide. Only `avx2` is enabled, not `fma`, so no
    /// multiply-add can be contracted into one rounding.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 support and the slice lengths
    /// `parallel::linear_act_backward_into` asserts.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn backward_sweep(sweep: Sweep<'_>) {
        crate::parallel::backward_sweep(sweep);
    }

    /// AVX2 `dst[j] += src[j]`: lane-parallel, so per-element order is
    /// untouched — bit-identical to the scalar loop for any length.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 support and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let len = dst.len();
        let d = dst.as_mut_ptr();
        let s = src.as_ptr();
        let mut j = 0;
        // SAFETY: j + NR <= len in the vector loop; the tail is scalar.
        unsafe {
            while j + NR <= len {
                let v = _mm256_add_ps(_mm256_loadu_ps(d.add(j)), _mm256_loadu_ps(s.add(j)));
                _mm256_storeu_ps(d.add(j), v);
                j += NR;
            }
            while j < len {
                *d.add(j) += *s.add(j);
                j += 1;
            }
        }
    }
}

/// Non-x86 stubs: [`active`] is always `false` off x86-64, so these are
/// unreachable; they exist so call sites compile on every target.
#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use crate::parallel::Sweep;

    /// # Safety
    ///
    /// Never called: dispatch always selects the scalar kernels off x86-64.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn band_tiles<const R: usize>(
        _zero_skip: bool,
        _lhs_panels: &[&[f32]; R],
        _rhs: &[f32],
        _out_rows: &mut [f32],
        _i: usize,
        _p0: usize,
        _n_main: usize,
        _n: usize,
    ) {
        unreachable!("SIMD dispatch is never active off x86-64");
    }

    /// # Safety
    ///
    /// Never called: dispatch always selects the scalar kernels off x86-64.
    pub(crate) unsafe fn add_assign(_dst: &mut [f32], _src: &[f32]) {
        unreachable!("SIMD dispatch is never active off x86-64");
    }

    /// # Safety
    ///
    /// Never called: dispatch always selects the scalar kernels off x86-64.
    pub(crate) unsafe fn backward_sweep(_sweep: Sweep<'_>) {
        unreachable!("SIMD dispatch is never active off x86-64");
    }

    /// # Safety
    ///
    /// Never called: dispatch always selects the scalar kernels off x86-64.
    pub(crate) unsafe fn transpose(_src: &[f32], _dst: &mut [f32], _rows: usize, _cols: usize) {
        unreachable!("SIMD dispatch is never active off x86-64");
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fallback::{add_assign, backward_sweep, band_tiles, transpose};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_controls_dispatch_and_restores_detection() {
        force(Some(false));
        assert!(!active(), "forced-scalar must report inactive");
        force(Some(true));
        assert_eq!(
            active(),
            host_supported(),
            "forced-SIMD downgrades to scalar only when the host lacks AVX2"
        );
        force(None);
        // Redetection: consistent with the host and the env escape hatch.
        assert_eq!(active(), host_supported() && !no_simd_requested());
    }

    #[test]
    fn env_escape_hatch_parses_conventionally() {
        // The env itself cannot be mutated safely in-process; exercise the
        // parse contract indirectly through the documented convention.
        let truthy = |v: &str| !v.is_empty() && v != "0";
        assert!(truthy("1"));
        assert!(truthy("yes"));
        assert!(!truthy("0"));
        assert!(!truthy(""));
    }
}
