//! Non-differentiable tensor operations: activations, reductions, softmax
//! and top-k. These are plain functions over [`Tensor`]s; the
//! differentiable versions live in [`crate::autograd`].

use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};

/// Gaussian Error Linear Unit (tanh approximation), as used by the
/// BlackMamba expert FFN (Fig. 7 of the paper).
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let u = SQRT_2_OVER_PI * (x + 0.044_715 * x.powi(3));
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Sigmoid-weighted Linear Unit (`x * sigmoid(x)`, a.k.a. Swish), used by the
/// Mixtral SwiGLU experts (Fig. 7 of the paper).
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of [`silu`] with respect to its input.
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s + x * s * (1.0 - s)
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Elementwise activation functions, the single source of truth shared by
/// the naive ops, the fused kernels, and the autograd engine — which is what
/// makes the fused and composed paths bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// No activation (`y = x`).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation) — BlackMamba expert FFNs.
    Gelu,
    /// SiLU / Swish — Mixtral SwiGLU experts.
    Silu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to one element.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Gelu => gelu(x),
            Activation::Silu => silu(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// `(self.apply(x), self.grad(x))`, bit-identical to the two calls:
    /// `Silu` and `Tanh` evaluate their shared sigmoid / `tanh` once.
    pub(crate) fn apply_and_grad(self, x: f32) -> (f32, f32) {
        match self {
            Activation::Silu => {
                let s = sigmoid(x);
                (x * s, s + x * s * (1.0 - s))
            }
            Activation::Tanh => {
                let t = x.tanh();
                (t, 1.0 - t * t)
            }
            act => (act.apply(x), act.grad(x)),
        }
    }

    /// Derivative of the activation with respect to its input.
    pub fn grad(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Gelu => gelu_grad(x),
            Activation::Silu => silu_grad(x),
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

/// Row-wise numerically-stable softmax of a matrix, fused: one max sweep,
/// then a single exp sweep writing straight into the output while the
/// denominator accumulates, then an in-place normalize — no per-row scratch
/// buffer. Bit-identical to the test-only oracle `softmax_rows_naive`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `logits` is not rank-2.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor, TensorError> {
    let (rows, cols) = logits.shape().as_matrix().ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "softmax_rows requires a matrix, got {}",
            logits.shape()
        ))
    })?;
    let _span = ftsim_obs::span("tensor.kernel", "softmax_rows");
    let mut out = Tensor::zeros(Shape::matrix(rows, cols));
    let out_data = out.data_mut();
    for r in 0..rows {
        let row = logits.row(r);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let out_row = &mut out_data[r * cols..(r + 1) * cols];
        let mut denom = 0.0;
        for (e, &x) in out_row.iter_mut().zip(row) {
            *e = (x - m).exp();
            denom += *e;
        }
        for e in out_row.iter_mut() {
            *e /= denom;
        }
    }
    Ok(out)
}

/// The original softmax implementation, kept as the reference path: it
/// allocates a scratch `exps` buffer per row and writes the result via
/// `set2`. [`softmax_rows`] must stay bit-identical to this.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `logits` is not rank-2.
#[cfg(test)]
pub(crate) fn softmax_rows_naive(logits: &Tensor) -> Result<Tensor, TensorError> {
    let (rows, cols) = logits.shape().as_matrix().ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "softmax_rows requires a matrix, got {}",
            logits.shape()
        ))
    })?;
    let mut out = Tensor::zeros(Shape::matrix(rows, cols));
    for r in 0..rows {
        let row = logits.row(r);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        let mut exps = vec![0.0f32; cols];
        for (e, &x) in exps.iter_mut().zip(row) {
            *e = (x - m).exp();
            denom += *e;
        }
        for (c, e) in exps.into_iter().enumerate() {
            out.set2(r, c, e / denom);
        }
    }
    Ok(out)
}

/// Indices and values of the `k` largest entries of `row`, descending.
///
/// Ties are broken by the lower index (stable against input order).
///
/// # Panics
///
/// Panics if `k == 0` or `k > row.len()`.
pub fn topk(row: &[f32], k: usize) -> Vec<(usize, f32)> {
    assert!(
        k >= 1 && k <= row.len(),
        "topk k={k} out of range for len {}",
        row.len()
    );
    let mut indexed: Vec<(usize, f32)> = row.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    indexed.truncate(k);
    indexed
}

/// Index of the maximum element of `row` (first on ties).
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Mean cross-entropy between row-wise `logits` and integer `labels`.
///
/// # Errors
///
/// Returns an error if shapes disagree or any label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<f32, TensorError> {
    let (rows, cols) = logits.shape().as_matrix().ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "cross_entropy requires a matrix, got {}",
            logits.shape()
        ))
    })?;
    if labels.len() != rows {
        return Err(TensorError::InvalidArgument(format!(
            "expected {rows} labels, got {}",
            labels.len()
        )));
    }
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        if label >= cols {
            return Err(TensorError::InvalidArgument(format!(
                "label {label} out of range for {cols} classes"
            )));
        }
        let row = logits.row(r);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        loss += lse - row[label];
    }
    Ok(loss / rows as f32)
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if `logits` is not a matrix or label count differs from row count.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let (rows, _) = logits
        .shape()
        .as_matrix()
        .expect("accuracy requires a matrix");
    assert_eq!(labels.len(), rows, "label count must equal row count");
    if rows == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &l)| argmax(logits.row(r)) == l)
        .count();
    correct as f64 / rows as f64
}

/// Population variance of a slice of counts — the load-imbalance metric the
/// paper reports for Fig. 11 (token-assignment variance across experts).
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let fd = finite_diff(gelu, x);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: {} vs {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn apply_and_grad_is_bitwise_the_two_calls() {
        let mut xs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.0371).collect();
        xs.extend([
            0.0,
            -0.0,
            1e-30,
            -1e-30,
            88.0,
            -88.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Gelu,
            Activation::Silu,
            Activation::Tanh,
        ] {
            for &x in &xs {
                let (y, d) = act.apply_and_grad(x);
                assert_eq!(y.to_bits(), act.apply(x).to_bits(), "{act:?} apply at {x}");
                assert_eq!(d.to_bits(), act.grad(x).to_bits(), "{act:?} grad at {x}");
            }
        }
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, 0.0, 0.5, 2.0] {
            let fd = finite_diff(silu, x);
            assert!((silu_grad(x) - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let logits = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.get2(0, 2) > p.get2(0, 1));
        assert!((p.get2(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let b = a.map(|x| x + 100.0);
        assert!(softmax_rows(&a)
            .unwrap()
            .allclose(&softmax_rows(&b).unwrap(), 1e-5));
    }

    #[test]
    fn topk_returns_descending() {
        let picks = topk(&[0.1, 0.9, 0.5, 0.7], 2);
        assert_eq!(picks[0].0, 1);
        assert_eq!(picks[1].0, 3);
    }

    #[test]
    fn topk_breaks_ties_by_index() {
        let picks = topk(&[0.5, 0.5, 0.5], 2);
        assert_eq!(picks[0].0, 0);
        assert_eq!(picks[1].0, 1);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Tensor::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]).unwrap();
        let loss = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3);
        assert!(cross_entropy(&logits, &[1, 0]).unwrap() > 5.0);
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Tensor::from_rows(&[&[0.0, 0.0]]).unwrap();
        assert!(cross_entropy(&logits, &[5]).is_err());
        assert!(cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_rows(&[&[2.0, 1.0], &[0.0, 3.0], &[5.0, 4.0]]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn variance_of_uniform_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..8, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = Tensor::rand_uniform([rows, cols], 10.0, &mut rng);
            let p = softmax_rows(&logits).unwrap();
            for r in 0..rows {
                let s: f32 = p.row(r).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }

        #[test]
        fn prop_topk_values_dominate_rest(n in 2usize..10, k in 1usize..4, seed in 0u64..500) {
            let k = k.min(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let row: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0f32)).collect();
            let picks = topk(&row, k);
            let min_pick = picks.iter().map(|p| p.1).fold(f32::INFINITY, f32::min);
            let picked: std::collections::HashSet<usize> = picks.iter().map(|p| p.0).collect();
            for (i, &v) in row.iter().enumerate() {
                if !picked.contains(&i) {
                    prop_assert!(v <= min_pick + 1e-6);
                }
            }
        }

        #[test]
        fn prop_cross_entropy_nonnegative(rows in 1usize..6, cols in 2usize..6, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = Tensor::rand_uniform([rows, cols], 4.0, &mut rng);
            let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols)).collect();
            prop_assert!(cross_entropy(&logits, &labels).unwrap() >= 0.0);
        }

        #[test]
        fn prop_fused_softmax_bit_identical_to_naive(
            rows in 1usize..7, cols in 1usize..10, seed in 0u64..500,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = Tensor::rand_uniform([rows, cols], 12.0, &mut rng);
            let fused = softmax_rows(&logits).unwrap();
            let naive = softmax_rows_naive(&logits).unwrap();
            for (a, e) in fused.data().iter().zip(naive.data()) {
                prop_assert_eq!(a.to_bits(), e.to_bits());
            }
        }

        #[test]
        fn prop_activation_grad_matches_finite_difference(
            act_id in 0usize..5, x in -2.5f32..2.5,
        ) {
            let act = [
                Activation::Identity,
                Activation::Relu,
                Activation::Gelu,
                Activation::Silu,
                Activation::Tanh,
            ][act_id];
            // Keep ReLU away from its kink, where the finite difference lies.
            let x = if act == Activation::Relu && x.abs() <= 1e-2 {
                x + 0.5
            } else {
                x
            };
            let fd = finite_diff(|v| act.apply(v), x);
            prop_assert!((act.grad(x) - fd).abs() < 2e-2, "{act:?}({x}): {} vs {fd}", act.grad(x));
        }
    }
}
