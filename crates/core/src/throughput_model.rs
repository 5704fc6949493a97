//! The throughput model (paper Eq. 2).
//!
//! ```text
//! Throughput = C₂ · ln( batch / sparsity ) + C₄
//! ```
//!
//! The paper writes `C₂ · log(batch / (sparsity · C₃)) + C₄`. Expanded, C₃
//! appears only in `C₄ − C₂ · ln C₃`, so no data can tell C₃ from C₄: it is
//! absorbed into the intercept here. `C₂` is the *scaling coefficient*
//! (GPU/model/dataset-dependent) and `C₄` the throughput of a dense model at
//! batch 1. The dense-to-sparse shift is fixed at `C₂ · ln(1/sparsity)`; no
//! coefficient tunes it. One (C₂, C₄) pair is fitted per (model, dataset,
//! GPU) combination over both the dense and sparse sweeps, as the paper fits
//! with scipy.
//!
//! The model is linear in (C₂, C₄) on `x = ln(batch / sparsity)`, apart from
//! the floor that clamps predictions, so [`ThroughputModel::fit`] solves it
//! in closed form.

use crate::fit::rmse;
use serde::{Deserialize, Serialize};

/// Floor on predicted queries/second: a negative throughput is never
/// meaningful.
const FLOOR: f64 = 1e-6;

/// One ground-truth throughput observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSample {
    /// Batch size.
    pub batch: f64,
    /// Sparsity ratio (1.0 dense, 0.25 top-2-of-8).
    pub sparsity: f64,
    /// Measured queries/second.
    pub qps: f64,
}

/// The fitted Eq. 2 model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputModel {
    /// Scaling coefficient C₂.
    pub c2: f64,
    /// Intercept C₄ (the paper's `C₄ − C₂ · ln C₃`).
    pub c4: f64,
}

impl ThroughputModel {
    /// Predicted queries/second at `batch` and `sparsity`, clamped at a small
    /// positive floor.
    pub fn predict(&self, batch: f64, sparsity: f64) -> f64 {
        self.at(ln_ratio(batch, sparsity))
    }

    fn at(&self, x: f64) -> f64 {
        (self.c2 * x + self.c4).max(FLOOR)
    }

    /// Fits (C₂, C₄) to `samples` by least squares. Returns the model and
    /// its RMSE.
    ///
    /// With C₂ > 0 the floor clamps a prefix of the samples sorted by `x`.
    /// For each prefix length, from 0 (plain least squares) up to all but two
    /// samples, the rest are solved by ordinary least squares; the candidate
    /// with the lowest clamped squared error wins. The coefficients do not
    /// depend on the order of `samples`.
    ///
    /// # Panics
    ///
    /// Panics unless the samples hold at least two distinct
    /// `batch / sparsity` values (the model has 2 degrees of freedom).
    pub fn fit(samples: &[ThroughputSample]) -> (Self, f64) {
        let mut points: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (ln_ratio(s.batch, s.sparsity), s.qps))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert!(
            points.first().map(|p| p.0) < points.last().map(|p| p.0),
            "need at least two distinct batch/sparsity values"
        );
        let sse = |m: &ThroughputModel| -> f64 {
            points.iter().map(|&(x, y)| (m.at(x) - y).powi(2)).sum()
        };
        let (_, model) = (0..points.len() - 1)
            .filter_map(|clamped| least_squares(&points[clamped..]))
            .map(|m| (sse(&m), m))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("distinct x values give a least-squares line");
        (model, model.rmse(samples))
    }

    /// Number of `samples` at which the floor clamps the prediction (Eq. 2
    /// gives zero or negative throughput there).
    pub fn clamped(&self, samples: &[ThroughputSample]) -> usize {
        samples
            .iter()
            .filter(|s| self.c2 * ln_ratio(s.batch, s.sparsity) + self.c4 <= FLOOR)
            .count()
    }

    /// RMSE of predictions against `samples`.
    pub fn rmse(&self, samples: &[ThroughputSample]) -> f64 {
        let pred: Vec<f64> = samples
            .iter()
            .map(|s| self.predict(s.batch, s.sparsity))
            .collect();
        let truth: Vec<f64> = samples.iter().map(|s| s.qps).collect();
        rmse(&pred, &truth)
    }
}

/// The model's regressor `x = ln(batch / sparsity)`.
fn ln_ratio(batch: f64, sparsity: f64) -> f64 {
    (batch / sparsity).max(1e-9).ln()
}

/// The ordinary-least-squares line through `(x, y)` points, or `None` if
/// every `x` is equal.
fn least_squares(points: &[(f64, f64)]) -> Option<ThroughputModel> {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxx, sxy) = points.iter().fold((0.0, 0.0), |(sxx, sxy), &(x, y)| {
        (sxx + (x - mx) * (x - mx), sxy + (x - mx) * (y - my))
    });
    (sxx > 0.0).then(|| {
        let c2 = sxy / sxx;
        ThroughputModel {
            c2,
            c4: my - c2 * mx,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const M: ThroughputModel = ThroughputModel { c2: 0.6, c4: 0.4 };

    fn synthetic(truth: ThroughputModel) -> Vec<ThroughputSample> {
        let mut out = Vec::new();
        for &s in &[0.25, 1.0] {
            for b in 1..=10 {
                out.push(ThroughputSample {
                    batch: b as f64,
                    sparsity: s,
                    qps: truth.predict(b as f64, s),
                });
            }
        }
        out
    }

    fn sse(m: &ThroughputModel, samples: &[ThroughputSample]) -> f64 {
        samples
            .iter()
            .map(|s| (m.predict(s.batch, s.sparsity) - s.qps).powi(2))
            .sum()
    }

    /// `samples` with a deterministic ±10% error on each measurement.
    fn noisy(mut samples: Vec<ThroughputSample>) -> Vec<ThroughputSample> {
        for (i, s) in samples.iter_mut().enumerate() {
            s.qps *= 1.0 + 0.05 * ((i * 7 % 5) as f64 - 2.0);
        }
        samples
    }

    /// Samples whose small-batch points sit below zero on the fitted line,
    /// so the floor clamps some of them.
    fn clamping_samples() -> Vec<ThroughputSample> {
        noisy(synthetic(ThroughputModel { c2: 1.2, c4: -1.5 }))
    }

    #[test]
    fn fit_recovers_known_curve() {
        let truth = ThroughputModel { c2: 0.55, c4: 0.52 };
        let (fitted, err) = ThroughputModel::fit(&synthetic(truth));
        assert!(err < 1e-12, "rmse {err}");
        assert!((fitted.c2 - truth.c2).abs() < 1e-12, "{fitted:?}");
        assert!((fitted.c4 - truth.c4).abs() < 1e-12, "{fitted:?}");
    }

    #[test]
    fn fit_is_a_local_minimum_of_the_clamped_error() {
        let samples = clamping_samples();
        let (fitted, _) = ThroughputModel::fit(&samples);
        assert!(fitted.clamped(&samples) > 0, "{fitted:?} clamps nothing");
        let best = sse(&fitted, &samples);
        for i in -5..=5 {
            for j in -5..=5 {
                let nudged = ThroughputModel {
                    c2: fitted.c2 + 1e-3 * i as f64,
                    c4: fitted.c4 + 1e-3 * j as f64,
                };
                assert!(best <= sse(&nudged, &samples), "({i}, {j}) beats the fit");
            }
        }
    }

    #[test]
    fn fit_ignores_sample_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for base in [clamping_samples(), noisy(synthetic(M))] {
            // Repeated measurements tie on x, so the sort must order ties too.
            let repeats = base.iter().map(|s| ThroughputSample {
                qps: s.qps * 1.03 + 0.01,
                ..*s
            });
            let mut samples: Vec<_> = base.iter().copied().chain(repeats).collect();
            let (fitted, _) = ThroughputModel::fit(&samples);
            for _ in 0..20 {
                samples.shuffle(&mut rng);
                let (again, _) = ThroughputModel::fit(&samples);
                assert_eq!(fitted.c2.to_bits(), again.c2.to_bits());
                assert_eq!(fitted.c4.to_bits(), again.c4.to_bits());
            }
        }
    }

    #[test]
    fn throughput_increases_with_batch() {
        let mut prev = 0.0;
        for b in 1..=20 {
            let q = M.predict(b as f64, 0.25);
            assert!(q > prev);
            prev = q;
        }
    }

    #[test]
    fn log_saturation_shape() {
        // Marginal gain shrinks with batch: q(2)-q(1) > q(10)-q(9).
        let g_low = M.predict(2.0, 1.0) - M.predict(1.0, 1.0);
        let g_high = M.predict(10.0, 1.0) - M.predict(9.0, 1.0);
        assert!(g_low > g_high);
    }

    #[test]
    fn sparsity_shifts_curve_up() {
        // At equal batch, a lower sparsity ratio (fewer active experts) gives
        // higher predicted throughput, by exactly C₂ · ln(1/sparsity).
        let shift = M.predict(2.0, 0.25) - M.predict(2.0, 1.0);
        assert!((shift - M.c2 * 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn intercept_is_dense_batch1_throughput() {
        // At sparsity 1 and batch 1 the log term vanishes.
        assert!((M.predict(1.0, 1.0) - M.c4).abs() < 1e-12);
    }

    #[test]
    fn predictions_never_negative() {
        let m = ThroughputModel { c2: 0.6, c4: -2.0 };
        assert!(m.predict(1.0, 1.0) > 0.0);
        // 0.6·ln(batch/sparsity) − 2 ≤ 0 below batch/sparsity ≈ 28: all ten
        // dense samples and sparse batches 1..=7.
        assert_eq!(m.clamped(&synthetic(m)), 17);
    }

    #[test]
    #[should_panic(expected = "two distinct batch/sparsity values")]
    fn fit_rejects_underdetermined() {
        // Three samples, but batch 2 dense and batch 0.5 at sparsity 0.25
        // sit at the same x: only one distinct value.
        ThroughputModel::fit(&[
            ThroughputSample {
                batch: 2.0,
                sparsity: 1.0,
                qps: 0.5,
            },
            ThroughputSample {
                batch: 0.5,
                sparsity: 0.25,
                qps: 0.8,
            },
            ThroughputSample {
                batch: 2.0,
                sparsity: 1.0,
                qps: 0.6,
            },
        ]);
    }

    proptest! {
        #[test]
        fn prop_fit_rmse_beats_constant_predictor(
            c2 in 0.2f64..2.0, c4 in 0.0f64..1.0, noise_seed in 0u64..50
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
            let mut samples = synthetic(ThroughputModel { c2, c4 });
            for s in &mut samples {
                s.qps *= 1.0 + rng.gen_range(-0.02..0.02);
            }
            let (_, err) = ThroughputModel::fit(&samples);
            // Constant predictor at the mean.
            let mean = samples.iter().map(|s| s.qps).sum::<f64>() / samples.len() as f64;
            let const_rmse = crate::fit::rmse(
                &vec![mean; samples.len()],
                &samples.iter().map(|s| s.qps).collect::<Vec<_>>(),
            );
            prop_assert!(err <= const_rmse + 1e-9);
        }
    }
}
