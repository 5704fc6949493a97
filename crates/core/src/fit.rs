//! Error metrics for the fitted models.

/// Root-mean-square error between predictions and ground truth.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "rmse of empty slices");
    let sum: f64 = pred.iter().zip(truth).map(|(&p, &t)| (p - t).powi(2)).sum();
    (sum / pred.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmse_rejects_mismatched() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
