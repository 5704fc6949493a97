//! Log-bucketed quantile sketch with a bounded relative error.
//!
//! [`QuantileSketch`] is the HDR/DDSketch-style answer to "what is p99?"
//! under fixed memory: values map into geometrically spaced buckets
//! (`bucket i` covers `(min·γ^(i-1), min·γ^i]` with `γ = (1+α)/(1−α)`), so
//! any quantile estimate is within relative error `α` of some recorded
//! sample at that rank — independent of the distribution, with no
//! per-sample allocation and no sorting. Sketches over the same
//! [`SketchConfig`] **merge** by bucket-wise addition, which is exact:
//! merge is associative and commutative, and a merged sketch answers
//! quantiles as if every sample had been recorded directly. That is what
//! the windowed time-series engine ([`mod@crate::timeseries`]) is built on —
//! ring slots hold small sketches and "p99 over the last 10s" is a merge.
//!
//! Error contract (property-tested in `tests/sketch_prop.rs`):
//! * for values inside `[min_value, max_value]`, `quantile(q)` is within
//!   `α` relative error of the exact rank-`⌈q·n⌉` order statistic;
//! * `count`/`sum` (and therefore `mean`) are exact;
//! * values at or below `min_value` collapse into the first bucket and
//!   report as `min_value`; values above `max_value` clamp into the last
//!   bucket (the only places the bound does not hold).
//!
//! [`Sketch`] is the lock-free shared-handle variant for the metrics
//! registry: same bucket mapping, atomic counters, snapshots back into a
//! plain [`QuantileSketch`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket-scheme parameters. Two sketches merge only if their configs are
/// identical (same `α`, same value range ⇒ same bucket boundaries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Relative-error bound for quantile estimates (e.g. `0.01` = 1%).
    pub alpha: f64,
    /// Values at or below this collapse into bucket 0.
    pub min_value: f64,
    /// Values above this clamp into the last bucket.
    pub max_value: f64,
}

impl Default for SketchConfig {
    /// 1% relative error over `[1e-3, 1e9]` — sized for latencies in
    /// microseconds, from sub-nanosecond to ~17 minutes (1389 buckets,
    /// ~11 KiB per sketch).
    fn default() -> SketchConfig {
        SketchConfig {
            alpha: 0.01,
            min_value: 1e-3,
            max_value: 1e9,
        }
    }
}

impl SketchConfig {
    /// `γ = (1+α)/(1−α)`: the bucket growth factor.
    pub fn gamma(&self) -> f64 {
        (1.0 + self.alpha) / (1.0 - self.alpha)
    }

    /// Number of buckets the config needs (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        let span = (self.max_value / self.min_value).ln() / self.gamma().ln();
        span.ceil() as usize + 1
    }

    /// Bucket index for `value` (clamped into `[0, bucket_count)`).
    fn index(&self, value: f64) -> usize {
        // NaN also lands in bucket 0: the comparison is false and the
        // NaN-valued `raw` below casts to 0 anyway.
        if value <= self.min_value {
            return 0;
        }
        let raw = (value / self.min_value).ln() / self.gamma().ln();
        (raw.ceil() as usize).min(self.bucket_count() - 1)
    }

    /// Representative value of bucket `i`: the point minimizing the worst
    /// relative error over the bucket's range, `min·γ^i · 2/(1+γ)`.
    fn value(&self, index: usize) -> f64 {
        if index == 0 {
            return self.min_value;
        }
        let gamma = self.gamma();
        self.min_value * gamma.powi(index as i32) * 2.0 / (1.0 + gamma)
    }
}

/// The plain (single-owner) sketch. See module docs for the error contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    config: SketchConfig,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// An empty sketch over `config`'s bucket scheme.
    pub fn new(config: SketchConfig) -> QuantileSketch {
        QuantileSketch {
            config,
            buckets: vec![0; config.bucket_count()],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket scheme.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// Records one sample. Non-finite values are dropped.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.buckets[self.config.index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`. Exact: quantiles of the
    /// result match a sketch that recorded both sample streams directly.
    ///
    /// # Panics
    /// If the configs (and therefore bucket boundaries) differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.config, other.config,
            "merging sketches with different bucket schemes"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (exact; 0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears every bucket (the scheme is kept).
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Estimates the `q`-quantile (`q` clamped into `[0, 1]`; 0 when
    /// empty): the representative value of the bucket holding the
    /// rank-`max(1, ⌈q·n⌉)` order statistic, within `α` relative error of
    /// that sample (clamped tails aside — see module docs).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // Clamp into the exact envelope so the estimate never
                // leaves [min, max] (tightens the tails for free).
                return self.config.value(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Number of recorded samples whose *bucket* lies strictly above the
    /// bucket of `threshold` — the sketch's answer to "how many requests
    /// exceeded the target?", exact up to bucket resolution (a sample
    /// within `α` of the threshold may land on either side).
    pub fn count_above(&self, threshold: f64) -> u64 {
        let cut = self.config.index(threshold);
        self.buckets[cut + 1..].iter().sum()
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending — the sparse
    /// form used by snapshot JSON.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Rebuilds a sketch from its sparse snapshot form. Out-of-range
    /// indices are an error (a corrupt or mismatched snapshot).
    pub fn from_parts(
        config: SketchConfig,
        buckets: &[(usize, u64)],
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<QuantileSketch, String> {
        let mut sketch = QuantileSketch::new(config);
        for &(index, n) in buckets {
            let slot = sketch
                .buckets
                .get_mut(index)
                .ok_or_else(|| format!("sketch bucket index {index} out of range"))?;
            *slot = n;
        }
        sketch.count = count;
        sketch.sum = sum;
        sketch.min = if count == 0 { f64::INFINITY } else { min };
        sketch.max = if count == 0 { f64::NEG_INFINITY } else { max };
        Ok(sketch)
    }

    /// `self - earlier`, bucket-wise (saturating), for snapshot diffs. The
    /// exact `min`/`max` envelope is not subtractable, so the later
    /// sketch's values are kept.
    pub fn diff(&self, earlier: &QuantileSketch) -> QuantileSketch {
        let mut out = self.clone();
        if earlier.config == self.config {
            for (mine, theirs) in out.buckets.iter_mut().zip(&earlier.buckets) {
                *mine = mine.saturating_sub(*theirs);
            }
            out.count = out.count.saturating_sub(earlier.count);
            out.sum -= earlier.sum;
        }
        out
    }
}

#[derive(Debug)]
struct SketchInner {
    config: SketchConfig,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Handle to a shared, lock-free sketch (the registry's distribution
/// type). Updates through a handle are atomic ops — recording never blocks
/// and never allocates.
#[derive(Debug, Clone)]
pub struct Sketch(Arc<SketchInner>);

/// CAS-update an `f64`-bits atomic with a monotone combiner.
fn update_f64(cell: &AtomicU64, value: f64, pick: impl Fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = pick(f64::from_bits(current), value).to_bits();
        if next == current {
            return;
        }
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

impl Sketch {
    /// An empty shared sketch over `config`.
    pub fn new(config: SketchConfig) -> Sketch {
        Sketch(Arc::new(SketchInner {
            config,
            buckets: (0..config.bucket_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// Records one sample. Gated on [`crate::enabled`]; non-finite values
    /// are dropped.
    #[inline]
    pub fn record(&self, value: f64) {
        if !crate::enabled() || !value.is_finite() {
            return;
        }
        let inner = &*self.0;
        inner.buckets[inner.config.index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&inner.sum_bits, value, |acc, v| acc + v);
        update_f64(&inner.min_bits, value, f64::min);
        update_f64(&inner.max_bits, value, f64::max);
    }

    /// Point-in-time copy as a plain sketch.
    pub fn snapshot(&self) -> QuantileSketch {
        let inner = &*self.0;
        let count = inner.count.load(Ordering::Relaxed);
        QuantileSketch {
            config: inner.config,
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(inner.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(inner.max_bits.load(Ordering::Relaxed)),
        }
    }

    /// Zeroes the sketch (handles stay valid).
    pub fn reset(&self) {
        let inner = &*self.0;
        for b in &inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
        inner.count.store(0, Ordering::Relaxed);
        inner.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        inner
            .min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        inner
            .max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_are_within_alpha_of_exact_order_statistics() {
        let config = SketchConfig::default();
        let mut sketch = QuantileSketch::new(config);
        // A deliberately skewed latency-like distribution.
        let mut values: Vec<f64> = (1..=1000)
            .map(|i| 3.0 + (i as f64).powf(1.7) * 0.01)
            .collect();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = sketch.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= config.alpha + 1e-9,
                "q={q}: {est} vs {exact} ({rel})"
            );
        }
        assert_eq!(sketch.count(), 1000);
        let exact_sum: f64 = values.iter().sum();
        assert!((sketch.sum() - exact_sum).abs() < 1e-6);
        assert_eq!(sketch.min(), values[0]);
        assert_eq!(sketch.max(), values[999]);
    }

    #[test]
    fn merge_equals_direct_recording() {
        let config = SketchConfig::default();
        let mut all = QuantileSketch::new(config);
        let mut a = QuantileSketch::new(config);
        let mut b = QuantileSketch::new(config);
        for i in 0..500 {
            let v = 1.0 + (i as f64) * 0.37;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merge is exact, not approximate");
    }

    #[test]
    fn out_of_range_values_clamp_instead_of_growing() {
        let config = SketchConfig::default();
        let mut sketch = QuantileSketch::new(config);
        sketch.record(0.0); // at/below min_value -> bucket 0
        sketch.record(-5.0);
        sketch.record(1e18); // beyond max_value -> last bucket
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.buckets.len(), config.bucket_count());
        assert!(sketch.quantile(0.1) >= 0.0);
    }

    #[test]
    fn count_above_splits_at_the_threshold_bucket() {
        let mut sketch = QuantileSketch::new(SketchConfig::default());
        for v in [10.0, 20.0, 30.0, 400.0, 5000.0] {
            sketch.record(v);
        }
        assert_eq!(sketch.count_above(100.0), 2);
        assert_eq!(sketch.count_above(1e8), 0);
        assert_eq!(sketch.count_above(1e-6), 5);
    }

    #[test]
    fn sparse_round_trip_preserves_the_sketch() {
        let mut sketch = QuantileSketch::new(SketchConfig::default());
        for v in [1.5, 88.0, 88.2, 1e7] {
            sketch.record(v);
        }
        let parts: Vec<(usize, u64)> = sketch.nonzero_buckets().collect();
        let rebuilt = QuantileSketch::from_parts(
            sketch.config(),
            &parts,
            sketch.count(),
            sketch.sum(),
            sketch.min(),
            sketch.max(),
        )
        .unwrap();
        assert_eq!(rebuilt, sketch);
        assert!(QuantileSketch::from_parts(
            SketchConfig::default(),
            &[(usize::MAX, 1)],
            1,
            1.0,
            1.0,
            1.0
        )
        .is_err());
    }

    #[test]
    fn shared_handle_matches_plain_recording() {
        let _g = test_lock();
        crate::enable();
        let shared = Sketch::new(SketchConfig::default());
        let mut plain = QuantileSketch::new(SketchConfig::default());
        for i in 0..100 {
            let v = 0.5 + i as f64 * 2.25;
            shared.record(v);
            plain.record(v);
        }
        crate::disable();
        shared.record(999.0); // disabled: dropped
        assert_eq!(shared.snapshot(), plain);
        shared.reset();
        assert!(shared.snapshot().is_empty());
    }
}
