//! Global metrics registry: named counters, gauges, fixed-bucket
//! histograms, and quantile sketches.
//!
//! Metrics are created on first use and live for the process. The cheap way
//! to update a hot metric is to hold a handle ([`Counter`], [`Gauge`],
//! [`Histogram`], [`Sketch`]) — updates through a handle are lock-free
//! atomic ops. The name-based free functions ([`Registry::counter_add`]
//! etc.) look the handle up under a registry lock each call and are meant
//! for cold paths.
//!
//! Histograms and sketches both record value distributions; the split is
//! deliberate: histograms have caller-chosen coarse bounds (cheap, good for
//! shapes like "fraction under 1ms"), while sketches ([`crate::sketch`])
//! answer arbitrary quantiles with a bounded relative error and merge
//! exactly — latency metrics that feed percentile gates or SLOs belong in
//! sketches.
//!
//! [`Registry::snapshot`] captures all current values; [`Snapshot::diff`]
//! subtracts an earlier snapshot (counters and histogram buckets subtract,
//! gauges keep the later value) so a caller can meter exactly one region of
//! work. Snapshots export to JSON by hand (no dependencies).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sketch::{QuantileSketch, Sketch, SketchConfig};

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`. Gated on [`crate::enabled`] so instrumented hot paths
    /// pay one relaxed load when observability is off.
    #[inline]
    pub fn add(&self, delta: u64) {
        if crate::enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Overwrites the value (for mirroring an externally maintained count).
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a gauge: a last-write-wins `f64` stored as bits in an atomic.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. Gated on [`crate::enabled`].
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Overwrites the value unconditionally (for mirroring an externally
    /// computed figure into a private [`Registry`] regardless of the
    /// global enable flag), mirroring [`Counter::store`].
    pub fn store(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Handle to a fixed-bucket histogram.
///
/// Bucket `i` counts samples `<= bounds[i]`; one overflow bucket counts the
/// rest. Sum and count are tracked exactly, so the mean is exact even though
/// quantiles are bucket-resolution.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; last is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Records one sample. Gated on [`crate::enabled`].
    #[inline]
    pub fn record(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Registry of metrics, keyed by name.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    sketches: Mutex<BTreeMap<String, Sketch>>,
}

impl Registry {
    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter map");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter(Arc::new(AtomicU64::new(0)));
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge map");
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())));
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// Returns (creating if needed) the histogram named `name` with the given
    /// upper bucket bounds (must be sorted ascending). Bounds are fixed at
    /// creation; later calls with different bounds return the existing
    /// histogram unchanged.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds sorted");
        let mut map = self.histograms.lock().expect("histogram map");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram(Arc::new(HistogramInner {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0.0f64.to_bits()),
                }));
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Returns (creating if needed) the quantile sketch named `name`.
    /// Sketches use the process-wide default [`SketchConfig`] (1% relative
    /// error over the µs latency range) so any two sketches merge; the
    /// scheme is fixed at creation.
    pub fn sketch(&self, name: &str) -> Sketch {
        let mut map = self.sketches.lock().expect("sketch map");
        match map.get(name) {
            Some(s) => s.clone(),
            None => {
                let s = Sketch::new(SketchConfig::default());
                map.insert(name.to_string(), s.clone());
                s
            }
        }
    }

    /// Cold-path convenience: record into a sketch by name, creating it on
    /// first use (unlike histograms, sketches need no per-metric bounds).
    #[inline]
    pub fn sketch_record(&self, name: &str, value: f64) {
        if !crate::enabled() {
            return;
        }
        self.sketch(name).record(value);
    }

    /// Cold-path convenience: add to a counter by name.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !crate::enabled() {
            return;
        }
        self.counter(name).add(delta);
    }

    /// Cold-path convenience: set a gauge by name.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !crate::enabled() {
            return;
        }
        self.gauge(name).set(value);
    }

    /// Cold-path convenience: record into a histogram by name. The histogram
    /// must already exist (created via [`Registry::histogram`]); otherwise the
    /// sample is dropped, because bucket bounds can't be invented here.
    #[inline]
    pub fn histogram_record(&self, name: &str, value: f64) {
        if !crate::enabled() {
            return;
        }
        let existing = self
            .histograms
            .lock()
            .expect("histogram map")
            .get(name)
            .cloned();
        if let Some(h) = existing {
            h.record(value);
        }
    }

    /// Captures every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("counter map")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge map")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram map")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            sketches: self
                .sketches
                .lock()
                .expect("sketch map")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter map").values() {
            c.store(0);
        }
        for g in self.gauges.lock().expect("gauge map").values() {
            g.0.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        for h in self.histograms.lock().expect("histogram map").values() {
            for b in &h.0.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.0.count.store(0, Ordering::Relaxed);
            h.0.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        for s in self.sketches.lock().expect("sketch map").values() {
            s.reset();
        }
    }
}

/// Point-in-time copy of a histogram's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `buckets[bounds.len()]` is overflow.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution `q`-quantile estimate: the upper bound of the
    /// bucket holding the rank-`max(1, ⌈q·n⌉)` sample, saturating at the
    /// last finite bound when the rank falls in the overflow bucket (the
    /// fixed-bucket scheme cannot say more — latency metrics needing real
    /// tail accuracy use [`QuantileSketch`] instead). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return self.bounds[i.min(self.bounds.len() - 1)];
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values keyed by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram state keyed by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch state keyed by name (empty for snapshots parsed from
    /// files written before sketches existed).
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl Snapshot {
    /// `self - earlier`: counters and histogram buckets/sums subtract
    /// (saturating at zero for counts); gauges keep `self`'s value. Metrics
    /// absent from `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut h = h.clone();
                if let Some(before) = earlier.histograms.get(k) {
                    if before.bounds == h.bounds {
                        for (b, &prev) in h.buckets.iter_mut().zip(&before.buckets) {
                            *b = b.saturating_sub(prev);
                        }
                        h.count = h.count.saturating_sub(before.count);
                        h.sum -= before.sum;
                    }
                }
                (k.clone(), h)
            })
            .collect();
        let sketches = self
            .sketches
            .iter()
            .map(|(k, s)| {
                let s = match earlier.sketches.get(k) {
                    Some(before) => s.diff(before),
                    None => s.clone(),
                };
                (k.clone(), s)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            sketches,
        }
    }

    /// Renders the snapshot as a compact JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...},"sketches":{...}}`.
    /// Sketches serialize sparsely (`"buckets"` maps non-empty bucket index
    /// to count) plus the exact `count`/`sum`/`min`/`max` and the bucket
    /// scheme, so a parsed snapshot answers the same quantiles.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::write_json_string(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::write_json_string(&mut out, k);
            out.push(':');
            out.push_str(&crate::chrome::format_json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::write_json_string(&mut out, k);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&crate::chrome::format_json_f64(*b));
            }
            out.push_str("],\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("],\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&crate::chrome::format_json_f64(h.sum));
            out.push('}');
        }
        out.push_str("},\"sketches\":{");
        for (i, (k, s)) in self.sketches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::chrome::write_json_string(&mut out, k);
            let config = s.config();
            out.push_str(":{\"alpha\":");
            out.push_str(&crate::chrome::format_json_f64(config.alpha));
            out.push_str(",\"min_value\":");
            out.push_str(&crate::chrome::format_json_f64(config.min_value));
            out.push_str(",\"max_value\":");
            out.push_str(&crate::chrome::format_json_f64(config.max_value));
            out.push_str(",\"count\":");
            out.push_str(&s.count().to_string());
            out.push_str(",\"sum\":");
            out.push_str(&crate::chrome::format_json_f64(s.sum()));
            out.push_str(",\"min\":");
            out.push_str(&crate::chrome::format_json_f64(s.min()));
            out.push_str(",\"max\":");
            out.push_str(&crate::chrome::format_json_f64(s.max()));
            out.push_str(",\"buckets\":{");
            for (j, (index, n)) in s.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&index.to_string());
                out.push_str("\":");
                out.push_str(&n.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counters_gauges_histograms_record_and_diff() {
        let _g = test_lock();
        crate::enable();
        let c = registry().counter("test.metrics.counter");
        let g = registry().gauge("test.metrics.gauge");
        let h = registry().histogram("test.metrics.hist", &[1.0, 10.0]);
        c.store(0);
        let before = registry().snapshot();
        c.add(3);
        g.set(2.5);
        h.record(0.5);
        h.record(5.0);
        h.record(100.0);
        crate::disable();
        let after = registry().snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counters["test.metrics.counter"], 3);
        assert_eq!(d.gauges["test.metrics.gauge"], 2.5);
        let hs = &d.histograms["test.metrics.hist"];
        assert_eq!(hs.buckets, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 105.5).abs() < 1e-12);
        assert!((hs.mean() - 105.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_store_bypasses_the_enable_gate() {
        // A private registry stays writable with global obs off — the
        // cluster experiment relies on this for deterministic snapshots.
        let private = Registry::default();
        let g = private.gauge("test.metrics.private");
        g.set(1.0); // gated: dropped unless obs happens to be enabled
        g.store(7.25);
        assert_eq!(g.get(), 7.25);
        assert_eq!(private.snapshot().gauges["test.metrics.private"], 7.25);
    }

    #[test]
    fn snapshot_json_export_is_deterministic_and_key_sorted() {
        // obs-diff baselines and results/*.json metric blocks must be
        // byte-stable across runs and thread schedules: same contents in any
        // insertion order -> identical bytes, keys sorted.
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        for (k, v) in [("z.last", 1u64), ("a.first", 2), ("m.mid", 3)] {
            a.counters.insert(k.to_string(), v);
        }
        for (k, v) in [("m.mid", 3u64), ("a.first", 2), ("z.last", 1)] {
            b.counters.insert(k.to_string(), v);
        }
        a.gauges.insert("g.b".to_string(), 1.5);
        a.gauges.insert("g.a".to_string(), 2.5);
        b.gauges.insert("g.a".to_string(), 2.5);
        b.gauges.insert("g.b".to_string(), 1.5);
        let hist = HistogramSnapshot {
            bounds: vec![1.0],
            buckets: vec![1, 0],
            count: 1,
            sum: 0.5,
        };
        a.histograms.insert("h.two".to_string(), hist.clone());
        a.histograms.insert("h.one".to_string(), hist.clone());
        b.histograms.insert("h.one".to_string(), hist.clone());
        b.histograms.insert("h.two".to_string(), hist);

        let json = a.to_json_string();
        assert_eq!(json, b.to_json_string(), "insertion order must not leak");
        let pos = |needle: &str| {
            json.find(needle)
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        assert!(pos("a.first") < pos("m.mid"));
        assert!(pos("m.mid") < pos("z.last"));
        assert!(pos("g.a") < pos("g.b"));
        assert!(pos("h.one") < pos("h.two"));
    }

    #[test]
    fn sketches_register_record_and_diff() {
        let _g = test_lock();
        crate::enable();
        let s = registry().sketch("test.metrics.sketch");
        s.reset();
        let before = registry().snapshot();
        // Name-based recording creates nothing new (same handle) and
        // forwards like a histogram sample.
        registry().sketch_record("test.metrics.sketch", 100.0);
        registry().sketch_record("test.metrics.sketch", 200.0);
        crate::disable();
        let after = registry().snapshot();
        let d = after.diff(&before);
        let ds = &d.sketches["test.metrics.sketch"];
        assert_eq!(ds.count(), 2);
        assert!((ds.sum() - 300.0).abs() < 1e-9);
        assert!((ds.quantile(0.5) - 100.0).abs() <= 100.0 * 0.01 + 1e-9);
        let json = after.to_json_string();
        assert!(json.contains("\"sketches\":{\"test.metrics.sketch\":{\"alpha\":0.01"));
        assert!(json.contains("\"count\":2"));

        // Quantile estimates from a histogram snapshot saturate at the
        // bucket bounds.
        let h = HistogramSnapshot {
            bounds: vec![1.0, 10.0],
            buckets: vec![5, 4, 1],
            count: 10,
            sum: 20.0,
        };
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.9), 10.0);
        assert_eq!(h.quantile(1.0), 10.0, "overflow saturates at last bound");
        assert_eq!(
            HistogramSnapshot {
                bounds: vec![],
                buckets: vec![],
                count: 0,
                sum: 0.0
            }
            .quantile(0.5),
            0.0
        );
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let _g = test_lock();
        crate::disable();
        let c = registry().counter("test.metrics.disabled");
        c.store(0);
        c.add(7);
        assert_eq!(c.get(), 0);
    }
}
