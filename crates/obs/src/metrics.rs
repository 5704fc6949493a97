//! Global metrics registry: named counters, gauges, and quantile sketches.
//!
//! Metrics are created on first use and live for the process. The cheap way
//! to update a hot metric is to hold a handle ([`Counter`], [`Gauge`],
//! [`Sketch`]) — updates through a handle are lock-free atomic ops. The
//! name-based free functions ([`Registry::counter_add`] etc.) look the
//! handle up under a registry lock each call and are meant for cold paths.
//!
//! Every value distribution is a sketch ([`crate::sketch`]): it answers
//! arbitrary quantiles with a bounded relative error, keeps count and sum
//! exact, and merges exactly.
//!
//! [`Registry::snapshot`] captures all current values; [`Snapshot::diff`]
//! subtracts an earlier snapshot (counters and sketches subtract, gauges
//! keep the later value) so a caller can meter exactly one region of work.
//! Snapshots export to JSON by hand (no dependencies).

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

/// Registry of metrics, keyed by name.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
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

    /// Returns (creating if needed) the quantile sketch named `name`.
    /// Sketches use the process-wide default [`SketchConfig`] (1% relative
    /// error over `[1e-3, 1e9]`, which spans µs latencies and percent
    /// shares alike) so any two sketches merge; the scheme is fixed at
    /// creation.
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
    /// first use.
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
        for s in self.sketches.lock().expect("sketch map").values() {
            s.reset();
        }
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values keyed by name.
    pub gauges: BTreeMap<String, f64>,
    /// Quantile-sketch state keyed by name (empty for snapshots parsed from
    /// files written before sketches existed).
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl Snapshot {
    /// `self - earlier`: counters and sketches subtract (saturating at
    /// zero for counts); gauges keep `self`'s value. Metrics absent from
    /// `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
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
            sketches,
        }
    }

    /// Renders the snapshot as a compact JSON object:
    /// `{"counters":{...},"gauges":{...},"sketches":{...}}`.
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
    fn counters_gauges_sketches_record_and_diff() {
        let _g = test_lock();
        crate::enable();
        let c = registry().counter("test.metrics.counter");
        let g = registry().gauge("test.metrics.gauge");
        let s = registry().sketch("test.metrics.sketch");
        c.store(0);
        s.reset();
        let before = registry().snapshot();
        c.add(3);
        g.set(2.5);
        s.record(0.5);
        s.record(5.0);
        // Name-based recording reaches the same handle.
        registry().sketch_record("test.metrics.sketch", 100.0);
        crate::disable();
        let after = registry().snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counters["test.metrics.counter"], 3);
        assert_eq!(d.gauges["test.metrics.gauge"], 2.5);
        let ds = &d.sketches["test.metrics.sketch"];
        assert_eq!(ds.count(), 3);
        assert!((ds.sum() - 105.5).abs() < 1e-12);
        assert!((ds.mean() - 105.5 / 3.0).abs() < 1e-12);
        assert!((ds.quantile(0.5) - 5.0).abs() <= 5.0 * 0.01 + 1e-9);
        let json = after.to_json_string();
        assert!(json.contains("\"sketches\":{\"test.metrics.sketch\":{\"alpha\":0.01"));
        assert!(json.contains("\"count\":3"));
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
        let mut sketch = QuantileSketch::new(SketchConfig::default());
        sketch.record(0.5);
        a.sketches.insert("s.two".to_string(), sketch.clone());
        a.sketches.insert("s.one".to_string(), sketch.clone());
        b.sketches.insert("s.one".to_string(), sketch.clone());
        b.sketches.insert("s.two".to_string(), sketch);

        let json = a.to_json_string();
        assert_eq!(json, b.to_json_string(), "insertion order must not leak");
        let pos = |needle: &str| {
            json.find(needle)
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        assert!(pos("a.first") < pos("m.mid"));
        assert!(pos("m.mid") < pos("z.last"));
        assert!(pos("g.a") < pos("g.b"));
        assert!(pos("s.one") < pos("s.two"));
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
