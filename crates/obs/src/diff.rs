//! Metrics regression gate: compare two registry [`Snapshot`]s.
//!
//! [`compare`] walks every counter, gauge, and quantile sketch in a
//! baseline and a current snapshot and classifies each metric by the
//! *symmetric relative difference* `|cur − base| / max(|base|, |cur|)`
//! against a configurable threshold. Sketches contribute four derived
//! entries each — `<name>.count`, `<name>.mean`, `<name>.p50`,
//! `<name>.p99` — so the gate catches tail regressions, and the
//! substring ignore list composes naturally into per-percentile
//! exemptions (`--ignore .p99`, `--ignore lat.p50`). The result renders
//! as a human-readable report and answers
//! [`DiffReport::has_regressions`], which is what `repro obs-diff` turns
//! into its exit code (and CI into a gate against a checked-in baseline).
//!
//! Policy choices, made for a *simulated* workload with some wall-clock
//! metrics mixed in:
//! * The gate is two-sided — an unexplained improvement is drift too, and
//!   drift is what invalidates a checked-in baseline.
//! * Metrics present on one side only are `Missing` (regression: the run
//!   stopped emitting something the baseline had) or `Added` (informational
//!   only — new instrumentation must not fail the gate retroactively).
//! * An ignore list of substrings exempts inherently nondeterministic
//!   metrics (e.g. wall-clock tokens/sec) without loosening the threshold
//!   for everything else.

use std::fmt::Write as _;

use crate::metrics::Snapshot;

/// How one metric compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within threshold.
    Ok,
    /// Relative change beyond threshold, or present only in the baseline.
    Regressed,
    /// Present only in the baseline (a species of regression).
    Missing,
    /// Present only in the current snapshot (informational).
    Added,
    /// Matched the ignore list; never fails the gate.
    Ignored,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Missing => "MISSING",
            Status::Added => "added",
            Status::Ignored => "ignored",
        }
    }

    /// Whether this status fails the gate.
    pub fn is_failure(self) -> bool {
        matches!(self, Status::Regressed | Status::Missing)
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Metric name; sketches contribute `<name>.count`, `<name>.mean`,
    /// `<name>.p50`, and `<name>.p99`.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"sketch"`.
    pub kind: &'static str,
    /// Baseline value (`None` for [`Status::Added`]).
    pub baseline: Option<f64>,
    /// Current value (`None` for [`Status::Missing`]).
    pub current: Option<f64>,
    /// Symmetric relative difference in `[0, 1]` (0 when either side is
    /// absent or both are zero).
    pub rel_change: f64,
    /// Classification of this metric's change.
    pub status: Status,
}

/// Gate configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffConfig {
    /// Maximum allowed symmetric relative difference (e.g. `0.25` = 25%).
    pub threshold: f64,
    /// Metrics whose name contains any of these substrings are [`Status::Ignored`].
    pub ignore: Vec<String>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            threshold: 0.25,
            ignore: Vec::new(),
        }
    }
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared metric, name-sorted within baseline order.
    pub entries: Vec<Entry>,
    /// The threshold the entries were judged against.
    pub threshold: f64,
}

impl DiffReport {
    /// True when any entry fails the gate.
    pub fn has_regressions(&self) -> bool {
        self.entries.iter().any(|e| e.status.is_failure())
    }

    /// Count of gate-failing entries.
    pub fn regression_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status.is_failure())
            .count()
    }

    /// Human-readable report: one line per metric, regressions first-class.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "obs-diff: {} metrics compared, threshold {:.1}%",
            self.entries.len(),
            self.threshold * 100.0
        );
        for e in &self.entries {
            let fmt = |v: Option<f64>| match v {
                Some(v) => format!("{v:.6}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  [{:>9}] {:<9} {:<44} {} -> {} ({:+.2}%)",
                e.status.label(),
                e.kind,
                e.name,
                fmt(e.baseline),
                fmt(e.current),
                signed_pct(e.baseline, e.current, e.rel_change),
            );
        }
        let failures = self.regression_count();
        if failures > 0 {
            let _ = writeln!(out, "obs-diff: FAIL — {failures} regression(s)");
        } else {
            let _ = writeln!(out, "obs-diff: PASS");
        }
        out
    }
}

fn signed_pct(baseline: Option<f64>, current: Option<f64>, rel: f64) -> f64 {
    let sign = match (baseline, current) {
        (Some(b), Some(c)) if c < b => -1.0,
        _ => 1.0,
    };
    sign * rel * 100.0
}

/// `|cur − base| / max(|base|, |cur|)`; 0 when both are (near) zero.
pub fn relative_difference(base: f64, cur: f64) -> f64 {
    let scale = base.abs().max(cur.abs());
    if scale < 1e-12 {
        0.0
    } else {
        (cur - base).abs() / scale
    }
}

/// Compares `current` against `baseline` under `config`.
pub fn compare(baseline: &Snapshot, current: &Snapshot, config: &DiffConfig) -> DiffReport {
    let mut entries = Vec::new();
    let ignored = |name: &str| config.ignore.iter().any(|s| name.contains(s.as_str()));

    let mut push = |name: String, kind: &'static str, base: Option<f64>, cur: Option<f64>| {
        let (rel, status) = if ignored(&name) {
            (0.0, Status::Ignored)
        } else {
            match (base, cur) {
                (Some(b), Some(c)) => {
                    let rel = relative_difference(b, c);
                    let status = if rel > config.threshold {
                        Status::Regressed
                    } else {
                        Status::Ok
                    };
                    (rel, status)
                }
                (Some(_), None) => (0.0, Status::Missing),
                (None, Some(_)) => (0.0, Status::Added),
                (None, None) => (0.0, Status::Ok),
            }
        };
        entries.push(Entry {
            name,
            kind,
            baseline: base,
            current: cur,
            rel_change: rel,
            status,
        });
    };

    for (name, &b) in &baseline.counters {
        push(
            name.clone(),
            "counter",
            Some(b as f64),
            current.counters.get(name).map(|&c| c as f64),
        );
    }
    for (name, &c) in &current.counters {
        if !baseline.counters.contains_key(name) {
            push(name.clone(), "counter", None, Some(c as f64));
        }
    }

    for (name, &b) in &baseline.gauges {
        push(
            name.clone(),
            "gauge",
            Some(b),
            current.gauges.get(name).copied(),
        );
    }
    for (name, &c) in &current.gauges {
        if !baseline.gauges.contains_key(name) {
            push(name.clone(), "gauge", None, Some(c));
        }
    }

    // Sketches compare by derived statistics — bucket-exact comparison
    // would make the gate flaky under any timing or float jitter. Count and
    // mean are exact, p50/p99 are α-bounded, and the `.p50`/`.p99` entry
    // names make per-percentile ignores a plain substring match.
    for (name, b) in &baseline.sketches {
        let cur = current.sketches.get(name);
        push(
            format!("{name}.count"),
            "sketch",
            Some(b.count() as f64),
            cur.map(|s| s.count() as f64),
        );
        push(
            format!("{name}.mean"),
            "sketch",
            Some(b.mean()),
            cur.map(|s| s.mean()),
        );
        push(
            format!("{name}.p50"),
            "sketch",
            Some(b.quantile(0.50)),
            cur.map(|s| s.quantile(0.50)),
        );
        push(
            format!("{name}.p99"),
            "sketch",
            Some(b.quantile(0.99)),
            cur.map(|s| s.quantile(0.99)),
        );
    }
    for (name, c) in &current.sketches {
        if !baseline.sketches.contains_key(name) {
            push(
                format!("{name}.count"),
                "sketch",
                None,
                Some(c.count() as f64),
            );
            push(format!("{name}.mean"), "sketch", None, Some(c.mean()));
            push(
                format!("{name}.p50"),
                "sketch",
                None,
                Some(c.quantile(0.50)),
            );
            push(
                format!("{name}.p99"),
                "sketch",
                None,
                Some(c.quantile(0.99)),
            );
        }
    }

    DiffReport {
        entries,
        threshold: config.threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{QuantileSketch, SketchConfig};

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            sketches: Default::default(),
        }
    }

    #[test]
    fn within_threshold_passes_beyond_fails() {
        let base = snap(&[("steps", 100)], &[("qps", 2.0)]);
        let ok = snap(&[("steps", 110)], &[("qps", 2.2)]);
        let cfg = DiffConfig {
            threshold: 0.25,
            ignore: Vec::new(),
        };
        assert!(!compare(&base, &ok, &cfg).has_regressions());

        let bad = snap(&[("steps", 100)], &[("qps", 1.0)]);
        let report = compare(&base, &bad, &cfg);
        assert!(report.has_regressions());
        let qps = report.entries.iter().find(|e| e.name == "qps").unwrap();
        assert_eq!(qps.status, Status::Regressed);
        assert!((qps.rel_change - 0.5).abs() < 1e-12, "{}", qps.rel_change);
        assert!(report.to_text().contains("FAIL"));
    }

    #[test]
    fn gate_is_two_sided() {
        let base = snap(&[], &[("latency", 1.0)]);
        let faster = snap(&[], &[("latency", 0.5)]);
        let cfg = DiffConfig::default();
        assert!(
            compare(&base, &faster, &cfg).has_regressions(),
            "unexplained improvement is drift"
        );
    }

    #[test]
    fn missing_fails_added_does_not() {
        let base = snap(&[("old", 1)], &[]);
        let cur = snap(&[("new", 1)], &[]);
        let report = compare(&base, &cur, &DiffConfig::default());
        let by_name = |n: &str| report.entries.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("old").status, Status::Missing);
        assert_eq!(by_name("new").status, Status::Added);
        assert!(report.has_regressions(), "missing is a regression");
        assert_eq!(report.regression_count(), 1, "added is not");
    }

    #[test]
    fn ignore_list_exempts_by_substring() {
        let base = snap(&[], &[("sim.train.tokens_per_sec", 1000.0)]);
        let cur = snap(&[], &[("sim.train.tokens_per_sec", 10.0)]);
        let cfg = DiffConfig {
            threshold: 0.25,
            ignore: vec!["tokens_per_sec".to_string()],
        };
        let report = compare(&base, &cur, &cfg);
        assert!(!report.has_regressions());
        assert_eq!(report.entries[0].status, Status::Ignored);
    }

    #[test]
    fn zero_to_zero_is_ok_and_sketches_compare_count_and_mean() {
        let sketch = |values: &[f64]| {
            let mut s = QuantileSketch::new(SketchConfig::default());
            values.iter().for_each(|&v| s.record(v));
            s
        };
        let mut base = snap(&[("idle", 0)], &[]);
        base.sketches.insert("lat".to_string(), sketch(&[5.0; 10]));
        let mut cur = snap(&[("idle", 0)], &[]);
        cur.sketches.insert(
            "lat".to_string(),
            sketch(&[[5.0; 9].as_slice(), &[6.0]].concat()),
        );
        let report = compare(&base, &cur, &DiffConfig::default());
        assert!(!report.has_regressions());
        let by_name = |n: &str| report.entries.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("idle").rel_change, 0.0, "zero to zero is no change");
        assert_eq!(by_name("lat.count").baseline, Some(10.0));
        assert_eq!(by_name("lat.mean").baseline, Some(5.0));
        assert_eq!(by_name("lat.mean").current, Some(5.1), "mean stays exact");
        assert_eq!(by_name("lat.p50").status, Status::Ok);
        assert_eq!(by_name("lat.p99").status, Status::Ok);

        // A starved (0%) share lands in the floor bucket and compares like
        // any other sample.
        let mut starved = snap(&[], &[]);
        starved
            .sketches
            .insert("share".to_string(), sketch(&[0.0, 50.0]));
        let report = compare(&starved, &starved.clone(), &DiffConfig::default());
        assert!(!report.has_regressions());
        assert_eq!(
            report
                .entries
                .iter()
                .find(|e| e.name == "share.mean")
                .unwrap()
                .current,
            Some(25.0)
        );
    }

    #[test]
    fn sketches_compare_percentiles_and_missing_fails() {
        let sketch = |tail: f64| {
            let mut s = QuantileSketch::new(SketchConfig::default());
            for _ in 0..98 {
                s.record(100.0);
            }
            s.record(tail);
            s.record(tail);
            s
        };
        let mut base = snap(&[], &[]);
        base.sketches
            .insert("serve.latency_us".to_string(), sketch(120.0));
        let mut cur = snap(&[], &[]);
        cur.sketches
            .insert("serve.latency_us".to_string(), sketch(9000.0));
        let report = compare(&base, &cur, &DiffConfig::default());
        let by_name = |n: &str| report.entries.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("serve.latency_us.count").status, Status::Ok);
        assert_eq!(by_name("serve.latency_us.p50").status, Status::Ok);
        assert_eq!(by_name("serve.latency_us.p99").status, Status::Regressed);
        assert_eq!(by_name("serve.latency_us.p99").kind, "sketch");

        // Per-percentile ignore is a plain substring match on the entry
        // name: exempt the tail without loosening anything else.
        let cfg = DiffConfig {
            threshold: 0.25,
            ignore: vec!["latency_us.p99".to_string(), "latency_us.mean".to_string()],
        };
        assert!(!compare(&base, &cur, &cfg).has_regressions());

        // A sketch present only in the baseline is a regression; one only
        // in the current snapshot is informational.
        let report = compare(&base, &snap(&[], &[]), &DiffConfig::default());
        assert_eq!(report.regression_count(), 4, "all four entries missing");
        let report = compare(&snap(&[], &[]), &cur, &DiffConfig::default());
        assert!(!report.has_regressions());
        assert!(report
            .entries
            .iter()
            .all(|e| e.status == Status::Added && e.kind == "sketch"));
    }
}
