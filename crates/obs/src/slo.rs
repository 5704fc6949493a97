//! SLO definitions and burn-rate evaluation over rolling windows.
//!
//! An [`SloSpec`] pins a latency series to a target: "p99 of
//! `serve.latency_us` stays under `target_p99`, with at most
//! `error_budget` of requests allowed over the target". Evaluation is pure
//! arithmetic over the series' sketches ([`mod@crate::timeseries`]):
//!
//! * `violations` — samples whose sketch bucket lies above the target
//!   ([`crate::sketch::QuantileSketch::count_above`]; exact up to bucket
//!   resolution, i.e. a sample within `α` of the target may land on either
//!   side).
//! * `burn_rate` — `(violations / count) / error_budget`: the rate at
//!   which the error budget is being consumed. `1.0` means "spending
//!   budget exactly as fast as allowed"; above `1.0` the SLO will be
//!   breached if the window's behavior persists; `0.0` means no
//!   violations at all. Evaluated per rolling window (fast-burn alerts
//!   come from short windows, slow burns from long ones) and cumulatively.
//!
//! The cumulative status is what the serving gate test checks against
//! `baselines/serve_slo.json`: wall-clock noise moves windowed counts, but
//! a healthy deterministic run has cumulative `violations == 0` and
//! `burn_rate == 0` exactly.

use crate::timeseries::WindowedSeries;

/// An SLO over a latency series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// SLO name (used in `stats`/exposition output).
    pub name: String,
    /// The windowed series the SLO is evaluated against.
    pub series: String,
    /// Latency target, same unit as the series' samples (µs for the serve
    /// latency series): a sample above this is a violation.
    pub target_p99: f64,
    /// Fraction of samples allowed over the target (e.g. `0.001` = 99.9%
    /// of requests must meet the target).
    pub error_budget: f64,
}

impl SloSpec {
    /// A serve-latency SLO: `p99(series) <= target_p99_us` for
    /// `1 - error_budget` of requests.
    pub fn latency(series: &str, target_p99_us: f64, error_budget: f64) -> SloSpec {
        SloSpec {
            name: format!("{series}.p99"),
            series: series.to_string(),
            target_p99: target_p99_us,
            error_budget: error_budget.max(f64::MIN_POSITIVE),
        }
    }

    /// Evaluates the SLO against `series` as of `now_ns`: one status per
    /// rolling window (in configuration order) plus the cumulative status
    /// (window label `"total"`) last.
    pub fn evaluate_at(&self, series: &WindowedSeries, now_ns: u64) -> Vec<SloStatus> {
        let mut out = Vec::new();
        for window in series.window_names() {
            if let Some(sketch) = series.window_sketch_at(window, now_ns) {
                out.push(self.status_for(window, &sketch));
            }
        }
        out.push(self.status_for("total", series.total_sketch()));
        out
    }

    fn status_for(&self, window: &str, sketch: &crate::sketch::QuantileSketch) -> SloStatus {
        let count = sketch.count();
        let violations = sketch.count_above(self.target_p99);
        let violation_rate = if count == 0 {
            0.0
        } else {
            violations as f64 / count as f64
        };
        let burn_rate = violation_rate / self.error_budget;
        SloStatus {
            window: window.to_string(),
            count,
            violations,
            p99: sketch.quantile(0.99),
            burn_rate,
            healthy: burn_rate <= 1.0,
        }
    }
}

/// The evaluated state of an SLO over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Window label (`"total"` for the cumulative status).
    pub window: String,
    /// Samples in the window.
    pub count: u64,
    /// Samples over the target (bucket-resolution exact).
    pub violations: u64,
    /// Observed p99 in the window (α-bounded).
    pub p99: f64,
    /// Budget burn rate (`0` = clean, `1` = spending exactly the budget,
    /// `>1` = on track to breach).
    pub burn_rate: f64,
    /// `burn_rate <= 1`.
    pub healthy: bool,
}

impl SloSpec {
    /// Appends Prometheus-style burn/violation lines for `statuses` to
    /// `out` (deterministic order: statuses as produced by
    /// [`SloSpec::evaluate_at`]).
    pub fn render_into(&self, out: &mut String, statuses: &[SloStatus]) {
        let metric = crate::timeseries::prometheus_name(&self.name);
        out.push_str("# TYPE slo_");
        out.push_str(&metric);
        out.push_str("_burn_rate gauge\n");
        for s in statuses {
            out.push_str("slo_");
            out.push_str(&metric);
            out.push_str("_burn_rate{window=\"");
            out.push_str(&s.window);
            out.push_str("\"} ");
            out.push_str(&crate::chrome::format_json_f64(s.burn_rate));
            out.push('\n');
        }
        out.push_str("# TYPE slo_");
        out.push_str(&metric);
        out.push_str("_violations counter\n");
        for s in statuses {
            out.push_str("slo_");
            out.push_str(&metric);
            out.push_str("_violations{window=\"");
            out.push_str(&s.window);
            out.push_str("\"} ");
            out.push_str(&s.violations.to_string());
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::WindowedSeries;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn clean_series_has_zero_burn_everywhere() {
        let mut series = WindowedSeries::with_defaults();
        for i in 0..1000u64 {
            series.record_at(i * 1_000_000, 50.0 + (i % 7) as f64);
        }
        let slo = SloSpec::latency("serve.latency_us", 1000.0, 0.001);
        let statuses = slo.evaluate_at(&series, SEC);
        assert_eq!(statuses.len(), 4, "three windows + total");
        assert_eq!(statuses.last().unwrap().window, "total");
        for s in &statuses {
            assert_eq!(s.violations, 0);
            assert_eq!(s.burn_rate, 0.0);
            assert!(s.healthy);
        }
        assert_eq!(statuses.last().unwrap().count, 1000);
    }

    #[test]
    fn violations_burn_the_budget_at_the_documented_rate() {
        let mut series = WindowedSeries::with_defaults();
        // 990 fast + 10 slow out of 1000 with a 1% budget: violation rate
        // 1%, burn exactly 1.0 (healthy boundary).
        for i in 0..1000u64 {
            let v = if i % 100 == 0 { 50_000.0 } else { 80.0 };
            series.record_at(i * 1_000_000, v);
        }
        let slo = SloSpec::latency("serve.latency_us", 1000.0, 0.01);
        let total = slo.evaluate_at(&series, SEC).pop().unwrap();
        assert_eq!(total.violations, 10);
        assert!((total.burn_rate - 1.0).abs() < 1e-9);
        assert!(total.healthy);
        // Halve the budget: burn 2.0, unhealthy.
        let strict = SloSpec::latency("serve.latency_us", 1000.0, 0.005);
        let total = strict.evaluate_at(&series, SEC).pop().unwrap();
        assert!((total.burn_rate - 2.0).abs() < 1e-9);
        assert!(!total.healthy);
        assert!(total.p99 < 1000.0, "p99 itself is still under target");
    }

    #[test]
    fn windowed_burn_reflects_only_recent_samples() {
        let mut series = WindowedSeries::with_defaults();
        // Violations only in the first second; clean traffic at t=30s.
        for i in 0..10u64 {
            series.record_at(i * 1_000_000, 10_000.0);
        }
        for i in 0..10u64 {
            series.record_at(30 * SEC + i * 1_000_000, 10.0);
        }
        let slo = SloSpec::latency("serve.latency_us", 1000.0, 0.001);
        let statuses = slo.evaluate_at(&series, 30 * SEC + SEC / 2);
        let by_window = |w: &str| statuses.iter().find(|s| s.window == w).unwrap().clone();
        assert_eq!(by_window("1s").violations, 0, "old burst rolled out");
        assert_eq!(by_window("10s").violations, 0);
        assert_eq!(by_window("60s").violations, 10, "still in the 60s window");
        assert_eq!(by_window("total").violations, 10);
        assert!(!by_window("total").healthy);
    }

    #[test]
    fn exposition_lines_are_deterministic() {
        let mut series = WindowedSeries::with_defaults();
        series.record_at(0, 5.0);
        let slo = SloSpec::latency("serve.latency_us", 1000.0, 0.001);
        let statuses = slo.evaluate_at(&series, SEC);
        let mut a = String::new();
        slo.render_into(&mut a, &statuses);
        let mut b = String::new();
        slo.render_into(&mut b, &statuses);
        assert_eq!(a, b);
        assert!(a.contains("# TYPE slo_serve_latency_us_p99_burn_rate gauge\n"));
        assert!(a.contains("slo_serve_latency_us_p99_burn_rate{window=\"total\"} 0.0\n"));
        assert!(a.contains("slo_serve_latency_us_p99_violations{window=\"1s\"} 0\n"));
    }
}
