//! `ftsim-obs` — observability substrate for the ftsim workspace.
//!
//! The source paper is a *characterization* study: its headline artifacts are
//! Nsight-Compute execution-time breakdowns, SM/DRAM utilization curves, and
//! per-expert token distributions. This crate is the reproduction's measurement
//! substrate — the simulated analogue of the paper's profiling toolchain —
//! and the self-profiling harness for the repo's own hot paths:
//!
//! * [`fn@span`] / [`SpanGuard`] — thread-local RAII span tracing with nesting,
//!   monotonic timestamps, and stable thread ids. Recorded spans serialize to
//!   Chrome Trace Event JSON ([`chrome::ChromeTrace`], loadable in Perfetto or
//!   `chrome://tracing`) and aggregate into an in-process tree
//!   ([`tree::SpanTree`]).
//! * [`metrics`] — a global registry of named counters, gauges, and
//!   quantile sketches with a snapshot/diff API and JSON export.
//! * [`sketch`] — the one distribution type: a log-bucketed quantile
//!   sketch with a bounded relative error that merges exactly.
//! * [`diff`] — a thresholded regression gate over two metric snapshots.
//! * [`mod@timeseries`] / [`slo`] — windowed quantile series and SLO burn rates,
//!   rendered as a Prometheus-style exposition for live server state.
//!
//! # Cost discipline
//!
//! Observability is **off by default** and every recording entry point starts
//! with [`enabled()`], a single relaxed atomic load behind `#[inline]` — the
//! disabled path is branch-predictable and allocation-free (guarded by a
//! bench-style test in `tests/overhead.rs`).
//!
//! No external dependencies: JSON is emitted by hand (the workspace's vendored
//! `serde_json` is used only in tests, to parse the output back).
#![deny(missing_docs)]

pub mod chrome;
pub mod diff;
pub mod metrics;
pub mod sketch;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod tree;

pub use chrome::ChromeTrace;
pub use diff::{compare, DiffConfig, DiffReport};
pub use metrics::{registry, Counter, Gauge, Registry, Snapshot};
pub use sketch::{QuantileSketch, Sketch, SketchConfig};
pub use slo::{SloSpec, SloStatus};
pub use span::{drain_events, span, span_lazy, Event, SpanGuard};
pub use timeseries::{
    default_windows, timeseries, SeriesHandle, TimeSeriesRegistry, WindowSpec, WindowStats,
    WindowedSeries,
};
pub use tree::SpanTree;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when recording is runtime-enabled.
///
/// This is the gate every recording entry point checks first; it is a single
/// relaxed atomic load, so leaving instrumentation in hot paths costs one
/// predictable branch when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded events and metric values persist
/// until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded spans, all registered metric values, and all
/// windowed time-series.
pub fn reset() {
    span::clear_events();
    metrics::registry().reset();
    timeseries::timeseries().reset();
}

/// Serializes unit tests that toggle the process-global enable flag.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        // Tests share the process-global flag, so restore state.
        let was = enabled();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        if !was {
            disable();
        }
    }
}
