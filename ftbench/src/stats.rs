//! Measurement helpers: a seeded generator, order statistics, the
//! equal-work window estimator, a span recorder, and process memory.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input is a pure function
/// of the workload seed and the benchmark depends on no RNG crate's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// A generator for item `index` of stream `seed`: items can be rebuilt
    /// out of order (the cold stream is regenerated for verification).
    pub fn at(seed: u64, index: u64) -> Self {
        let mut base = SplitMix(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Where timings are read across windows: the value met or bettered in
/// three windows of four. The host this was tuned on switches between a
/// fast and a slow phase for seconds at a time, and the fast phase's share
/// of a run varies from none to most of it, so a median flips between the
/// two levels; the upper quartile stays on the slow level unless it covers
/// under a quarter of the run.
pub const SUSTAINED: f64 = 0.75;

/// Equal-work windows of a timed phase. Each window holds the same amount
/// of work, so a quantile of window times is a rate estimate that a burst
/// shorter than its share of the run cannot move; per-window latency
/// percentiles are kept for the same reason.
#[derive(Debug, Default)]
pub struct Windows {
    /// Seconds per window.
    pub secs: Vec<f64>,
    /// Per-window median latency, microseconds.
    pub p50_us: Vec<f64>,
    /// Per-window 90th-percentile latency, microseconds.
    pub p90_us: Vec<f64>,
}

impl Windows {
    /// Records one window of `secs` with its per-operation latencies.
    pub fn push(&mut self, secs: f64, latencies_us: &[f64]) {
        self.secs.push(secs);
        self.p50_us.push(median(latencies_us));
        self.p90_us.push(quantile(latencies_us, 0.9));
    }

    /// Work per second: `work` per window over the sustained window time.
    pub fn rate(&self, work: f64) -> f64 {
        work / quantile(&self.secs, SUSTAINED)
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&self.p50_us, SUSTAINED)
    }

    pub fn p90_us(&self) -> f64 {
        quantile(&self.p90_us, SUSTAINED)
    }

    /// One line on the spread of window times, for the log.
    pub fn describe(&self) -> String {
        let q = |p| quantile(&self.secs, p) * 1e3;
        format!(
            "{} windows, ms p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3}",
            self.secs.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9)
        )
    }
}

/// Slowdown of traced windows over untraced ones, percent.
pub fn overhead_pct(plain: &Windows, traced: &Windows) -> f64 {
    (plain.rate(1.0) / traced.rate(1.0) - 1.0) * 100.0
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed duration minus the part covered by child spans.
    pub self_us: f64,
}

impl SpanTotals {
    pub fn mean_us(&self) -> f64 {
        self.total_us / self.count.max(1) as f64
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_us / self.count.max(1) as f64
    }
}

/// In-memory span recorder used by the traced run. Spans are recorded in
/// the benchmark's own code around calls into the program's public API.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = Some(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    fn duration_us(span: &Span) -> f64 {
        let end = span.end.expect("every span is closed before summarizing");
        end.duration_since(span.start).as_secs_f64() * 1e6
    }

    /// Totals per span name, with self time = duration − children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += Self::duration_us(span);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_us) {
            let dur = Self::duration_us(span);
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_us += dur;
            entry.self_us += dur - children;
        }
        totals
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_window_ignores_bursts_shorter_than_their_share() {
        let run = |slow_windows: std::ops::Range<usize>, fast_windows: std::ops::Range<usize>| {
            let mut w = Windows::default();
            for i in 0..100 {
                let jitter = (i % 7) as f64 * 1e-5;
                let secs = if slow_windows.contains(&i) {
                    0.030
                } else if fast_windows.contains(&i) {
                    0.006
                } else {
                    0.010 + jitter
                };
                w.push(secs, &[secs * 1e6]);
            }
            w
        };
        let steady = run(0..0, 0..0);
        // A slow burst over 24 windows of 100, a fast one over 70.
        for bursty in [run(10..34, 0..0), run(0..0, 20..90)] {
            assert!((bursty.rate(256.0) / steady.rate(256.0) - 1.0).abs() < 0.01);
            assert!((bursty.p50_us() / steady.p50_us() - 1.0).abs() < 0.01);
        }
        // A mean-based rate would have moved by over 30%.
        assert!(mean(&run(10..34, 0..0).secs) > 1.3 * mean(&steady.secs));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let parent = t.begin("parent", None);
        t.span("child", Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(parent);
        let totals = t.totals();
        let (p, c) = (totals["parent"], totals["child"]);
        assert!(c.total_us >= 2000.0);
        assert!((p.total_us - p.self_us - c.total_us).abs() < 1e-6);
    }

    #[test]
    fn generator_is_a_pure_function_of_seed_and_index() {
        let a: Vec<u64> = (0..4).map(|i| SplitMix::at(7, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| SplitMix::at(7, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(SplitMix::at(7, 0).next_u64(), SplitMix::at(8, 0).next_u64());
    }
}
