//! The repository benchmark: end-to-end and per-layer numbers for sparse
//! MoE fine-tuning and for the planner service under hot and cold traffic.
//!
//! ```text
//! cargo run --release --manifest-path ftbench/Cargo.toml -- \
//!     --workload finetune-sparse --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports every per-layer metric. The line before it
//! is the host block. See `ftbench/README.md` for the method.

mod finetune;
mod serve;
mod stats;

use std::process::ExitCode;

use serde_json::{json, Value};

/// Threads a workload keeps busy: one training thread, or one client and
/// one server connection thread, which a depth-1 closed loop never runs at
/// the same time.
const TRAIN_THREADS: usize = 1;
const SERVE_THREADS: usize = 2;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and how many of its operations were checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another report's operation counts into this one.
    pub fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn to_json(&self) -> Value {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        json!({
            "correct": finite && self.attempted > 0 && self.failed == 0,
            "attempted": self.attempted as i64,
            "failed": self.failed as i64,
            "metrics": Value::Object(metrics),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FinetuneSparse,
    ServeHot,
    ServeCold,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("finetune-sparse", Workload::FinetuneSparse),
        ("serve-hot", Workload::ServeHot),
        ("serve-cold", Workload::ServeCold),
    ];

    fn parse(name: &str) -> Result<Workload, String> {
        Self::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }

    fn threads(self) -> usize {
        match self {
            Workload::FinetuneSparse => TRAIN_THREADS,
            Workload::ServeHot | Workload::ServeCold => SERVE_THREADS,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: ftbench --workload <finetune-sparse|serve-hot|serve-cold> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where and how the numbers were taken. Results from different hosts or
/// settings must not be compared silently.
fn host_block(args: &Args, nproc: usize, pinned_cpu: Option<usize>) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FTSIM_"))
        .collect();
    env.sort();
    let env = env
        .into_iter()
        .map(|(k, v)| (k, Value::String(v)))
        .collect();
    json!({"host": json!({
        "nproc": nproc as i64,
        "cpu_model": cpu,
        "simd_active": ftsim_tensor::simd::active(),
        "ftsim_env": Value::Object(env),
        "worker_threads": args.workload.threads() as i64,
        "pinned_cpu": pinned_cpu,
        "tensor_threads": ftsim_tensor::parallel::thread_count() as i64,
        "workload": args.workload.name(),
        "seed": args.seed as i64,
        "seconds": args.seconds as i64,
        "trace": args.trace,
    })})
}

/// Pins this thread, and so every thread it starts later, to the first CPU
/// it may run on. Each workload has at most one runnable thread at a time
/// (a closed loop of depth 1 alternates between client and server), and on
/// a VM a wake-up that crosses to another vCPU costs tens of microseconds
/// with a wide spread. Returns the CPU, or `None` where pinning failed.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable and exactly `cpusetsize` bytes long;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64).find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly `cpusetsize` bytes long; pid 0
    // is the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    pinned.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn run(args: &Args) -> std::io::Result<Report> {
    let seconds = args.seconds as f64;
    let (seed, home) = (args.seed, args.workload);
    if !args.trace {
        return match home {
            Workload::FinetuneSparse => Ok(finetune::run(seed, seconds, false)),
            Workload::ServeHot => serve::run_hot(seed, seconds, false),
            Workload::ServeCold => serve::run_cold(seed, seconds, false),
        };
    }
    // Traced: the home workload's timed phase with tracing on in every
    // other window (its end-to-end number and the tracing overhead), then
    // the fixed-work layer probes of every stack.
    let mut report = match home {
        Workload::FinetuneSparse => finetune::run(seed, seconds, true),
        Workload::ServeHot => serve::run_hot(seed, seconds, true)?,
        Workload::ServeCold => serve::run_cold(seed, seconds, true)?,
    };
    for probe in [
        finetune::probe(seed),
        serve::probe_hot(seed)?,
        serve::probe_cold(seed)?,
    ] {
        report.absorb_counts(&probe);
        report.metrics.extend(probe.metrics);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ftbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = pin_to_one_cpu();
    match run(&args) {
        Ok(report) => {
            println!("{}", host_block(&args, nproc, pinned_cpu));
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ftbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload serve-cold --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ServeCold,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn report_is_correct_only_without_failures() {
        let mut r = Report::default();
        assert_eq!(
            r.to_json().get("correct").cloned().unwrap(),
            Value::Bool(false)
        );
        r.check(true);
        r.metric("x", 1.5, "ms");
        assert_eq!(
            r.to_json().get("correct").cloned().unwrap(),
            Value::Bool(true)
        );
        r.check(false);
        assert_eq!(
            r.to_json().get("correct").cloned().unwrap(),
            Value::Bool(false)
        );
    }
}
