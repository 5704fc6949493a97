//! The serving gates: a seeded, closed-loop query stream against an
//! in-process planner server must reproduce the checked-in metric
//! baselines exactly.
//!
//! * Smoke: 1 connection, 20,000 requests, default SLO. The server's
//!   `stats` answer is diffed at threshold 0 against
//!   `baselines/serve_baseline.json`; only the wall-clock sketch moments
//!   (`.mean`, `.p50`, `.p99`) are ignored.
//! * Soak: 4 connections, 200,000 requests, a lenient 5 s p99 target. The
//!   cumulative SLO window is diffed at threshold 0 against
//!   `baselines/serve_slo.json`: every request counted, zero violations,
//!   zero burn.
//!
//! Per-connection request counts and query streams are fixed by the seed,
//! so cache and request counters come out exact whatever the thread
//! schedule. This is the only test in its binary: the metric registry and
//! the time series are global to the process, so anything running beside
//! it would add to the counters compared here.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use ftsim_experiments::cli::{load_snapshot, snapshot_from_json};
use ftsim_obs::{DiffConfig, Snapshot};
use ftsim_serve::{ServeConfig, Server};
use serde_json::Value;

const SEED: u64 = 42;
/// Distinct scenarios the queries are drawn from.
const SCENARIOS: usize = 24;
/// Requests per write.
const PIPELINE: usize = 32;

/// Multiplicative LCG (Knuth MMIX constants), one state per connection.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Maps a roll onto a query kind, `plan : estimate : sweep` = 8 : 3 : 1.
fn pick(roll: u64) -> usize {
    match roll % 12 {
        0..=7 => 0,
        8..=10 => 1,
        _ => 2,
    }
}

/// The scenario universe: each scenario as a plan, estimate and sweep
/// request line.
fn universe() -> Vec<[String; 3]> {
    let gpus = ["a40", "a100-40", "a100-80", "h100-80"];
    let datasets = ["cs", "math", "he", "gs", "oo"];
    let models = ["mixtral-8x7b", "blackmamba-2.8b"];
    (0..SCENARIOS)
        .map(|i| {
            let gpu = gpus[i % gpus.len()];
            let dataset = datasets[(i / gpus.len()) % datasets.len()];
            let model = models[(i / (gpus.len() * datasets.len())) % models.len()];
            let body = format!(r#""model":"{model}","gpu":"{gpu}","dataset":"{dataset}""#);
            ["plan", "estimate", "sweep"].map(|q| format!(r#"{{"query":"{q}",{body}}}"#))
        })
        .collect()
}

/// Sends `count` requests drawn from `rng` over one connection,
/// [`PIPELINE`] per write, and returns how many were answered with an error.
fn drive(addr: SocketAddr, universe: &[[String; 3]], mut rng: u64, count: usize) -> usize {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let (mut errors, mut sent) = (0, 0);
    let (mut batch, mut line) = (String::new(), String::new());
    while sent < count {
        let depth = PIPELINE.min(count - sent);
        batch.clear();
        for _ in 0..depth {
            let kind = pick(lcg_next(&mut rng));
            let scenario = lcg_next(&mut rng) as usize % universe.len();
            batch.push_str(&universe[scenario][kind]);
            batch.push('\n');
        }
        stream.write_all(batch.as_bytes()).expect("send batch");
        for _ in 0..depth {
            line.clear();
            assert!(
                reader.read_line(&mut line).expect("read") > 0,
                "server closed mid-batch"
            );
            errors += usize::from(line.starts_with(r#"{"ok":false"#));
        }
        sent += depth;
    }
    errors
}

/// Starts a server, spreads `requests` over `connections` with fixed
/// per-connection quotas and seeds, asserts no answer was an error, then
/// asks for `stats` on a fresh connection and shuts the server down.
/// Returns the `stats` answer line.
fn run(connections: usize, requests: usize, config: ServeConfig) -> String {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let universe = universe();
    let errors: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|w| {
                let count = requests / connections + usize::from(w < requests % connections);
                let seed = SEED
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(w as u64 + 1);
                let universe = &universe;
                scope.spawn(move || drive(addr, universe, seed, count))
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    assert_eq!(errors, 0, "answers with \"ok\":false");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (&stream)
        .write_all(b"{\"query\":\"stats\"}\n")
        .expect("send stats");
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("read stats");
    drop((reader, stream));
    server.shutdown();
    stats
}

/// Fails with the full report when `current` differs from the baseline
/// file beyond `config`.
fn gate(baseline: &str, current: &Snapshot, config: &DiffConfig) {
    let path = format!("{}/../../baselines/{baseline}", env!("CARGO_MANIFEST_DIR"));
    let report = ftsim_obs::compare(&load_snapshot(&path).expect("baseline"), current, config);
    assert!(
        !report.has_regressions(),
        "{baseline}: {} regression(s)\n{}",
        report.regression_count(),
        report.to_text()
    );
}

/// Projects the cumulative (`total`) SLO window of a `stats` answer onto
/// the four keys of `baselines/serve_slo.json`. Rolling windows move with
/// wall-clock time; the cumulative one is exact.
fn slo_total(stats: &str) -> Snapshot {
    let stats: Value = serde_json::from_str(stats.trim()).expect("stats answer is JSON");
    let Some(Value::Array(windows)) = stats.get("slo").and_then(|s| s.get("windows")) else {
        panic!("stats carry no SLO windows: {stats:?}");
    };
    let total = windows
        .iter()
        .find(|w| matches!(w.get("window"), Some(Value::String(s)) if s == "total"))
        .expect("a total SLO window");
    let number = |key: &str| match total.get(key) {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Float(x)) => *x,
        other => panic!("total.{key}: {other:?}"),
    };
    let mut snapshot = Snapshot::default();
    let unhealthy = total.get("healthy") != Some(&Value::Bool(true));
    for (name, value) in [
        ("count", number("count") as u64),
        ("violations", number("violations") as u64),
        ("unhealthy", u64::from(unhealthy)),
    ] {
        snapshot
            .counters
            .insert(format!("serve.slo.total.{name}"), value);
    }
    snapshot
        .gauges
        .insert("serve.slo.total.burn_rate".to_string(), number("burn_rate"));
    snapshot
}

#[test]
fn serve_smoke_and_soak_match_their_baselines_exactly() {
    ftsim_obs::enable();

    let smoke = run(1, 20_000, ServeConfig::default());
    let exact_but_timing = DiffConfig {
        threshold: 0.0,
        ignore: [".mean", ".p50", ".p99"].map(String::from).to_vec(),
    };
    gate(
        "serve_baseline.json",
        &snapshot_from_json(&smoke).expect("stats answer parses"),
        &exact_but_timing,
    );

    // The soak starts from an empty registry and time series.
    ftsim_obs::reset();
    let soak = run(
        4,
        200_000,
        ServeConfig {
            slo_target_p99_us: 5_000_000.0,
            ..ServeConfig::default()
        },
    );
    let exact = DiffConfig {
        threshold: 0.0,
        ignore: Vec::new(),
    };
    gate("serve_slo.json", &slo_total(&soak), &exact);
}
