//! Argument parsing and snapshot I/O for the `repro` binary.
//!
//! Parsing is up-front and strict: an unknown flag or experiment id is a
//! [`Err`] carrying the full valid-id list, which `main` prints before
//! exiting nonzero — nothing is deferred to fail (or silently no-op) after
//! experiments have already started running.

use ftsim_obs::metrics::HistogramSnapshot;
use ftsim_obs::{DiffConfig, QuantileSketch, SketchConfig, Snapshot};
use ftsim_serve::ServeConfig;
use serde_json::Value;

use crate::{experiment_ids, extra_experiment_ids};

/// One-screen usage text (the id lists are appended by [`usage`]).
pub const USAGE: &str = "usage: repro [--list] [--out DIR] <all | id...>
       repro cluster
           distributed-simulator cost table over GPU type x world size x
           {data,tensor,expert} parallelism; writes results/cluster_costs.json
           plus cluster_metrics.json (obs-diff gate input)
       repro alltoall
           expert-parallel all-to-all sensitivity sweep across link tiers,
           world sizes, and routing density (top-2 vs dense)
       repro obs-diff <baseline.json> <current.json>
                      [--threshold FRACTION] [--ignore SUBSTR]...
           compare metric snapshots (counters, gauges, histogram/sketch
           count+mean+p50+p99); exit 1 on regression
       repro serve [--addr HOST:PORT] [--cache-capacity N] [--shards N]
                   [--slo-target-p99-us US] [--slo-error-budget FRACTION]
           answer plan/estimate/sweep queries over a line protocol
           (one JSON scenario per line; {\"query\":\"shutdown\"} stops it,
           {\"query\":\"metrics\"} answers a Prometheus-style exposition
           ending with `# EOF`)";

/// Usage text plus the valid experiment ids.
pub fn usage() -> String {
    format!("{USAGE}\n{}", valid_ids_help())
}

fn valid_ids_help() -> String {
    format!(
        "valid ids: {}\nextra ids (not in `all`): {}",
        experiment_ids().join(" "),
        extra_experiment_ids().join(" ")
    )
}

/// A fully validated `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage and exit with this code.
    Help { exit_code: i32 },
    /// Print every experiment id.
    List,
    /// Run experiments.
    Run { ids: Vec<String>, out_dir: String },
    /// Metrics regression gate over two snapshot files.
    ObsDiff {
        baseline: String,
        current: String,
        config: DiffConfig,
    },
    /// Long-running planner-as-a-service TCP server.
    Serve { config: ServeConfig },
}

/// Parses `args` (without the program name). Errors are user-facing
/// messages that already include the valid-id list where relevant.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.is_empty() {
        return Ok(Command::Help { exit_code: 2 });
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help { exit_code: 0 });
    }
    if args[0] == "obs-diff" {
        return parse_obs_diff(&args[1..]);
    }
    if args[0] == "serve" {
        return parse_serve(&args[1..]);
    }

    let valid = experiment_ids();
    let extra = extra_experiment_ids();
    let mut out_dir = String::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--out" => {
                out_dir = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--out requires a directory".to_string())?;
            }
            "all" => {
                for id in &valid {
                    if !ids.iter().any(|i| i == id) {
                        ids.push(id.to_string());
                    }
                }
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}\n{}", usage()));
            }
            id => {
                if !valid.contains(&id) && !extra.contains(&id) {
                    return Err(format!(
                        "unknown experiment id {id:?}\n{}",
                        valid_ids_help()
                    ));
                }
                if !ids.iter().any(|i| i == id) {
                    ids.push(id.to_string());
                }
            }
        }
    }
    if list {
        return Ok(Command::List);
    }
    if ids.is_empty() {
        return Err(format!("no experiments selected\n{}", valid_ids_help()));
    }
    Ok(Command::Run { ids, out_dir })
}

fn parse_obs_diff(args: &[String]) -> Result<Command, String> {
    let mut config = DiffConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--threshold requires a value".to_string())?;
                let t: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid threshold {v:?} (want a fraction, e.g. 0.25)"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(format!("threshold must be a nonnegative fraction, got {v}"));
                }
                config.threshold = t;
            }
            "--ignore" => {
                let s = it
                    .next()
                    .ok_or_else(|| "--ignore requires a substring".to_string())?;
                config.ignore.push(s.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown obs-diff flag {flag:?}\n{USAGE}"));
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "obs-diff requires exactly <baseline.json> <current.json>, got {} path(s)\n{USAGE}",
            paths.len()
        ));
    }
    let current = paths.pop().expect("len 2");
    let baseline = paths.pop().expect("len 2");
    Ok(Command::ObsDiff {
        baseline,
        current,
        config,
    })
}

/// Parses a flag value that must be a positive integer.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    v: Option<&String>,
) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} requires a value"))?;
    let n: T = v
        .parse()
        .map_err(|_| format!("invalid {flag} value {v:?} (want a positive integer)"))?;
    if n < T::from(1u8) {
        return Err(format!("{flag} must be at least 1, got {v}"));
    }
    Ok(n)
}

/// Parses a flag value that must be a positive finite float.
fn positive_f64(flag: &str, v: Option<&String>) -> Result<f64, String> {
    let v = v.ok_or_else(|| format!("{flag} requires a value"))?;
    let n: f64 = v
        .parse()
        .map_err(|_| format!("invalid {flag} value {v:?} (want a positive number)"))?;
    if !n.is_finite() || n <= 0.0 {
        return Err(format!("{flag} must be a positive number, got {v}"));
    }
    Ok(n)
}

fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--addr requires HOST:PORT".to_string())?;
            }
            "--cache-capacity" => {
                config.cache_capacity = positive("--cache-capacity", it.next())?;
            }
            "--shards" => config.shards = positive("--shards", it.next())?,
            "--slo-target-p99-us" => {
                config.slo_target_p99_us = positive_f64("--slo-target-p99-us", it.next())?;
            }
            "--slo-error-budget" => {
                let budget = positive_f64("--slo-error-budget", it.next())?;
                if budget >= 1.0 {
                    return Err(format!(
                        "--slo-error-budget must be a fraction below 1, got {budget}"
                    ));
                }
                config.slo_error_budget = budget;
            }
            other => return Err(format!("unknown serve argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Command::Serve { config })
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// Locates the registry-export object inside `doc`: either the document
/// itself, or nested under `metrics` / `summary.metrics` (so both
/// `profile_metrics.json` and `profile.json` work as gate inputs).
fn find_metrics(doc: &Value) -> Option<&Value> {
    if doc.get("counters").is_some() {
        return Some(doc);
    }
    [
        doc.get("metrics"),
        doc.get("summary").and_then(|s| s.get("metrics")),
    ]
    .into_iter()
    .flatten()
    .find(|nested| nested.get("counters").is_some())
}

/// Parses a [`Snapshot`] back from its JSON export
/// ([`Snapshot::to_json_string`]) or from a document embedding one.
pub fn snapshot_from_json(text: &str) -> Result<Snapshot, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let metrics = find_metrics(&doc).ok_or_else(|| {
        "no metrics object found (expected counters/gauges/histograms)".to_string()
    })?;
    let mut snapshot = Snapshot::default();
    if let Some(Value::Object(entries)) = metrics.get("counters") {
        for (name, v) in entries {
            let v = as_u64(v).ok_or_else(|| format!("counter {name:?} is not a count"))?;
            snapshot.counters.insert(name.clone(), v);
        }
    }
    if let Some(Value::Object(entries)) = metrics.get("gauges") {
        for (name, v) in entries {
            let v = as_f64(v).ok_or_else(|| format!("gauge {name:?} is not a number"))?;
            snapshot.gauges.insert(name.clone(), v);
        }
    }
    if let Some(Value::Object(entries)) = metrics.get("histograms") {
        for (name, h) in entries {
            let arr = |key: &str| -> Vec<&Value> {
                match h.get(key) {
                    Some(Value::Array(items)) => items.iter().collect(),
                    _ => Vec::new(),
                }
            };
            let bounds: Option<Vec<f64>> = arr("bounds").into_iter().map(as_f64).collect();
            let buckets: Option<Vec<u64>> = arr("buckets").into_iter().map(as_u64).collect();
            let hist = HistogramSnapshot {
                bounds: bounds.ok_or_else(|| format!("histogram {name:?}: bad bounds"))?,
                buckets: buckets.ok_or_else(|| format!("histogram {name:?}: bad buckets"))?,
                count: h
                    .get("count")
                    .and_then(as_u64)
                    .ok_or_else(|| format!("histogram {name:?}: bad count"))?,
                sum: h
                    .get("sum")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("histogram {name:?}: bad sum"))?,
            };
            snapshot.histograms.insert(name.clone(), hist);
        }
    }
    if let Some(Value::Object(entries)) = metrics.get("sketches") {
        for (name, s) in entries {
            let field = |key: &str| -> Result<f64, String> {
                s.get(key)
                    .and_then(as_f64)
                    .ok_or_else(|| format!("sketch {name:?}: bad {key}"))
            };
            let config = SketchConfig {
                alpha: field("alpha")?,
                min_value: field("min_value")?,
                max_value: field("max_value")?,
            };
            let mut buckets: Vec<(usize, u64)> = Vec::new();
            if let Some(Value::Object(sparse)) = s.get("buckets") {
                for (index, n) in sparse {
                    let index: usize = index
                        .parse()
                        .map_err(|_| format!("sketch {name:?}: bad bucket index {index:?}"))?;
                    let n =
                        as_u64(n).ok_or_else(|| format!("sketch {name:?}: bad bucket count"))?;
                    buckets.push((index, n));
                }
            }
            let count = s
                .get("count")
                .and_then(as_u64)
                .ok_or_else(|| format!("sketch {name:?}: bad count"))?;
            let sketch = QuantileSketch::from_parts(
                config,
                &buckets,
                count,
                field("sum")?,
                // Empty sketches export min > max sentinels as JSON null;
                // fall back to the empty-sketch identities.
                field("min").unwrap_or(f64::INFINITY),
                field("max").unwrap_or(f64::NEG_INFINITY),
            )
            .map_err(|e| format!("sketch {name:?}: {e}"))?;
            snapshot.sketches.insert(name.clone(), sketch);
        }
    }
    Ok(snapshot)
}

/// Reads and parses a snapshot file.
pub fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    snapshot_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_id_is_rejected_up_front_with_the_valid_list() {
        let err = parse(&args(&["fig99"])).unwrap_err();
        assert!(err.contains("unknown experiment id \"fig99\""), "{err}");
        assert!(err.contains("fig8"), "lists valid ids: {err}");
        assert!(err.contains("profile"), "lists extra ids: {err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&args(&["--folow", "profile"])).unwrap_err();
        assert!(err.contains("unknown flag \"--folow\""), "{err}");
    }

    #[test]
    fn run_parses_ids_flags_and_dedups() {
        let cmd = parse(&args(&["--out", "o", "fig8", "fig8", "profile"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                ids: vec!["fig8".to_string(), "profile".to_string()],
                out_dir: "o".to_string(),
            }
        );
    }

    #[test]
    fn all_expands_to_every_default_id() {
        let Command::Run { ids, .. } = parse(&args(&["all"])).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(ids.len(), experiment_ids().len());
    }

    #[test]
    fn empty_and_help_map_to_usage_exit_codes() {
        assert_eq!(parse(&[]).unwrap(), Command::Help { exit_code: 2 });
        assert_eq!(
            parse(&args(&["--help"])).unwrap(),
            Command::Help { exit_code: 0 }
        );
    }

    #[test]
    fn obs_diff_parses_threshold_and_ignores() {
        let cmd = parse(&args(&[
            "obs-diff",
            "base.json",
            "cur.json",
            "--threshold",
            "0.1",
            "--ignore",
            "tokens_per_sec",
        ]))
        .unwrap();
        let Command::ObsDiff {
            baseline,
            current,
            config,
        } = cmd
        else {
            panic!("expected ObsDiff");
        };
        assert_eq!(
            (baseline.as_str(), current.as_str()),
            ("base.json", "cur.json")
        );
        assert_eq!(config.threshold, 0.1);
        assert_eq!(config.ignore, vec!["tokens_per_sec".to_string()]);
    }

    #[test]
    fn serve_parses_addr_capacity_and_shards() {
        let cmd = parse(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--cache-capacity",
            "128",
            "--shards",
            "4",
        ]))
        .unwrap();
        let Command::Serve { config } = cmd else {
            panic!("expected Serve");
        };
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.cache_capacity, 128);
        assert_eq!(config.shards, 4);
        // Strict: positional junk and zero values are rejected.
        assert!(parse(&args(&["serve", "extra"])).is_err());
        assert!(parse(&args(&["serve", "--shards", "0"])).is_err());
        assert!(parse(&args(&["serve", "--cache-capacity", "many"])).is_err());
    }

    #[test]
    fn serve_parses_slo_knobs() {
        let cmd = parse(&args(&[
            "serve",
            "--slo-target-p99-us",
            "2500",
            "--slo-error-budget",
            "0.01",
        ]))
        .unwrap();
        let Command::Serve { config } = cmd else {
            panic!("expected Serve");
        };
        assert_eq!(config.slo_target_p99_us, 2500.0);
        assert_eq!(config.slo_error_budget, 0.01);
        assert!(parse(&args(&["serve", "--slo-target-p99-us", "-5"])).is_err());
        assert!(parse(&args(&["serve", "--slo-error-budget", "1.5"])).is_err());
    }

    #[test]
    fn usage_lists_every_subcommand() {
        for needle in [
            "obs-diff",
            "serve",
            "--slo-target-p99-us",
            "--slo-error-budget",
            "metrics",
            "cluster",
            "alltoall",
            "cluster_costs.json",
            "cluster_metrics.json",
        ] {
            assert!(USAGE.contains(needle), "usage is stale: missing {needle}");
        }
    }

    #[test]
    fn obs_diff_requires_two_paths_and_valid_threshold() {
        assert!(parse(&args(&["obs-diff", "only.json"])).is_err());
        assert!(parse(&args(&["obs-diff", "a", "b", "--threshold", "nope"])).is_err());
        assert!(parse(&args(&["obs-diff", "a", "b", "--threshold", "-1"])).is_err());
    }

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("steps".to_string(), 42);
        snapshot.gauges.insert("qps".to_string(), 1.5);
        snapshot.histograms.insert(
            "lat".to_string(),
            HistogramSnapshot {
                bounds: vec![1.0, 2.0],
                buckets: vec![3, 1, 0],
                count: 4,
                sum: 5.25,
            },
        );
        let mut sketch = QuantileSketch::new(SketchConfig::default());
        for v in [80.0, 95.0, 120.0, 4000.0] {
            sketch.record(v);
        }
        snapshot.sketches.insert("lat_us".to_string(), sketch);
        // An empty sketch exercises the min/max sentinel path.
        snapshot.sketches.insert(
            "quiet".to_string(),
            QuantileSketch::new(SketchConfig::default()),
        );
        let parsed = snapshot_from_json(&snapshot.to_json_string()).unwrap();
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.sketches["lat_us"].count(), 4);
    }

    #[test]
    fn snapshot_parses_from_nested_summary_documents() {
        let doc = r#"{"summary":{"metrics":{"counters":{"c":1},"gauges":{},"histograms":{}}}}"#;
        let parsed = snapshot_from_json(doc).unwrap();
        assert_eq!(parsed.counters["c"], 1);
        assert!(snapshot_from_json(r#"{"other":1}"#).is_err());
    }
}
