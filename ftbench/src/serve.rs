//! `serve-hot` and `serve-cold`: one closed-loop TCP client, pipeline depth
//! 1, against an in-process planner `Server`, and the traced probes that
//! split a request into its layers.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ftsim_cost::DistributedPlan;
use ftsim_gpu::CostModel;
use ftsim_model::MemoryModel;
use ftsim_serve::{Planner, ScenarioCache, ScenarioSpec, ServeConfig, Server};
use ftsim_sim::StepSimulator;
use serde_json::Value;

use crate::stats::{median, overhead_pct, peak_rss_mib, SplitMix, Tracer, Windows};
use crate::Report;

/// Request lines in the hot universe; far below the cache capacity.
pub const HOT_UNIVERSE: usize = 120;
/// Requests per hot window.
const HOT_WINDOW: usize = 500;
/// Server starts (each followed by one pass over the universe) in the hot
/// set-up; `setup_s` is the median.
const HOT_SETUP_REPS: usize = 15;
/// Cold lines answered by one server before it is replaced by a fresh one:
/// twice the cache capacity, so the cache evicts, while the trace caches'
/// growth (and so the process's peak memory) does not depend on how many
/// requests a run gets through.
pub const COLD_EPOCH: usize = 8192;
/// Requests per cold window.
const COLD_WINDOW: usize = 256;
/// One cold reply in this many is byte-compared against a fresh planner.
const SAMPLE_ONE_IN: u64 = 64;
/// Passes over the hot universe in the traced probe.
const PROBE_PASSES: usize = 20;

/// Stream tags, so hot, cold and sampling draws are independent.
const HOT_LINES: u64 = 0x686f_745f_6c69_6e65;
const HOT_PICKS: u64 = 0x686f_745f_7069_636b;
const COLD_LINES: u64 = 0x636f_6c64_6c69_6e65;
const COLD_SAMPLE: u64 = 0x636f_6c64_7361_6d70;

const KINDS: [&str; 3] = ["plan", "estimate", "sweep"];
const MODELS: [&str; 2] = ["mixtral-8x7b", "blackmamba-2.8b"];
const RECIPES: [&str; 4] = ["qlora-sparse", "qlora-dense", "full-sparse", "full-dense"];
const GPUS: [&str; 4] = ["a40", "a100-40", "a100-80", "h100-80"];
const DATASETS: [&str; 5] = [
    "commonsense_15k",
    "math_14k",
    "hellaswag",
    "gsm8k",
    "openorca",
];
const WORLD_SIZES: [u64; 4] = [1, 2, 4, 8];
const PARALLELISMS: [&str; 3] = ["data", "tensor", "expert"];

/// Query kind for a roll in `0..12`: plan, estimate and sweep at 8:3:1.
fn mix_kind(roll: u64) -> usize {
    match roll {
        0..=7 => 0,
        8..=10 => 1,
        _ => 2,
    }
}

/// One request line (newline-terminated) for query `kind`: model × recipe ×
/// GPU × dataset, `seq_len` in 32..=4096, batch 0 (the Eq. 1 maximum) or
/// 1..=64, world size 1/2/4/8 × data/tensor/expert parallelism. Every field
/// is explicit, so distinct lines are distinct canonical scenarios.
fn scenario_line(rng: &mut SplitMix, kind: usize) -> String {
    let model = rng.pick(&MODELS);
    let recipe = rng.pick(&RECIPES);
    let gpu = rng.pick(&GPUS);
    let dataset = rng.pick(&DATASETS);
    let seq_len = 32 + rng.below(4096 - 32 + 1);
    let batch = if rng.below(4) == 0 {
        0
    } else {
        1 + rng.below(64)
    };
    let world = rng.pick(&WORLD_SIZES);
    let par = rng.pick(&PARALLELISMS);
    format!(
        "{{\"query\":\"{}\",\"model\":\"{model}\",\"recipe\":\"{recipe}\",\"gpu\":\"{gpu}\",\"dataset\":\"{dataset}\",\
         \"seq_len\":{seq_len},\"batch\":{batch},\"world_size\":{world},\"parallelism\":\"{par}\"}}\n",
        KINDS[kind]
    )
}

/// The hot universe: `HOT_UNIVERSE` distinct lines dealt 8:3:1.
pub fn hot_universe(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed ^ HOT_LINES);
    let mut seen = HashSet::new();
    let mut lines = Vec::with_capacity(HOT_UNIVERSE);
    for deal in 0.. {
        if lines.len() == HOT_UNIVERSE {
            break;
        }
        let line = scenario_line(&mut rng, mix_kind(deal % 12));
        if seen.insert(line.clone()) {
            lines.push(line);
        }
    }
    lines
}

/// Line `index` of the endless cold stream and its query kind.
pub fn cold_line(seed: u64, index: u64) -> (usize, String) {
    let mut rng = SplitMix::at(seed ^ COLD_LINES, index);
    let kind = mix_kind(rng.below(12));
    (kind, scenario_line(&mut rng, kind))
}

fn sampled(seed: u64, index: u64) -> bool {
    SplitMix::at(seed ^ COLD_SAMPLE, index).below(SAMPLE_ONE_IN) == 0
}

fn parse(line: &str) -> ScenarioSpec {
    ScenarioSpec::parse_str(line.trim_end()).expect("generated lines are valid specs")
}

/// Answers from a planner that has never seen these lines.
fn fresh_answers<'a>(lines: impl IntoIterator<Item = &'a String>) -> Vec<String> {
    let planner = Planner::new();
    lines
        .into_iter()
        .map(|l| planner.answer(&parse(l)))
        .collect()
}

/// A reply is well formed when it is a JSON object answering the query
/// kind that was sent, for the canonical scenario that was sent.
fn well_formed(reply: &str, kind: usize, key: &str) -> bool {
    let Ok(doc) = serde_json::from_str(reply) else {
        return false;
    };
    matches!(doc.get("ok"), Some(Value::Bool(_)))
        && doc.get("query") == Some(&Value::String(KINDS[kind].to_string()))
        && doc.get("scenario") == Some(&Value::String(key.to_string()))
}

/// A closed-loop line-protocol client: one request in flight.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated line and returns the reply line.
    fn ask(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// A fresh server on an ephemeral port with the default cache, and a
/// connected client.
fn start() -> io::Result<(Server, Client)> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })?;
    let client = Client::connect(server.local_addr())?;
    Ok((server, client))
}

/// Closes the client, then stops the server and joins its threads.
fn stop(mut server: Server, client: Client) {
    drop(client);
    server.shutdown();
}

/// Untraced and traced windows of a timed phase; in a traced run every
/// other window records a span per request.
#[derive(Default)]
struct Phase {
    plain: Windows,
    traced: Windows,
    tracer: Tracer,
    latencies: Vec<f64>,
}

impl Phase {
    /// Times one window of `ops` requests; `ask(i)` sends request `i` of
    /// the window and waits for its reply.
    fn window(
        &mut self,
        trace: bool,
        ops: usize,
        mut ask: impl FnMut(usize) -> io::Result<()>,
    ) -> io::Result<()> {
        self.latencies.clear();
        let started = Instant::now();
        for i in 0..ops {
            let t = Instant::now();
            let span = trace.then(|| self.tracer.begin("serve.request", None));
            ask(i)?;
            if let Some(id) = span {
                self.tracer.end(id);
            }
            self.latencies.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let secs = started.elapsed().as_secs_f64();
        let windows = if trace {
            &mut self.traced
        } else {
            &mut self.plain
        };
        windows.push(secs, &self.latencies);
        Ok(())
    }

    fn windows_so_far(&self) -> usize {
        self.plain.secs.len() + self.traced.secs.len()
    }

    /// End-to-end metrics, or under tracing the traced rate and overhead.
    fn finish(&self, report: &mut Report, window_ops: usize, traced: bool, setups: &[f64]) {
        eprintln!(
            "windows of {window_ops} requests: {}",
            self.plain.describe()
        );
        if traced {
            report.metric(
                "trace.throughput_per_s",
                self.traced.rate(window_ops as f64),
                "1/s",
            );
            report.metric(
                "trace.overhead_pct",
                overhead_pct(&self.plain, &self.traced),
                "%",
            );
        } else {
            report.metric(
                "throughput_per_s",
                self.plain.rate(window_ops as f64),
                "1/s",
            );
            report.metric("latency_p50_us", self.plain.p50_us(), "us");
            report.metric("latency_p90_us", self.plain.p90_us(), "us");
            report.metric("setup_s", median(setups), "s");
            report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        }
    }
}

/// `serve-hot`: requests drawn from the hot universe. Set-up starts the
/// server and sends one pass over the universe; afterwards every request is
/// a cache hit, and every reply must equal a fresh planner's answer.
pub fn run_hot(seed: u64, seconds: f64, traced: bool) -> io::Result<Report> {
    let lines = hot_universe(seed);
    let refs = fresh_answers(&lines);
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(HOT_SETUP_REPS);
    let mut live = None;
    for rep in 0..HOT_SETUP_REPS {
        let started = Instant::now();
        let (server, mut client) = start()?;
        for (line, expected) in lines.iter().zip(&refs) {
            let ok = client.ask(line)? == expected;
            report.check(ok);
        }
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 < HOT_SETUP_REPS {
            stop(server, client);
        } else {
            live = Some((server, client));
        }
    }
    let (server, mut client) = live.expect("at least one set-up");
    let before = server.cache_stats();
    let mut picks = SplitMix::new(seed ^ HOT_PICKS);
    let mut phase = Phase::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let trace = traced && phase.windows_so_far() % 2 == 1;
        phase.window(trace, HOT_WINDOW, |_| {
            let i = picks.below(lines.len() as u64) as usize;
            let ok = client.ask(&lines[i])? == refs[i];
            report.check(ok);
            Ok(())
        })?;
    }
    // The timed phase must be all hits: no miss, no coalesced wait.
    let after = server.cache_stats();
    report.check(after.misses == before.misses && after.coalesced == before.coalesced);
    stop(server, client);
    phase.finish(&mut report, HOT_WINDOW, traced, &setups);
    Ok(report)
}

/// One epoch of the cold stream with the canonical key each reply must
/// carry, computed before any of it is sent.
struct ColdEpoch {
    first: u64,
    kinds: Vec<usize>,
    lines: Vec<String>,
    keys: Vec<String>,
}

impl ColdEpoch {
    fn new(seed: u64, first: u64) -> ColdEpoch {
        let (kinds, lines): (Vec<usize>, Vec<String>) = (first..first + COLD_EPOCH as u64)
            .map(|i| cold_line(seed, i))
            .unzip();
        let keys = lines.iter().map(|l| parse(l).canonical_key()).collect();
        ColdEpoch {
            first,
            kinds,
            lines,
            keys,
        }
    }
}

/// `serve-cold`: every line a distinct scenario. Each epoch starts a fresh
/// server (the set-up, timed alone), answers `COLD_EPOCH` lines in timed
/// windows, and is checked afterwards: every reply well formed for its
/// scenario, and a seeded 1-in-64 sample byte-equal to a fresh planner.
pub fn run_cold(seed: u64, seconds: f64, traced: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut phase = Phase::default();
    let mut replies: Vec<String> = Vec::with_capacity(COLD_WINDOW);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for epoch in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let cold = ColdEpoch::new(seed, epoch * COLD_EPOCH as u64);
        let started = Instant::now();
        let (server, mut client) = start()?;
        setups.push(started.elapsed().as_secs_f64());
        let mut samples = Vec::new();
        for base in (0..COLD_EPOCH).step_by(COLD_WINDOW) {
            if Instant::now() >= deadline {
                break;
            }
            let trace = traced && phase.windows_so_far() % 2 == 1;
            replies.clear();
            phase.window(trace, COLD_WINDOW, |i| {
                replies.push(client.ask(&cold.lines[base + i])?.to_string());
                Ok(())
            })?;
            for (i, reply) in (base..).zip(&replies) {
                report.check(well_formed(reply, cold.kinds[i], &cold.keys[i]));
                if sampled(seed, cold.first + i as u64) {
                    samples.push((i, reply.clone()));
                }
            }
        }
        stop(server, client);
        let planner = Planner::new();
        for (i, reply) in samples {
            report.check(planner.answer(&parse(&cold.lines[i])) == reply);
        }
    }
    phase.finish(&mut report, COLD_WINDOW, traced, &setups);
    Ok(report)
}

/// Hot layer probe: round trips on a warm server, then the same lines
/// replayed in-process through the spec parser, key and a warm cache.
pub fn probe_hot(seed: u64) -> io::Result<Report> {
    let lines = hot_universe(seed);
    let refs = fresh_answers(&lines);
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let (server, mut client) = start()?;
    for (line, expected) in lines.iter().zip(&refs) {
        let ok = client.ask(line)? == expected;
        report.check(ok);
    }
    let before = server.cache_stats();
    for _ in 0..PROBE_PASSES {
        for (line, expected) in lines.iter().zip(&refs) {
            let id = tracer.begin("serve.hot.round_trip", None);
            let ok = client.ask(line)? == expected;
            tracer.end(id);
            report.check(ok);
        }
    }
    let after = server.cache_stats();
    stop(server, client);

    let config = ServeConfig::default();
    let cache = ScenarioCache::new(config.cache_capacity, config.shards);
    for (line, expected) in lines.iter().zip(&refs) {
        let spec = parse(line);
        cache.get_or_compute(&spec.canonical_key(), spec.hash(), || expected.clone());
    }
    for _ in 0..PROBE_PASSES {
        for (line, expected) in lines.iter().zip(&refs) {
            let spec = tracer.span("serve.spec.parse", None, || {
                ScenarioSpec::parse_str(line.trim_end())
            });
            let Ok(spec) = spec else {
                report.check(false);
                continue;
            };
            let (key, hash) = tracer.span("serve.spec.key", None, || {
                (spec.canonical_key(), spec.hash())
            });
            let answer = tracer.span("serve.cache.hit", None, || {
                cache.get_or_compute(&key, hash, || String::from("miss"))
            });
            report.check(&*answer == expected.as_str());
        }
    }
    let t = tracer.totals();
    let round_trip = t["serve.hot.round_trip"].mean_us();
    let parts: Vec<f64> = ["serve.spec.parse", "serve.spec.key", "serve.cache.hit"]
        .iter()
        .map(|n| t[n].mean_us())
        .collect();
    let self_us = round_trip - parts.iter().sum::<f64>();
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    report.metric("serve.hot.round_trip_us", round_trip, "us");
    report.metric("serve.spec.parse_us", parts[0], "us");
    report.metric("serve.spec.key_us", parts[1], "us");
    report.metric("serve.cache.hit_us", parts[2], "us");
    report.metric("serve.server.self_us", self_us, "us");
    report.metric("serve.cache.hit_ratio", hits / lookups, "ratio");
    report.metric("serve.cache.misses", after.misses as f64, "count");
    report.metric("serve.cache.coalesced", after.coalesced as f64, "count");
    eprintln!(
        "hot tree (us): round trip {round_trip:.2} = parse {:.2} + key {:.2} + cache hit {:.2} + server self {self_us:.2}",
        parts[0], parts[1], parts[2]
    );
    Ok(report)
}

/// Cold layer probe: the first epoch of the cold stream through a fresh
/// server, then replayed in-process on a fresh `Planner`, with the calls
/// that make up an answer (Eq. 1 max batch, step simulation, distributed
/// step) replayed on the benchmark's own simulator pools.
pub fn probe_cold(seed: u64) -> io::Result<Report> {
    let cold = ColdEpoch::new(seed, 0);
    let n = COLD_EPOCH as f64;
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let (server, mut client) = start()?;
    let mut replies = Vec::with_capacity(COLD_EPOCH);
    for ((line, kind), key) in cold.lines.iter().zip(&cold.kinds).zip(&cold.keys) {
        let id = tracer.begin("serve.cold.round_trip", None);
        let reply = client.ask(line)?.to_string();
        tracer.end(id);
        report.check(well_formed(&reply, *kind, key));
        replies.push(reply);
    }
    let served = server.cache_stats();
    stop(server, client);

    const ENGINE: [&str; 3] = [
        "serve.engine.plan",
        "serve.engine.estimate",
        "serve.engine.sweep",
    ];
    let planner = Planner::new();
    let mut sims: HashMap<String, StepSimulator> = HashMap::new();
    let mut plans: HashMap<String, DistributedPlan> = HashMap::new();
    let (mut ok_answers, mut memory_calls, mut step_calls) = (0u64, 0u64, 0u64);
    let (mut dist_max_calls, mut dist_calls) = (0u64, 0u64);
    for ((line, kind), served_reply) in cold.lines.iter().zip(&cold.kinds).zip(&replies) {
        let spec = parse(line);
        let answer = tracer.span(ENGINE[*kind], None, || planner.answer(&spec));
        report.check(answer == *served_reply);
        let doc = serde_json::from_str(&answer).unwrap_or(Value::Null);
        let ok = doc.get("ok") == Some(&Value::Bool(true));
        ok_answers += u64::from(ok);
        // Sweeps price single-GPU steps; plans and estimates on more than
        // one GPU go through the distributed plan.
        let distributed = spec.gpus > 1 && *kind != 2;
        let topo = spec.topology();
        if distributed {
            let plan = plans
                .entry(format!("{}|{}", spec.model, spec.recipe))
                .or_insert_with(|| {
                    DistributedPlan::new(spec.model_config(), spec.finetune_config())
                });
            tracer.span("cost.distributed.max_batch", None, || {
                plan.max_batch(&topo, spec.parallelism, spec.seq_len)
            });
            dist_max_calls += 1;
        } else {
            let (model, ft, gpu) = (spec.model_config(), spec.finetune_config(), spec.gpu_spec());
            tracer.span("model.memory.max_batch", None, || {
                MemoryModel::new(&model, &ft).max_batch_size(&gpu, spec.seq_len)
            });
            memory_calls += 1;
        }
        if !ok || *kind == 0 {
            continue;
        }
        let batches: Vec<usize> = match doc.get("points") {
            Some(Value::Array(points)) => points
                .iter()
                .filter_map(|p| as_usize(p.get("batch")))
                .collect(),
            _ => as_usize(doc.get("batch")).into_iter().collect(),
        };
        if distributed {
            let plan = &plans[&format!("{}|{}", spec.model, spec.recipe)];
            for batch in batches {
                tracer.span("cost.distributed.step", None, || {
                    plan.simulate_step(&topo, spec.parallelism, batch, spec.seq_len)
                });
                dist_calls += 1;
            }
        } else {
            let key = format!(
                "{}|{}|{}|{}",
                spec.model, spec.recipe, spec.gpu, spec.gpu_mem_gb
            );
            let sim = sims.entry(key).or_insert_with(|| {
                StepSimulator::new(
                    spec.model_config(),
                    spec.finetune_config(),
                    CostModel::new(spec.gpu_spec()),
                )
            });
            for batch in batches {
                tracer.span("sim.step.simulate", None, || {
                    sim.simulate_step(batch, spec.seq_len)
                });
                step_calls += 1;
            }
        }
    }
    let t = tracer.totals();
    let total = |name: &str| t.get(name).map_or(0.0, |s| s.total_us);
    let per_call = |name: &str| t.get(name).map_or(0.0, |s| s.mean_us());
    let answer_us = ENGINE.iter().map(|e| total(e)).sum::<f64>() / n;
    let attributed = [
        "model.memory.max_batch",
        "sim.step.simulate",
        "cost.distributed.max_batch",
        "cost.distributed.step",
    ]
    .iter()
    .map(|name| total(name))
    .sum::<f64>()
        / n;
    let round_trip = per_call("serve.cold.round_trip");
    let (mut hits, mut misses, mut entries) = (0u64, 0u64, 0usize);
    for sim in sims.values() {
        let s = sim.cache_stats();
        (hits, misses, entries) = (hits + s.hits, misses + s.misses, entries + s.entries);
    }
    let distinct = cold.keys.iter().collect::<HashSet<_>>().len() as f64;
    report.metric("serve.cold.round_trip_us", round_trip, "us");
    report.metric("serve.cold.server_self_us", round_trip - answer_us, "us");
    report.metric("serve.engine.answer_us", answer_us, "us");
    report.metric("serve.engine.plan_us", per_call(ENGINE[0]), "us");
    report.metric("serve.engine.estimate_us", per_call(ENGINE[1]), "us");
    report.metric("serve.engine.sweep_us", per_call(ENGINE[2]), "us");
    report.metric("serve.engine.remainder_us", answer_us - attributed, "us");
    report.metric(
        "model.memory.max_batch_us",
        per_call("model.memory.max_batch"),
        "us",
    );
    report.metric(
        "model.memory.calls_per_request",
        memory_calls as f64 / n,
        "count",
    );
    report.metric("sim.step.simulate_us", per_call("sim.step.simulate"), "us");
    report.metric("sim.step.calls_per_request", step_calls as f64 / n, "count");
    report.metric(
        "sim.step.trace_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("sim.step.trace_entries", entries as f64, "count");
    report.metric(
        "cost.distributed.max_batch_us",
        per_call("cost.distributed.max_batch"),
        "us",
    );
    report.metric(
        "cost.distributed.max_batch_calls_per_request",
        dist_max_calls as f64 / n,
        "count",
    );
    report.metric(
        "cost.distributed.step_us",
        per_call("cost.distributed.step"),
        "us",
    );
    report.metric(
        "cost.distributed.calls_per_request",
        dist_calls as f64 / n,
        "count",
    );
    report.metric("serve.cache.evictions", served.evictions as f64, "count");
    report.metric(
        "serve.planner.simulators",
        planner.simulator_count() as f64,
        "count",
    );
    report.metric("serve.planner.plans", planner.plan_count() as f64, "count");
    report.metric("serve.cold.distinct_share", distinct / n, "ratio");
    report.metric("serve.cold.ok_share", ok_answers as f64 / n, "ratio");
    eprintln!(
        "cold tree (us/request): round trip {round_trip:.2} = server self {:.2} + answer {answer_us:.2}; \
         answer = max batch {:.2} + step simulation {:.2} + distributed max batch {:.2} + distributed step {:.2} + remainder {:.2}",
        round_trip - answer_us,
        total("model.memory.max_batch") / n,
        total("sim.step.simulate") / n,
        total("cost.distributed.max_batch") / n,
        total("cost.distributed.step") / n,
        answer_us - attributed,
    );
    Ok(report)
}

fn as_usize(v: Option<&Value>) -> Option<usize> {
    match v {
        Some(Value::Int(i)) => usize::try_from(*i).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_lines() {
        assert_eq!(hot_universe(5), hot_universe(5));
        assert_ne!(hot_universe(5), hot_universe(6));
        let a: Vec<_> = (0..64).map(|i| cold_line(5, i)).collect();
        let b: Vec<_> = (0..64).map(|i| cold_line(5, i)).collect();
        assert_eq!(a, b);
        assert_ne!(cold_line(5, 0), cold_line(6, 0));
    }

    #[test]
    fn hot_universe_fits_inside_the_cache() {
        let lines = hot_universe(11);
        let keys: HashSet<String> = lines.iter().map(|l| parse(l).canonical_key()).collect();
        assert_eq!(keys.len(), HOT_UNIVERSE, "hot lines are distinct scenarios");
        assert!(keys.len() <= ServeConfig::default().cache_capacity);
    }

    #[test]
    fn cold_stream_is_distinct_and_larger_than_the_cache() {
        for seed in [1, 2] {
            let cold = ColdEpoch::new(seed, 0);
            let distinct = cold.keys.iter().collect::<HashSet<_>>().len();
            assert!(
                distinct * 100 >= COLD_EPOCH * 99,
                "only {distinct} distinct keys"
            );
        }
        assert!(COLD_EPOCH > ServeConfig::default().cache_capacity);
    }

    #[test]
    fn mix_is_eight_three_one() {
        let counts = (0..12).fold([0; 3], |mut c, r| {
            c[mix_kind(r)] += 1;
            c
        });
        assert_eq!(counts, [8, 3, 1]);
    }

    #[test]
    fn replies_are_checked_for_kind_and_scenario() {
        let (kind, line) = cold_line(3, 0);
        let spec = parse(&line);
        let answer = Planner::new().answer(&spec);
        assert!(well_formed(&answer, kind, &spec.canonical_key()));
        assert!(!well_formed(&answer, kind, "q=plan;other"));
        assert!(!well_formed("not json", kind, &spec.canonical_key()));
    }
}
