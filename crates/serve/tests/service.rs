//! End-to-end tests for planner-as-a-service: the determinism contract
//! (cached answers are bit-identical to freshly computed ones, across
//! planner instances), the single-GPU oracle for world-size-1 answers,
//! finiteness over the whole scenario space, and the wire protocol over a
//! real TCP socket.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};

use ftsim_gpu::CostModel;
use ftsim_model::MemoryModel;
use ftsim_serve::spec::MAX_WORLD_SIZE;
use ftsim_serve::{Planner, QueryKind, ScenarioCache, ScenarioSpec, ServeConfig, Server};
use ftsim_sim::{Stage, StepSimulator};
use proptest::prelude::*;
use serde_json::{json, Value};

const QUERIES: [&str; 3] = ["plan", "estimate", "sweep"];
const MODELS: [&str; 2] = ["mixtral-8x7b", "blackmamba-2.8b"];
const RECIPES: [&str; 4] = ["qlora-sparse", "qlora-dense", "full-sparse", "full-dense"];
const GPUS: [&str; 4] = ["A40", "A100-40GB", "A100-80GB", "H100-80GB"];
const DATASETS: [&str; 5] = [
    "commonsense_15k",
    "math_14k",
    "hellaswag",
    "gsm8k",
    "openorca",
];

fn request_line(
    query: &str,
    model: &str,
    recipe: &str,
    gpu: &str,
    dataset: &str,
    (batch, epochs, gpus): (usize, usize, usize),
) -> String {
    format!(
        concat!(
            "{{\"query\":\"{}\",\"model\":\"{}\",\"recipe\":\"{}\",\"gpu\":\"{}\",",
            "\"dataset\":\"{}\",\"batch\":{},\"epochs\":{},\"gpus\":{}}}"
        ),
        query, model, recipe, gpu, dataset, batch, epochs, gpus
    )
}

fn parse_spec(line: &str) -> ScenarioSpec {
    ScenarioSpec::parse_str(line).expect("generated request is valid")
}

/// Shared planners so the 64 property cases reuse pooled simulators
/// instead of rebuilding them per case.
fn planners() -> &'static (Planner, Planner) {
    static PLANNERS: OnceLock<(Planner, Planner)> = OnceLock::new();
    PLANNERS.get_or_init(|| (Planner::new(), Planner::new()))
}

proptest! {
    /// The acceptance property: for any scenario, the answer served
    /// through the LRU cache is byte-identical to one computed fresh by an
    /// *independent* planner instance — on the miss AND on the hit.
    fn prop_cached_answers_are_bit_identical_to_uncached(
        qi in 0usize..3,
        mi in 0usize..2,
        ri in 0usize..4,
        gi in 0usize..4,
        di in 0usize..5,
        batch in 0usize..5,
        epochs in 1usize..=12,
        gpus in 1usize..=8,
    ) {
        let line = request_line(
            QUERIES[qi], MODELS[mi], RECIPES[ri], GPUS[gi], DATASETS[di],
            (batch, epochs, gpus),
        );
        let spec = parse_spec(&line);
        let (cached_planner, fresh_planner) = planners();

        let cache = ScenarioCache::new(64, 4);
        let key = spec.canonical_key();
        let miss = cache.get_or_compute(&key, spec.hash(), || cached_planner.answer(&spec));
        let hit = cache.get_or_compute(&key, spec.hash(), || panic!("must be cached"));
        let fresh = fresh_planner.answer(&spec);

        prop_assert_eq!(miss.as_bytes(), fresh.as_bytes(), "miss != fresh for {}", line);
        prop_assert_eq!(hit.as_bytes(), fresh.as_bytes(), "hit != fresh for {}", line);
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Canonicalization property: aliases, reordered fields, and explicit
    /// defaults all collapse onto the same cache key, so equivalent
    /// requests share one cache slot.
    fn prop_aliases_and_field_order_share_a_cache_key(
        mi in 0usize..2,
        gi in 0usize..4,
        di in 0usize..5,
        epochs in 1usize..=12,
    ) {
        let alias_model = ["mixtral", "blackmamba"][mi];
        let alias_dataset = ["cs", "math", "hellaswag", "gsm8k", "openorca"][di];
        let full = parse_spec(&format!(
            "{{\"query\":\"plan\",\"model\":\"{}\",\"gpu\":\"{}\",\"dataset\":\"{}\",\"epochs\":{}}}",
            MODELS[mi], GPUS[gi], DATASETS[di], epochs,
        ));
        let aliased = parse_spec(&format!(
            "{{\"epochs\":{},\"dataset\":\"{}\",\"gpu\":\"{}\",\"model\":\"{}\",\"query\":\"plan\"}}",
            epochs, alias_dataset, GPUS[gi].to_lowercase(), alias_model,
        ));
        prop_assert_eq!(full.canonical_key(), aliased.canonical_key());
        prop_assert_eq!(full.hash(), aliased.hash());
    }

    /// Distributed axes canonicalize too: `world_size` is an alias of
    /// `gpus`, parallelism accepts short spellings, and an explicit link
    /// tier equals the auto-resolved one — all collapsing to one key.
    fn prop_distributed_axes_share_a_cache_key(
        world in 2usize..=16,
        pi in 0usize..3,
    ) {
        let (long_par, short_par) = [
            ("data", "dp"), ("tensor", "tp"), ("expert", "ep"),
        ][pi];
        let full = parse_spec(&format!(
            "{{\"query\":\"plan\",\"gpu\":\"A40\",\"gpus\":{},\"parallelism\":\"{}\",\"link\":\"pcie\"}}",
            world, long_par,
        ));
        let aliased = parse_spec(&format!(
            "{{\"query\":\"plan\",\"gpu\":\"a40\",\"world_size\":{},\"parallelism\":\"{}\",\"link\":\"auto\"}}",
            world, short_par,
        ));
        prop_assert_eq!(full.canonical_key(), aliased.canonical_key());
        prop_assert_eq!(full.hash(), aliased.hash());
    }
}

/// The single-GPU answer of a world-size-1 scenario, computed straight from
/// the paper's Eq. 1 ([`MemoryModel`]) and one [`StepSimulator`],
/// independently of `DistributedPlan`. It renders the single-GPU schema,
/// including the estimate's per-stage fields that the planner does not
/// report.
fn single_gpu_oracle(spec: &ScenarioSpec) -> String {
    static SIMS: OnceLock<Mutex<HashMap<String, Arc<StepSimulator>>>> = OnceLock::new();
    let err = |message: &str| {
        json!({
            "ok": false,
            "query": spec.query.key(),
            "scenario": spec.canonical_key(),
            "error": message,
        })
        .to_string()
    };
    let model = spec.model_config();
    let ft = spec.finetune_config();
    let gpu = spec.gpu_spec();
    let mem = MemoryModel::new(&model, &ft);
    let max_batch = mem.max_batch_size(&gpu, spec.seq_len);
    let sim = {
        let key = format!("{}|{}|{}", spec.model, spec.recipe, gpu.name);
        let mut sims = SIMS.get_or_init(Default::default).lock().unwrap();
        Arc::clone(sims.entry(key).or_insert_with(|| {
            Arc::new(StepSimulator::new(
                model.clone(),
                ft,
                CostModel::new(gpu.clone()),
            ))
        }))
    };
    let ds = spec.dataset_spec();
    let total_queries = (spec.epochs * ds.num_queries) as f64;
    let batch = if spec.batch > 0 {
        spec.batch
    } else {
        max_batch
    };
    match spec.query {
        QueryKind::Plan => {
            let bd = mem.breakdown(batch.max(1), spec.seq_len);
            json!({
                "ok": true,
                "query": "plan",
                "scenario": spec.canonical_key(),
                "model": model.name.clone(),
                "recipe": spec.recipe.clone(),
                "gpu": gpu.name,
                "gpu_mem_gb": gpu.mem_gb,
                "seq_len": spec.seq_len as i64,
                "trainable_params": ft.trainable_params(&model) as i64,
                "trainable_pct": ft.trainable_pct(&model),
                "max_batch": max_batch as i64,
                "batch": batch as i64,
                "fits": max_batch >= 1 && batch <= max_batch,
                "memory_gb": json!({
                    "weights": bd.weights_gb,
                    "adapters": bd.adapters_gb,
                    "gradients": bd.gradients_gb,
                    "optimizer": bd.optimizer_gb,
                    "overhead": bd.overhead_gb,
                    "activations": bd.activations_gb,
                    "total": bd.total_gb(),
                }),
            })
            .to_string()
        }
        _ if max_batch == 0 => err("model does not fit on this GPU at batch 1"),
        QueryKind::Estimate => {
            if batch > max_batch {
                return err(&format!(
                    "batch {batch} exceeds the Eq. 1 maximum {max_batch}"
                ));
            }
            let Some(usd_per_hour) = spec.usd_per_hour() else {
                return err(&format!(
                    "no {} price for {} (pass price_per_hour to override)",
                    spec.provider.key(),
                    spec.gpu
                ));
            };
            let trace = sim.simulate_step(batch, spec.seq_len);
            let step_seconds = trace.total_seconds();
            let qps = batch as f64 / step_seconds;
            let hours = total_queries / qps / 3600.0;
            json!({
                "ok": true,
                "query": "estimate",
                "scenario": spec.canonical_key(),
                "model": model.name,
                "recipe": spec.recipe.clone(),
                "gpu": spec.gpu.clone(),
                "dataset": ds.name,
                "seq_len": spec.seq_len as i64,
                "batch": batch as i64,
                "max_batch": max_batch as i64,
                "step_seconds": step_seconds,
                "forward_seconds": trace.stage_seconds(Stage::Forward),
                "backward_seconds": trace.stage_seconds(Stage::Backward),
                "optimizer_seconds": trace.stage_seconds(Stage::Optimizer),
                "kernels_per_step": trace.kernel_count() as i64,
                "gpus": 1,
                "queries_per_second": qps,
                "scaling_efficiency": 1.0,
                "epochs": spec.epochs as i64,
                "total_queries": total_queries,
                "usd_per_hour": usd_per_hour,
                "hours": hours,
                "usd": hours * usd_per_hour,
            })
            .to_string()
        }
        QueryKind::Sweep => {
            let mut batches: Vec<usize> = if max_batch <= 16 {
                (1..=max_batch).collect()
            } else {
                (0..16).map(|i| 1 + i * (max_batch - 1) / 15).collect()
            };
            batches.dedup();
            let mut best: Option<(usize, f64)> = None;
            let points: Vec<Value> = batches
                .iter()
                .map(|&batch| {
                    let step_seconds = sim.simulate_step(batch, spec.seq_len).total_seconds();
                    let qps = batch as f64 / step_seconds;
                    if best.is_none_or(|(_, b)| qps > b) {
                        best = Some((batch, qps));
                    }
                    json!({
                        "batch": batch as i64,
                        "step_seconds": step_seconds,
                        "queries_per_second": qps,
                    })
                })
                .collect();
            let (best_batch, best_qps) = best.expect("at least one point");
            let cost = spec.usd_per_hour().map(|rate| {
                let hours = total_queries / best_qps / 3600.0;
                json!({ "usd_per_hour": rate, "hours": hours, "usd": hours * rate })
            });
            json!({
                "ok": true,
                "query": "sweep",
                "scenario": spec.canonical_key(),
                "model": model.name,
                "recipe": spec.recipe.clone(),
                "gpu": spec.gpu.clone(),
                "dataset": ds.name,
                "seq_len": spec.seq_len as i64,
                "max_batch": max_batch as i64,
                "points": points,
                "best_batch": best_batch as i64,
                "best_qps": best_qps,
                "cost_at_best": cost,
            })
            .to_string()
        }
    }
}

/// Exact equality: floats by bit pattern, everything else structurally.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Every number in `v` is finite and non-negative. The serializer renders
/// a non-finite float as `null`, so `null` fails too, except as a sweep's
/// `cost_at_best` when the GPU has no price.
fn all_numbers_finite_and_nonnegative(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(i) => *i >= 0,
        Value::Float(f) => f.is_finite() && *f >= 0.0,
        Value::Array(xs) => xs.iter().all(all_numbers_finite_and_nonnegative),
        Value::Object(entries) => entries.iter().all(|(key, x)| {
            (key == "cost_at_best" && x.is_null()) || all_numbers_finite_and_nonnegative(x)
        }),
        _ => true,
    }
}

/// The estimate fields the single-GPU answer carried and the unified one
/// does not (per-stage provenance is not part of a `DistributedStep`).
const DROPPED_ESTIMATE_KEYS: [&str; 4] = [
    "forward_seconds",
    "backward_seconds",
    "optimizer_seconds",
    "kernels_per_step",
];

/// `raw` scaled log-uniformly into `0..=max`: the top `shift` bits are
/// dropped, so small and huge values are drawn about equally often.
fn log_uniform(raw: u64, shift: u32, max: u64) -> u64 {
    (raw >> shift.min(63)) % (max + 1)
}

proptest! {
    /// World size 1 is the paper's single-GPU model: every field a
    /// single-GPU answer reported, except the four per-stage estimate
    /// fields, is bit-identical to the Eq. 1 + `StepSimulator` oracle —
    /// success and error answers alike, over every query, model, recipe,
    /// GPU, memory override, dataset, sequence length, strategy, and a
    /// default, feasible, and over-maximum batch.
    fn prop_world1_answers_match_the_single_gpu_oracle(
        (mi, ri, gi, memi, di) in (0usize..2, 0usize..4, 0usize..4, 0usize..3, 0usize..5),
        (seq_len, pi) in (0usize..=4096, 0usize..3),
        pick in 0u64..u64::MAX,
        epochs in 1usize..=30,
        pricing in 0usize..3,
    ) {
        let planner = &planners().0;
        let mem_gb = [0, 24, 120][memi];
        let pricing = ["", ",\"provider\":\"aws\"", ",\"price_per_hour\":1.25"][pricing];
        let line = |query: &str, batch: usize| {
            format!(
                "{{\"query\":\"{query}\",\"model\":\"{}\",\"recipe\":\"{}\",\"gpu\":\"{}\",\
                 \"gpu_mem_gb\":{mem_gb},\"dataset\":\"{}\",\"seq_len\":{seq_len},\"batch\":{batch},\
                 \"epochs\":{epochs},\"world_size\":1,\"parallelism\":\"{}\"{pricing}}}",
                MODELS[mi], RECIPES[ri], GPUS[gi], DATASETS[di], ["data", "tensor", "expert"][pi],
            )
        };
        let probe = parse_spec(&line("plan", 0));
        let max_batch = MemoryModel::new(&probe.model_config(), &probe.finetune_config())
            .max_batch_size(&probe.gpu_spec(), probe.seq_len);
        let feasible = 1 + (pick % max_batch.max(1) as u64) as usize;
        let over = max_batch + 1 + (pick % 7) as usize;
        for query in QUERIES {
            for batch in [0, feasible, over] {
                let line = line(query, batch);
                let spec = parse_spec(&line);
                let answer = serde_json::from_str(&planner.answer(&spec)).expect("JSON");
                let oracle = serde_json::from_str(&single_gpu_oracle(&spec)).expect("JSON");
                let Value::Object(fields) = &oracle else { panic!("object") };
                for (key, want) in fields {
                    if query == "estimate" && DROPPED_ESTIMATE_KEYS.contains(&key.as_str()) {
                        prop_assert!(answer.get(key).is_none(), "{key} still reported for {line}");
                        continue;
                    }
                    let got = answer.get(key).unwrap_or(&Value::Null);
                    prop_assert!(same_bits(want, got), "{key}: {want} vs {got} for {line}");
                }
            }
        }
    }

    /// Over the whole scenario space — extreme sequence lengths, batches,
    /// fleets, memory overrides, epoch counts, and prices — every answer
    /// is a typed domain error or a success whose every number is finite
    /// and non-negative. Each case asks every query under every strategy
    /// and pricing, at its drawn batch and at the Eq. 1 maximum. A panic
    /// fails the test.
    fn prop_every_answer_is_finite_or_a_domain_error(
        (mi, ri, gi, di) in (0usize..2, 0usize..4, 0usize..4, 0usize..5),
        (seq_raw, seq_shift) in (0u64..u64::MAX, 43u32..=64),
        (batch_raw, batch_shift) in (0u64..u64::MAX, 23u32..=64),
        (world_raw, world_shift) in (0u64..u64::MAX, 53u32..=64),
        (mem_raw, mem_shift, epochs_raw, epochs_shift) in
            (0u64..u64::MAX, 51u32..=64, 0u64..u64::MAX, 1u32..=64),
        price in 0.01f64..100.0,
    ) {
        let planner = &planners().0;
        let seq_len = 1 + log_uniform(seq_raw, seq_shift, (1 << 20) - 1);
        let world = 1 + log_uniform(world_raw, world_shift, MAX_WORLD_SIZE as u64 - 1);
        let mem_gb = log_uniform(mem_raw, mem_shift, 4096);
        let epochs = 1 + log_uniform(epochs_raw, epochs_shift, (1 << 62) - 1);
        let pricings = [
            String::new(),
            ",\"provider\":\"aws\"".to_string(),
            ",\"price_per_hour\":1e308".to_string(),
            format!(",\"price_per_hour\":{price}"),
        ];
        for query in QUERIES {
            for par in ["data", "tensor", "expert"] {
                for pricing in &pricings {
                    for batch in [0, log_uniform(batch_raw, batch_shift, 1 << 40)] {
                        let line = format!(
                            "{{\"query\":\"{query}\",\"model\":\"{}\",\"recipe\":\"{}\",\"gpu\":\"{}\",\
                             \"gpu_mem_gb\":{mem_gb},\"dataset\":\"{}\",\"seq_len\":{seq_len},\
                             \"batch\":{batch},\"epochs\":{epochs},\"world_size\":{world},\
                             \"parallelism\":\"{par}\"{pricing}}}",
                            MODELS[mi], RECIPES[ri], GPUS[gi], DATASETS[di],
                        );
                        let answer = planner.answer(&parse_spec(&line));
                        let doc = serde_json::from_str(&answer).expect("JSON");
                        match doc.get("ok") {
                            Some(Value::Bool(true)) => prop_assert!(
                                all_numbers_finite_and_nonnegative(&doc),
                                "non-finite or negative number for {line}: {answer}"
                            ),
                            Some(Value::Bool(false)) => prop_assert!(
                                matches!(doc.get("error"), Some(Value::String(_))),
                                "error answer without a message for {line}: {answer}"
                            ),
                            other => prop_assert!(false, "ok = {other:?} for {line}"),
                        }
                    }
                }
            }
        }
    }
}

/// One client session against a real socket.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut answer = String::new();
        self.reader.read_line(&mut answer).expect("read");
        assert!(answer.ends_with('\n'), "answers are newline-framed");
        answer.trim_end().to_string()
    }
}

#[test]
fn tcp_round_trip_caches_and_reports_stats() {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 32,
        shards: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let mut client = Client::connect(addr);
    let request = request_line(
        "estimate",
        "mixtral-8x7b",
        "qlora-sparse",
        "A100-80GB",
        "math_14k",
        (0, 10, 2),
    );
    let first = client.roundtrip(&request);
    let second = client.roundtrip(&request);
    assert_eq!(first, second, "repeat queries are bit-identical");
    let doc: Value = serde_json::from_str(&first).expect("answer is JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{first}");

    // A second connection hits the same cache entry.
    let mut other = Client::connect(addr);
    assert_eq!(other.roundtrip(&request), first);

    let stats: Value =
        serde_json::from_str(&client.roundtrip(r#"{"query":"stats"}"#)).expect("stats JSON");
    let cache = stats.get("cache").expect("cache section");
    let count = |k: &str| match cache.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("cache.{k} missing or non-integer: {other:?}"),
    };
    assert_eq!(count("misses"), 1, "{stats:?}");
    assert_eq!(count("hits"), 2, "{stats:?}");

    client.roundtrip(r#"{"query":"shutdown"}"#);
    server.wait();
    assert_eq!(server.cache_stats().misses, 1);
}

#[test]
fn tcp_distributed_queries_share_one_cache_slot_across_spellings() {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 16,
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr());

    // Same scenario, three spellings: gpus vs world_size alias, tensor vs
    // tp, implicit-auto vs explicit link tier. One miss, two hits.
    let canonical =
        client.roundtrip(r#"{"query":"plan","gpu":"A100-80GB","gpus":4,"parallelism":"tensor"}"#);
    let aliased = client.roundtrip(
        r#"{"query":"plan","gpu":"a100-80gb","world_size":4,"parallelism":"tp","link":"auto"}"#,
    );
    let explicit = client.roundtrip(
        r#"{"query":"plan","gpu":"A100-80GB","gpus":4,"parallelism":"tp","link":"nvlink"}"#,
    );
    assert_eq!(canonical, aliased);
    assert_eq!(canonical, explicit);
    let doc: Value = serde_json::from_str(&canonical).expect("answer is JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{canonical}");
    assert_eq!(doc.get("world_size"), Some(&Value::Int(4)), "{canonical}");
    assert_eq!(
        doc.get("link"),
        Some(&Value::String("NVLink3".into())),
        "{canonical}"
    );

    let stats: Value =
        serde_json::from_str(&client.roundtrip(r#"{"query":"stats"}"#)).expect("stats JSON");
    let cache = stats.get("cache").expect("cache section");
    let count = |k: &str| match cache.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("cache.{k} missing or non-integer: {other:?}"),
    };
    assert_eq!(count("misses"), 1, "{stats:?}");
    assert_eq!(count("hits"), 2, "{stats:?}");

    server.shutdown();
}

#[test]
fn tcp_malformed_and_domain_errors_answer_without_dropping_the_connection() {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 8,
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr());

    let garbage = client.roundtrip("this is not json");
    assert!(garbage.starts_with(r#"{"ok":false"#), "{garbage}");

    // Domain error: AWS sells no A40 — a deterministic, cacheable answer.
    let no_price = client.roundtrip(r#"{"query":"estimate","gpu":"A40","provider":"aws"}"#);
    assert!(no_price.starts_with(r#"{"ok":false"#), "{no_price}");
    assert!(no_price.contains("price"), "{no_price}");

    // The connection still answers valid queries afterwards.
    let ok = client.roundtrip(r#"{"query":"plan","gpu":"A100-80GB"}"#);
    let doc: Value = serde_json::from_str(&ok).expect("JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{ok}");

    server.shutdown();
}
