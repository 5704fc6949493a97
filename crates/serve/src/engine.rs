//! The planner engine: turns a canonical [`ScenarioSpec`] into a JSON
//! answer.
//!
//! Answers are **deterministic**: fields render in a fixed order, floats
//! render through one code path, and every number derives from the same
//! deterministic cost model the batch experiments use. The scenario cache
//! relies on this — a cached answer must be bit-identical to a fresh
//! computation of the same spec.
//!
//! An answer is streamed into one `String` by `Fields`, a small object
//! writer, rather than built as a `serde_json::Value` tree and rendered:
//! no key, nested object or number is allocated on its own. Its numbers and
//! strings go through `serde_json`'s own rendering (`write_int`,
//! `write_float`, `write_string`), which is also what renders a `Value`, so
//! the bytes are those a `Value` of the same fields would render to.
//!
//! Every query goes through one [`DistributedPlan`] per (model, recipe):
//! plans and estimates on the scenario's fleet, sweeps on one device of
//! the scenario's GPU (the sweep ignores the world size). A fleet of one
//! is the paper's single-GPU Eq. 1 and step simulation, bit for bit. Each
//! plan pools one simulator per device spec, so its internal trace caches
//! keep amortizing kernel-grid construction across scenarios that differ
//! only in dataset, batch, price, world size, link, or strategy, even when
//! the scenario-level cache misses.

use std::sync::{Arc, Mutex};

use ftsim_cost::{DistributedPlan, Topology};

use crate::spec::{QueryKind, ScenarioSpec};

/// Stateful query engine. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct Planner {
    /// Distributed plans pooled by (model, recipe); each plan pools its own
    /// per-device simulators. At most eight (two models × four recipes), so
    /// a scan beats building and hashing a combined key per query.
    plans: Mutex<Vec<(String, String, Arc<DistributedPlan>)>>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

/// Largest number of batch sizes a sweep answer enumerates; wider feasible
/// ranges are sampled evenly (endpoints always included).
const SWEEP_MAX_POINTS: usize = 16;

/// Initial buffer for one answer: a plan answer is ~600 bytes, a sweep
/// with 16 points ~1.6 KiB.
const ANSWER_CAPACITY: usize = 1024;

/// Renders one JSON object whose fields `fill` writes, in call order.
pub(crate) fn object(fill: impl FnOnce(&mut Fields<'_>)) -> String {
    let mut out = String::with_capacity(ANSWER_CAPACITY);
    Fields::write(&mut out, fill);
    out
}

/// Streams the fields of one JSON object into a `String`. Keys and string
/// values are escaped and numbers formatted exactly as `serde_json` renders
/// a `Value`, so an answer has a single float path.
pub(crate) struct Fields<'a> {
    out: &'a mut String,
    first: bool,
}

impl Fields<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Fields<'_>)) {
        out.push('{');
        fill(&mut Fields {
            out: &mut *out,
            first: true,
        });
        out.push('}');
    }

    /// Starts the next field; returns the buffer to write its value into.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        serde_json::write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Self {
        serde_json::write_string(self.key(key), value);
        self
    }

    pub(crate) fn float(&mut self, key: &str, value: f64) -> &mut Self {
        serde_json::write_float(self.key(key), value);
        self
    }

    /// An integer field, converted to `i64` as `json!` converts a `usize`.
    pub(crate) fn int(&mut self, key: &str, value: usize) -> &mut Self {
        serde_json::write_int(self.key(key), value as i64);
        self
    }

    pub(crate) fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    pub(crate) fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A nested object whose fields `fill` writes.
    pub(crate) fn object(&mut self, key: &str, fill: impl FnOnce(&mut Fields<'_>)) -> &mut Self {
        Fields::write(self.key(key), fill);
        self
    }

    /// An array holding one object per item, each written by `fill`.
    pub(crate) fn objects<T>(
        &mut self,
        key: &str,
        items: &[T],
        mut fill: impl FnMut(&mut Fields<'_>, &T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Fields::write(out, |fields| fill(fields, item));
        }
        out.push(']');
        self
    }
}

fn err(spec: &ScenarioSpec, message: &str) -> String {
    object(|f| {
        f.bool("ok", false)
            .str("query", spec.query.key())
            .str("scenario", &spec.canonical_key())
            .str("error", message);
    })
}

const NO_FIT: &str = "model does not fit on this GPU at batch 1";

fn no_price(spec: &ScenarioSpec) -> String {
    err(
        spec,
        &format!(
            "no {} price for {} (pass price_per_hour to override)",
            spec.provider.key(),
            spec.gpu
        ),
    )
}

/// Wall-clock hours and dollars for `total_queries` at `qps` on `gpus`
/// devices billed at `rate` each, or a domain error when either overflows.
fn cost(
    spec: &ScenarioSpec,
    total_queries: f64,
    qps: f64,
    rate: f64,
    gpus: usize,
) -> Result<(f64, f64), String> {
    let hours = total_queries / qps / 3600.0;
    let usd = hours * rate * gpus as f64;
    if hours.is_finite() && usd.is_finite() {
        Ok((hours, usd))
    } else {
        Err(err(
            spec,
            "cost is not finite (too many epochs or too high a price)",
        ))
    }
}

impl Planner {
    /// A planner with an empty plan pool.
    pub fn new() -> Self {
        Planner {
            plans: Mutex::new(Vec::new()),
        }
    }

    /// Number of pooled simulators: the sum over pooled plans of their
    /// distinct device specs (catalog GPU × memory override).
    pub fn simulator_count(&self) -> usize {
        let plans = self.plans.lock().expect("plan pool");
        plans
            .iter()
            .map(|(_, _, plan)| plan.simulator_count())
            .sum()
    }

    fn plan_for(&self, spec: &ScenarioSpec) -> Arc<DistributedPlan> {
        let mut plans = self.plans.lock().expect("plan pool");
        if let Some((_, _, plan)) = plans
            .iter()
            .find(|(model, recipe, _)| *model == spec.model && *recipe == spec.recipe)
        {
            return Arc::clone(plan);
        }
        let plan = Arc::new(DistributedPlan::new(
            spec.model_config(),
            spec.finetune_config(),
        ));
        plans.push((spec.model.clone(), spec.recipe.clone(), Arc::clone(&plan)));
        plan
    }

    /// Number of pooled distributed plans (distinct model × recipe combos
    /// that answered any query).
    pub fn plan_count(&self) -> usize {
        self.plans.lock().expect("plan pool").len()
    }

    /// Computes the answer for `spec`. Deterministic: equal canonical specs
    /// produce byte-identical output. Never panics on domain errors — those
    /// return an `"ok": false` answer (which is cacheable like any other).
    pub fn answer(&self, spec: &ScenarioSpec) -> String {
        let plan = self.plan_for(spec);
        match spec.query {
            QueryKind::Plan => answer_plan(spec, &plan, &spec.topology()),
            QueryKind::Estimate => answer_estimate(spec, &plan, &spec.topology()),
            QueryKind::Sweep => answer_sweep(spec, &plan, &Topology::single(spec.gpu_spec())),
        }
    }
}

/// Memory planning: Eq. 1 over the LLMem-style partition. The answer
/// reports the global max batch, the single-device footprint at the
/// resolved batch, and one rank's sharded / replicated split.
fn answer_plan(spec: &ScenarioSpec, plan: &DistributedPlan, topo: &Topology) -> String {
    let model = plan.model();
    let ft = plan.finetune();
    let gpu = &topo.devices()[0]; // homogeneous fleet: every rank equal
    let max_batch = plan.max_batch(topo, spec.parallelism, spec.seq_len);
    let batch = Some(spec.batch).filter(|&b| b > 0).unwrap_or(max_batch);
    let fits = max_batch >= 1 && batch <= max_batch;
    let bd = plan.memory().breakdown(batch.max(1), spec.seq_len);
    let part = plan.partition(topo, spec.parallelism, batch.max(1), spec.seq_len);
    let rank = &part.per_device[0];
    object(|f| {
        f.bool("ok", true)
            .str("query", "plan")
            .str("scenario", &spec.canonical_key())
            .str("model", &model.name)
            .str("recipe", &spec.recipe)
            .str("gpu", &gpu.name)
            .float("gpu_mem_gb", gpu.mem_gb)
            .int("world_size", spec.gpus)
            .str("parallelism", spec.parallelism.key())
            .str("link", &spec.link)
            .int("seq_len", spec.seq_len)
            .int("trainable_params", ft.trainable_params(model) as usize)
            .float("trainable_pct", ft.trainable_pct(model))
            .int("max_batch", max_batch)
            .int("batch", batch)
            .bool("fits", fits)
            .object("memory_gb", |m| {
                m.float("weights", bd.weights_gb)
                    .float("adapters", bd.adapters_gb)
                    .float("gradients", bd.gradients_gb)
                    .float("optimizer", bd.optimizer_gb)
                    .float("overhead", bd.overhead_gb)
                    .float("activations", bd.activations_gb)
                    .float("total", bd.total_gb());
            })
            .object("per_device_memory_gb", |m| {
                m.float("sharded", rank.sharded_gb)
                    .float("replicated", rank.replicated_gb)
                    .float("total", rank.total_gb());
            });
    })
}

/// Cost estimation: the batch is the **global** batch, resolved against
/// the partitioned Eq. 1 maximum, and the step splits into compute + comm
/// + bubble (both zero on one device).
fn answer_estimate(spec: &ScenarioSpec, plan: &DistributedPlan, topo: &Topology) -> String {
    let par = spec.parallelism;
    let max_batch = plan.max_batch(topo, par, spec.seq_len);
    if max_batch == 0 {
        return err(spec, NO_FIT);
    }
    let batch = Some(spec.batch).filter(|&b| b > 0).unwrap_or(max_batch);
    if batch > max_batch {
        return err(
            spec,
            &format!("batch {batch} exceeds the Eq. 1 maximum {max_batch}"),
        );
    }
    let Some(usd_per_hour) = spec.usd_per_hour() else {
        return no_price(spec);
    };
    let step = plan.simulate_step(topo, par, batch, spec.seq_len);
    let qps = step.queries_per_second();
    let ds = spec.dataset_spec();
    // In f64, so huge epoch counts cannot overflow.
    let total_queries = spec.epochs as f64 * ds.num_queries as f64;
    let (hours, usd) = match cost(spec, total_queries, qps, usd_per_hour, spec.gpus) {
        Ok(priced) => priced,
        Err(answer) => return answer,
    };
    object(|f| {
        f.bool("ok", true)
            .str("query", "estimate")
            .str("scenario", &spec.canonical_key())
            .str("model", &plan.model().name)
            .str("recipe", &spec.recipe)
            .str("gpu", &spec.gpu)
            .str("dataset", &ds.name)
            .int("seq_len", spec.seq_len)
            .int("batch", batch)
            .int("per_device_batch", step.per_device_batch)
            .int("max_batch", max_batch)
            .int("world_size", spec.gpus)
            .str("parallelism", par.key())
            .str("link", &spec.link)
            .float("step_seconds", step.total_seconds())
            .float("compute_seconds", step.compute_seconds)
            .float("comm_seconds", step.comm_seconds)
            .float("bubble_seconds", step.bubble_seconds)
            .int("gpus", spec.gpus)
            .float("queries_per_second", qps)
            .float("scaling_efficiency", step.compute_fraction())
            .int("epochs", spec.epochs)
            .float("total_queries", total_queries)
            .float("usd_per_hour", usd_per_hour)
            .float("hours", hours)
            .float("usd", usd);
    })
}

/// Batch sweep on `device`, a single-GPU topology: throughput at evenly
/// spaced feasible batch sizes, and the cost at the fastest one.
fn answer_sweep(spec: &ScenarioSpec, plan: &DistributedPlan, device: &Topology) -> String {
    let par = spec.parallelism;
    let max_batch = plan.max_batch(device, par, spec.seq_len);
    if max_batch == 0 {
        return err(spec, NO_FIT);
    }
    // Endpoints plus an even sample of the interior, deduplicated.
    let mut batches: Vec<usize> = if max_batch <= SWEEP_MAX_POINTS {
        (1..=max_batch).collect()
    } else {
        (0..SWEEP_MAX_POINTS)
            .map(|i| 1 + i * (max_batch - 1) / (SWEEP_MAX_POINTS - 1))
            .collect()
    };
    batches.dedup();
    // (batch, step seconds, queries per second) per point.
    let points: Vec<(usize, f64, f64)> = batches
        .iter()
        .map(|&batch| {
            let step_seconds = plan
                .simulate_step(device, par, batch, spec.seq_len)
                .total_seconds();
            (batch, step_seconds, batch as f64 / step_seconds)
        })
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for &(batch, _, qps) in &points {
        if best.is_none_or(|(_, b)| qps > b) {
            best = Some((batch, qps));
        }
    }
    let (best_batch, best_qps) = best.expect("max_batch >= 1 yields at least one point");
    let ds = spec.dataset_spec();
    let total_queries = spec.epochs as f64 * ds.num_queries as f64;
    let cost_at_best = match spec.usd_per_hour() {
        Some(rate) => match cost(spec, total_queries, best_qps, rate, 1) {
            Ok((hours, usd)) => Some((rate, hours, usd)),
            Err(answer) => return answer,
        },
        None => None,
    };
    object(|f| {
        f.bool("ok", true)
            .str("query", "sweep")
            .str("scenario", &spec.canonical_key())
            .str("model", &plan.model().name)
            .str("recipe", &spec.recipe)
            .str("gpu", &spec.gpu)
            .str("dataset", &ds.name)
            .int("seq_len", spec.seq_len)
            .int("max_batch", max_batch)
            .objects("points", &points, |p, &(batch, step_seconds, qps)| {
                p.int("batch", batch)
                    .float("step_seconds", step_seconds)
                    .float("queries_per_second", qps);
            })
            .int("best_batch", best_batch)
            .float("best_qps", best_qps);
        match cost_at_best {
            Some((rate, hours, usd)) => f.object("cost_at_best", |c| {
                c.float("usd_per_hour", rate)
                    .float("hours", hours)
                    .float("usd", usd);
            }),
            None => f.null("cost_at_best"),
        };
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn spec(text: &str) -> ScenarioSpec {
        ScenarioSpec::parse_str(text).unwrap()
    }

    #[test]
    fn plan_answer_reports_feasible_batch_and_memory() {
        let planner = Planner::new();
        let answer = planner.answer(&spec(r#"{"query":"plan"}"#));
        let doc = serde_json::from_str(&answer).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("gpu"), Some(&Value::String("A40".into())));
        let max_batch = match doc.get("max_batch") {
            Some(Value::Int(n)) => *n,
            other => panic!("max_batch: {other:?}"),
        };
        assert!(max_batch >= 1, "QLoRA Mixtral fits on an A40");
        assert!(matches!(doc.get("fits"), Some(Value::Bool(true))));
    }

    #[test]
    fn estimate_answer_is_deterministic_and_priced() {
        let planner = Planner::new();
        let s = spec(r#"{"query":"estimate","dataset":"math"}"#);
        let a = planner.answer(&s);
        let b = planner.answer(&s);
        assert_eq!(a, b, "same spec, same bytes");
        let doc = serde_json::from_str(&a).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        for field in ["step_seconds", "queries_per_second", "hours", "usd"] {
            match doc.get(field) {
                Some(Value::Float(v)) => assert!(*v > 0.0, "{field} must be positive"),
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn estimate_on_aws_a40_is_a_domain_error_not_a_panic() {
        // The paper's observation: AWS lists no A40. The answer is a
        // deterministic error document, so it caches like any result.
        let planner = Planner::new();
        let s = spec(r#"{"query":"estimate","provider":"aws"}"#);
        let answer = planner.answer(&s);
        let doc = serde_json::from_str(&answer).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(answer, planner.answer(&s));
    }

    #[test]
    fn price_override_unblocks_unlisted_gpus() {
        let planner = Planner::new();
        let s = spec(r#"{"query":"estimate","provider":"aws","price_per_hour":1.25}"#);
        let doc = serde_json::from_str(&planner.answer(&s)).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("usd_per_hour"), Some(&Value::Float(1.25)));
    }

    #[test]
    fn oversized_batch_is_rejected_with_the_limit() {
        let planner = Planner::new();
        // One wording whatever the world size.
        for world in [1, 4] {
            let answer = planner.answer(&spec(&format!(
                r#"{{"query":"estimate","batch":100000,"world_size":{world}}}"#
            )));
            let doc = serde_json::from_str(&answer).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
            let Some(Value::String(error)) = doc.get("error") else {
                panic!("error missing: {answer}");
            };
            assert!(
                error.starts_with("batch 100000 exceeds the Eq. 1 maximum"),
                "{error}"
            );
        }
    }

    #[test]
    fn overflowing_cost_is_a_domain_error() {
        let planner = Planner::new();
        for query in ["estimate", "sweep"] {
            let answer = planner.answer(&spec(&format!(
                r#"{{"query":"{query}","price_per_hour":1e308,"epochs":1000000}}"#
            )));
            let doc = serde_json::from_str(&answer).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(false)), "{answer}");
        }
    }

    #[test]
    fn sweep_covers_the_feasible_range_and_picks_a_best() {
        let planner = Planner::new();
        let answer = planner.answer(&spec(r#"{"query":"sweep"}"#));
        let doc = serde_json::from_str(&answer).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        let Some(Value::Array(points)) = doc.get("points") else {
            panic!("points missing");
        };
        assert!(!points.is_empty() && points.len() <= SWEEP_MAX_POINTS);
        let Some(Value::Int(first)) = points[0].get("batch") else {
            panic!("batch missing");
        };
        assert_eq!(*first, 1, "sweep starts at batch 1");
        let best = doc.get("best_qps");
        assert!(matches!(best, Some(Value::Float(q)) if *q > 0.0));
    }

    #[test]
    fn distributed_plan_partitions_memory_and_estimates_comm() {
        let planner = Planner::new();
        // Tensor parallelism shards the static state, so an 8-GPU fleet
        // admits a larger global batch than one device.
        let single = serde_json::from_str(&planner.answer(&spec(r#"{"query":"plan"}"#))).unwrap();
        let sharded = serde_json::from_str(&planner.answer(&spec(
            r#"{"query":"plan","world_size":8,"parallelism":"tensor"}"#,
        )))
        .unwrap();
        let max = |doc: &Value| match doc.get("max_batch") {
            Some(Value::Int(n)) => *n,
            other => panic!("max_batch: {other:?}"),
        };
        assert_eq!(sharded.get("ok"), Some(&Value::Bool(true)));
        assert!(
            max(&sharded) > max(&single),
            "sharding frees activation room"
        );
        assert_eq!(
            sharded.get("parallelism"),
            Some(&Value::String("tensor".into()))
        );
        assert!(sharded.get("per_device_memory_gb").is_some());

        // A multi-GPU estimate pays a communication tax and reports it.
        let est = serde_json::from_str(
            &planner.answer(&spec(r#"{"query":"estimate","world_size":4,"batch":8}"#)),
        )
        .unwrap();
        assert_eq!(est.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(est.get("link"), Some(&Value::String("PCIe4x16".into())));
        match est.get("comm_seconds") {
            Some(Value::Float(c)) => assert!(*c > 0.0, "4-way data parallel all-reduces"),
            other => panic!("comm_seconds: {other:?}"),
        }
        match est.get("scaling_efficiency") {
            Some(Value::Float(e)) => assert!(*e > 0.0 && *e < 1.0),
            other => panic!("scaling_efficiency: {other:?}"),
        }
        assert_eq!(planner.plan_count(), 1, "one model|recipe, one plan");
    }

    #[test]
    fn simulators_are_pooled_across_datasets_and_prices() {
        let planner = Planner::new();
        planner.answer(&spec(r#"{"query":"estimate"}"#));
        planner.answer(&spec(r#"{"query":"estimate","dataset":"math"}"#));
        planner.answer(&spec(r#"{"query":"estimate","price_per_hour":0.5}"#));
        assert_eq!(
            planner.simulator_count(),
            1,
            "same model|recipe|gpu shares one simulator"
        );
        planner.answer(&spec(r#"{"query":"estimate","world_size":4}"#));
        assert_eq!(planner.simulator_count(), 1, "a fleet of A40s reuses it");
        planner.answer(&spec(r#"{"query":"estimate","gpu":"h100-80"}"#));
        planner.answer(&spec(r#"{"query":"estimate","gpu_mem_gb":120}"#));
        assert_eq!(planner.simulator_count(), 3, "one per device spec");
        assert_eq!(planner.plan_count(), 1);
    }
}
