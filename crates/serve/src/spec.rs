//! Declarative scenario specs: parse, validate, canonicalize, hash.
//!
//! A scenario spec is the wire-level description of one planner query —
//! model × recipe × GPU × dataset × parallelism × price overrides — sent as
//! a single JSON object. Parsing is strict (unknown fields and unknown
//! names are errors, not silently ignored), and the parsed spec is
//! **canonicalized**: every optional field is resolved to its concrete
//! default and aliases collapse to one spelling, so two requests that mean
//! the same scenario — whatever their field order or explicitness — produce
//! the same [`ScenarioSpec::canonical_key`] and therefore the same
//! [`ScenarioSpec::hash`]. That key is the contract of the scenario cache:
//! equal keys must return bit-identical answers.

use std::hash::Hasher;

use crate::cache::FxHasher;
use ftsim_cost::{Interconnect, Parallelism, Topology};
use ftsim_gpu::{CloudProvider, GpuSpec, PriceTable};
use ftsim_model::{presets, FineTuneConfig, ModelConfig};
use ftsim_workload::{presets as data, DatasetSpec};
use serde_json::Value;

/// The three query shapes the planner answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Memory planning: Eq. 1 max batch size and the memory breakdown.
    Plan,
    /// Cost estimation: simulate one step, derive throughput, hours, USD.
    Estimate,
    /// Batch sweep: throughput/cost at every feasible batch size, on one
    /// device of the scenario's GPU (the world size does not enter).
    Sweep,
}

impl QueryKind {
    /// Lower-case wire name.
    pub fn key(&self) -> &'static str {
        match self {
            QueryKind::Plan => "plan",
            QueryKind::Estimate => "estimate",
            QueryKind::Sweep => "sweep",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Result<QueryKind, String> {
        match s {
            "plan" => Ok(QueryKind::Plan),
            "estimate" => Ok(QueryKind::Estimate),
            "sweep" => Ok(QueryKind::Sweep),
            other => Err(format!(
                "unknown query {other:?} (want plan, estimate, or sweep)"
            )),
        }
    }
}

/// Largest accepted world size (`gpus` / `world_size`). The comm model
/// prices one flat link tier, and every fleet is materialized device by
/// device, so larger fleets are rejected at parse time rather than
/// answered or allowed to exhaust memory.
pub const MAX_WORLD_SIZE: usize = 1024;

/// Fine-tuning recipe names accepted in specs, mapping onto the paper's
/// four configurations.
pub const RECIPES: [&str; 4] = ["qlora-sparse", "qlora-dense", "full-sparse", "full-dense"];

/// A fully resolved (canonical) scenario. Every field holds its concrete
/// value — defaults already applied — so the canonical key is a pure
/// function of the scenario's meaning, not of how the request spelled it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Query shape.
    pub query: QueryKind,
    /// Canonical model id (`"mixtral-8x7b"` or `"blackmamba-2.8b"`).
    pub model: String,
    /// Canonical recipe id (one of [`RECIPES`]).
    pub recipe: String,
    /// Canonical GPU catalog name (e.g. `"A40"`).
    pub gpu: String,
    /// GPU memory override in GB (`0` = the catalog device's memory).
    pub gpu_mem_gb: u32,
    /// Canonical dataset id (e.g. `"commonsense_15k"`).
    pub dataset: String,
    /// Sequence length in tokens (defaults to the dataset median).
    pub seq_len: usize,
    /// Batch size (`0` = the Eq. 1 maximum for the scenario).
    pub batch: usize,
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// World size — the device count of the fleet (`"gpus"` and
    /// `"world_size"` are aliases on the wire), 1 to [`MAX_WORLD_SIZE`].
    pub gpus: usize,
    /// Parallelism strategy for multi-GPU scenarios (default data).
    pub parallelism: Parallelism,
    /// Canonical interconnect name; `"auto"` on the wire resolves to the
    /// GPU class's realistic default (PCIe for A40, NVLink otherwise).
    pub link: String,
    /// Price book provider.
    pub provider: CloudProvider,
    /// Hourly price override in USD (bit pattern is part of the key).
    pub price_per_hour: Option<f64>,
}

fn as_str<'v>(field: &str, v: &'v Value) -> Result<&'v str, String> {
    match v {
        Value::String(s) => Ok(s.as_str()),
        other => Err(format!("field {field:?} must be a string, got {other}")),
    }
}

fn as_usize(field: &str, v: &Value) -> Result<usize, String> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as usize),
        other => Err(format!(
            "field {field:?} must be a nonnegative integer, got {other}"
        )),
    }
}

fn as_f64(field: &str, v: &Value) -> Result<f64, String> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) if f.is_finite() => Ok(*f),
        other => Err(format!(
            "field {field:?} must be a finite number, got {other}"
        )),
    }
}

fn canonical_model(name: &str) -> Result<&'static str, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "mixtral" | "mixtral-8x7b" => Ok("mixtral-8x7b"),
        "blackmamba" | "blackmamba-2.8b" => Ok("blackmamba-2.8b"),
        other => Err(format!(
            "unknown model {other:?} (want mixtral-8x7b or blackmamba-2.8b)"
        )),
    }
}

fn canonical_dataset(name: &str) -> Result<&'static str, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "cs" | "commonsense" | "commonsense_15k" => Ok("commonsense_15k"),
        "math" | "math_14k" => Ok("math_14k"),
        "he" | "hellaswag" => Ok("hellaswag"),
        "gs" | "gsm8k" => Ok("gsm8k"),
        "oo" | "openorca" => Ok("openorca"),
        other => Err(format!(
            "unknown dataset {other:?} (want commonsense_15k, math_14k, hellaswag, gsm8k, or openorca)"
        )),
    }
}

fn canonical_recipe(name: &str, model: &str) -> Result<String, String> {
    let lowered = name.trim().to_ascii_lowercase().replace('_', "-");
    if lowered == "paper" {
        // The paper's recipe for the model: QLoRA for the attention MoE,
        // full fine-tuning for the state-space MoE — both sparse top-2.
        return Ok(if model == "mixtral-8x7b" {
            "qlora-sparse".to_string()
        } else {
            "full-sparse".to_string()
        });
    }
    if RECIPES.contains(&lowered.as_str()) {
        return Ok(lowered);
    }
    Err(format!(
        "unknown recipe {name:?} (want paper, {})",
        RECIPES.join(", ")
    ))
}

impl ScenarioSpec {
    /// Parses and canonicalizes one request object. Strict: any unknown
    /// field, name, or malformed value is an error.
    pub fn parse(doc: &Value) -> Result<ScenarioSpec, String> {
        let Value::Object(entries) = doc else {
            return Err("request must be a JSON object".to_string());
        };
        let mut query = None;
        let mut model: Option<String> = None;
        let mut recipe_raw: Option<String> = None;
        let mut gpu: Option<String> = None;
        let mut gpu_mem_gb = 0u32;
        let mut dataset: Option<String> = None;
        let mut seq_len = 0usize;
        let mut batch = 0usize;
        let mut epochs = 10usize;
        let mut gpus: Option<(usize, &str)> = None;
        let mut parallelism = Parallelism::Data;
        let mut link_raw: Option<String> = None;
        let mut provider = CloudProvider::Cudo;
        let mut price_per_hour = None;
        let set_world = |gpus: &mut Option<(usize, &str)>,
                         field: &'static str,
                         n: usize|
         -> Result<(), String> {
            if n == 0 {
                return Err(format!("{field} must be at least 1"));
            }
            if n > MAX_WORLD_SIZE {
                return Err(format!("{field} must be at most {MAX_WORLD_SIZE}, got {n}"));
            }
            match gpus {
                Some((prev, prev_field)) if *prev != n => Err(format!(
                    "conflicting {prev_field}={prev} and {field}={n} (they are aliases)"
                )),
                _ => {
                    *gpus = Some((n, field));
                    Ok(())
                }
            }
        };
        for (key, value) in entries {
            match key.as_str() {
                "query" => query = Some(QueryKind::parse(as_str(key, value)?)?),
                "model" => model = Some(canonical_model(as_str(key, value)?)?.to_string()),
                "recipe" => recipe_raw = Some(as_str(key, value)?.to_string()),
                "gpu" => {
                    let name = as_str(key, value)?;
                    let spec = GpuSpec::by_name(name)
                        .ok_or_else(|| format!("unknown gpu {name:?} (want one of the catalog)"))?;
                    gpu = Some(spec.name);
                }
                "gpu_mem_gb" => {
                    let gb = as_usize(key, value)?;
                    gpu_mem_gb = u32::try_from(gb).map_err(|_| {
                        format!("field {key:?} must be at most {}, got {gb}", u32::MAX)
                    })?;
                }
                "dataset" => dataset = Some(canonical_dataset(as_str(key, value)?)?.to_string()),
                "seq_len" => seq_len = as_usize(key, value)?,
                "batch" => batch = as_usize(key, value)?,
                "epochs" => {
                    epochs = as_usize(key, value)?;
                    if epochs == 0 {
                        return Err("epochs must be at least 1".to_string());
                    }
                }
                "gpus" => set_world(&mut gpus, "gpus", as_usize(key, value)?)?,
                "world_size" => set_world(&mut gpus, "world_size", as_usize(key, value)?)?,
                "parallelism" => parallelism = Parallelism::parse(as_str(key, value)?)?,
                "link" => {
                    let name = as_str(key, value)?;
                    if name.trim().eq_ignore_ascii_case("auto") {
                        link_raw = None;
                    } else {
                        let tier = Interconnect::by_name(name).ok_or_else(|| {
                            format!("unknown link {name:?} (want auto, nvlink, pcie, or ethernet)")
                        })?;
                        link_raw = Some(tier.name.to_string());
                    }
                }
                "provider" => provider = as_str(key, value)?.parse()?,
                "price_per_hour" => {
                    let p = as_f64(key, value)?;
                    if p <= 0.0 {
                        return Err("price_per_hour must be positive".to_string());
                    }
                    price_per_hour = Some(p);
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        let query = query.ok_or_else(|| "missing field \"query\"".to_string())?;
        let model = model.unwrap_or_else(|| "mixtral-8x7b".to_string());
        let recipe = canonical_recipe(recipe_raw.as_deref().unwrap_or("paper"), &model)?;
        let dataset = dataset.unwrap_or_else(|| "commonsense_15k".to_string());
        let gpu = gpu.unwrap_or_else(|| "A40".to_string());
        // `"auto"` (the default) canonicalizes to the concrete tier for the
        // device class, so explicit and implicit spellings share a key.
        let link = link_raw.unwrap_or_else(|| {
            Topology::default_link_for(&GpuSpec::by_name(&gpu).expect("canonical gpu name"))
                .name
                .to_string()
        });
        let spec = ScenarioSpec {
            query,
            recipe,
            gpu,
            gpu_mem_gb,
            seq_len: if seq_len > 0 {
                seq_len
            } else {
                dataset_by_id(&dataset).median_seq_len
            },
            dataset,
            model,
            batch,
            epochs,
            gpus: gpus.map_or(1, |(n, _)| n),
            parallelism,
            link,
            provider,
            price_per_hour,
        };
        Ok(spec)
    }

    /// Parses a request from its JSON text.
    pub fn parse_str(text: &str) -> Result<ScenarioSpec, String> {
        let doc = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        ScenarioSpec::parse(&doc)
    }

    /// The canonical cache-key text: every resolved field in a fixed order.
    /// Two specs with the same meaning render identically. Float overrides
    /// contribute their exact bit pattern, so "almost equal" prices are
    /// distinct scenarios rather than silent collisions.
    pub fn canonical_key(&self) -> String {
        format!(
            "q={};model={};recipe={};gpu={};mem={};ds={};seq={};batch={};epochs={};gpus={};par={};link={};prov={};price={}",
            self.query.key(),
            self.model,
            self.recipe,
            self.gpu,
            self.gpu_mem_gb,
            self.dataset,
            self.seq_len,
            self.batch,
            self.epochs,
            self.gpus,
            self.parallelism.key(),
            self.link,
            self.provider.key(),
            match self.price_per_hour {
                Some(p) => format!("{:016x}", p.to_bits()),
                None => "table".to_string(),
            },
        )
    }

    /// FxHash of the canonical key — the shard selector of the scenario
    /// cache (entries themselves are keyed by the full canonical text, so a
    /// 64-bit collision costs a shard neighbor, never a wrong answer).
    pub fn hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(self.canonical_key().as_bytes());
        hasher.finish()
    }

    /// The model architecture this scenario describes.
    pub fn model_config(&self) -> ModelConfig {
        match self.model.as_str() {
            "mixtral-8x7b" => presets::mixtral_8x7b(),
            _ => presets::blackmamba_2p8b(),
        }
    }

    /// The fine-tuning recipe this scenario describes.
    pub fn finetune_config(&self) -> FineTuneConfig {
        match self.recipe.as_str() {
            "qlora-sparse" => FineTuneConfig::qlora_sparse(),
            "qlora-dense" => FineTuneConfig::qlora_dense(),
            "full-sparse" => FineTuneConfig::full_sparse(),
            _ => FineTuneConfig::full_dense(),
        }
    }

    /// The GPU this scenario runs on (memory override applied).
    pub fn gpu_spec(&self) -> GpuSpec {
        let base = GpuSpec::by_name(&self.gpu).expect("canonical gpu name");
        if self.gpu_mem_gb > 0 {
            base.with_memory(f64::from(self.gpu_mem_gb))
        } else {
            base
        }
    }

    /// The dataset this scenario fine-tunes on.
    pub fn dataset_spec(&self) -> DatasetSpec {
        dataset_by_id(&self.dataset)
    }

    /// The interconnect tier this scenario's collectives cross.
    pub fn interconnect(&self) -> Interconnect {
        Interconnect::by_name(&self.link).expect("canonical link name")
    }

    /// The device fleet this scenario runs on: `gpus` copies of the
    /// (possibly memory-overridden) GPU joined by the canonical link.
    pub fn topology(&self) -> Topology {
        Topology::homogeneous(self.gpu_spec(), self.gpus, self.interconnect())
    }

    /// The hourly rate for this scenario: the explicit override if present,
    /// otherwise the provider's listed price for the GPU.
    pub fn usd_per_hour(&self) -> Option<f64> {
        if let Some(p) = self.price_per_hour {
            return Some(p);
        }
        PriceTable::for_provider(self.provider).usd_per_hour(&self.gpu)
    }
}

fn dataset_by_id(id: &str) -> DatasetSpec {
    match id {
        "commonsense_15k" => data::commonsense_15k(),
        "math_14k" => data::math_14k(),
        "hellaswag" => data::hellaswag(),
        "gsm8k" => data::gsm8k(),
        _ => data::openorca(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_the_paper_headline_scenario() {
        let spec = ScenarioSpec::parse_str(r#"{"query":"estimate"}"#).unwrap();
        assert_eq!(spec.model, "mixtral-8x7b");
        assert_eq!(spec.recipe, "qlora-sparse");
        assert_eq!(spec.gpu, "A40");
        assert_eq!(spec.dataset, "commonsense_15k");
        assert_eq!(spec.seq_len, 79, "CS median seq len");
        assert_eq!((spec.batch, spec.epochs, spec.gpus), (0, 10, 1));
        assert_eq!(spec.provider, CloudProvider::Cudo);
    }

    #[test]
    fn field_order_and_explicit_defaults_hash_identically() {
        let terse = ScenarioSpec::parse_str(r#"{"query":"plan","gpu":"a40"}"#).unwrap();
        let explicit = ScenarioSpec::parse_str(
            r#"{"gpu":"A40","epochs":10,"model":"Mixtral-8x7B","query":"plan",
               "dataset":"cs","recipe":"paper","seq_len":79,"batch":0,"gpus":1,
               "world_size":1,"parallelism":"data","link":"auto",
               "provider":"cudo","gpu_mem_gb":0}"#,
        )
        .unwrap();
        assert_eq!(terse.canonical_key(), explicit.canonical_key());
        assert_eq!(terse.hash(), explicit.hash());
    }

    #[test]
    fn different_scenarios_get_different_keys() {
        let a = ScenarioSpec::parse_str(r#"{"query":"plan"}"#).unwrap();
        let b = ScenarioSpec::parse_str(r#"{"query":"plan","gpu":"h100-80"}"#).unwrap();
        let c = ScenarioSpec::parse_str(r#"{"query":"estimate"}"#).unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn price_override_is_keyed_by_bit_pattern() {
        let a = ScenarioSpec::parse_str(r#"{"query":"estimate","price_per_hour":0.79}"#).unwrap();
        let b = ScenarioSpec::parse_str(r#"{"query":"estimate","price_per_hour":0.80}"#).unwrap();
        let none = ScenarioSpec::parse_str(r#"{"query":"estimate"}"#).unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), none.canonical_key());
        assert_eq!(a.usd_per_hour(), Some(0.79));
        assert_eq!(none.usd_per_hour(), Some(0.79), "CUDO A40 table rate");
    }

    #[test]
    fn world_size_is_an_alias_of_gpus() {
        let gpus = ScenarioSpec::parse_str(r#"{"query":"plan","gpus":4}"#).unwrap();
        let world = ScenarioSpec::parse_str(r#"{"query":"plan","world_size":4}"#).unwrap();
        let both = ScenarioSpec::parse_str(r#"{"query":"plan","gpus":4,"world_size":4}"#).unwrap();
        assert_eq!(gpus.canonical_key(), world.canonical_key());
        assert_eq!(gpus.canonical_key(), both.canonical_key());
        assert_eq!(gpus.hash(), world.hash());
        // Conflicting aliases are an error, not a silent pick.
        let err =
            ScenarioSpec::parse_str(r#"{"query":"plan","gpus":4,"world_size":8}"#).unwrap_err();
        assert!(err.contains("aliases"), "{err}");
    }

    #[test]
    fn parallelism_and_link_are_canonical_key_axes() {
        let data = ScenarioSpec::parse_str(r#"{"query":"plan","world_size":4}"#).unwrap();
        let expert =
            ScenarioSpec::parse_str(r#"{"query":"plan","world_size":4,"parallelism":"expert"}"#)
                .unwrap();
        let eth = ScenarioSpec::parse_str(r#"{"query":"plan","world_size":4,"link":"ethernet"}"#)
            .unwrap();
        assert_eq!(data.parallelism, Parallelism::Data, "default strategy");
        assert_ne!(data.canonical_key(), expert.canonical_key());
        assert_ne!(data.canonical_key(), eth.canonical_key());
        // Short spellings collapse to the canonical tier name.
        let ep = ScenarioSpec::parse_str(
            r#"{"query":"plan","world_size":4,"parallelism":"ep","link":"100gbe"}"#,
        )
        .unwrap();
        assert_eq!(ep.parallelism, Parallelism::Expert);
        assert_eq!(ep.link, "Ethernet100G");
        assert_eq!(ep.interconnect().name, "Ethernet100G");
    }

    #[test]
    fn auto_link_resolves_per_gpu_class() {
        let a40 = ScenarioSpec::parse_str(r#"{"query":"plan","link":"auto"}"#).unwrap();
        assert_eq!(a40.link, "PCIe4x16", "A40 boxes have no NVLink bridge");
        let h100 =
            ScenarioSpec::parse_str(r#"{"query":"plan","gpu":"h100-80","link":"auto"}"#).unwrap();
        assert_eq!(h100.link, "NVLink3");
        // Explicit auto and the implicit default share one key.
        let implicit = ScenarioSpec::parse_str(r#"{"query":"plan"}"#).unwrap();
        assert_eq!(a40.canonical_key(), implicit.canonical_key());
        let topo = h100.topology();
        assert_eq!(topo.world_size(), 1);
        assert_eq!(topo.link().name, "NVLink3");
    }

    #[test]
    fn paper_recipe_depends_on_the_model() {
        let mixtral = ScenarioSpec::parse_str(r#"{"query":"plan"}"#).unwrap();
        let mamba = ScenarioSpec::parse_str(r#"{"query":"plan","model":"blackmamba"}"#).unwrap();
        assert_eq!(mixtral.recipe, "qlora-sparse");
        assert_eq!(mamba.recipe, "full-sparse");
    }

    #[test]
    fn strict_parse_rejects_unknowns_and_bad_values() {
        for bad in [
            r#"{"query":"teleport"}"#,
            r#"{"query":"plan","modle":"mixtral"}"#,
            r#"{"query":"plan","gpu":"tpu-v5"}"#,
            r#"{"query":"plan","epochs":0}"#,
            r#"{"query":"plan","gpus":0}"#,
            r#"{"query":"plan","world_size":0}"#,
            r#"{"query":"plan","world_size":1025}"#,
            r#"{"query":"plan","gpus":1025}"#,
            r#"{"query":"plan","gpu_mem_gb":4294967296}"#,
            r#"{"query":"plan","gpu_mem_gb":4294967376}"#,
            r#"{"query":"plan","parallelism":"pipeline"}"#,
            r#"{"query":"plan","link":"carrier-pigeon"}"#,
            r#"{"query":"plan","price_per_hour":-1}"#,
            r#"{"model":"mixtral"}"#,
            r#"[1,2]"#,
        ] {
            assert!(ScenarioSpec::parse_str(bad).is_err(), "accepted: {bad}");
        }
        let too_big = ScenarioSpec::parse_str(r#"{"query":"plan","world_size":1025}"#).unwrap_err();
        assert!(too_big.contains("at most 1024"), "{too_big}");
        let max = ScenarioSpec::parse_str(r#"{"query":"plan","world_size":1024}"#).unwrap();
        assert_eq!(max.gpus, MAX_WORLD_SIZE);
        let mem = ScenarioSpec::parse_str(r#"{"query":"plan","gpu_mem_gb":4294967295}"#).unwrap();
        assert_eq!(mem.gpu_mem_gb, u32::MAX);
    }
}
