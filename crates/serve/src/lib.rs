//! Planner-as-a-service: a concurrent query engine over the `ftsim` cost
//! model.
//!
//! The batch experiments answer "what does fine-tuning cost?" by running a
//! fixed grid. This crate answers the same questions **on demand**: a
//! long-running TCP server ([`Server`]) accepts declarative scenario specs
//! ([`ScenarioSpec`]) — model × GPU × dataset × parallelism × price
//! overrides, one JSON object per line — and replies with memory plans,
//! cost estimates, or batch sweeps computed by the same deterministic
//! simulator the experiments use.
//!
//! Two layers keep the hot path fast:
//!
//! 1. a sharded scenario-hash LRU cache ([`ScenarioCache`]) that returns
//!    previously computed answers byte-for-byte and coalesces concurrent
//!    misses onto a single computation,
//! 2. pipelined line framing in the server, so a batch of questions costs
//!    one syscall round-trip.
//!
//! The bounded answer cache is the only state a scenario leaves behind.
//! [`Planner`] computes each answer from scratch on immutable plans, one
//! per model × recipe (at most eight), so distinct scenarios cannot grow
//! memory.
//!
//! [`loadgen`] is the matching closed-loop benchmark driver; it issues a
//! deterministic query stream so CI can gate on exact cache counters.

pub mod cache;
pub mod engine;
pub mod loadgen;
pub mod server;
pub mod spec;

pub use cache::{CacheStats, ScenarioCache};
pub use engine::Planner;
pub use loadgen::{LoadgenConfig, LoadgenReport, Mix};
pub use server::{ServeConfig, Server};
pub use spec::{QueryKind, ScenarioSpec};
