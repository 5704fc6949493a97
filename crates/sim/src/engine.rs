//! Deterministic parallel fan-out for sweeps, grids, and experiment drivers.
//!
//! The paper's figures are dense grids of independent simulations —
//! throughput vs. batch for every model × recipe × GPU (Fig. 8, 14–15),
//! max-batch searches (Table III), sensitivity studies — which makes them
//! embarrassingly parallel. This module provides a scoped-thread pool
//! (`std::thread::scope`, no external dependencies) that maps a pure
//! function over a slice across cores and returns results **in input
//! order**, so every experiment artifact stays byte-for-byte identical no
//! matter how many workers ran.
//!
//! Thread count comes from the `FTSIM_THREADS` environment variable and
//! defaults to the machine's available parallelism. With one thread (or one
//! item) the map degenerates to a plain serial loop — same results, zero
//! threading overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "FTSIM_THREADS";

/// Worker threads to use: `FTSIM_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    resolve_thread_count(std::env::var(THREADS_ENV).ok().as_deref())
}

fn resolve_thread_count(env_value: Option<&str>) -> usize {
    env_value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` using [`thread_count`] workers; results come back
/// in input order regardless of scheduling.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(thread_count(), items, f)
}

/// [`parallel_map`] with an explicit worker count. `threads <= 1` (or a
/// single item) runs serially on the calling thread. A panic in `f`
/// propagates to the caller once the scope joins.
pub fn parallel_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Work distribution: a shared atomic cursor hands out the next unclaimed
    // index, so slow items never stall the other workers; each result lands
    // in its input-index slot, which is what makes the output deterministic.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let output = f(&items[index]);
                *slots[index].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and filled before the scope joined")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepSimulator;
    use ftsim_gpu::{CostModel, GpuSpec};
    use ftsim_model::{presets, FineTuneConfig};

    #[test]
    fn resolves_env_override_and_defaults() {
        assert_eq!(resolve_thread_count(Some("4")), 4);
        assert_eq!(resolve_thread_count(Some(" 2 ")), 2);
        // Invalid or non-positive values fall back to the machine default.
        let default = resolve_thread_count(None);
        assert!(default >= 1);
        assert_eq!(resolve_thread_count(Some("0")), default);
        assert_eq!(resolve_thread_count(Some("lots")), default);
        assert_eq!(resolve_thread_count(Some("")), default);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map_with(threads, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_degenerate_inputs() {
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn simulation_results_identical_across_thread_counts() {
        // The determinism contract behind `repro`: FTSIM_THREADS=1 and =8
        // must produce bit-identical simulation results.
        let sim = StepSimulator::new(
            presets::mixtral_8x7b(),
            FineTuneConfig::qlora_sparse(),
            CostModel::new(GpuSpec::a40()),
        );
        let batches: Vec<usize> = (1..=12).collect();
        let serial = parallel_map_with(1, &batches, |&b| {
            sim.simulate_step(b, 128).total_seconds().to_bits()
        });
        let parallel = parallel_map_with(8, &batches, |&b| {
            sim.simulate_step(b, 128).total_seconds().to_bits()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map_with(4, &items, |&x| {
            if x == 9 {
                panic!("boom");
            }
            x
        });
    }
}
