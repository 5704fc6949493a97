//! A planner must not grow with the number of distinct scenarios it has
//! answered: answers are computed afresh, and the server's bounded answer
//! cache is the only place a scenario is remembered.
//!
//! The test counts live heap bytes with a wrapping global allocator, so it
//! is the only test in its binary: any other test allocating beside it
//! would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ftsim_serve::{Planner, ScenarioSpec};

/// Forwards to the system allocator and tracks the bytes currently live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests answered after the baseline is taken.
const REQUESTS: u32 = 2_000;

/// Allowed growth of live heap bytes over all [`REQUESTS`]: 64 KiB. A
/// stateless planner should grow by nothing; a planner that keeps even a
/// few hundred bytes per distinct device spec (one simulator each) exceeds
/// this within the run.
const SLACK_BYTES: usize = 64 * 1024;

/// An estimate on an A40 whose memory is overridden to `mem_gb`: every
/// value is a distinct device spec and a distinct scenario.
fn estimate(mem_gb: u32) -> ScenarioSpec {
    ScenarioSpec::parse_str(&format!(
        r#"{{"query":"estimate","gpu":"a40","gpu_mem_gb":{mem_gb}}}"#
    ))
    .expect("valid spec")
}

#[test]
fn distinct_scenarios_do_not_grow_the_planner() {
    let planner = Planner::new();
    let first = planner.answer(&estimate(48));
    assert!(first.starts_with(r#"{"ok":true"#), "{first}");
    drop(first);
    let baseline = LIVE.load(Ordering::Relaxed);

    for mem_gb in 49..49 + REQUESTS {
        let spec = estimate(mem_gb);
        let answer = planner.answer(&spec);
        assert!(answer.starts_with(r#"{"ok":true"#), "{answer}");
        assert_eq!(answer, Planner::new().answer(&spec), "gpu_mem_gb {mem_gb}");
    }

    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        grown < SLACK_BYTES,
        "{REQUESTS} distinct scenarios grew the live heap by {grown} bytes \
         ({} per request); the allowed slack is {SLACK_BYTES}",
        grown / REQUESTS as usize
    );
}
