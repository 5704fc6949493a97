//! Thread-local RAII span tracing.
//!
//! [`span`] returns a [`SpanGuard`]; the span covers the guard's lifetime.
//! Spans nest: each thread keeps a depth counter, and a span started while
//! another is live on the same thread records one level deeper. Completed
//! spans are appended to a per-thread buffer (registered in a global list on
//! first use), so recording never contends across threads; [`drain_events`]
//! collects and clears every thread's buffer.
//!
//! Timestamps are nanoseconds since a process-global monotonic epoch
//! (captured on first use), so events from different threads share one
//! timeline. Thread ids are small sequential integers assigned on first
//! recording — stable for a thread's lifetime and friendly to trace viewers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (e.g. a kernel class or pipeline stage).
    pub name: String,
    /// Category, used as the Chrome-trace `cat` field.
    pub cat: &'static str,
    /// Start, nanoseconds since the process-global epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Sequential id of the recording thread.
    pub tid: u64,
    /// Nesting depth at start (0 = top-level on its thread).
    pub depth: u32,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

type SharedBuffer = Arc<Mutex<Vec<Event>>>;

fn buffers() -> &'static Mutex<Vec<SharedBuffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<SharedBuffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadState {
    tid: u64,
    depth: u32,
    buffer: SharedBuffer,
}

impl ThreadState {
    fn new() -> Self {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        let buffer: SharedBuffer = Arc::new(Mutex::new(Vec::new()));
        buffers()
            .lock()
            .expect("buffer registry")
            .push(buffer.clone());
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            buffer,
        }
    }
}

thread_local! {
    static THREAD: std::cell::RefCell<Option<ThreadState>> = const { std::cell::RefCell::new(None) };
}

fn with_thread<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    THREAD.with(|slot| {
        let mut slot = slot.borrow_mut();
        f(slot.get_or_insert_with(ThreadState::new))
    })
}

/// Starts a span; it ends (and is recorded) when the guard drops.
///
/// When observability is disabled this returns an inert guard without
/// touching thread-local state — the disabled path is one relaxed atomic
/// load and a branch.
#[inline]
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    span_slow(cat, name.into())
}

/// [`span`] with a lazily-built name: `name` is only invoked when recording
/// is enabled, so call sites can use `format!` without allocating on the
/// disabled path.
#[inline]
pub fn span_lazy(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    span_slow(cat, name())
}

fn span_slow(cat: &'static str, name: String) -> SpanGuard {
    let (tid, depth) = with_thread(|t| {
        let d = t.depth;
        t.depth += 1;
        (t.tid, d)
    });
    SpanGuard {
        live: Some(Box::new(LiveSpan {
            name,
            cat,
            start_ns: now_ns(),
            tid,
            depth,
        })),
    }
}

struct LiveSpan {
    name: String,
    cat: &'static str,
    start_ns: u64,
    tid: u64,
    depth: u32,
}

/// RAII guard for a live span (see [`span`]).
///
/// The live payload is boxed so the disabled path hands back (and later
/// drops) a single null pointer instead of moving an 80-byte struct —
/// this is what keeps the disabled instrumentation under its overhead
/// budget (see `tests/overhead.rs`).
#[must_use = "a span covers the guard's lifetime; dropping it immediately records an empty span"]
pub struct SpanGuard {
    live: Option<Box<LiveSpan>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end_ns = now_ns();
        let live = *live;
        let event = Event {
            dur_ns: end_ns.saturating_sub(live.start_ns),
            name: live.name,
            cat: live.cat,
            ts_ns: live.start_ns,
            tid: live.tid,
            depth: live.depth,
        };
        with_thread(|t| {
            t.depth = t.depth.saturating_sub(1);
            t.buffer.lock().expect("span buffer").push(event);
        });
    }
}

/// Collects (and clears) every thread's recorded spans, ordered by start
/// time, then depth, then thread id — a parent always precedes its children.
pub fn drain_events() -> Vec<Event> {
    let mut events = Vec::new();
    for buffer in buffers().lock().expect("buffer registry").iter() {
        events.append(&mut buffer.lock().expect("span buffer"));
    }
    events.sort_by_key(|e| (e.ts_ns, e.depth, e.tid));
    events
}

/// Discards all recorded spans on every thread.
pub fn clear_events() {
    for buffer in buffers().lock().expect("buffer registry").iter() {
        buffer.lock().expect("span buffer").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        crate::disable();
        clear_events();
        {
            let _s = span("test", "invisible");
        }
        assert!(drain_events().is_empty());
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let _g = test_lock();
        crate::enable();
        clear_events();
        {
            let _outer = span("test", "outer");
            {
                let _inner = span("test", "inner");
            }
        }
        crate::disable();
        let events: Vec<Event> = drain_events()
            .into_iter()
            .filter(|e| e.cat == "test")
            .collect();
        assert_eq!(events.len(), 2);
        let outer = &events[0];
        let inner = &events[1];
        assert_eq!((outer.name.as_str(), outer.depth), ("outer", 0));
        assert_eq!((inner.name.as_str(), inner.depth), ("inner", 1));
        assert_eq!(outer.tid, inner.tid);
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
    }

    #[test]
    fn threads_get_distinct_ids_and_a_shared_timeline() {
        let _g = test_lock();
        crate::enable();
        clear_events();
        std::thread::scope(|scope| {
            for i in 0..3 {
                scope.spawn(move || {
                    let _s = span("test-mt", format!("worker-{i}"));
                });
            }
        });
        crate::disable();
        let events: Vec<Event> = drain_events()
            .into_iter()
            .filter(|e| e.cat == "test-mt")
            .collect();
        assert_eq!(events.len(), 3);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread gets its own id");
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}
