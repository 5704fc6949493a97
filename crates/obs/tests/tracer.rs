//! Integration tests: span nesting, cross-thread ordering, and Chrome-JSON
//! schema validity (parsed back with the workspace's vendored `serde_json`).

use std::sync::Mutex;

use ftsim_obs as obs;
use serde_json::Value;

/// The enable flag, span buffers, and registry are process-global, so tests
/// that record must not interleave.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn nesting_is_recorded_depth_first() {
    let _g = test_lock();
    obs::reset();
    obs::enable();
    {
        let _step = obs::span("it", "step");
        {
            let _fwd = obs::span("it", "forward");
            let _k = obs::span("it", "matmul");
        }
        let _bwd = obs::span("it", "backward");
    }
    obs::disable();
    let events: Vec<obs::Event> = obs::drain_events()
        .into_iter()
        .filter(|e| e.cat == "it")
        .collect();
    let mut by_name: Vec<(&str, u32)> = events.iter().map(|e| (e.name.as_str(), e.depth)).collect();
    by_name.sort_unstable();
    assert_eq!(
        by_name,
        vec![("backward", 1), ("forward", 1), ("matmul", 2), ("step", 0)]
    );
    let tree = obs::SpanTree::build(&events);
    assert_eq!(tree.roots.len(), 1);
    let step = &tree.roots["step"];
    assert_eq!(step.children.len(), 2);
    assert_eq!(step.children["forward"].children["matmul"].count, 1);
}

#[test]
fn cross_thread_events_share_one_monotonic_timeline() {
    let _g = test_lock();
    obs::reset();
    obs::enable();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            scope.spawn(move || {
                for i in 0..8 {
                    let _s = obs::span("it-mt", format!("w{worker}-job{i}"));
                    std::hint::black_box(i * worker);
                }
            });
        }
    });
    obs::disable();
    let events: Vec<obs::Event> = obs::drain_events()
        .into_iter()
        .filter(|e| e.cat == "it-mt")
        .collect();
    assert_eq!(events.len(), 32);
    // drain_events orders by start time across all threads.
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Per thread, recorded order is also start order and ids are stable.
    let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 4);
    for &tid in &tids {
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.tid == tid)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names.len(), 8);
        let prefix = &names[0][..2];
        assert!(names.iter().all(|n| n.starts_with(prefix)));
        for (i, name) in names.iter().enumerate() {
            assert!(name.ends_with(&format!("job{i}")));
        }
    }
}

#[test]
fn chrome_json_is_schema_valid_and_parses_back() {
    let _g = test_lock();
    obs::reset();
    obs::enable();
    {
        let _outer = obs::span("it-json", "epoch");
        let _inner = obs::span("it-json", "chunk \"0\"\n");
    }
    obs::disable();
    let events: Vec<obs::Event> = obs::drain_events()
        .into_iter()
        .filter(|e| e.cat == "it-json")
        .collect();

    let mut trace = obs::ChromeTrace::new();
    trace.name_process(7, "wall clock");
    trace.name_thread(7, events[0].tid, "trainer");
    trace.add_recorded(&events, 7);
    trace.add_complete(8, 0, "simulated kernel", "sim", 0.0, 1.5);

    let doc = serde_json::from_str(&trace.to_json_string()).expect("valid JSON");
    let Some(Value::Array(entries)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    // 2 metadata + 2 recorded + 1 explicit events.
    assert_eq!(entries.len(), 5);
    let mut complete = 0;
    for entry in entries {
        let ph = entry.get("ph").expect("ph field");
        assert!(matches!(entry.get("pid"), Some(Value::Int(_))));
        assert!(matches!(entry.get("tid"), Some(Value::Int(_))));
        assert!(matches!(entry.get("name"), Some(Value::String(_))));
        match ph {
            Value::String(s) if s == "X" => {
                complete += 1;
                assert!(matches!(
                    entry.get("ts"),
                    Some(Value::Float(_) | Value::Int(_))
                ));
                let Some(Value::Float(dur)) = entry.get("dur") else {
                    panic!("dur must be a number");
                };
                assert!(*dur >= 0.0);
                assert!(matches!(entry.get("cat"), Some(Value::String(_))));
            }
            Value::String(s) if s == "M" => {
                assert!(entry.get("args").and_then(|a| a.get("name")).is_some());
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert_eq!(complete, 3);
}

#[test]
fn snapshot_json_parses_back() {
    let _g = test_lock();
    obs::reset();
    obs::enable();
    let registry = obs::registry();
    registry.counter("it.snap.hits").add(2);
    registry.gauge("it.snap.util").set(0.75);
    registry.sketch("it.snap.tokens").record(9.0);
    obs::disable();
    let snapshot = registry.snapshot();
    let doc = serde_json::from_str(&snapshot.to_json_string()).expect("valid JSON");
    assert_eq!(
        doc.get("counters").and_then(|c| c.get("it.snap.hits")),
        Some(&Value::Int(2))
    );
    assert_eq!(
        doc.get("gauges").and_then(|g| g.get("it.snap.util")),
        Some(&Value::Float(0.75))
    );
    let sketch = doc
        .get("sketches")
        .and_then(|s| s.get("it.snap.tokens"))
        .expect("sketch exported");
    assert_eq!(sketch.get("count"), Some(&Value::Int(1)));
    assert_eq!(sketch.get("sum"), Some(&Value::Float(9.0)));
    match sketch.get("buckets") {
        Some(Value::Object(buckets)) => {
            assert_eq!(buckets.len(), 1, "one sample fills one bucket");
        }
        other => panic!("sparse buckets expected, got {other:?}"),
    }
    assert!(doc.get("histograms").is_none(), "one distribution type");
}
