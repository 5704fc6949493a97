//! Line-protocol TCP server over the planner engine.
//!
//! One JSON request per line, one JSON answer per line, in order. The
//! protocol is deliberately dumb — `nc localhost 7878` is a valid client —
//! and the framing batches every answer available for a read chunk into a
//! single write, so pipelined clients get pipelined responses for free.
//!
//! Threading model: one accept loop, one thread per connection. Each
//! connection thread parses, consults the scenario cache (coalescing
//! concurrent misses), and computes on miss. Connection reads use a short
//! timeout so threads notice shutdown promptly instead of blocking in
//! `read` forever.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::cache::ScenarioCache;
use crate::engine::{object, Planner};
use crate::spec::ScenarioSpec;

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address; port `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Total scenario-cache answers to retain.
    pub cache_capacity: usize,
    /// Scenario-cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// SLO latency target in microseconds: a request slower than this
    /// burns error budget.
    pub slo_target_p99_us: f64,
    /// Fraction of requests allowed over the target (`0.001` = 99.9% must
    /// meet it).
    pub slo_error_budget: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            cache_capacity: 4096,
            shards: 16,
            slo_target_p99_us: 100_000.0,
            slo_error_budget: 0.001,
        }
    }
}

/// Request phases traced per request (sketch per phase, microseconds).
const PHASES: [&str; 5] = [
    "serve.phase.parse_us",
    "serve.phase.canonicalize_us",
    "serve.phase.cache_lookup_us",
    "serve.phase.compute_us",
    "serve.phase.serialize_us",
];

/// Longest request line the server buffers, newline excluded. Requests
/// are flat JSON objects well under 1 KiB; a longer line gets one typed
/// error and the connection closes, so per-connection memory stays bounded
/// by this plus one read chunk.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The error a request line that is not valid UTF-8 gets.
const NOT_UTF8: &str = "request line is not valid UTF-8";

/// Read timeout per connection: the granularity at which connection threads
/// re-check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

struct Shared {
    planner: Planner,
    cache: ScenarioCache,
    stop: AtomicBool,
    inflight: AtomicU64,
    requests: ftsim_obs::Counter,
    control: ftsim_obs::Counter,
    errors: ftsim_obs::Counter,
    connections: ftsim_obs::Counter,
    inflight_gauge: ftsim_obs::Gauge,
    /// Rolling-window view of request latency (p50/p99/qps over the last
    /// 1s/10s/60s) — feeds the `metrics` exposition and SLO evaluation.
    latency_series: ftsim_obs::SeriesHandle,
    slo: ftsim_obs::SloSpec,
}

impl Shared {
    fn new(config: &ServeConfig) -> Self {
        let reg = ftsim_obs::registry();
        // Registered eagerly so snapshots carry zeros for quiet servers.
        reg.sketch("serve.latency_us");
        for phase in PHASES {
            reg.sketch(phase);
        }
        Shared {
            planner: Planner::new(),
            cache: ScenarioCache::new(config.cache_capacity, config.shards),
            stop: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            requests: reg.counter("serve.requests"),
            control: reg.counter("serve.control"),
            errors: reg.counter("serve.errors"),
            connections: reg.counter("serve.connections"),
            inflight_gauge: reg.gauge("serve.inflight"),
            latency_series: ftsim_obs::timeseries().series("serve.latency_us"),
            slo: ftsim_obs::SloSpec::latency(
                "serve.latency_us",
                config.slo_target_p99_us,
                config.slo_error_budget,
            ),
        }
    }

    /// Records one traced phase duration (µs) into the registry sketch, whose
    /// cumulative percentiles `stats` reports.
    fn phase(&self, name: &'static str, started: Instant) -> Instant {
        ftsim_obs::registry().sketch_record(name, started.elapsed().as_secs_f64() * 1e6);
        Instant::now()
    }

    /// Answers one request line into `out`, newline included; a blank
    /// line gets no answer. Returns true when the line asked the server to
    /// shut down.
    fn answer_line(&self, line: &str, out: &mut Vec<u8>) -> bool {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return false;
        }
        // Control queries bypass the scenario parser and the cache.
        if trimmed == r#"{"query":"stats"}"#
            || trimmed == r#"{"query":"shutdown"}"#
            || trimmed == r#"{"query":"metrics"}"#
        {
            self.control.add(1);
            if trimmed.contains("shutdown") {
                self.stop.store(true, Ordering::SeqCst);
                push_line(out, r#"{"ok":true,"query":"shutdown"}"#);
                return true;
            }
            if trimmed.contains("metrics") {
                push_line(out, &self.metrics_answer());
            } else {
                push_line(out, &self.stats_answer());
            }
            return false;
        }
        let started = Instant::now();
        let spec = match ScenarioSpec::parse_str(trimmed) {
            Ok(spec) => spec,
            Err(message) => {
                self.errors.add(1);
                self.phase(PHASES[0], started);
                push_line(out, &error_answer(&message));
                return false;
            }
        };
        let t = self.phase(PHASES[0], started);
        self.requests.add(1);
        self.inflight_gauge
            .set((self.inflight.fetch_add(1, Ordering::Relaxed) + 1) as f64);
        let key = spec.canonical_key();
        let hash = ScenarioSpec::key_hash(&key);
        let t = self.phase(PHASES[1], t);
        let mut compute_us = 0.0;
        let answer = self.cache.get_or_compute(&key, hash, || {
            let computing = Instant::now();
            let answer = self.planner.answer(&spec);
            compute_us = computing.elapsed().as_secs_f64() * 1e6;
            answer
        });
        // Lookup time is the cache round-trip minus the compute it may have
        // coalesced or performed inline.
        let lookup_us = (t.elapsed().as_secs_f64() * 1e6 - compute_us).max(0.0);
        ftsim_obs::registry().sketch_record(PHASES[2], lookup_us);
        if compute_us > 0.0 {
            ftsim_obs::registry().sketch_record(PHASES[3], compute_us);
        }
        self.inflight_gauge
            .set((self.inflight.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
        let t = Instant::now();
        if answer.starts_with(r#"{"ok":false"#) {
            self.errors.add(1);
        }
        push_line(out, &answer);
        self.phase(PHASES[4], t);
        let total_us = started.elapsed().as_secs_f64() * 1e6;
        ftsim_obs::registry().sketch_record("serve.latency_us", total_us);
        self.latency_series.record(total_us);
        false
    }

    fn slo_statuses(&self) -> Vec<ftsim_obs::SloStatus> {
        let now = ftsim_obs::timeseries::now_ns();
        self.latency_series
            .with(|series| self.slo.evaluate_at(series, now))
    }

    /// Deterministically ordered Prometheus-style exposition of every
    /// windowed series plus the SLO burn lines, terminated by `# EOF` so
    /// line-oriented clients know where the multi-line answer ends.
    fn metrics_answer(&self) -> String {
        let mut out = String::new();
        let now = ftsim_obs::timeseries::now_ns();
        ftsim_obs::timeseries().render_into(&mut out, now);
        let statuses = self.slo_statuses();
        self.slo.render_into(&mut out, &statuses);
        out.push_str("# EOF");
        out
    }

    fn stats_answer(&self) -> String {
        let s = self.cache.stats();
        let metrics = serde_json::from_str(&ftsim_obs::registry().snapshot().to_json_string())
            .unwrap_or(Value::Null);
        let slo: Vec<Value> = self
            .slo_statuses()
            .into_iter()
            .map(|st| {
                json!({
                    "window": st.window,
                    "count": st.count as i64,
                    "violations": st.violations as i64,
                    "p99_us": st.p99,
                    "burn_rate": st.burn_rate,
                    "healthy": st.healthy,
                })
            })
            .collect();
        json!({
            "ok": true,
            "query": "stats",
            "cache": json!({
                "hits": s.hits as i64,
                "misses": s.misses as i64,
                "coalesced": s.coalesced as i64,
                "evictions": s.evictions as i64,
                "len": self.cache.len() as i64,
                "capacity": self.cache.capacity() as i64,
                "shards": self.cache.shard_count() as i64,
            }),
            "simulators": self.planner.simulator_count() as i64,
            "slo": json!({
                "name": self.slo.name.clone(),
                "target_p99_us": self.slo.target_p99,
                "error_budget": self.slo.error_budget,
                "windows": slo,
            }),
            "metrics": metrics,
        })
        .to_string()
    }
}

/// Appends `answer` and its newline to the connection's output batch.
fn push_line(out: &mut Vec<u8>, answer: &str) {
    out.extend_from_slice(answer.as_bytes());
    out.push(b'\n');
}

/// `{"ok":false,"error":message}`: the answer to a line that is not a
/// scenario request.
fn error_answer(message: &str) -> String {
    object(|f| {
        f.bool("ok", false).str("error", message);
    })
}

/// A running planner server. Dropping the handle does **not** stop it; send
/// `{"query":"shutdown"}` or call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads. Returns once the
    /// listener is live (so clients may connect immediately).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scenario-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Signals shutdown and waits for the accept loop to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Self-dial to wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until a shutdown request arrives, then returns.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.add(1);
        let conn_shared = Arc::clone(&shared);
        let addr = listener.local_addr().ok();
        conns.push(
            std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || {
                    if connection_loop(stream, &conn_shared) {
                        // This connection delivered the shutdown request:
                        // wake the accept loop so it can exit.
                        if let Some(addr) = addr {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                })
                .expect("spawn connection thread"),
        );
        conns.retain(|h| !h.is_finished());
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Serves one connection until EOF, shutdown, or a request line longer
/// than [`MAX_LINE_BYTES`]. Returns true when this connection requested
/// server shutdown.
fn connection_loop(mut stream: TcpStream, shared: &Shared) -> bool {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut pending: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        // The carried-over tail holds no newline: scan only the new bytes.
        let mut scan_from = pending.len();
        pending.extend_from_slice(&chunk[..n]);
        out.clear();
        let mut consumed = 0;
        let mut wants_shutdown = false;
        while let Some(nl) = pending[scan_from..].iter().position(|&b| b == b'\n') {
            let end = scan_from + nl;
            if end - consumed > MAX_LINE_BYTES {
                // Left unconsumed, so the length check below rejects it.
                break;
            }
            let line = &pending[consumed..end];
            consumed = end + 1;
            scan_from = consumed;
            // Strict: a line that is not UTF-8 is answered with an error,
            // like malformed JSON, rather than parsed with replacements.
            wants_shutdown = match std::str::from_utf8(line) {
                Ok(line) => shared.answer_line(line, &mut out),
                Err(_) => {
                    shared.errors.add(1);
                    push_line(&mut out, &error_answer(NOT_UTF8));
                    false
                }
            };
            if wants_shutdown {
                break;
            }
        }
        if pending.len() - consumed > MAX_LINE_BYTES {
            shared.errors.add(1);
            let error = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            push_line(&mut out, &error_answer(&error));
            let _ = stream.write_all(&out);
            let _ = stream.flush();
            return false;
        }
        pending.drain(..consumed);
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return wants_shutdown;
        }
        if wants_shutdown {
            let _ = stream.flush();
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn start() -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 64,
            shards: 4,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port")
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut payload = lines.join("\n");
        payload.push('\n');
        stream.write_all(payload.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut answers = Vec::new();
        for _ in 0..lines.len() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            answers.push(line.trim_end().to_string());
        }
        answers
    }

    #[test]
    fn serves_pipelined_queries_in_order_and_caches_repeats() {
        let mut server = start();
        let addr = server.local_addr();
        let q = r#"{"query":"plan"}"#;
        let answers = roundtrip(addr, &[q, q, r#"{"query":"estimate"}"#]);
        assert_eq!(answers[0], answers[1], "repeat query, identical bytes");
        assert!(answers[0].contains(r#""query":"plan""#));
        assert!(answers[2].contains(r#""query":"estimate""#));
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 2);
        assert!(stats.hits >= 1);
        server.shutdown();
    }

    #[test]
    fn malformed_lines_answer_errors_without_dropping_the_connection() {
        let mut server = start();
        let addr = server.local_addr();
        let answers = roundtrip(
            addr,
            &[
                "this is not json",
                r#"{"query":"warp"}"#,
                r#"{"query":"plan"}"#,
            ],
        );
        assert!(answers[0].contains(r#""ok":false"#));
        assert!(answers[1].contains(r#""ok":false"#));
        assert!(answers[2].contains(r#""ok":true"#));
        server.shutdown();
    }

    #[test]
    fn invalid_utf8_line_gets_a_typed_error_and_the_connection_stays_open() {
        ftsim_obs::enable();
        let errors = ftsim_obs::registry().counter("serve.errors");
        let before = errors.get();
        let mut server = start();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"{\"query\":\"pl\xffan\"}\n{\"query\":\"plan\"}\n")
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            reply,
            "{\"ok\":false,\"error\":\"request line is not valid UTF-8\"}\n"
        );
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with(r#"{"ok":true,"query":"plan""#), "{reply}");
        // Other tests may count errors concurrently; this one adds at least one.
        assert!(errors.get() > before, "the bad line counts in serve.errors");
        server.shutdown();
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let mut server = start();
        let deep = "[".repeat(60_000);
        let answers = roundtrip(server.local_addr(), &[&deep, r#"{"query":"plan"}"#]);
        assert_eq!(
            answers[0],
            r#"{"ok":false,"error":"invalid JSON: recursion limit exceeded at byte 128"}"#
        );
        assert!(answers[1].contains(r#""ok":true"#), "{}", answers[1]);
        server.shutdown();
    }

    #[test]
    fn overlong_line_gets_one_error_then_eof_and_the_server_keeps_serving() {
        let mut server = start();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // No newline: the server must not buffer this without bound.
        stream.write_all(&vec![b'x'; 70_000]).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            reply,
            "{\"ok\":false,\"error\":\"request line exceeds 65536 bytes\"}\n"
        );
        // Then the server closes: EOF, or a reset when the close finds
        // request bytes it never read.
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "bytes after the error line"),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset),
        }
        let answers = roundtrip(addr, &[r#"{"query":"plan"}"#]);
        assert!(answers[0].contains(r#""ok":true"#), "{}", answers[0]);
        server.shutdown();
    }

    #[test]
    fn metrics_query_returns_exposition_terminated_by_eof() {
        let mut server = start();
        let addr = server.local_addr();
        roundtrip(addr, &[r#"{"query":"plan"}"#]);
        // Multi-line answer: read until the `# EOF` terminator.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"query\":\"metrics\"}\n").unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            let done = line == "# EOF";
            lines.push(line);
            if done {
                break;
            }
        }
        let text = lines.join("\n");
        assert!(text.contains("# TYPE serve_latency_us summary"));
        assert!(text.contains("serve_latency_us{window=\"1s\",quantile=\"0.99\"} "));
        assert!(text.contains("serve_latency_us_count{window=\"total\"} "));
        assert!(text.contains("# TYPE slo_serve_latency_us_p99_burn_rate gauge"));
        assert!(text.contains("slo_serve_latency_us_p99_violations{window=\"total\"} "));
        // Two renders of the same quiet server expose the same series/label
        // set (values may move with the clock; names must not).
        server.shutdown();
    }

    #[test]
    fn stats_carry_slo_block_with_healthy_quiet_server() {
        let mut server = start();
        let addr = server.local_addr();
        roundtrip(addr, &[r#"{"query":"plan"}"#]);
        let stats = roundtrip(addr, &[r#"{"query":"stats"}"#]);
        let doc: Value = serde_json::from_str(&stats[0]).unwrap();
        let slo = doc.get("slo").expect("stats has slo block");
        assert_eq!(
            slo.get("name"),
            Some(&Value::String("serve.latency_us.p99".into()))
        );
        let windows = match slo.get("windows") {
            Some(Value::Array(w)) => w,
            other => panic!("slo.windows: {other:?}"),
        };
        assert_eq!(windows.len(), 4, "1s/10s/60s + total");
        let total = windows.last().unwrap();
        assert_eq!(total.get("window"), Some(&Value::String("total".into())));
        // A 100ms SLO target against sub-millisecond plans: zero burn.
        assert!(matches!(total.get("healthy"), Some(Value::Bool(true))));
        server.shutdown();
    }

    #[test]
    fn stats_and_shutdown_control_queries_work_over_the_wire() {
        let mut server = start();
        let addr = server.local_addr();
        roundtrip(addr, &[r#"{"query":"plan"}"#]);
        let stats = roundtrip(addr, &[r#"{"query":"stats"}"#]);
        assert!(stats[0].contains(r#""cache""#) && stats[0].contains(r#""misses":1"#));
        let bye = roundtrip(addr, &[r#"{"query":"shutdown"}"#]);
        assert!(bye[0].contains(r#""query":"shutdown""#));
        server.wait(); // returns because the wire request stopped the server
        server.shutdown(); // idempotent
    }
}
