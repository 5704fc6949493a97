//! File-backed binary event log: the out-of-process leg of the streaming
//! observability pipeline.
//!
//! [`RingSink`] implements [`crate::ObsSink`] by encoding every span/metric
//! callback into a fixed-size [`RingEvent`] and pushing it into a shared
//! [`RingBuffer`] — producers never block or allocate. A [`BinLogWriter`]
//! background thread drains the ring, appends length-prefixed frames to a
//! log file with periodic flushes, and stamps a footer (event + drop counts)
//! on clean shutdown. [`LogReader`] tails the same file incrementally — from
//! a second process or a same-process reader thread — tolerating partial
//! trailing frames, which is what `repro profile --follow` and the offline
//! exporters ([`crate::flame`], `repro obs-diff`) are built on.
//!
//! # Wire format
//!
//! ```text
//! magic   "FTSOBS01" (8 bytes)
//! frame   u32 LE payload length, then payload
//! payload u8 tag, then tag-specific fields (integers LE, floats as bits,
//!         strings as u8 length + UTF-8 bytes)
//!   1 span      cat, name, ts_ns u64, dur_ns u64, tid u32, depth u32
//!   2 counter   name, delta u64
//!   3 gauge     name, f64 bits
//!   4 histogram name, f64 bits
//!   255 footer  events_written u64, dropped_events u64, then per-category
//!               drop counts spans/counters/gauges/histograms as 4 × u64,
//!               then per-category sampler admitted + suppressed counts as
//!               8 × u64
//! ```

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ring::{CategoryCounts, DroppedCounts, InlineStr, RingBuffer, RingEvent, Sampler};
use crate::sink::ObsSink;
use crate::span::Event;

/// First 8 bytes of every event log.
pub const MAGIC: &[u8; 8] = b"FTSOBS01";

const TAG_SPAN: u8 = 1;
const TAG_COUNTER: u8 = 2;
const TAG_GAUGE: u8 = 3;
const TAG_HISTOGRAM: u8 = 4;
const TAG_FOOTER: u8 = 255;

/// An [`ObsSink`] that forwards every event into a shared ring buffer,
/// optionally thinned by a producer-side [`Sampler`] first.
pub struct RingSink {
    ring: Arc<RingBuffer>,
    sampler: Option<Arc<Sampler>>,
}

impl RingSink {
    /// Wrap a shared ring buffer as an installable sink.
    pub fn new(ring: Arc<RingBuffer>) -> RingSink {
        RingSink {
            ring,
            sampler: None,
        }
    }

    /// Wrap a ring with a sampler in front: events the sampler suppresses
    /// never touch the ring (and are tallied by the sampler, not as ring
    /// drops). Share the same `Arc<Sampler>` with
    /// [`BinLogWriter::spawn_with_sampler`] so the footer carries the
    /// sampler's exact per-category counts.
    pub fn with_sampler(ring: Arc<RingBuffer>, sampler: Arc<Sampler>) -> RingSink {
        RingSink {
            ring,
            sampler: Some(sampler),
        }
    }

    #[inline]
    fn push(&self, event: RingEvent) {
        if let Some(sampler) = &self.sampler {
            if !sampler.admit_now(event.category_index()) {
                return;
            }
        }
        self.ring.try_push(event);
    }
}

impl ObsSink for RingSink {
    fn on_span(&self, event: &Event) {
        self.push(RingEvent::Span {
            cat: InlineStr::truncate_from(event.cat),
            name: InlineStr::truncate_from(&event.name),
            ts_ns: event.ts_ns,
            dur_ns: event.dur_ns,
            tid: event.tid as u32,
            depth: event.depth,
        });
    }

    fn on_counter(&self, name: &str, delta: u64) {
        self.push(RingEvent::Counter {
            name: InlineStr::truncate_from(name),
            delta,
        });
    }

    fn on_gauge(&self, name: &str, value: f64) {
        self.push(RingEvent::Gauge {
            name: InlineStr::truncate_from(name),
            value,
        });
    }

    fn on_histogram(&self, name: &str, value: f64) {
        self.push(RingEvent::Histogram {
            name: InlineStr::truncate_from(name),
            value,
        });
    }
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u8::MAX as usize);
    buf.push(s.len() as u8);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one length-prefixed frame for `event` to `buf`.
pub fn encode_event(event: &RingEvent, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]); // length patched below
    match event {
        RingEvent::Span {
            cat,
            name,
            ts_ns,
            dur_ns,
            tid,
            depth,
        } => {
            buf.push(TAG_SPAN);
            push_str(buf, cat.as_str());
            push_str(buf, name.as_str());
            buf.extend_from_slice(&ts_ns.to_le_bytes());
            buf.extend_from_slice(&dur_ns.to_le_bytes());
            buf.extend_from_slice(&tid.to_le_bytes());
            buf.extend_from_slice(&depth.to_le_bytes());
        }
        RingEvent::Counter { name, delta } => {
            buf.push(TAG_COUNTER);
            push_str(buf, name.as_str());
            buf.extend_from_slice(&delta.to_le_bytes());
        }
        RingEvent::Gauge { name, value } => {
            buf.push(TAG_GAUGE);
            push_str(buf, name.as_str());
            buf.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        RingEvent::Histogram { name, value } => {
            buf.push(TAG_HISTOGRAM);
            push_str(buf, name.as_str());
            buf.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn encode_footer(footer: &Footer, buf: &mut Vec<u8>) {
    // 1 tag + 2 u64 totals + 4 u64 per-category drop counts + 8 u64
    // per-category sampler admitted/suppressed counts.
    buf.extend_from_slice(&113u32.to_le_bytes());
    buf.push(TAG_FOOTER);
    buf.extend_from_slice(&footer.events_written.to_le_bytes());
    buf.extend_from_slice(&footer.dropped_events.to_le_bytes());
    for counts in [
        footer.dropped_by,
        footer.sampled_by,
        footer.sampler_dropped_by,
    ] {
        for count in [
            counts.spans,
            counts.counters,
            counts.gauges,
            counts.histograms,
        ] {
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
}

/// A decoded log record (the owned, heap-side mirror of [`RingEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A completed span.
    Span {
        /// Span category (e.g. `"tensor.kernel"`).
        cat: String,
        /// Span name (e.g. `"matmul"`).
        name: String,
        /// Start timestamp, nanoseconds since the tracer epoch.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Stable thread id of the recording thread.
        tid: u32,
        /// Nesting depth at record time (0 = top-level).
        depth: u32,
    },
    /// A counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added to the counter.
        delta: u64,
    },
    /// A gauge update.
    Gauge {
        /// Gauge name.
        name: String,
        /// New gauge value.
        value: f64,
    },
    /// A histogram sample.
    Histogram {
        /// Histogram name.
        name: String,
        /// Sampled value.
        value: f64,
    },
}

/// The clean-shutdown footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footer {
    /// Events the writer appended to the log.
    pub events_written: u64,
    /// Events the ring rejected because it was full (producers never block;
    /// overload costs visibility, not throughput).
    pub dropped_events: u64,
    /// The same drops broken down by event category.
    pub dropped_by: DroppedCounts,
    /// Events the producer-side sampler admitted, per category. All-zero
    /// when no sampler was installed.
    pub sampled_by: CategoryCounts,
    /// Events the producer-side sampler suppressed, per category (these
    /// never reached the ring). All-zero for unsampled logs.
    pub sampler_dropped_by: CategoryCounts,
}

impl Footer {
    /// Undercount factor for category `index` (the
    /// [`RingEvent::category_index`] order): how many real events each
    /// logged event of that category stands for, given `written` records of
    /// it in the log. `1.0` means the log is complete for the category.
    pub fn undercount_factor(&self, index: usize, written: u64) -> f64 {
        if written == 0 {
            return 1.0;
        }
        let lost = self.dropped_by.get(index) + self.sampler_dropped_by.get(index);
        (written + lost) as f64 / written as f64
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self.pos + n;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame body"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a per-category count quad.
    fn category_quad(&mut self) -> io::Result<DroppedCounts> {
        Ok(DroppedCounts {
            spans: self.u64()?,
            counters: self.u64()?,
            gauges: self.u64()?,
            histograms: self.u64()?,
        })
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 name"))
    }
}

enum Decoded {
    Record(LogRecord),
    Footer(Footer),
}

/// Decodes one payload (the bytes after a frame's length prefix).
fn decode_payload(payload: &[u8]) -> io::Result<Decoded> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let record = match c.u8()? {
        TAG_SPAN => LogRecord::Span {
            cat: c.string()?,
            name: c.string()?,
            ts_ns: c.u64()?,
            dur_ns: c.u64()?,
            tid: c.u32()?,
            depth: c.u32()?,
        },
        TAG_COUNTER => LogRecord::Counter {
            name: c.string()?,
            delta: c.u64()?,
        },
        TAG_GAUGE => LogRecord::Gauge {
            name: c.string()?,
            value: f64::from_bits(c.u64()?),
        },
        TAG_HISTOGRAM => LogRecord::Histogram {
            name: c.string()?,
            value: f64::from_bits(c.u64()?),
        },
        TAG_FOOTER => {
            let events_written = c.u64()?;
            let dropped_events = c.u64()?;
            let dropped_by = c.category_quad()?;
            let sampled_by = c.category_quad()?;
            let sampler_dropped_by = c.category_quad()?;
            return Ok(Decoded::Footer(Footer {
                events_written,
                dropped_events,
                dropped_by,
                sampled_by,
                sampler_dropped_by,
            }));
        }
        tag => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame tag {tag}"),
            ))
        }
    };
    Ok(Decoded::Record(record))
}

/// Statistics returned by [`BinLogWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriterStats {
    /// Events appended to the log file.
    pub events_written: u64,
    /// Events the ring dropped under overload (never written).
    pub dropped_events: u64,
    /// Per-category breakdown of those drops.
    pub dropped_by: DroppedCounts,
    /// Events the producer-side sampler admitted (zero without a sampler).
    pub sampled_by: CategoryCounts,
    /// Events the producer-side sampler suppressed before the ring.
    pub sampler_dropped_by: CategoryCounts,
}

/// Background drain thread: pops the ring and appends frames to a file.
///
/// Spawn it once per run; call [`BinLogWriter::finish`] for a clean shutdown
/// (drains the ring to empty, writes the footer, flushes). Dropping without
/// `finish` leaves a footer-less log, which readers treat as an unclean end.
pub struct BinLogWriter {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<io::Result<WriterStats>>,
}

impl BinLogWriter {
    /// Creates (truncating) `path`, writes the magic, and starts the drain
    /// thread. `flush_interval` bounds how stale the on-disk log can be
    /// while the run is in progress — the follow reader's latency.
    pub fn spawn(
        path: impl Into<PathBuf>,
        ring: Arc<RingBuffer>,
        flush_interval: Duration,
    ) -> io::Result<BinLogWriter> {
        BinLogWriter::spawn_inner(path.into(), ring, flush_interval, None)
    }

    /// Like [`BinLogWriter::spawn`], with the sampler guarding the ring's
    /// producers (the same `Arc` handed to [`RingSink::with_sampler`]): its
    /// exact per-category admitted/suppressed counts are stamped into the
    /// footer on [`BinLogWriter::finish`].
    pub fn spawn_with_sampler(
        path: impl Into<PathBuf>,
        ring: Arc<RingBuffer>,
        flush_interval: Duration,
        sampler: Arc<Sampler>,
    ) -> io::Result<BinLogWriter> {
        BinLogWriter::spawn_inner(path.into(), ring, flush_interval, Some(sampler))
    }

    fn spawn_inner(
        path: PathBuf,
        ring: Arc<RingBuffer>,
        flush_interval: Duration,
        sampler: Option<Arc<Sampler>>,
    ) -> io::Result<BinLogWriter> {
        let mut file = File::create(&path)?;
        file.write_all(MAGIC)?;
        file.flush()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ftsim-obs-binlog".to_string())
            .spawn(move || drain_loop(file, ring, stop_flag, flush_interval, sampler))
            .expect("spawn binlog drain thread");
        Ok(BinLogWriter { stop, handle })
    }

    /// Signals the drain thread, waits for it to drain the ring, write the
    /// footer, and flush; returns what it wrote.
    pub fn finish(self) -> io::Result<WriterStats> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("binlog drain thread panicked")
    }
}

fn drain_loop(
    mut file: File,
    ring: Arc<RingBuffer>,
    stop: Arc<AtomicBool>,
    flush_interval: Duration,
    sampler: Option<Arc<Sampler>>,
) -> io::Result<WriterStats> {
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut written = 0u64;
    let mut last_flush = Instant::now();
    loop {
        let mut drained = 0u32;
        while let Some(event) = ring.try_pop() {
            encode_event(&event, &mut buf);
            written += 1;
            drained += 1;
            // Bound the batch so flushes stay timely under a firehose.
            if drained >= 4096 {
                break;
            }
        }
        if !buf.is_empty() && (last_flush.elapsed() >= flush_interval || drained >= 4096) {
            file.write_all(&buf)?;
            file.flush()?;
            buf.clear();
            last_flush = Instant::now();
        }
        if drained == 0 {
            if stop.load(Ordering::Relaxed) && ring.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = WriterStats {
        events_written: written,
        dropped_events: ring.dropped_events(),
        dropped_by: ring.dropped_by_category(),
        sampled_by: sampler
            .as_ref()
            .map(|s| s.sampled_by_category())
            .unwrap_or_default(),
        sampler_dropped_by: sampler
            .as_ref()
            .map(|s| s.dropped_by_category())
            .unwrap_or_default(),
    };
    encode_footer(
        &Footer {
            events_written: stats.events_written,
            dropped_events: stats.dropped_events,
            dropped_by: stats.dropped_by,
            sampled_by: stats.sampled_by,
            sampler_dropped_by: stats.sampler_dropped_by,
        },
        &mut buf,
    );
    file.write_all(&buf)?;
    file.flush()?;
    Ok(stats)
}

/// Incremental reader over a (possibly still growing) event log.
///
/// [`LogReader::poll`] returns every record completed since the last poll;
/// a partial trailing frame is kept buffered until the writer completes it.
/// Once the footer is seen, [`LogReader::footer`] is set and `poll` returns
/// nothing further.
pub struct LogReader {
    file: File,
    pending: Vec<u8>,
    header_seen: bool,
    footer: Option<Footer>,
}

impl LogReader {
    /// Opens `path` for tailing. The file may be empty or mid-write.
    pub fn open(path: impl AsRef<Path>) -> io::Result<LogReader> {
        Ok(LogReader {
            file: File::open(path)?,
            pending: Vec::new(),
            header_seen: false,
            footer: None,
        })
    }

    /// The footer, once the writer has shut down cleanly.
    pub fn footer(&self) -> Option<Footer> {
        self.footer
    }

    /// Reads newly appended bytes and decodes every complete frame.
    pub fn poll(&mut self) -> io::Result<Vec<LogRecord>> {
        if self.footer.is_some() {
            return Ok(Vec::new());
        }
        self.file.read_to_end(&mut self.pending)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        if !self.header_seen {
            if self.pending.len() < MAGIC.len() {
                return Ok(records);
            }
            if &self.pending[..MAGIC.len()] != MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not an ftsim-obs event log (bad magic)",
                ));
            }
            self.header_seen = true;
            pos = MAGIC.len();
        }
        while self.footer.is_none() {
            let Some(len_bytes) = self.pending.get(pos..pos + 4) else {
                break;
            };
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4")) as usize;
            let Some(payload) = self.pending.get(pos + 4..pos + 4 + len) else {
                break; // partial trailing frame: wait for the writer
            };
            match decode_payload(payload)? {
                Decoded::Record(r) => records.push(r),
                Decoded::Footer(f) => self.footer = Some(f),
            }
            pos += 4 + len;
        }
        self.pending.drain(..pos);
        Ok(records)
    }
}

/// Reads a complete log from disk: every record plus the footer (if the
/// writer shut down cleanly).
pub fn replay(path: impl AsRef<Path>) -> io::Result<(Vec<LogRecord>, Option<Footer>)> {
    let mut reader = LogReader::open(path)?;
    let mut records = Vec::new();
    loop {
        let batch = reader.poll()?;
        if batch.is_empty() {
            break;
        }
        records.extend(batch);
    }
    Ok((records, reader.footer()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> InlineStr {
        InlineStr::truncate_from(s)
    }

    fn sample_events() -> Vec<RingEvent> {
        vec![
            RingEvent::Span {
                cat: name("sim.step"),
                name: name("forward"),
                ts_ns: 10,
                dur_ns: 250,
                tid: 3,
                depth: 1,
            },
            RingEvent::Counter {
                name: name("sim.sweep.points_done"),
                delta: 2,
            },
            RingEvent::Gauge {
                name: name("sim.train.loss"),
                value: -0.125,
            },
            RingEvent::Histogram {
                name: name("sim.train.expert_token_pct"),
                value: 12.5,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for event in sample_events() {
            let mut buf = Vec::new();
            encode_event(&event, &mut buf);
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, buf.len());
            let Decoded::Record(record) = decode_payload(&buf[4..]).unwrap() else {
                panic!("not a record");
            };
            match (&event, &record) {
                (
                    RingEvent::Span {
                        cat,
                        name,
                        ts_ns,
                        dur_ns,
                        tid,
                        depth,
                    },
                    LogRecord::Span {
                        cat: c2,
                        name: n2,
                        ts_ns: t2,
                        dur_ns: d2,
                        tid: tid2,
                        depth: dep2,
                    },
                ) => {
                    assert_eq!(cat.as_str(), c2);
                    assert_eq!(name.as_str(), n2);
                    assert_eq!((ts_ns, dur_ns, tid, depth), (t2, d2, tid2, dep2));
                }
                (
                    RingEvent::Counter { name, delta },
                    LogRecord::Counter {
                        name: n2,
                        delta: d2,
                    },
                ) => {
                    assert_eq!(name.as_str(), n2);
                    assert_eq!(delta, d2);
                }
                (
                    RingEvent::Gauge { name, value },
                    LogRecord::Gauge {
                        name: n2,
                        value: v2,
                    },
                ) => {
                    assert_eq!(name.as_str(), n2);
                    assert_eq!(value.to_bits(), v2.to_bits());
                }
                (
                    RingEvent::Histogram { name, value },
                    LogRecord::Histogram {
                        name: n2,
                        value: v2,
                    },
                ) => {
                    assert_eq!(name.as_str(), n2);
                    assert_eq!(value.to_bits(), v2.to_bits());
                }
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn writer_and_replay_round_trip_with_footer() {
        let dir = std::env::temp_dir().join(format!("ftsim-binlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bin");
        let ring = Arc::new(RingBuffer::with_capacity(64));
        let writer =
            BinLogWriter::spawn(&path, Arc::clone(&ring), Duration::from_millis(5)).unwrap();
        for event in sample_events() {
            assert!(ring.try_push(event));
        }
        let stats = writer.finish().unwrap();
        assert_eq!(stats.events_written, 4);
        assert_eq!(stats.dropped_events, 0);

        let (records, footer) = replay(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(
            footer,
            Some(Footer {
                events_written: 4,
                ..Footer::default()
            })
        );
        assert!(matches!(&records[0], LogRecord::Span { name, .. } if name == "forward"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_round_trips_per_category_drops_and_rejects_short_footers() {
        let footer = Footer {
            events_written: 100,
            dropped_events: 10,
            dropped_by: DroppedCounts {
                spans: 7,
                counters: 1,
                gauges: 0,
                histograms: 2,
            },
            sampled_by: CategoryCounts {
                spans: 40,
                counters: 30,
                gauges: 20,
                histograms: 10,
            },
            sampler_dropped_by: CategoryCounts {
                spans: 400,
                counters: 0,
                gauges: 0,
                histograms: 5,
            },
        };
        let mut buf = Vec::new();
        encode_footer(&footer, &mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(
            len, 113,
            "footer payload: tag + 2 totals + 3 category quads"
        );
        let Decoded::Footer(decoded) = decode_payload(&buf[4..]).unwrap() else {
            panic!("not a footer");
        };
        assert_eq!(decoded, footer);
        // Undercount for spans: (written + ring-dropped + sampler-dropped)
        // / written, using the caller's span record count.
        assert!((decoded.undercount_factor(0, 93) - 500.0 / 93.0).abs() < 1e-12);
        assert_eq!(decoded.undercount_factor(2, 0), 1.0, "no records, no claim");

        // Shorter footers (17 bytes: totals only; 49 bytes: + drop
        // breakdown) are rejected rather than read as a complete log.
        for len in [17, 49] {
            let err = decode_payload(&buf[4..4 + len])
                .err()
                .expect("short footer");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}-byte footer");
        }
    }

    #[test]
    fn sampled_sink_thins_the_stream_and_footers_the_counts() {
        use crate::ring::{Sampler, SamplerConfig};
        let dir = std::env::temp_dir().join(format!("ftsim-binlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sampled.bin");
        let ring = Arc::new(RingBuffer::with_capacity(1 << 12));
        // Zero refill rate: 8 tokens then pure 1-in-N — deterministic
        // regardless of wall clock.
        let sampler = Arc::new(Sampler::new(SamplerConfig {
            rate_per_sec: 0,
            burst: 8,
            max_stride: 16,
        }));
        let sink = RingSink::with_sampler(Arc::clone(&ring), Arc::clone(&sampler));
        let writer = BinLogWriter::spawn_with_sampler(
            &path,
            Arc::clone(&ring),
            Duration::from_millis(5),
            Arc::clone(&sampler),
        )
        .unwrap();
        for i in 0..1000u64 {
            sink.on_counter("soak.counter", i);
        }
        let stats = writer.finish().unwrap();
        let s = sampler.sampled_by_category();
        let d = sampler.dropped_by_category();
        assert_eq!(s.counters + d.counters, 1000, "sampler sees every event");
        assert_eq!(
            stats.events_written, s.counters,
            "only admitted events land"
        );
        assert!(d.counters > 900, "sustained overload is thinned hard");
        assert_eq!(stats.sampled_by, s);
        assert_eq!(stats.sampler_dropped_by, d);
        let (records, footer) = replay(&path).unwrap();
        assert_eq!(records.len() as u64, stats.events_written);
        let footer = footer.unwrap();
        assert_eq!(footer.sampled_by, s);
        assert_eq!(footer.sampler_dropped_by, d);
        assert!(footer.undercount_factor(1, records.len() as u64) > 10.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overloaded_writer_footers_carry_the_category_breakdown() {
        let dir = std::env::temp_dir().join(format!("ftsim-binlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overload.bin");
        // Fill a tiny ring before the writer exists, so the overflow is
        // deterministic: 2 land, the rest drop.
        let ring = Arc::new(RingBuffer::with_capacity(2));
        let mut pushed = 0u64;
        for event in sample_events() {
            if ring.try_push(event) {
                pushed += 1;
            }
        }
        assert_eq!(pushed, 2);
        let writer =
            BinLogWriter::spawn(&path, Arc::clone(&ring), Duration::from_millis(5)).unwrap();
        let stats = writer.finish().unwrap();
        assert_eq!(stats.events_written, 2);
        assert_eq!(stats.dropped_events, 2);
        assert_eq!(stats.dropped_by.total(), 2);
        // sample_events order: span, counter land; gauge + histogram drop.
        assert_eq!(stats.dropped_by.gauges, 1);
        assert_eq!(stats.dropped_by.histograms, 1);
        let (_, footer) = replay(&path).unwrap();
        assert_eq!(footer.unwrap().dropped_by, stats.dropped_by);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_tolerates_partial_trailing_frames() {
        let mut full = Vec::new();
        full.extend_from_slice(MAGIC);
        for event in sample_events() {
            encode_event(&event, &mut full);
        }
        let dir = std::env::temp_dir().join(format!("ftsim-binlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.bin");

        // Write all but the last 3 bytes: the final frame is incomplete.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut reader = LogReader::open(&path).unwrap();
        let first = reader.poll().unwrap();
        assert_eq!(first.len(), 3, "complete frames decode, partial waits");
        assert!(reader.footer().is_none());

        // Complete the file; the held-back frame appears on the next poll.
        std::fs::write(&path, &full).unwrap();
        // Reopen (the test rewrote from scratch rather than appending).
        let mut reader = LogReader::open(&path).unwrap();
        let all = reader.poll().unwrap();
        assert_eq!(all.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_bad_magic() {
        let dir = std::env::temp_dir().join(format!("ftsim-binlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("badmagic.bin");
        std::fs::write(&path, b"NOTALOG!xxxx").unwrap();
        let mut reader = LogReader::open(&path).unwrap();
        assert!(reader.poll().is_err());
        std::fs::remove_file(&path).ok();
    }
}
