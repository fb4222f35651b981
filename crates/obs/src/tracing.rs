//! Request-scoped distributed tracing: span trees, a bounded
//! non-blocking ring recorder, and Perfetto-loadable exporters.
//!
//! Aggregate metrics ([`crate::metrics`]) answer "how is the daemon
//! doing"; this module answers "why was *this* request slow". A
//! [`SpanRecord`] captures one timed operation (`trace`/`span`/`parent`
//! ids, nanosecond start and duration relative to the recorder epoch,
//! typed attributes); spans sharing a `trace` id form one tree per
//! request across threads, keyed by the client's wire-propagated
//! `trace` field.
//!
//! Recording never blocks a hot path: [`SpanRecorder::record`] claims a
//! ring slot with an atomic counter and a `try_lock`, and counts a drop
//! instead of waiting when the slot is contended or when the ring wraps
//! over an older span. Readers ([`SpanRecorder::snapshot`]) may block
//! briefly on a slot; writers never do.
//!
//! Two export formats, chosen by file extension in
//! [`TraceFormat::from_path`]:
//!
//! - **JSONL** (`.jsonl`): one span object per line, grep-friendly.
//! - **Chrome trace-event** (`.json`): an array of `"ph":"X"` complete
//!   events loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`, one timeline row per trace.
//!
//! [`SpanSink`] adapts the [`EventSink`] world: it turns
//! [`Event::PhaseTimer`] events (emitted by [`crate::Phases`] and the
//! simulator) into back-dated child spans, so a worker's `execute` span
//! decomposes into the simulator's phases.
//!
//! # Example
//!
//! ```
//! use bfdn_obs::tracing::{SpanRecord, SpanRecorder};
//!
//! let recorder = SpanRecorder::new(64);
//! let trace = 0xabcd;
//! let root = recorder.next_id();
//! recorder.record(SpanRecord::new(trace, root, 0, "request").at(0, 1_000));
//! recorder.record(
//!     SpanRecord::new(trace, recorder.next_id(), root, "execute")
//!         .at(100, 800)
//!         .attr_bool("cached", false),
//! );
//! let spans = recorder.snapshot();
//! assert_eq!(spans.len(), 2);
//! assert!(spans[0].is_root());
//! assert_eq!(spans[1].parent, root);
//! assert_eq!(recorder.dropped(), 0);
//! ```

use crate::json::{escape_into, JsonObject};
use crate::{Event, EventSink};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Renders a trace/span id in its fixed-width 16-digit hex wire form.
pub fn hex16(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the 16-digit hex wire form of a trace/span id.
///
/// Returns `None` unless the input is exactly 16 ASCII hex digits.
pub fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    fn json_into(&self, out: &mut String) {
        match self {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(s) => escape_into(out, s),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Plain-text rendering, for wire payloads and display.
    pub fn render(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::Str(s) => s.clone(),
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

/// One timed operation inside a trace.
///
/// `parent == 0` marks a root span. `start_ns` is relative to the
/// recording process's [`SpanRecorder`] epoch, so spans from one daemon
/// order totally; durations are wall-clock nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to (one tree per request).
    pub trace: u64,
    /// This span's id, unique within the recording process.
    pub span: u64,
    /// Parent span id; `0` for the tree root.
    pub parent: u64,
    /// Operation name (`"request"`, `"execute"`, `"build_tree"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Starts a span record with zero start/duration and no attributes.
    pub fn new(trace: u64, span: u64, parent: u64, name: &'static str) -> Self {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start_ns: 0,
            duration_ns: 0,
            attrs: Vec::new(),
        }
    }

    /// Sets start and duration (builder style).
    pub fn at(mut self, start_ns: u64, duration_ns: u64) -> Self {
        self.start_ns = start_ns;
        self.duration_ns = duration_ns;
        self
    }

    /// Appends an unsigned-integer attribute.
    pub fn attr_u64(mut self, key: &'static str, value: u64) -> Self {
        self.attrs.push((key, AttrValue::U64(value)));
        self
    }

    /// Appends a string attribute.
    pub fn attr_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.attrs.push((key, AttrValue::Str(value.into())));
        self
    }

    /// Appends a boolean attribute.
    pub fn attr_bool(mut self, key: &'static str, value: bool) -> Self {
        self.attrs.push((key, AttrValue::Bool(value)));
        self
    }

    /// Whether this span is the root of its trace.
    pub fn is_root(&self) -> bool {
        self.parent == 0
    }

    fn attrs_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, key);
            out.push(':');
            value.json_into(&mut out);
        }
        out.push('}');
        out
    }

    /// Serializes the span as one JSONL span-log line (no newline).
    pub fn to_jsonl(&self) -> String {
        let parent = if self.parent == 0 {
            String::new()
        } else {
            hex16(self.parent)
        };
        let mut o = JsonObject::new();
        o.str("trace", &hex16(self.trace))
            .str("span", &hex16(self.span))
            .str("parent", &parent)
            .str("name", self.name)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.duration_ns);
        if !self.attrs.is_empty() {
            o.raw("attrs", &self.attrs_json());
        }
        o.finish()
    }

    /// Serializes the span as one Chrome trace-event complete event
    /// (`"ph":"X"`, microsecond timestamps), for Perfetto and
    /// `chrome://tracing`. Each trace gets its own timeline row (`tid`).
    pub fn to_chrome_event(&self) -> String {
        let mut args = String::from("{");
        escape_into(&mut args, "trace");
        args.push(':');
        escape_into(&mut args, &hex16(self.trace));
        args.push(',');
        escape_into(&mut args, "span");
        args.push(':');
        escape_into(&mut args, &hex16(self.span));
        if self.parent != 0 {
            args.push(',');
            escape_into(&mut args, "parent");
            args.push(':');
            escape_into(&mut args, &hex16(self.parent));
        }
        for (key, value) in &self.attrs {
            args.push(',');
            escape_into(&mut args, key);
            args.push(':');
            value.json_into(&mut args);
        }
        args.push('}');
        let mut o = JsonObject::new();
        o.str("name", self.name)
            .str("cat", "bfdn")
            .str("ph", "X")
            .f64("ts", self.start_ns as f64 / 1_000.0)
            .f64("dur", self.duration_ns as f64 / 1_000.0)
            .u64("pid", 1)
            .u64("tid", self.trace % (1 << 32))
            .raw("args", &args);
        o.finish()
    }
}

/// A bounded ring of recent spans with a non-blocking write path.
///
/// Writers claim a slot by atomically advancing `head`, then `try_lock`
/// it: on contention (a concurrent reader or a wrapped-around writer
/// holds the slot) the span is counted in [`SpanRecorder::dropped`]
/// instead of blocking. Overwriting an older span when the ring wraps
/// also counts as a drop — so `dropped() == 0` certifies the ring still
/// holds every span ever recorded.
pub struct SpanRecorder {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    next_id: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanRecorder {
    /// Default ring capacity used by the daemon.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder holding up to `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity).map(|_| Mutex::new(None)).collect();
        SpanRecorder {
            slots,
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the recorder epoch — the timebase of every
    /// [`SpanRecord::start_ns`] recorded here.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates the next process-unique span/trace id (starts at 1).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span. Never blocks: slot contention or ring wrap-over
    /// increments the drop counter instead.
    pub fn record(&self, span: SpanRecord) {
        let slot = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut cell) => {
                if cell.replace(span).is_some() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans accepted into the ring so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans lost: overwritten by ring wrap-around or skipped because
    /// their slot was contended at write time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clones the ring's current spans, sorted by start time. May block
    /// briefly on slots being written; concurrent writers that hit a
    /// slot the snapshot holds count a drop rather than waiting.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .clone()
            })
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.span));
        spans
    }
}

/// Output format of a [`TraceWriter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON span object per line.
    Jsonl,
    /// A Chrome trace-event JSON array (Perfetto, `chrome://tracing`).
    Chrome,
}

impl TraceFormat {
    /// Picks the format from a file extension: `.json` means Chrome
    /// trace-event, anything else means JSONL.
    pub fn from_path(path: &Path) -> TraceFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => TraceFormat::Chrome,
            _ => TraceFormat::Jsonl,
        }
    }
}

struct WriterState {
    out: Box<dyn Write + Send>,
    first: bool,
    closed: bool,
    error: Option<io::Error>,
}

/// Streams spans to a file in either export format.
///
/// Writes are serialized by an internal mutex and buffered; IO errors
/// are swallowed at write time (tracing must never take down serving)
/// and the first one is surfaced by [`TraceWriter::close`].
pub struct TraceWriter {
    state: Mutex<WriterState>,
    format: TraceFormat,
    written: AtomicU64,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("format", &self.format)
            .field("written", &self.written())
            .finish()
    }
}

impl TraceWriter {
    /// Creates the file at `path`, picking the format from its
    /// extension ([`TraceFormat::from_path`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error if the file cannot be created.
    pub fn create(path: &Path) -> io::Result<TraceWriter> {
        let format = TraceFormat::from_path(path);
        let file = File::create(path)?;
        Ok(TraceWriter::to_writer(BufWriter::new(file), format))
    }

    /// Wraps an arbitrary writer (for tests and in-memory export).
    pub fn to_writer(out: impl Write + Send + 'static, format: TraceFormat) -> TraceWriter {
        TraceWriter {
            state: Mutex::new(WriterState {
                out: Box::new(out),
                first: true,
                closed: false,
                error: None,
            }),
            format,
            written: AtomicU64::new(0),
        }
    }

    /// The export format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Spans written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Appends one span. Errors are retained for [`TraceWriter::close`],
    /// not returned.
    pub fn write(&self, span: &SpanRecord) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if state.closed {
            return;
        }
        let result = match self.format {
            TraceFormat::Jsonl => {
                let line = span.to_jsonl();
                state
                    .out
                    .write_all(line.as_bytes())
                    .and_then(|()| state.out.write_all(b"\n"))
            }
            TraceFormat::Chrome => {
                let prefix: &[u8] = if state.first { b"[\n" } else { b",\n" };
                let event = span.to_chrome_event();
                state
                    .out
                    .write_all(prefix)
                    .and_then(|()| state.out.write_all(event.as_bytes()))
            }
        };
        match result {
            Ok(()) => {
                state.first = false;
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                if state.error.is_none() {
                    state.error = Some(e);
                }
            }
        }
    }

    /// Terminates the stream (closing the Chrome JSON array), flushes,
    /// and surfaces the first IO error seen. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns the first write/flush error encountered over the
    /// writer's lifetime.
    pub fn close(&self) -> io::Result<()> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if state.closed {
            return Ok(());
        }
        state.closed = true;
        let terminator = match (self.format, state.first) {
            (TraceFormat::Chrome, true) => "[]\n",
            (TraceFormat::Chrome, false) => "\n]\n",
            (TraceFormat::Jsonl, _) => "",
        };
        let result = state
            .out
            .write_all(terminator.as_bytes())
            .and_then(|()| state.out.flush());
        match state.error.take() {
            Some(e) => Err(e),
            None => result,
        }
    }
}

/// A recorder plus an optional export stream — the daemon's single
/// recording facade: every span lands in the ring (serving the `trace`
/// wire request) and, when configured, in the export file.
#[derive(Debug)]
pub struct Tracer {
    recorder: SpanRecorder,
    writer: Option<TraceWriter>,
}

impl Tracer {
    /// Creates a tracer with a ring of `capacity` spans and no export.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            recorder: SpanRecorder::new(capacity),
            writer: None,
        }
    }

    /// Attaches an export stream (builder style).
    pub fn with_writer(mut self, writer: TraceWriter) -> Self {
        self.writer = Some(writer);
        self
    }

    /// The underlying ring recorder.
    pub fn recorder(&self) -> &SpanRecorder {
        &self.recorder
    }

    /// See [`SpanRecorder::now_ns`].
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// See [`SpanRecorder::next_id`].
    pub fn next_id(&self) -> u64 {
        self.recorder.next_id()
    }

    /// Records a span in the ring and, when configured, the export
    /// stream. Never blocks on the ring; the export stream is a
    /// buffered file write behind a short critical section.
    pub fn record(&self, span: SpanRecord) {
        if let Some(writer) = &self.writer {
            writer.write(&span);
        }
        self.recorder.record(span);
    }

    /// Closes the export stream, if any. See [`TraceWriter::close`].
    ///
    /// # Errors
    ///
    /// Returns the first export IO error encountered.
    pub fn close(&self) -> io::Result<()> {
        match &self.writer {
            Some(writer) => writer.close(),
            None => Ok(()),
        }
    }
}

/// An [`EventSink`] that converts [`Event::PhaseTimer`] events into
/// back-dated child spans under a fixed parent.
///
/// `PhaseTimer` fires when a phase *finishes* with its measured
/// duration, so the span's start is reconstructed as `now - nanos`.
/// All other events pass through untouched (ignored).
pub struct SpanSink<'a> {
    tracer: &'a Tracer,
    trace: u64,
    parent: u64,
}

impl<'a> SpanSink<'a> {
    /// A sink recording phase spans under `parent` in `trace`.
    pub fn new(tracer: &'a Tracer, trace: u64, parent: u64) -> Self {
        SpanSink {
            tracer,
            trace,
            parent,
        }
    }
}

impl EventSink for SpanSink<'_> {
    fn emit(&mut self, event: &Event) {
        if let Event::PhaseTimer { phase, nanos } = *event {
            let end = self.tracer.now_ns();
            self.tracer.record(
                SpanRecord::new(self.trace, self.tracer.next_id(), self.parent, phase)
                    .at(end.saturating_sub(nanos), nanos),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hex_roundtrip() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(0xdead_beef), "00000000deadbeef");
        assert_eq!(parse_hex16("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(parse_hex16(&hex16(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_hex16("deadbeef"), None); // too short
        assert_eq!(parse_hex16("00000000deadbeeg"), None); // non-hex
        assert_eq!(parse_hex16("0x000000deadbeef"), None);
    }

    #[test]
    fn jsonl_shape() {
        let span = SpanRecord::new(1, 2, 0, "request")
            .at(10, 20)
            .attr_str("key", "a\"b")
            .attr_u64("items", 3)
            .attr_bool("cached", true);
        assert_eq!(
            span.to_jsonl(),
            r#"{"trace":"0000000000000001","span":"0000000000000002","parent":"","name":"request","start_ns":10,"dur_ns":20,"attrs":{"key":"a\"b","items":3,"cached":true}}"#
        );
        let child = SpanRecord::new(1, 3, 2, "execute").at(12, 5);
        assert!(child.to_jsonl().contains(r#""parent":"0000000000000002""#));
        assert!(!child.to_jsonl().contains("attrs"));
    }

    #[test]
    fn chrome_event_shape() {
        let span = SpanRecord::new(7, 9, 0, "request")
            .at(1_500, 2_000)
            .attr_u64("items", 4);
        let event = span.to_chrome_event();
        assert!(event.contains(r#""ph":"X""#), "{event}");
        assert!(event.contains(r#""ts":1.5"#), "{event}");
        assert!(event.contains(r#""dur":2"#), "{event}");
        assert!(event.contains(r#""pid":1"#), "{event}");
        assert!(event.contains(r#""tid":7"#), "{event}");
        assert!(
            event.contains(
                r#""args":{"trace":"0000000000000007","span":"0000000000000009","items":4}"#
            ),
            "{event}"
        );
    }

    #[test]
    fn recorder_keeps_everything_below_capacity() {
        let recorder = Arc::new(SpanRecorder::new(1024));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let id = recorder.next_id();
                        recorder.record(SpanRecord::new(t + 1, id, 0, "op").at(t * 1_000 + i, 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(recorder.recorded(), 800);
        assert_eq!(recorder.dropped(), 0);
        let spans = recorder.snapshot();
        assert_eq!(spans.len(), 800);
        // Snapshot is sorted by start time.
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn recorder_counts_drops_above_capacity() {
        let recorder = SpanRecorder::new(64);
        for i in 0..100 {
            recorder.record(SpanRecord::new(1, i + 1, 0, "op").at(i, 1));
        }
        assert_eq!(recorder.recorded(), 100);
        assert_eq!(recorder.dropped(), 36); // 100 writes wrapped a 64-slot ring
        assert_eq!(recorder.snapshot().len(), 64);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let recorder = SpanRecorder::new(4);
        let a = recorder.next_id();
        let b = recorder.next_id();
        assert!(a >= 1);
        assert_ne!(a, b);
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let path = std::env::temp_dir().join(format!("bfdn-trace-{}.jsonl", std::process::id()));
        let writer = TraceWriter::create(&path).unwrap();
        assert_eq!(writer.format(), TraceFormat::Jsonl);
        writer.write(&SpanRecord::new(1, 1, 0, "a").at(0, 10));
        writer.write(&SpanRecord::new(1, 2, 1, "b").at(1, 5));
        writer.close().unwrap();
        assert_eq!(writer.written(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""name":"a""#));
        assert!(lines[1].ends_with('}'));
    }

    #[test]
    fn chrome_writer_emits_a_json_array() {
        let path = std::env::temp_dir().join(format!("bfdn-trace-{}.json", std::process::id()));
        let writer = TraceWriter::create(&path).unwrap();
        assert_eq!(writer.format(), TraceFormat::Chrome);
        writer.write(&SpanRecord::new(1, 1, 0, "a").at(0, 10));
        writer.write(&SpanRecord::new(1, 2, 1, "b").at(1, 5));
        writer.close().unwrap();
        writer.close().unwrap(); // idempotent
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("[\n"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert_eq!(text.matches(r#""ph":"X""#).count(), 2);
    }

    #[test]
    fn empty_chrome_trace_is_valid_json() {
        let path =
            std::env::temp_dir().join(format!("bfdn-trace-empty-{}.json", std::process::id()));
        let writer = TraceWriter::create(&path).unwrap();
        writer.close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text, "[]\n");
    }

    #[test]
    fn span_sink_backdates_phase_timers() {
        let tracer = Tracer::new(16);
        let parent = tracer.next_id();
        let mut sink = SpanSink::new(&tracer, 42, parent);
        // Back-dating saturates at the epoch; wait until there is a full
        // phase-duration of history so start/duration come out exact.
        while tracer.now_ns() < 1_000 {
            std::hint::spin_loop();
        }
        sink.emit(&Event::PhaseTimer {
            phase: "explore",
            nanos: 1_000,
        });
        sink.emit(&Event::Reanchor {
            robot: 0,
            depth: 1,
            anchor: 2,
        }); // ignored
        let spans = tracer.recorder().snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "explore");
        assert_eq!(spans[0].trace, 42);
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[0].duration_ns, 1_000);
        assert!(spans[0].start_ns + 1_000 <= tracer.now_ns());
    }

    #[test]
    fn tracer_records_to_ring_and_writer() {
        let path = std::env::temp_dir().join(format!("bfdn-tracer-{}.jsonl", std::process::id()));
        let tracer = Tracer::new(8).with_writer(TraceWriter::create(&path).unwrap());
        tracer.record(SpanRecord::new(1, 1, 0, "request").at(0, 10));
        tracer.close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tracer.recorder().recorded(), 1);
        assert_eq!(text.lines().count(), 1);
    }
}
