//! Event sinks: where instrumented components send their [`Event`]s.

use crate::Event;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::str::FromStr;

/// A consumer of [`Event`]s.
///
/// Instrumented hot paths are generic over their sink, so a disabled
/// ([`NullSink`]) run monomorphizes to the uninstrumented code; dynamic
/// dispatch (`&mut dyn EventSink`) is reserved for cold paths such as
/// BFDN's `Reanchor` procedure and sink composition.
pub trait EventSink {
    /// Consumes one event.
    fn emit(&mut self, event: &Event);

    /// Whether this sink observes anything at all. Hot paths use this to
    /// skip event *construction*; [`NullSink`] returns `false` and the
    /// guard folds away after monomorphization.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (a no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// A borrowed sink is a sink: a caller can lend its sink to a generic
/// consumer (a simulator, say) and keep it.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn emit(&mut self, event: &Event) {
        (**self).emit(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// The zero-cost default sink: observes nothing.
///
/// [`Simulator`](../bfdn_sim/struct.Simulator.html)s are generic over
/// their sink with `NullSink` as the default, so an unobserved run pays
/// nothing — every `emit` call and every `enabled()`-guarded event
/// construction is compiled out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _: &Event) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers every event in memory — the test and assertion sink.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: Vec<Event>,
}

impl MemorySink {
    /// All events received so far, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Streams one JSON object per event to a writer — the persistent trace
/// format (`--trace-out`).
///
/// I/O errors do not interrupt the observed run; the first one is
/// retained and reported by [`JsonlSink::io_error`] (and by
/// [`JsonlSink::finish`]).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
    events: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::new(),
            events: 0,
            error: None,
        }
    }

    /// Number of events written.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The first I/O error encountered, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer, surfacing any deferred I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error of the sink's lifetime.
    pub fn finish(mut self) -> io::Result<W> {
        match self.error.take() {
            Some(e) => Err(e),
            None => {
                self.out.flush()?;
                Ok(self.out)
            }
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        self.line.push_str(&event.to_json());
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.events += 1;
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Verbosity of [`StderrLog`], ordered from silent to chatty.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Log nothing.
    #[default]
    Off,
    /// Phase timings only.
    Info,
    /// Plus reanchorings and stalls.
    Debug,
    /// Plus every round and edge discovery.
    Trace,
}

impl LogLevel {
    /// The accepted `--log` values.
    pub const NAMES: [&'static str; 4] = ["off", "info", "debug", "trace"];

    /// The level at which `event` is logged.
    pub fn of(event: &Event) -> LogLevel {
        match event {
            Event::PhaseTimer { .. } => LogLevel::Info,
            Event::Reanchor { .. } | Event::RobotStalled { .. } => LogLevel::Debug,
            Event::RoundCompleted { .. } | Event::EdgeDiscovered { .. } => LogLevel::Trace,
        }
    }
}

impl FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(LogLevel::Off),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            "trace" => Ok(LogLevel::Trace),
            other => Err(format!(
                "unknown log level `{other}` (one of: {})",
                Self::NAMES.join(", ")
            )),
        }
    }
}

/// Prints events at or below a [`LogLevel`] to stderr (`--log`).
#[derive(Clone, Copy, Debug)]
pub struct StderrLog {
    level: LogLevel,
}

impl StderrLog {
    /// A logger printing events whose level is at most `level`.
    pub fn new(level: LogLevel) -> Self {
        StderrLog { level }
    }
}

impl EventSink for StderrLog {
    fn emit(&mut self, event: &Event) {
        if LogLevel::of(event) <= self.level {
            eprintln!("[obs] {event}");
        }
    }

    fn enabled(&self) -> bool {
        self.level > LogLevel::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> [Event; 3] {
        [
            Event::Reanchor {
                robot: 0,
                depth: 1,
                anchor: 2,
            },
            Event::RoundCompleted {
                round: 0,
                explored: 2,
                moved: 1,
                stalled: 0,
            },
            Event::PhaseTimer {
                phase: "t",
                nanos: 1,
            },
        ]
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&sample()[0]);
        s.flush();
    }

    #[test]
    fn borrowed_sinks_forward_to_their_owner() {
        fn lend<S: EventSink>(mut sink: S) -> bool {
            sink.emit(&sample()[0]);
            sink.enabled()
        }
        let mut mem = MemorySink::default();
        assert!(lend(&mut mem));
        assert_eq!(mem.events(), &sample()[..1]);
        let dynamic: &mut dyn EventSink = &mut NullSink;
        assert!(!lend(dynamic));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut s = MemorySink::default();
        for e in sample() {
            s.emit(&e);
        }
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.count(|e| matches!(e, Event::RoundCompleted { .. })), 1);
        assert_eq!(s.events()[0].tag(), "reanchor");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        for e in sample() {
            s.emit(&e);
        }
        assert_eq!(s.events(), 3);
        let bytes = s.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(r#"{"event":"reanchor""#));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn jsonl_sink_retains_first_io_error() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Broken);
        s.emit(&sample()[0]);
        s.emit(&sample()[1]);
        assert_eq!(s.events(), 0);
        assert!(s.io_error().is_some());
        assert!(s.finish().is_err());
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!("debug".parse::<LogLevel>().unwrap(), LogLevel::Debug);
        assert!("loud".parse::<LogLevel>().is_err());
        assert!(LogLevel::Off < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert!(LogLevel::Debug < LogLevel::Trace);
        assert_eq!(
            LogLevel::of(&Event::PhaseTimer {
                phase: "t",
                nanos: 0
            }),
            LogLevel::Info
        );
        assert!(!StderrLog::new(LogLevel::Off).enabled());
        assert!(StderrLog::new(LogLevel::Info).enabled());
    }
}
