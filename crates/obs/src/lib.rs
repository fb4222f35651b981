//! Structured observability for the BFDN reproduction.
//!
//! The workspace reproduces *quantitative* claims — Theorem 1's
//! `2n/k + D²(min{log Δ, log k}+3)` round count, Lemma 2's per-depth
//! reanchor cap — and this crate makes the quantities behind those
//! bounds observable while a run is in flight. Instrumented components
//! (the simulator round loop, BFDN's `Reanchor` procedure, the bench
//! harness) emit typed [`Event`]s into an [`EventSink`]:
//!
//! - [`NullSink`] — the zero-cost default: the simulator is generic over
//!   its sink, so an unobserved run monomorphizes to the uninstrumented
//!   hot path.
//! - [`JsonlSink`] — streams one JSON object per event to any writer.
//! - [`MemorySink`], [`StderrLog`] — test and logging helpers.
//!
//! Long-lived processes (the `bfdn-serve` daemon) aggregate across many
//! runs through the [`metrics`] module: lock-free counters, gauges and
//! fixed-bucket histograms in a shared registry, rendered as Prometheus
//! text exposition (and parsed back by [`exposition`]). Per-request
//! causality — "why was *this* request slow" — comes from the
//! [`tracing`] module: span trees in a bounded non-blocking ring,
//! exported as JSONL or Perfetto-loadable Chrome trace-event JSON.
//!
//! A finished run is summarized by a [`RunManifest`] (algorithm,
//! workload, seed, `n`, `D`, `Δ`, `k`, git revision, per-phase
//! wall-clock from [`Phases`], final metrics, final margins) serialized
//! as a single JSON document next to the experiment CSVs. The margins
//! are computed once from the finished run's counters (rounds and
//! per-depth reanchors only grow, so the final margin is the worst);
//! no sink follows them round by round.
//!
//! The crate is dependency-free (std only); JSON is hand-rolled in
//! [`json`] because the workspace deliberately carries no format
//! dependency.
//!
//! # Example
//!
//! ```
//! use bfdn_obs::{Event, EventSink, MemorySink};
//!
//! let mut sink = MemorySink::default();
//! sink.emit(&Event::Reanchor { robot: 0, depth: 2, anchor: 17 });
//! assert_eq!(sink.events().len(), 1);
//! assert_eq!(sink.count(|e| matches!(e, Event::Reanchor { .. })), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod exposition;
pub mod json;
mod manifest;
pub mod metrics;
mod phase;
mod sink;
pub mod tracing;

pub use event::Event;
pub use manifest::{git_revision, RunManifest};
pub use metrics::{register_build_info, Counter, Gauge, Histogram, Registry};
pub use phase::Phases;
pub use sink::{EventSink, JsonlSink, LogLevel, MemorySink, NullSink, StderrLog};
pub use tracing::{SpanRecord, SpanRecorder, SpanSink, TraceFormat, TraceWriter, Tracer};
