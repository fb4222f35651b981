//! The daemon's telemetry surface: one [`ServiceMetrics`] per server
//! holding every instrument the daemon exports, plus the structured
//! JSONL access log.
//!
//! Instruments live in a [`bfdn_obs::Registry`] and are rendered as
//! Prometheus text exposition — reachable both through the
//! [`crate::protocol::Request::Metrics`] wire request and through the
//! daemon's optional `--metrics-addr` plain-HTTP listener. Hot-path
//! updates are lock-free (atomics only); point-in-time series (queue
//! depth, in-flight jobs, cache occupancy) are refreshed from their
//! sources at render time so every scrape is consistent.
//!
//! The bound-margin aggregation re-checks the paper's guarantees across
//! everything a daemon has ever served: every executed spec feeds its
//! final Theorem 1 (`2n/k + D²(min{log Δ, log k}+3)`) and Lemma 2
//! margins ([`bfdn::BoundMargins`], computed once from the finished
//! run's counters) into worst-observed gauges and a violation counter.

use crate::protocol::{CacheStatsPayload, ExploreResult};
use bfdn::BoundMargins;
use bfdn_obs::json::JsonObject;
use bfdn_obs::metrics::{register_build_info, DEFAULT_LATENCY_BUCKETS};
use bfdn_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The request types tracked by `bfdn_requests_total{type=...}`;
/// `invalid` covers frames that decode to no known request.
pub const REQUEST_TYPES: [&str; 8] = [
    "explore",
    "batch",
    "status",
    "cache_stats",
    "metrics",
    "trace",
    "shutdown",
    "invalid",
];

/// The phase labels of `bfdn_slow_phase_total{phase=...}`: the request
/// phases a slow request's latency is attributed to, plus `other` for
/// time outside the three instrumented phases (decode, socket writes,
/// handler scheduling).
pub const SLOW_PHASES: [&str; 4] = ["queue_wait", "execute", "serialize", "other"];

/// Requests whose decode-to-reply latency reaches this (1000 ms) are
/// counted in `bfdn_slow_requests_total` and stamped `"slow":true` in
/// the access log.
pub const SLOW_REQUEST_NS: u64 = 1_000_000_000;

/// Margin samples kept in the per-daemon bound-margin window ring;
/// `bfdn_bound_margin_window_worst` is the minimum over this window, so
/// it recovers after a transient dip where the all-time
/// `bfdn_bound_margin_worst` gauge cannot.
pub const MARGIN_WINDOW: usize = 256;

/// The watchdog threshold: a Theorem 1 margin below this fraction of its
/// bound counts as "trending toward 0" and fires
/// `bfdn_margin_watchdog_total`.
pub const MARGIN_WATCHDOG_FRACTION: f64 = 0.05;

/// Every instrument the daemon exports, pre-registered in one
/// [`Registry`].
pub struct ServiceMetrics {
    registry: Registry,
    requests: Vec<(&'static str, Arc<Counter>)>,
    queue_wait: Arc<Histogram>,
    execute: Arc<Histogram>,
    serialize: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    rejects: Arc<Counter>,
    slow_requests: Arc<Counter>,
    slow_phase: Vec<(&'static str, Arc<Counter>)>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_resident_bytes: Arc<Gauge>,
    store_hits: Arc<Counter>,
    store_segments: Arc<Gauge>,
    store_on_disk_bytes: Arc<Gauge>,
    store_compression_ratio: Arc<Gauge>,
    store_records: Arc<Gauge>,
    store_live_bytes: Arc<Gauge>,
    store_raw_payload_bytes: Arc<Gauge>,
    store_stored_payload_bytes: Arc<Gauge>,
    store_truncated_segments: Arc<Counter>,
    worker_busy: Vec<Arc<Counter>>,
    bound_checked: Arc<Counter>,
    bound_violations: Arc<Counter>,
    margin_theorem1: Arc<Gauge>,
    margin_lemma2: Arc<Gauge>,
    margin_window: Mutex<VecDeque<f64>>,
    margin_window_worst: Arc<Gauge>,
    margin_watchdog: Arc<Counter>,
}

impl ServiceMetrics {
    /// Registers the daemon's full instrument set for `workers` worker
    /// threads.
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        register_build_info(&registry, env!("CARGO_PKG_VERSION"));
        let requests = REQUEST_TYPES
            .iter()
            .map(|t| {
                (
                    *t,
                    registry.counter(
                        "bfdn_requests_total",
                        "Requests received, by decoded type.",
                        &[("type", t)],
                    ),
                )
            })
            .collect();
        let latency =
            |name: &str, help: &str| registry.histogram(name, help, &[], &DEFAULT_LATENCY_BUCKETS);
        let worker_busy = (0..workers)
            .map(|i| {
                let index = i.to_string();
                registry.counter(
                    "bfdn_worker_busy_ns_total",
                    "Nanoseconds each worker spent executing jobs.",
                    &[("worker", index.as_str())],
                )
            })
            .collect();
        ServiceMetrics {
            requests,
            queue_wait: latency(
                "bfdn_request_queue_wait_seconds",
                "Time a job waited in the bounded queue before a worker picked it up.",
            ),
            execute: latency(
                "bfdn_request_execute_seconds",
                "Time a worker spent executing a job (cache re-check included).",
            ),
            serialize: latency(
                "bfdn_request_serialize_seconds",
                "Time spent encoding and writing a reply frame.",
            ),
            queue_depth: registry.gauge(
                "bfdn_queue_depth",
                "Jobs currently waiting in the bounded queue.",
                &[],
            ),
            in_flight: registry.gauge(
                "bfdn_in_flight",
                "Jobs currently being executed by workers.",
                &[],
            ),
            rejects: registry.counter(
                "bfdn_queue_rejects_total",
                "Jobs rejected with Busy because the queue was at its depth limit.",
                &[],
            ),
            slow_requests: registry.counter(
                "bfdn_slow_requests_total",
                "Requests whose total latency crossed the slow-request threshold.",
                &[],
            ),
            slow_phase: SLOW_PHASES
                .iter()
                .map(|p| {
                    (
                        *p,
                        registry.counter(
                            "bfdn_slow_phase_total",
                            "Slow requests by the phase that dominated their latency.",
                            &[("phase", p)],
                        ),
                    )
                })
                .collect(),
            cache_hits: registry.counter(
                "bfdn_cache_hits_total",
                "Result-cache lookups answered without execution.",
                &[],
            ),
            cache_misses: registry.counter(
                "bfdn_cache_misses_total",
                "Result-cache lookups that required execution.",
                &[],
            ),
            cache_evictions: registry.counter(
                "bfdn_cache_evictions_total",
                "Entries evicted by the sharded LRU.",
                &[],
            ),
            cache_entries: registry.gauge(
                "bfdn_cache_entries",
                "Entries currently resident in the result cache.",
                &[],
            ),
            cache_resident_bytes: registry.gauge(
                "bfdn_cache_resident_bytes",
                "Payload bytes currently resident in the result cache.",
                &[],
            ),
            store_hits: registry.counter(
                "bfdn_store_hits_total",
                "Lookups answered from the on-disk result store (neither hit nor miss).",
                &[],
            ),
            store_segments: registry.gauge(
                "bfdn_store_segments",
                "Segment files in the result store.",
                &[],
            ),
            store_on_disk_bytes: registry.gauge(
                "bfdn_store_on_disk_bytes",
                "Logical bytes across all result-store segments (live + dead).",
                &[],
            ),
            store_compression_ratio: registry.gauge(
                "bfdn_store_compression_ratio",
                "Uncompressed-to-stored byte ratio over the store's live records.",
                &[],
            ),
            store_records: registry.gauge(
                "bfdn_store_records",
                "Live (reachable) records in the result store.",
                &[],
            ),
            store_live_bytes: registry.gauge(
                "bfdn_store_live_bytes",
                "Bytes held by live (compressed) result-store frames.",
                &[],
            ),
            store_raw_payload_bytes: registry.gauge(
                "bfdn_store_raw_payload_bytes",
                "Uncompressed payload bytes across the store's live records.",
                &[],
            ),
            store_stored_payload_bytes: registry.gauge(
                "bfdn_store_stored_payload_bytes",
                "Post-codec payload bytes across the store's live records \
                 (framing and keys excluded).",
                &[],
            ),
            store_truncated_segments: registry.counter(
                "bfdn_store_truncated_segments_total",
                "Crash-truncated segment tails detected and dropped.",
                &[],
            ),
            worker_busy,
            bound_checked: registry.counter(
                "bfdn_bound_checked_total",
                "Executed runs whose Theorem 1 / Lemma 2 margins were checked.",
                &[],
            ),
            bound_violations: registry.counter(
                "bfdn_bound_violations_total",
                "Executed runs that violated a paper bound (should stay 0).",
                &[],
            ),
            margin_theorem1: registry.gauge_with(
                "bfdn_bound_margin_worst",
                "Worst observed margin (bound minus measurement) across served runs.",
                &[("bound", "theorem1_rounds")],
                f64::INFINITY,
            ),
            margin_lemma2: registry.gauge_with(
                "bfdn_bound_margin_worst",
                "Worst observed margin (bound minus measurement) across served runs.",
                &[("bound", "lemma2_reanchors")],
                f64::INFINITY,
            ),
            margin_window: Mutex::new(VecDeque::with_capacity(MARGIN_WINDOW)),
            margin_window_worst: registry.gauge_with(
                "bfdn_bound_margin_window_worst",
                "Worst Theorem 1 margin over the recent sample window (recovers, unlike the all-time gauge).",
                &[("bound", "theorem1_rounds")],
                f64::INFINITY,
            ),
            margin_watchdog: registry.counter(
                "bfdn_margin_watchdog_total",
                "Served runs whose Theorem 1 margin fell below the watchdog fraction of the bound.",
                &[],
            ),
            registry,
        }
    }

    /// Counts one decoded request of `kind` (one of [`REQUEST_TYPES`]).
    pub fn request(&self, kind: &str) {
        let fallback = &self.requests[REQUEST_TYPES.len() - 1].1;
        self.requests
            .iter()
            .find(|(t, _)| *t == kind)
            .map_or(fallback, |(_, c)| c)
            .inc();
    }

    /// Observes one job's queue-wait phase, in seconds.
    pub fn observe_queue_wait(&self, secs: f64) {
        self.queue_wait.observe(secs);
    }

    /// Observes one job's execute phase, in seconds.
    pub fn observe_execute(&self, secs: f64) {
        self.execute.observe(secs);
    }

    /// Observes one reply's serialize phase, in seconds.
    pub fn observe_serialize(&self, secs: f64) {
        self.serialize.observe(secs);
    }

    /// Counts one `Busy` rejection.
    pub fn reject(&self) {
        self.rejects.inc();
    }

    /// Counts one request that crossed the slow threshold, attributing
    /// it to the phase that dominated its latency — a queue-bound slow
    /// request needs more workers, an execute-bound one a smaller `n`
    /// cap; the old single counter could not tell them apart.
    pub fn slow_request(&self, queue_wait_ns: u64, exec_ns: u64, serialize_ns: u64, total_ns: u64) {
        self.slow_requests.inc();
        let accounted = queue_wait_ns
            .saturating_add(exec_ns)
            .saturating_add(serialize_ns);
        let phases = [
            ("queue_wait", queue_wait_ns),
            ("execute", exec_ns),
            ("serialize", serialize_ns),
            ("other", total_ns.saturating_sub(accounted)),
        ];
        let dominant = phases
            .iter()
            .max_by_key(|(_, ns)| *ns)
            .map(|(phase, _)| *phase)
            .unwrap_or("other");
        if let Some((_, c)) = self.slow_phase.iter().find(|(p, _)| *p == dominant) {
            c.inc();
        }
    }

    /// Adds `ns` busy nanoseconds to worker `index`'s utilization
    /// counter.
    pub fn worker_busy(&self, index: usize, ns: u64) {
        if let Some(c) = self.worker_busy.get(index) {
            c.add(ns);
        }
    }

    /// Folds one margin sample into the bounded window ring, refreshes
    /// the window-worst gauge, and fires the watchdog when the margin
    /// has eroded below [`MARGIN_WATCHDOG_FRACTION`] of its bound — the
    /// early warning that the daemon is trending toward a
    /// Theorem 1 violation without having crossed it yet.
    fn margin_window_push(&self, margin: f64, bound: f64) {
        let mut window = self.margin_window.lock().expect("margin window");
        if window.len() == MARGIN_WINDOW {
            window.pop_front();
        }
        window.push_back(margin);
        let worst = window.iter().copied().fold(f64::INFINITY, f64::min);
        self.margin_window_worst.set(worst);
        if bound > 0.0 && margin < bound * MARGIN_WATCHDOG_FRACTION {
            self.margin_watchdog.inc();
        }
    }

    /// Folds one executed run's final margins into the per-daemon
    /// aggregates: the Theorem 1 margin the result reports, and the
    /// Lemma 2 margin of `margins` (absent for a zero-round run).
    /// Worst-observed gauges shrink monotonically, and any negative
    /// margin counts as a bound violation.
    pub fn record_margins(&self, result: &ExploreResult, margins: Option<BoundMargins>) {
        self.bound_checked.inc();
        let mut violated = result.margin < 0.0;
        self.margin_theorem1.set_min(result.margin);
        self.margin_window_push(result.margin, result.bound);
        if let Some(m) = margins {
            self.margin_lemma2.set_min(m.lemma2_reanchors);
            violated |= m.lemma2_reanchors < 0.0;
        }
        if violated {
            self.bound_violations.inc();
        }
    }

    /// Refreshes point-in-time series from their sources and renders
    /// the whole registry as Prometheus text exposition.
    ///
    /// Cache counters are mirrored from [`CacheStatsPayload`] at render
    /// time (the cache keeps its own atomics; mirroring avoids counting
    /// every lookup twice on the hot path).
    pub fn render(&self, cache: &CacheStatsPayload, queue_depth: u64, in_flight: u64) -> String {
        self.queue_depth.set(queue_depth as f64);
        self.in_flight.set(in_flight as f64);
        self.cache_hits.force_set(cache.hits);
        self.cache_misses.force_set(cache.misses);
        self.cache_evictions.force_set(cache.evictions);
        self.cache_entries.set(cache.entries as f64);
        self.cache_resident_bytes.set(cache.resident_bytes as f64);
        self.store_hits.force_set(cache.store_hits);
        self.store_segments.set(cache.segments as f64);
        self.store_on_disk_bytes.set(cache.on_disk_bytes as f64);
        self.store_compression_ratio.set(cache.compression_ratio);
        self.registry.render()
    }

    /// Mirrors the result store's full counter snapshot (the fields
    /// [`CacheStatsPayload`] does not carry: live/raw/stored bytes,
    /// truncated tails). The server calls this right
    /// before [`ServiceMetrics::render`] when a store is attached, so
    /// the render signature stays unchanged for store-less callers.
    pub fn mirror_store(&self, stats: &bfdn_store::StoreStats) {
        self.store_records.set(stats.records as f64);
        self.store_live_bytes.set(stats.live_bytes as f64);
        self.store_raw_payload_bytes
            .set(stats.raw_payload_bytes as f64);
        self.store_stored_payload_bytes
            .set(stats.stored_payload_bytes as f64);
        self.store_truncated_segments
            .force_set(stats.truncated_segments);
    }

    /// Current value of `bfdn_bound_violations_total` (for tests and
    /// the sweep summary).
    pub fn bound_violations(&self) -> u64 {
        self.bound_violations.get()
    }
}

/// One finished request, as the access log records it.
///
/// `queue_wait_ns` / `exec_ns` are zero for requests that never entered
/// the queue (cache hits, introspection, rejected jobs); `total_ns` is
/// measured from decode to reply-written and is what
/// [`SLOW_REQUEST_NS`] is compared against.
#[derive(Clone, Debug)]
pub struct AccessRecord {
    /// Daemon-unique request sequence number.
    pub id: u64,
    /// Decoded request type (one of [`REQUEST_TYPES`]).
    pub request: String,
    /// Spec key: the canonical spec for `explore`, `batch[N]` for
    /// batches, empty for introspection.
    pub key: String,
    /// `"ok"` or `"error:<code>"`.
    pub outcome: String,
    /// The request's client-supplied trace id in 16-digit hex, empty
    /// for untraced requests — the join key between an access-log line
    /// and its span tree.
    pub trace_id: String,
    /// Whether the reply came entirely from the result cache.
    pub cached: bool,
    /// Time spent waiting in the job queue.
    pub queue_wait_ns: u64,
    /// Time a worker spent executing.
    pub exec_ns: u64,
    /// Time spent encoding and writing the reply.
    pub serialize_ns: u64,
    /// Decode-to-reply wall clock.
    pub total_ns: u64,
    /// Whether `total_ns` reached [`SLOW_REQUEST_NS`].
    pub slow: bool,
}

impl AccessRecord {
    /// Renders the record as one JSON line (without the trailing
    /// newline).
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("id", self.id)
            .str("request", &self.request)
            .str("key", &self.key)
            .str("outcome", &self.outcome)
            .str("trace_id", &self.trace_id)
            .bool("cached", self.cached)
            .u64("queue_wait_ns", self.queue_wait_ns)
            .u64("exec_ns", self.exec_ns)
            .u64("serialize_ns", self.serialize_ns)
            .u64("total_ns", self.total_ns)
            .bool("slow", self.slow);
        o.finish()
    }
}

/// Where access-log lines go: an arbitrary writer (tests), or a file
/// with optional size-based rotation.
enum LogSink {
    Writer(Box<dyn Write + Send>),
    File {
        file: std::fs::File,
        path: PathBuf,
        /// Bytes written to the current generation (seeded from the
        /// existing file's length when appending).
        written: u64,
        /// Rotation threshold; `0` disables rotation.
        max_bytes: u64,
    },
}

/// Structured JSONL access log with optional size-based rotation.
///
/// Built on the `bfdn-obs` JSON layer (the workspace carries no format
/// dependency); one line per finished request, flushed per record so a
/// tail of the file is always whole lines. With a rotation threshold,
/// a file about to outgrow it is renamed to `<path>.1` (replacing the
/// previous generation) before the next line is written — rotation
/// happens at a line boundary, so both generations are always valid
/// JSONL.
pub struct AccessLog {
    out: Mutex<LogSink>,
    rotations: AtomicU64,
}

impl AccessLog {
    /// Opens (appends to) `path`. A nonzero `max_bytes` rotates the
    /// file to `<path>.1` (keeping one generation) when a line would
    /// push it past the threshold.
    ///
    /// # Errors
    ///
    /// Propagates the open error.
    pub fn open(path: &Path, max_bytes: u64) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(AccessLog {
            out: Mutex::new(LogSink::File {
                file,
                path: path.to_path_buf(),
                written,
                max_bytes,
            }),
            rotations: AtomicU64::new(0),
        })
    }

    /// Wraps an arbitrary writer (tests use an in-memory buffer); never
    /// rotates.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        AccessLog {
            out: Mutex::new(LogSink::Writer(out)),
            rotations: AtomicU64::new(0),
        }
    }

    /// Appends one record. Write errors are swallowed — losing a log
    /// line must never fail a request.
    pub fn record(&self, record: &AccessRecord) {
        let mut line = record.to_json();
        line.push('\n');
        let Ok(mut sink) = self.out.lock() else {
            return;
        };
        match &mut *sink {
            LogSink::Writer(out) => {
                let _ = out.write_all(line.as_bytes());
                let _ = out.flush();
            }
            LogSink::File {
                file,
                path,
                written,
                max_bytes,
            } => {
                if *max_bytes > 0
                    && *written > 0
                    && written.saturating_add(line.len() as u64) > *max_bytes
                {
                    // Rotate at the line boundary: rename the full
                    // generation aside, then start a fresh file. A
                    // failed rename keeps writing to the current file
                    // rather than dropping lines.
                    let mut rotated = path.clone().into_os_string();
                    rotated.push(".1");
                    if std::fs::rename(&*path, &rotated).is_ok() {
                        if let Ok(fresh) = std::fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(&*path)
                        {
                            *file = fresh;
                            *written = 0;
                            self.rotations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                if file.write_all(line.as_bytes()).is_ok() {
                    *written = written.saturating_add(line.len() as u64);
                }
                let _ = file.flush();
            }
        }
    }

    /// Completed rotations so far.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ExploreSpec;

    fn sample_result(margin: f64) -> ExploreResult {
        let spec = ExploreSpec::new("bfdn", "comb", 60, 4, 1);
        ExploreResult {
            spec,
            cached: false,
            nodes: 60,
            depth: 10,
            max_degree: 3,
            metrics: crate::protocol::MetricsPayload {
                rounds: 40,
                moves: 100,
                idle: 0,
                stalled: 0,
                allowed_moves: 160,
                edges_discovered: 59,
                edge_events: 59,
            },
            bound: 40.0 + margin,
            margin,
            manifest: None,
        }
    }

    #[test]
    fn margins_aggregate_to_worst_and_count_violations() {
        let m = ServiceMetrics::new(2);
        let margins = Some(BoundMargins {
            theorem1_rounds: 12.0,
            lemma2_reanchors: 5.0,
        });
        m.record_margins(&sample_result(12.0), margins);
        m.record_margins(&sample_result(3.5), margins);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains("bfdn_bound_checked_total 2"));
        assert!(text.contains("bfdn_bound_violations_total 0"));
        assert!(text.contains(r#"bfdn_bound_margin_worst{bound="theorem1_rounds"} 3.5"#));
        assert!(text.contains(r#"bfdn_bound_margin_worst{bound="lemma2_reanchors"} 5"#));

        // A negative margin shrinks the gauge below zero and trips the
        // violation counter — the series CI asserts stays at zero.
        m.record_margins(&sample_result(-1.0), margins);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains("bfdn_bound_violations_total 1"));
        assert!(text.contains(r#"bfdn_bound_margin_worst{bound="theorem1_rounds"} -1"#));
    }

    #[test]
    fn slow_requests_are_attributed_to_their_dominant_phase() {
        let m = ServiceMetrics::new(1);
        // Queue-bound: 0.8s of a 1s request waiting for a worker.
        m.slow_request(800_000_000, 150_000_000, 1_000_000, 1_000_000_000);
        // Execute-bound.
        m.slow_request(10_000_000, 900_000_000, 1_000_000, 1_000_000_000);
        m.slow_request(0, 2_000_000_000, 0, 2_100_000_000);
        // Unaccounted time (a stalled reply write) dominates.
        m.slow_request(1_000_000, 2_000_000, 3_000_000, 5_000_000_000);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains("bfdn_slow_requests_total 4"));
        assert!(text.contains(r#"bfdn_slow_phase_total{phase="queue_wait"} 1"#));
        assert!(text.contains(r#"bfdn_slow_phase_total{phase="execute"} 2"#));
        assert!(text.contains(r#"bfdn_slow_phase_total{phase="serialize"} 0"#));
        assert!(text.contains(r#"bfdn_slow_phase_total{phase="other"} 1"#));
    }

    #[test]
    fn unknown_request_kinds_count_as_invalid() {
        let m = ServiceMetrics::new(1);
        m.request("explore");
        m.request("garbage");
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains(r#"bfdn_requests_total{type="explore"} 1"#));
        assert!(text.contains(r#"bfdn_requests_total{type="invalid"} 1"#));
    }

    #[test]
    fn render_mirrors_cache_stats_and_queue_gauges() {
        let m = ServiceMetrics::new(1);
        let cache = CacheStatsPayload {
            entries: 3,
            capacity: 64,
            shards: 4,
            hits: 10,
            misses: 5,
            insertions: 5,
            evictions: 2,
            resident_bytes: 2048,
            store_hits: 6,
            segments: 2,
            on_disk_bytes: 8192,
            compression_ratio: 3.5,
        };
        let text = m.render(&cache, 7, 2);
        assert!(text.contains("bfdn_cache_hits_total 10"));
        assert!(text.contains("bfdn_cache_misses_total 5"));
        assert!(text.contains("bfdn_cache_evictions_total 2"));
        assert!(text.contains("bfdn_cache_entries 3"));
        assert!(text.contains("bfdn_cache_resident_bytes 2048"));
        assert!(text.contains("bfdn_queue_depth 7"));
        assert!(text.contains("bfdn_in_flight 2"));
        assert!(text.contains("bfdn_store_hits_total 6"));
        assert!(text.contains("bfdn_store_segments 2"));
        assert!(text.contains("bfdn_store_on_disk_bytes 8192"));
        assert!(text.contains("bfdn_store_compression_ratio 3.5"));
    }

    #[test]
    fn mirror_store_reflects_the_full_store_snapshot() {
        let m = ServiceMetrics::new(1);
        let stats = bfdn_store::StoreStats {
            records: 12,
            segments: 3,
            on_disk_bytes: 6000,
            live_bytes: 6000,
            raw_payload_bytes: 15000,
            stored_payload_bytes: 5000,
            truncated_segments: 1,
        };
        m.mirror_store(&stats);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains("bfdn_store_records 12"));
        assert!(text.contains("bfdn_store_live_bytes 6000"));
        assert!(text.contains("bfdn_store_raw_payload_bytes 15000"));
        assert!(text.contains("bfdn_store_stored_payload_bytes 5000"));
        assert!(text.contains("bfdn_store_truncated_segments_total 1"));
    }

    #[test]
    fn access_log_writes_one_json_line_per_record_and_stamps_slow() {
        use std::sync::mpsc;
        // Channel-backed writer so the test can read what the log wrote.
        struct Tx(mpsc::Sender<Vec<u8>>);
        impl Write for Tx {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let _ = self.0.send(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let log = AccessLog::to_writer(Box::new(Tx(tx)));
        let mut record = AccessRecord {
            id: 1,
            request: "explore".into(),
            key: "bfdn/comb/n60/k4/s1".into(),
            outcome: "ok".into(),
            trace_id: "00000000deadbeef".into(),
            cached: true,
            queue_wait_ns: 0,
            exec_ns: 0,
            serialize_ns: 500,
            total_ns: 900,
            slow: false,
        };
        log.record(&record);
        record.id = 2;
        record.total_ns = SLOW_REQUEST_NS;
        record.slow = true;
        log.record(&record);

        let lines: Vec<String> = rx
            .try_iter()
            .map(|b| String::from_utf8(b).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"id":1,"request":"explore","#));
        assert!(lines[0].contains(r#""trace_id":"00000000deadbeef""#));
        assert!(lines[0].contains(r#""slow":false}"#));
        assert!(lines[0].ends_with('\n'));
        assert!(lines[1].contains(r#""id":2"#));
        assert!(lines[1].contains(r#""slow":true}"#));
    }

    #[test]
    fn access_log_rotation_keeps_both_generations_valid_jsonl() {
        let dir = std::env::temp_dir().join(format!("bfdn-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        let _ = std::fs::remove_file(&rotated);

        // Each record renders to ~230 bytes; a 600-byte cap forces a
        // rotation every couple of lines.
        let log = AccessLog::open(&path, 600).unwrap();
        let record = |id| AccessRecord {
            id,
            request: "explore".into(),
            key: "bfdn/comb/n60/k4/s1".into(),
            outcome: "ok".into(),
            trace_id: String::new(),
            cached: false,
            queue_wait_ns: 10,
            exec_ns: 20,
            serialize_ns: 30,
            total_ns: 70,
            slow: false,
        };
        for id in 1..=8 {
            log.record(&record(id));
        }
        assert!(log.rotations() >= 1, "cap forces at least one rotation");

        let mut ids = Vec::new();
        for file in [std::path::PathBuf::from(&rotated), path.clone()] {
            let text = std::fs::read_to_string(&file).unwrap();
            assert!(!text.is_empty());
            assert!(text.ends_with('\n'), "rotation happens at line boundaries");
            for line in text.lines() {
                let v = crate::jsonval::Json::parse(line).expect("every line is whole JSON");
                ids.push(v.get("id").and_then(crate::jsonval::Json::as_u64).unwrap());
            }
        }
        // The two generations, read old-to-new, hold a contiguous tail
        // of the record stream — nothing was lost or torn by rotation.
        assert!(ids.ends_with(&[6, 7, 8]));
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn margin_window_worst_recovers_and_watchdog_fires_near_zero() {
        let m = ServiceMetrics::new(1);
        // A healthy margin, then one within 5% of the bound (bound is
        // 40 + margin, so margin 1.5 < 0.05 * 41.5 fires the watchdog).
        m.record_margins(&sample_result(12.0), None);
        m.record_margins(&sample_result(1.5), None);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains(r#"bfdn_bound_margin_window_worst{bound="theorem1_rounds"} 1.5"#));
        assert!(text.contains("bfdn_margin_watchdog_total 1"));
        assert!(text.contains("bfdn_bound_violations_total 0"));

        // Push the bad sample out of the window: the windowed gauge
        // recovers while the all-time worst gauge stays pinned.
        for _ in 0..MARGIN_WINDOW {
            m.record_margins(&sample_result(9.0), None);
        }
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains(r#"bfdn_bound_margin_window_worst{bound="theorem1_rounds"} 9"#));
        assert!(text.contains(r#"bfdn_bound_margin_worst{bound="theorem1_rounds"} 1.5"#));
        assert!(text.contains("bfdn_margin_watchdog_total 1"));
    }

    #[test]
    fn build_info_is_registered_with_the_service_instruments() {
        let m = ServiceMetrics::new(1);
        let text = m.render(&CacheStatsPayload::default(), 0, 0);
        assert!(text.contains("bfdn_build_info{"));
        assert!(text.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))));
    }
}
