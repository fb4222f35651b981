//! The wire protocol of the simulation service: versioned JSON documents
//! over length-prefixed TCP frames.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON; [`MAX_FRAME_LEN`] caps the payload so a
//! hostile peer cannot make the server allocate unboundedly. Every
//! document carries the protocol version (`"v"`) and a `"type"` tag;
//! requests are decoded by [`Request::from_json`], responses by
//! [`Response::from_json`], and both serialize through the workspace's
//! hand-rolled JSON writer ([`bfdn_obs::json`]).
//!
//! Documents may additionally carry an optional top-level `"trace"`
//! field — a nonzero trace id in 16-digit hex — propagated outside the
//! typed [`Request`]/[`Response`] enums by
//! [`Request::to_json_traced`]/[`Request::from_json_traced`] (and the
//! `Response` twins). The server echoes a request's trace id in its
//! reply and threads it through every job its cache misses make, so
//! one traced request yields one span tree; [`Request::Trace`] fetches the
//! server's recent-span ring ([`TracePayload`]) for live introspection.
//! The trace id deliberately stays out of [`ExploreSpec::canonical`]:
//! tracing must never fragment the result cache.
//!
//! Errors are structured ([`WireError`] with an [`ErrorCode`]), so
//! clients can distinguish a malformed request from backpressure
//! ([`ErrorCode::Busy`]) or a draining server.

use crate::jsonval::{Json, JsonError};
use bfdn_obs::json::{escape_into, float_into, JsonObject};
use bfdn_obs::tracing::{hex16, parse_hex16, SpanRecord};
use bfdn_sim::Metrics;
use std::fmt;
use std::io::{self, Read, Write};

/// Version tag carried by every request and response document.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on a frame payload (1 MiB), enforced on both read and write.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Per-request options of an [`ExploreSpec`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Return the run manifest JSON inline with the result.
    pub manifest: bool,
    /// Artificial pre-execution delay in milliseconds (traffic shaping
    /// and backpressure testing; capped by the server).
    pub delay_ms: u64,
}

impl ExploreOptions {
    fn is_default(&self) -> bool {
        *self == ExploreOptions::default()
    }
}

/// One simulation request: run `algorithm` with `k` robots on an
/// instance of `family` with roughly `n` nodes generated from `seed`.
///
/// Runs are fully deterministic in these fields, which is what makes
/// results content-addressable: [`ExploreSpec::canonical`] is the cache
/// key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Algorithm name (see [`crate::exec::ALGORITHMS`]).
    pub algorithm: String,
    /// Workload family name (a [`bfdn_trees::generators::Family`] name).
    pub family: String,
    /// Approximate node count.
    pub n: u64,
    /// Number of robots.
    pub k: u64,
    /// RNG seed for instance generation.
    pub seed: u64,
    /// Per-request options.
    pub options: ExploreOptions,
}

impl ExploreSpec {
    /// A spec with default options.
    pub fn new(
        algorithm: impl Into<String>,
        family: impl Into<String>,
        n: u64,
        k: u64,
        seed: u64,
    ) -> Self {
        ExploreSpec {
            algorithm: algorithm.into(),
            family: family.into(),
            n,
            k,
            seed,
            options: ExploreOptions::default(),
        }
    }

    /// The canonical content address of this request: every field that
    /// influences the reply, in a fixed order, prefixed with the
    /// protocol version so cache entries never survive a wire-format
    /// revision.
    pub fn canonical(&self) -> String {
        format!(
            "v{}|algo={}|family={}|n={}|k={}|seed={}|manifest={}|delay={}",
            PROTOCOL_VERSION,
            self.algorithm,
            self.family,
            self.n,
            self.k,
            self.seed,
            self.options.manifest,
            self.options.delay_ms,
        )
    }

    /// FNV-1a hash of [`ExploreSpec::canonical`] — the content address
    /// used for cache sharding and manifest file names.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    fn json_into(&self, o: &mut JsonObject) {
        o.str("algorithm", &self.algorithm)
            .str("family", &self.family)
            .u64("n", self.n)
            .u64("k", self.k)
            .u64("seed", self.seed);
        if !self.options.is_default() {
            let mut opts = JsonObject::new();
            opts.bool("manifest", self.options.manifest)
                .u64("delay_ms", self.options.delay_ms);
            o.raw("options", &opts.finish());
        }
    }

    fn to_json_value(&self) -> String {
        let mut o = JsonObject::new();
        self.json_into(&mut o);
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let options = match v.get("options") {
            None => ExploreOptions::default(),
            Some(opts) => ExploreOptions {
                manifest: opts
                    .get("manifest")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                delay_ms: opts.get("delay_ms").and_then(Json::as_u64).unwrap_or(0),
            },
        };
        Ok(ExploreSpec {
            algorithm: require_str(v, "algorithm")?.to_string(),
            family: require_str(v, "family")?.to_string(),
            n: require_u64(v, "n")?,
            k: require_u64(v, "k")?,
            seed: require_u64(v, "seed")?,
            options,
        })
    }
}

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one simulation.
    Explore(ExploreSpec),
    /// Run many simulations as one queued job (fanned out over the
    /// worker substrate on the server).
    Batch(Vec<ExploreSpec>),
    /// Server counters: requests, hits/misses, queue depth, rejects,
    /// per-phase latency totals.
    Status,
    /// Result-cache counters and occupancy.
    CacheStats,
    /// The full telemetry registry rendered as Prometheus text
    /// exposition (latency histograms, cache counters, bound-margin
    /// aggregates) — the wire-protocol twin of the `--metrics-addr`
    /// HTTP endpoint.
    Metrics,
    /// The server's recent-span ring ([`TracePayload`]). When the
    /// document carries a `trace` envelope id, only that trace's spans
    /// are returned; the request itself is never traced.
    Trace,
    /// Stop accepting work, drain in-flight jobs, and exit.
    Shutdown,
}

impl Request {
    /// Serializes the request document without a trace id.
    pub fn to_json(&self) -> String {
        self.to_json_traced(None)
    }

    /// Serializes the request document, attaching `trace` as the
    /// envelope trace id when given.
    pub fn to_json_traced(&self, trace: Option<u64>) -> String {
        let mut o = JsonObject::new();
        o.u64("v", PROTOCOL_VERSION);
        if let Some(id) = trace {
            o.str("trace", &hex16(id));
        }
        match self {
            Request::Explore(spec) => {
                o.str("type", "explore");
                spec.json_into(&mut o);
            }
            Request::Batch(specs) => {
                o.str("type", "batch");
                let items: Vec<String> = specs.iter().map(ExploreSpec::to_json_value).collect();
                o.raw("items", &format!("[{}]", items.join(",")));
            }
            Request::Status => {
                o.str("type", "status");
            }
            Request::CacheStats => {
                o.str("type", "cache_stats");
            }
            Request::Metrics => {
                o.str("type", "metrics");
            }
            Request::Trace => {
                o.str("type", "trace");
            }
            Request::Shutdown => {
                o.str("type", "shutdown");
            }
        }
        o.finish()
    }

    /// Decodes a request document, checking version and type and
    /// discarding any envelope trace id.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (ready to send back) describing the
    /// malformation or version mismatch.
    pub fn from_json(text: &str) -> Result<Request, WireError> {
        Self::from_json_traced(text).map(|(request, _)| request)
    }

    /// Decodes a request document along with its envelope trace id.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the malformation, version
    /// mismatch, or an invalid `trace` field.
    pub fn from_json_traced(text: &str) -> Result<(Request, Option<u64>), WireError> {
        let v = parse_versioned(text)?;
        let trace = envelope_trace(&v)?;
        let request = match require_str(&v, "type")? {
            "explore" => Ok(Request::Explore(ExploreSpec::from_value(&v)?)),
            "batch" => {
                let items = v
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::bad_request("batch needs an `items` array"))?;
                if items.is_empty() {
                    return Err(WireError::bad_request("batch must not be empty"));
                }
                items
                    .iter()
                    .map(ExploreSpec::from_value)
                    .collect::<Result<Vec<_>, _>>()
                    .map(Request::Batch)
            }
            "status" => Ok(Request::Status),
            "cache_stats" => Ok(Request::CacheStats),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::bad_request(format!(
                "unknown request type `{other}`"
            ))),
        }?;
        Ok((request, trace))
    }
}

/// The counters of a [`Metrics`] in wire form (the private per-robot
/// distances stay server-side).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsPayload {
    /// Rounds until the stop condition held.
    pub rounds: u64,
    /// Edge traversals performed.
    pub moves: u64,
    /// Idle robot-rounds.
    pub idle: u64,
    /// Adversary-stalled robot-rounds.
    pub stalled: u64,
    /// Allowed robot-rounds granted by the schedule.
    pub allowed_moves: u64,
    /// First-time edge traversals.
    pub edges_discovered: u64,
    /// Edge events (first down plus first up per edge).
    pub edge_events: u64,
}

impl MetricsPayload {
    /// Extracts the wire counters from a run's [`Metrics`].
    pub fn from_metrics(rounds: u64, m: &Metrics) -> Self {
        MetricsPayload {
            rounds,
            moves: m.moves,
            idle: m.idle,
            stalled: m.stalled,
            allowed_moves: m.allowed_moves,
            edges_discovered: m.edges_discovered,
            edge_events: m.edge_events,
        }
    }

    fn to_json_value(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("rounds", self.rounds)
            .u64("moves", self.moves)
            .u64("idle", self.idle)
            .u64("stalled", self.stalled)
            .u64("allowed_moves", self.allowed_moves)
            .u64("edges_discovered", self.edges_discovered)
            .u64("edge_events", self.edge_events);
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        Ok(MetricsPayload {
            rounds: require_u64(v, "rounds")?,
            moves: require_u64(v, "moves")?,
            idle: require_u64(v, "idle")?,
            stalled: require_u64(v, "stalled")?,
            allowed_moves: require_u64(v, "allowed_moves")?,
            edges_discovered: require_u64(v, "edges_discovered")?,
            edge_events: require_u64(v, "edge_events")?,
        })
    }
}

/// The reply to one [`ExploreSpec`]: instance shape, counters, and the
/// Theorem 1 envelope with its margin.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreResult {
    /// The spec this result answers (canonicalized echo).
    pub spec: ExploreSpec,
    /// Whether the reply was served from the result cache.
    pub cached: bool,
    /// Exact node count of the generated instance.
    pub nodes: u64,
    /// Depth of the instance.
    pub depth: u64,
    /// Maximum degree of the instance.
    pub max_degree: u64,
    /// Run counters.
    pub metrics: MetricsPayload,
    /// Theorem 1 round envelope for this instance.
    pub bound: f64,
    /// `bound - rounds` (non-negative means the envelope held).
    pub margin: f64,
    /// The run manifest JSON, when `options.manifest` was set.
    pub manifest: Option<String>,
}

impl ExploreResult {
    /// Serializes the cache-stable payload: everything except the
    /// transport-dependent `cached` flag. The result store and
    /// byte-equality checks use this form, so a cache hit is literally
    /// byte-identical to the original computation.
    pub fn payload_json(&self) -> String {
        let mut o = JsonObject::new();
        o.raw("spec", &self.spec.to_json_value())
            .u64("nodes", self.nodes)
            .u64("depth", self.depth)
            .u64("max_degree", self.max_degree)
            .raw("metrics", &self.metrics.to_json_value());
        o.f64("bound", self.bound).f64("margin", self.margin);
        match &self.manifest {
            Some(m) => o.str("manifest", m),
            None => o.raw("manifest", "null"),
        };
        o.finish()
    }

    fn to_json_value(&self) -> String {
        let mut o = JsonObject::new();
        o.bool("cached", self.cached)
            .raw("payload", &self.payload_json());
        o.finish()
    }

    /// Decodes the `{cached, payload}` wire form.
    fn from_value(v: &Json) -> Result<Self, WireError> {
        let cached = v
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::bad_request("result needs `cached`"))?;
        let p = v
            .get("payload")
            .ok_or_else(|| WireError::bad_request("result needs `payload`"))?;
        Self::from_payload_value(p, cached)
    }

    /// Decodes a bare payload object (as kept in the store) into a result
    /// with the given `cached` flag.
    pub(crate) fn from_payload_value(p: &Json, cached: bool) -> Result<Self, WireError> {
        let spec = p
            .get("spec")
            .ok_or_else(|| WireError::bad_request("payload needs `spec`"))
            .and_then(ExploreSpec::from_value)?;
        let metrics = p
            .get("metrics")
            .ok_or_else(|| WireError::bad_request("payload needs `metrics`"))
            .and_then(MetricsPayload::from_value)?;
        Ok(ExploreResult {
            spec,
            cached,
            nodes: require_u64(p, "nodes")?,
            depth: require_u64(p, "depth")?,
            max_degree: require_u64(p, "max_degree")?,
            metrics,
            bound: require_f64(p, "bound")?,
            margin: require_f64(p, "margin")?,
            manifest: match p.get("manifest") {
                None => None,
                Some(m) if m.is_null() => None,
                Some(m) => Some(
                    m.as_str()
                        .ok_or_else(|| WireError::bad_request("manifest must be a string"))?
                        .to_string(),
                ),
            },
        })
    }

    /// Parses one bare payload object, as read back from the store.
    pub(crate) fn from_payload_json(line: &str) -> Result<Self, WireError> {
        let v = Json::parse(line).map_err(|e| WireError::bad_request(e.to_string()))?;
        Self::from_payload_value(&v, false)
    }
}

/// Machine-readable failure categories of [`WireError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or referenced unknown
    /// algorithms/families/limits.
    BadRequest,
    /// The document's `v` does not match [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The frame exceeded [`MAX_FRAME_LEN`].
    TooLarge,
    /// The job queue is full — retry later.
    Busy,
    /// The server is draining after a shutdown request.
    ShuttingDown,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire tag of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "too_large" => ErrorCode::TooLarge,
            "busy" => ErrorCode::Busy,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A structured error reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// A [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        WireError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    /// An error with the given code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// Server counters reported by [`Request::Status`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusPayload {
    /// Requests received (all types).
    pub requests: u64,
    /// Explore requests received (batch items included).
    pub explores: u64,
    /// Batch requests received.
    pub batches: u64,
    /// Replies served from the result cache.
    pub cache_hits: u64,
    /// Specs that had to be simulated.
    pub cache_misses: u64,
    /// Jobs rejected with [`ErrorCode::Busy`].
    pub rejects: u64,
    /// Jobs completed by the worker pool.
    pub completed: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
    /// Worker threads draining the queue.
    pub workers: u64,
    /// Jobs currently executing.
    pub in_flight: u64,
    /// Total nanoseconds jobs spent waiting in the queue.
    pub queue_wait_ns: u64,
    /// Total nanoseconds jobs spent executing.
    pub exec_ns: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

impl StatusPayload {
    fn to_json_value(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("requests", self.requests)
            .u64("explores", self.explores)
            .u64("batches", self.batches)
            .u64("cache_hits", self.cache_hits)
            .u64("cache_misses", self.cache_misses)
            .u64("rejects", self.rejects)
            .u64("completed", self.completed)
            .u64("queue_depth", self.queue_depth)
            .u64("queue_capacity", self.queue_capacity)
            .u64("workers", self.workers)
            .u64("in_flight", self.in_flight)
            .u64("queue_wait_ns", self.queue_wait_ns)
            .u64("exec_ns", self.exec_ns)
            .u64("uptime_ms", self.uptime_ms);
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        Ok(StatusPayload {
            requests: require_u64(v, "requests")?,
            explores: require_u64(v, "explores")?,
            batches: require_u64(v, "batches")?,
            cache_hits: require_u64(v, "cache_hits")?,
            cache_misses: require_u64(v, "cache_misses")?,
            rejects: require_u64(v, "rejects")?,
            completed: require_u64(v, "completed")?,
            queue_depth: require_u64(v, "queue_depth")?,
            queue_capacity: require_u64(v, "queue_capacity")?,
            workers: require_u64(v, "workers")?,
            in_flight: require_u64(v, "in_flight")?,
            queue_wait_ns: require_u64(v, "queue_wait_ns")?,
            exec_ns: require_u64(v, "exec_ns")?,
            uptime_ms: require_u64(v, "uptime_ms")?,
        })
    }
}

/// Result-cache counters reported by [`Request::CacheStats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheStatsPayload {
    /// Entries currently resident.
    pub entries: u64,
    /// Configured capacity (entries across all shards).
    pub capacity: u64,
    /// Number of shards.
    pub shards: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries inserted (store re-admissions included).
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Approximate bytes of resident payload JSON across all shards.
    pub resident_bytes: u64,
    /// Lookups answered from the on-disk result store (a third outcome,
    /// counted as neither hit nor miss). Zero without a store.
    pub store_hits: u64,
    /// Segment files in the attached result store (zero without one).
    pub segments: u64,
    /// Logical bytes across the store's segments (zero without one).
    pub on_disk_bytes: u64,
    /// Uncompressed-to-stored ratio over the store's live records
    /// (0.0 when empty or storeless; >1.0 means compression is winning).
    pub compression_ratio: f64,
}

impl CacheStatsPayload {
    fn to_json_value(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("entries", self.entries)
            .u64("capacity", self.capacity)
            .u64("shards", self.shards)
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("insertions", self.insertions)
            .u64("evictions", self.evictions)
            .u64("resident_bytes", self.resident_bytes)
            .u64("store_hits", self.store_hits)
            .u64("segments", self.segments)
            .u64("on_disk_bytes", self.on_disk_bytes)
            .f64("compression_ratio", self.compression_ratio);
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        Ok(CacheStatsPayload {
            entries: require_u64(v, "entries")?,
            capacity: require_u64(v, "capacity")?,
            shards: require_u64(v, "shards")?,
            hits: require_u64(v, "hits")?,
            misses: require_u64(v, "misses")?,
            insertions: require_u64(v, "insertions")?,
            evictions: require_u64(v, "evictions")?,
            // Absent on pre-telemetry peers: default rather than reject,
            // so a new client can still read an old daemon's stats. Keys
            // an old daemon sends that this payload no longer carries are
            // ignored.
            resident_bytes: v.get("resident_bytes").and_then(Json::as_u64).unwrap_or(0),
            store_hits: v.get("store_hits").and_then(Json::as_u64).unwrap_or(0),
            segments: v.get("segments").and_then(Json::as_u64).unwrap_or(0),
            on_disk_bytes: v.get("on_disk_bytes").and_then(Json::as_u64).unwrap_or(0),
            compression_ratio: v
                .get("compression_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// One span of a server-side trace, in wire form (see
/// [`bfdn_obs::tracing::SpanRecord`] for the recorder-side twin).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanPayload {
    /// The trace this span belongs to (nonzero).
    pub trace: u64,
    /// This span's id (nonzero, unique within the serving process).
    pub span: u64,
    /// Parent span id; `0` for the tree root.
    pub parent: u64,
    /// Operation name (`"request"`, `"execute"`, `"build_tree"`, …).
    pub name: String,
    /// Start, in nanoseconds since the server's recorder epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Attributes, rendered to strings for the wire.
    pub attrs: Vec<(String, String)>,
}

impl From<&SpanRecord> for SpanPayload {
    fn from(record: &SpanRecord) -> Self {
        SpanPayload {
            trace: record.trace,
            span: record.span,
            parent: record.parent,
            name: record.name.to_string(),
            start_ns: record.start_ns,
            duration_ns: record.duration_ns,
            attrs: record
                .attrs
                .iter()
                .map(|(key, value)| (key.to_string(), value.render()))
                .collect(),
        }
    }
}

impl SpanPayload {
    /// Renders one span as a standalone JSON object — the same document
    /// shape the wire uses, so tools can print spans one per line.
    pub fn to_json_value(&self) -> String {
        let parent = if self.parent == 0 {
            String::new()
        } else {
            hex16(self.parent)
        };
        let mut o = JsonObject::new();
        o.str("trace", &hex16(self.trace))
            .str("span", &hex16(self.span))
            .str("parent", &parent)
            .str("name", &self.name)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.duration_ns);
        if !self.attrs.is_empty() {
            let mut attrs = String::from("{");
            for (i, (key, value)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    attrs.push(',');
                }
                escape_into(&mut attrs, key);
                attrs.push(':');
                escape_into(&mut attrs, value);
            }
            attrs.push('}');
            o.raw("attrs", &attrs);
        }
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let id = |key: &str| -> Result<u64, WireError> {
            let s = require_str(v, key)?;
            parse_hex16(s).filter(|&id| id != 0).ok_or_else(|| {
                WireError::bad_request(format!("span `{key}` must be 16 hex digits"))
            })
        };
        let parent = match v.get("parent").and_then(Json::as_str) {
            None | Some("") => 0,
            Some(s) => parse_hex16(s)
                .ok_or_else(|| WireError::bad_request("span `parent` must be 16 hex digits"))?,
        };
        let attrs = match v.get("attrs") {
            None => Vec::new(),
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(key, value)| {
                    value
                        .as_str()
                        .map(|s| (key.clone(), s.to_string()))
                        .ok_or_else(|| WireError::bad_request("span attrs must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(WireError::bad_request("span `attrs` must be an object")),
        };
        Ok(SpanPayload {
            trace: id("trace")?,
            span: id("span")?,
            parent,
            name: require_str(v, "name")?.to_string(),
            start_ns: require_u64(v, "start_ns")?,
            duration_ns: require_u64(v, "dur_ns")?,
            attrs,
        })
    }
}

/// The recent-span ring reported by [`Request::Trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TracePayload {
    /// Spans currently in the ring (filtered to one trace when the
    /// request carried an envelope trace id), sorted by start time.
    pub spans: Vec<SpanPayload>,
    /// Spans accepted by the recorder over its lifetime.
    pub recorded: u64,
    /// Spans lost to ring wrap-around or write contention; `0` means
    /// the ring still holds everything ever recorded.
    pub dropped: u64,
}

impl TracePayload {
    fn to_json_value(&self) -> String {
        let items: Vec<String> = self.spans.iter().map(SpanPayload::to_json_value).collect();
        let mut o = JsonObject::new();
        o.raw("spans", &format!("[{}]", items.join(",")))
            .u64("recorded", self.recorded)
            .u64("dropped", self.dropped);
        o.finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let spans = v
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::bad_request("trace needs a `spans` array"))?
            .iter()
            .map(SpanPayload::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TracePayload {
            spans,
            recorded: require_u64(v, "recorded")?,
            dropped: require_u64(v, "dropped")?,
        })
    }
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One simulation result.
    Result(Box<ExploreResult>),
    /// Results of a batch, in request order, with the split between
    /// cache hits and executed simulations.
    Batch {
        /// Per-item results, aligned with the request's `items`.
        results: Vec<ExploreResult>,
        /// Items served from the cache.
        hits: u64,
        /// Items that were simulated.
        misses: u64,
    },
    /// Server counters.
    Status(StatusPayload),
    /// Cache counters.
    CacheStats(CacheStatsPayload),
    /// The telemetry registry rendered as Prometheus text exposition.
    Metrics(String),
    /// The recent-span ring, answering [`Request::Trace`].
    Trace(TracePayload),
    /// Acknowledgement of a shutdown request; the server drains and
    /// exits after sending it.
    Bye,
    /// A structured failure.
    Error(WireError),
}

impl Response {
    /// Serializes the response document without a trace id.
    pub fn to_json(&self) -> String {
        self.to_json_traced(None)
    }

    /// Serializes the response document, echoing `trace` as the
    /// envelope trace id when given.
    pub fn to_json_traced(&self, trace: Option<u64>) -> String {
        let mut o = JsonObject::new();
        o.u64("v", PROTOCOL_VERSION);
        if let Some(id) = trace {
            o.str("trace", &hex16(id));
        }
        match self {
            Response::Result(r) => {
                o.str("type", "result").raw("result", &r.to_json_value());
            }
            Response::Batch {
                results,
                hits,
                misses,
            } => {
                o.str("type", "batch_result");
                let items: Vec<String> = results.iter().map(ExploreResult::to_json_value).collect();
                o.raw("results", &format!("[{}]", items.join(",")))
                    .u64("hits", *hits)
                    .u64("misses", *misses);
            }
            Response::Status(s) => {
                o.str("type", "status").raw("status", &s.to_json_value());
            }
            Response::CacheStats(c) => {
                o.str("type", "cache_stats")
                    .raw("cache", &c.to_json_value());
            }
            Response::Metrics(text) => {
                o.str("type", "metrics").str("text", text);
            }
            Response::Trace(t) => {
                o.str("type", "trace").raw("spans", &t.to_json_value());
            }
            Response::Bye => {
                o.str("type", "bye");
            }
            Response::Error(e) => {
                o.str("type", "error").str("code", e.code.as_str());
                let mut buf = String::new();
                escape_into(&mut buf, &e.message);
                o.raw("message", &buf);
            }
        }
        o.finish()
    }

    /// Decodes a response document, checking version and type and
    /// discarding any envelope trace id.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the malformation.
    pub fn from_json(text: &str) -> Result<Response, WireError> {
        Self::from_json_traced(text).map(|(response, _)| response)
    }

    /// Decodes a response document along with the trace id the server
    /// echoed, if any.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the malformation or an
    /// invalid `trace` field.
    pub fn from_json_traced(text: &str) -> Result<(Response, Option<u64>), WireError> {
        let v = parse_versioned(text)?;
        let trace = envelope_trace(&v)?;
        let response = match require_str(&v, "type")? {
            "result" => {
                let r = v
                    .get("result")
                    .ok_or_else(|| WireError::bad_request("missing `result`"))?;
                Ok(Response::Result(Box::new(ExploreResult::from_value(r)?)))
            }
            "batch_result" => {
                let items = v
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::bad_request("missing `results` array"))?;
                Ok(Response::Batch {
                    results: items
                        .iter()
                        .map(ExploreResult::from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                    hits: require_u64(&v, "hits")?,
                    misses: require_u64(&v, "misses")?,
                })
            }
            "status" => {
                let s = v
                    .get("status")
                    .ok_or_else(|| WireError::bad_request("missing `status`"))?;
                Ok(Response::Status(StatusPayload::from_value(s)?))
            }
            "cache_stats" => {
                let c = v
                    .get("cache")
                    .ok_or_else(|| WireError::bad_request("missing `cache`"))?;
                Ok(Response::CacheStats(CacheStatsPayload::from_value(c)?))
            }
            "metrics" => Ok(Response::Metrics(require_str(&v, "text")?.to_string())),
            "trace" => {
                let t = v
                    .get("spans")
                    .ok_or_else(|| WireError::bad_request("missing `spans`"))?;
                Ok(Response::Trace(TracePayload::from_value(t)?))
            }
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error(WireError {
                code: require_str(&v, "code")
                    .ok()
                    .and_then(ErrorCode::from_str)
                    .unwrap_or(ErrorCode::Internal),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            })),
            other => Err(WireError::bad_request(format!(
                "unknown response type `{other}`"
            ))),
        }?;
        Ok((response, trace))
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes clean EOF between
    /// frames, surfaced as `UnexpectedEof`).
    Io(io::Error),
    /// The announced payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The payload was not UTF-8.
    Utf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Utf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// `true` when the peer closed the connection cleanly between
    /// frames.
    pub fn is_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Fails with `InvalidInput` if the payload exceeds [`MAX_FRAME_LEN`],
/// or with the transport's error.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the frame cap", payload.len()),
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME_LEN`] *before* allocating.
///
/// # Errors
///
/// Returns [`FrameError::Io`] on transport failure (clean EOF included),
/// [`FrameError::TooLarge`] on an oversized announcement, or
/// [`FrameError::Utf8`] on a non-UTF-8 payload.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map_err(|_| FrameError::Utf8)
}

/// Parses a document and checks its `v` field.
fn parse_versioned(text: &str) -> Result<Json, WireError> {
    let v = Json::parse(text).map_err(|e: JsonError| WireError::bad_request(e.to_string()))?;
    match v.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => Ok(v),
        Some(other) => Err(WireError::new(
            ErrorCode::UnsupportedVersion,
            format!("protocol version {other} (this build speaks {PROTOCOL_VERSION})"),
        )),
        None => Err(WireError::bad_request("missing protocol version `v`")),
    }
}

/// Extracts the optional top-level `trace` envelope id: absent means
/// untraced; present, it must be a nonzero 16-digit hex string.
fn envelope_trace(v: &Json) -> Result<Option<u64>, WireError> {
    match v.get("trace") {
        None => Ok(None),
        Some(t) => {
            let s = t
                .as_str()
                .ok_or_else(|| WireError::bad_request("`trace` must be a string"))?;
            parse_hex16(s)
                .filter(|&id| id != 0)
                .map(Some)
                .ok_or_else(|| WireError::bad_request("`trace` must be 16 nonzero hex digits"))
        }
    }
}

fn require_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::bad_request(format!("missing string field `{key}`")))
}

fn require_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::bad_request(format!("missing integer field `{key}`")))
}

fn require_f64(v: &Json, key: &str) -> Result<f64, WireError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| WireError::bad_request(format!("missing number field `{key}`")))
}

/// Formats a float exactly as the wire does (shortest round-trip repr),
/// exposed for tests asserting byte equality across transports.
pub fn wire_f64(v: f64) -> String {
    let mut s = String::new();
    float_into(&mut s, v);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ExploreSpec {
        ExploreSpec::new("bfdn", "comb", 500, 8, 7)
    }

    fn sample_result() -> ExploreResult {
        ExploreResult {
            spec: sample_spec(),
            cached: false,
            nodes: 506,
            depth: 23,
            max_degree: 3,
            metrics: MetricsPayload {
                rounds: 210,
                moves: 1400,
                idle: 12,
                stalled: 0,
                allowed_moves: 1680,
                edges_discovered: 505,
                edge_events: 1010,
            },
            bound: 1831.5,
            margin: 1621.5,
            manifest: None,
        }
    }

    #[test]
    fn canonical_covers_every_request_field() {
        let mut spec = sample_spec();
        let base = spec.canonical();
        spec.seed += 1;
        assert_ne!(spec.canonical(), base);
        spec.seed -= 1;
        spec.options.delay_ms = 5;
        assert_ne!(spec.canonical(), base);
        assert_eq!(sample_spec().canonical(), base);
        assert_ne!(sample_spec().content_hash(), 0);
    }

    #[test]
    fn request_documents_round_trip() {
        let mut with_opts = sample_spec();
        with_opts.options = ExploreOptions {
            manifest: true,
            delay_ms: 25,
        };
        for req in [
            Request::Explore(sample_spec()),
            Request::Explore(with_opts.clone()),
            Request::Batch(vec![sample_spec(), with_opts]),
            Request::Status,
            Request::CacheStats,
            Request::Metrics,
            Request::Trace,
            Request::Shutdown,
        ] {
            let json = req.to_json();
            assert!(json.contains(&format!("\"v\":{PROTOCOL_VERSION}")));
            assert_eq!(Request::from_json(&json).unwrap(), req, "{json}");
        }
    }

    #[test]
    fn response_documents_round_trip() {
        let mut hit = sample_result();
        hit.cached = true;
        hit.manifest = Some(r#"{"algorithm":"bfdn"}"#.into());
        for resp in [
            Response::Result(Box::new(sample_result())),
            Response::Batch {
                results: vec![sample_result(), hit],
                hits: 1,
                misses: 1,
            },
            Response::Status(StatusPayload {
                requests: 10,
                queue_capacity: 64,
                uptime_ms: 1234,
                ..StatusPayload::default()
            }),
            Response::CacheStats(CacheStatsPayload {
                entries: 3,
                capacity: 1024,
                shards: 8,
                hits: 2,
                misses: 3,
                insertions: 3,
                evictions: 0,
                resident_bytes: 2048,
                store_hits: 4,
                segments: 2,
                on_disk_bytes: 4096,
                compression_ratio: 2.5,
            }),
            Response::Metrics("# HELP x y\n# TYPE x counter\nx 1\n".into()),
            Response::Bye,
            Response::Error(WireError::new(ErrorCode::Busy, "queue full (depth 64)")),
        ] {
            let json = resp.to_json();
            assert_eq!(Response::from_json(&json).unwrap(), resp, "{json}");
        }
    }

    #[test]
    fn stats_from_a_daemon_that_still_reports_spill_loads_decode() {
        let stats = Response::CacheStats(CacheStatsPayload {
            entries: 3,
            hits: 2,
            evictions: 1,
            store_hits: 4,
            ..CacheStatsPayload::default()
        });
        let json = stats.to_json();
        let old = json.replace(r#""evictions":1,"#, r#""evictions":1,"spill_loaded":7,"#);
        assert_ne!(old, json, "fixture carries the retired key");
        assert_eq!(Response::from_json(&old).unwrap(), stats, "{old}");
        assert_eq!(Response::from_json(&json).unwrap(), stats, "{json}");
    }

    #[test]
    fn trace_envelope_round_trips_on_requests_and_responses() {
        let req = Request::Explore(sample_spec());
        let json = req.to_json_traced(Some(0xdead_beef_0000_0001));
        assert!(json.contains(r#""trace":"deadbeef00000001""#), "{json}");
        let (decoded, trace) = Request::from_json_traced(&json).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(trace, Some(0xdead_beef_0000_0001));

        // Untraced documents decode with `None`.
        let (_, trace) = Request::from_json_traced(&req.to_json()).unwrap();
        assert_eq!(trace, None);

        let resp = Response::Bye;
        let json = resp.to_json_traced(Some(7));
        let (decoded, trace) = Response::from_json_traced(&json).unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(trace, Some(7));
    }

    #[test]
    fn invalid_trace_envelopes_are_rejected() {
        for doc in [
            r#"{"v":1,"trace":7,"type":"status"}"#,
            r#"{"v":1,"trace":"xyz","type":"status"}"#,
            r#"{"v":1,"trace":"abc","type":"status"}"#,
            r#"{"v":1,"trace":"0000000000000000","type":"status"}"#,
            r#"{"v":1,"trace":"00000000000000001","type":"status"}"#,
        ] {
            let err = Request::from_json_traced(doc).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{doc}");
        }
    }

    #[test]
    fn trace_response_round_trips_spans_and_counters() {
        let payload = TracePayload {
            spans: vec![
                SpanPayload {
                    trace: 0xabc,
                    span: 1,
                    parent: 0,
                    name: "request".into(),
                    start_ns: 10,
                    duration_ns: 5000,
                    attrs: vec![("kind".into(), "explore".into())],
                },
                SpanPayload {
                    trace: 0xabc,
                    span: 2,
                    parent: 1,
                    name: "execute".into(),
                    start_ns: 40,
                    duration_ns: 4000,
                    attrs: Vec::new(),
                },
            ],
            recorded: 2,
            dropped: 0,
        };
        let resp = Response::Trace(payload);
        let json = resp.to_json();
        assert!(json.contains(r#""dropped":0"#), "{json}");
        assert_eq!(Response::from_json(&json).unwrap(), resp, "{json}");

        // An empty ring is still a valid document.
        let empty = Response::Trace(TracePayload::default());
        assert_eq!(Response::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn version_mismatch_is_structured() {
        let doc = r#"{"v":99,"type":"status"}"#;
        let err = Request::from_json(doc).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        let err = Request::from_json(r#"{"type":"status"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        for doc in [
            "nonsense",
            r#"{"v":1}"#,
            r#"{"v":1,"type":"warp"}"#,
            r#"{"v":1,"type":"explore","algorithm":"bfdn"}"#,
            r#"{"v":1,"type":"batch","items":[]}"#,
            r#"{"v":1,"type":"batch","items":7}"#,
            r#"{"v":1,"type":"explore","algorithm":"bfdn","family":"comb","n":1.5,"k":2,"seed":0}"#,
        ] {
            let err = Request::from_json(doc).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{doc}");
        }
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), "hello");
        // EOF between frames is clean.
        assert!(read_frame(&mut r).unwrap_err().is_eof());

        let oversized = (MAX_FRAME_LEN + 1).to_be_bytes();
        let mut r = io::Cursor::new(oversized.to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TooLarge(len)) if len == MAX_FRAME_LEN + 1
        ));

        let big = "x".repeat(MAX_FRAME_LEN as usize + 1);
        assert!(write_frame(&mut Vec::new(), &big).is_err());

        // Truncated payload is an I/O error, not a hang or a panic.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, "full payload").unwrap();
        truncated.truncate(7);
        let mut r = io::Cursor::new(truncated);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));

        // Non-UTF-8 payloads are rejected.
        let mut bad = 2u32.to_be_bytes().to_vec();
        bad.extend([0xFF, 0xFE]);
        let mut r = io::Cursor::new(bad);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Utf8)));
    }

    #[test]
    fn payload_json_is_cache_stable() {
        let mut r = sample_result();
        let payload = r.payload_json();
        r.cached = true;
        assert_eq!(r.payload_json(), payload, "cached flag must not leak");
        let parsed = ExploreResult::from_payload_json(&payload).unwrap();
        assert_eq!(parsed.metrics, r.metrics);
        assert_eq!(parsed.spec, r.spec);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
