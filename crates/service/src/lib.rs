//! A simulation-serving daemon for the BFDN reproduction.
//!
//! The local harness re-runs every simulation from scratch; this crate
//! turns the workspace into a long-lived service so repeated sweeps,
//! CI jobs and notebook-style exploration share one warm process and
//! one result cache:
//!
//! - [`protocol`] — the versioned wire protocol: JSON documents over
//!   4-byte length-prefixed TCP frames, with structured error replies
//!   ([`jsonval`] is its hand-rolled inbound JSON reader).
//! - [`exec`] — the single algorithm/family registry; turns a validated
//!   [`protocol::ExploreSpec`] into a [`protocol::ExploreResult`] plus a
//!   per-request run manifest. The bench CLI delegates here, so daemon
//!   and local harness can never drift apart.
//! - [`cache`] — the content-addressed result cache: runs are fully
//!   deterministic in their spec, so results are keyed by the canonical
//!   request string. A sharded in-memory LRU in front, optionally
//!   backed by the `bfdn-store` log-structured compressed store
//!   (write-once puts, indexed disk reads on memory misses, a hard
//!   resident-bytes budget), the daemon's only persistence.
//! - [`parallel`] — the deterministic work-sharing substrate (now hosted
//!   by `bfdn-sim` so the explorers' round loops can shard on it too;
//!   re-exported here and by the harness), used both by the local
//!   harness's fan-out and by the server's batch fan-out.
//! - [`server`] — the daemon: bounded job queue with `Busy`
//!   backpressure, a worker pool, per-job observability, graceful
//!   drain on shutdown.
//! - [`telemetry`] — the daemon's metrics surface: Prometheus-rendered
//!   request/latency/cache/bound-margin instruments (exposed through
//!   the `Metrics` wire request and an optional `--metrics-addr` HTTP
//!   listener) plus the structured JSONL access log.
//! - [`client`] — a blocking typed client; the `bfdn-serve` and
//!   `bfdn-request` binaries and the harness's `--via-service` mode sit
//!   on top of it.
//!
//! The determinism guarantee is load-bearing end to end: a cache hit is
//! byte-identical to recomputation, so a sweep routed through the
//! service produces byte-identical CSVs to a local run — CI asserts
//! exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod exec;
pub mod jsonval;
pub use bfdn_sim::parallel;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use cache::{CacheConfig, ResultCache};
pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, ExploreOptions, ExploreResult, ExploreSpec, Request, Response, WireError,
    PROTOCOL_VERSION,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use telemetry::{AccessLog, AccessRecord, ServiceMetrics};
