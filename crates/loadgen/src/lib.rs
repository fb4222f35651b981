//! `bfdn-loadgen` — deterministic load generation and chaos testing for
//! the `bfdn-serve` daemon.
//!
//! The subsystem has three layers, mirroring how serving systems are
//! actually qualified:
//!
//! - **Workload model** ([`workload`]): a [`workload::Plan`] is a pure
//!   function of `(profile, seed)` — open-loop arrivals with seeded
//!   inter-arrival gaps, closed-loop client scripts, and a request mix
//!   (cold/warm ratio, batch sizes, spec-size distribution) drawn from
//!   the same `exec` registry the daemon validates against. Wall-clock
//!   time only *executes* the schedule; it never decides what is sent.
//! - **Chaos layer** ([`chaos`]): misbehaving client personas — the
//!   slow-loris writer, the mid-frame disconnect, truncated and
//!   oversized length prefixes, garbage payloads, connect-then-idle
//!   sockets, and the reply hangup racing the server's write — injected
//!   into the same run. Every persona classifies what happened to it,
//!   so a report never contains an unexplained outcome.
//! - **Measurement core** ([`measure`]): latency histograms and outcome
//!   tallies per client class, kept in a [`bfdn_obs::Registry`] so the
//!   harness's own numbers use the exact instruments the daemon
//!   exports, plus end-of-run SLO checks that scrape the daemon's
//!   `/metrics` and assert `bfdn_bound_violations_total == 0` — the
//!   paper's Theorem 1 / Lemma 2 guarantees hold on everything served
//!   under load or the run fails.
//!
//! [`run::execute`] drives a plan against a live daemon and
//! [`report::render`] emits the JSON consumed by CI's `load-smoke` job
//! and `sweep --loadgen-report`.

pub mod chaos;
pub mod measure;
pub mod report;
pub mod run;
pub mod workload;

pub use chaos::{ChaosClient, ChaosOutcome, Persona};
pub use measure::{Collector, SloConfig};
pub use run::{execute, RunOutcome};
pub use workload::{Arrival, MixConfig, Op, Plan, Profile, ProfileConfig};
