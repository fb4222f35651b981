//! The experiment harness: one module per experiment of `DESIGN.md`'s
//! index (E1–E13 plus the A1 ablations), each regenerating a table that
//! `EXPERIMENTS.md` records. The `experiments` binary drives them; the
//! criterion benches under `benches/` measure wall-clock implementation
//! costs and the ablations; the `explore` binary runs one-off scenarios.
//!
//! Every experiment function is pure computation returning a [`Table`],
//! so the test-suite can assert on the same numbers the binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod sweep;
mod table;

pub use table::Table;

/// The deterministic work-sharing substrate. It moved into
/// [`bfdn_service`] (the server's batch fan-out runs on it too); this
/// re-export keeps `bfdn_bench::parallel` paths working.
pub use bfdn_service::parallel;

/// Scale knob shared by all experiments: `quick` keeps every run under a
/// couple of seconds (CI), `full` is the laptop-scale configuration the
/// committed `EXPERIMENTS.md` numbers come from, and `huge` extends the
/// bound-checking sweeps (E1, E12) to million-node instances with `k` up
/// to 4096. Experiments without a huge-specific configuration run
/// their full-scale one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small instances for CI and tests.
    Quick,
    /// The configuration reported in `EXPERIMENTS.md`.
    Full,
    /// Million-node instances for E1/E12 (see `EXPERIMENTS.md` §Huge
    /// scale); everything else falls back to full-scale sizes.
    Huge,
}

impl Scale {
    /// Scales a "full" size down in quick mode. Huge deliberately does
    /// NOT inflate generic sizes — only the experiments with an explicit
    /// huge configuration grow, so `--scale huge all` stays tractable.
    pub fn size(self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 8).max(32),
            Scale::Full | Scale::Huge => full,
        }
    }

    /// Parses the `--scale` CLI value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }
}
