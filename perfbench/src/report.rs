//! Sample statistics, failure accounting and the result line.

use bfdn_service::{ClientError, ErrorCode};
use std::fmt::Write as _;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Why one request counted as failed.
#[derive(Clone, Copy, Debug)]
pub enum Cause {
    /// Connect, send or receive failed, or the reply frame was unreadable.
    Transport,
    /// The daemon refused the job with `Busy`.
    Busy,
    /// The reply did not decode, or decoded to the wrong response type.
    Decode,
    /// The reply decoded but failed its check (a structured error other
    /// than `Busy` counts here: a result was expected).
    Check,
}

impl Cause {
    /// Sorts a client error into its cause.
    pub fn of(e: &ClientError) -> Cause {
        match e {
            ClientError::Io(_) | ClientError::Frame(_) => Cause::Transport,
            ClientError::Decode(_) | ClientError::Unexpected(_) => Cause::Decode,
            ClientError::Server(w) if w.code == ErrorCode::Busy => Cause::Busy,
            ClientError::Server(_) => Cause::Check,
        }
    }
}

/// Attempted / succeeded / failed counts of one phase, failures split by
/// cause.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub transport: u64,
    pub busy: u64,
    pub decode: u64,
    pub check: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.ok += 1;
    }

    pub fn fail(&mut self, cause: Cause, what: &str) {
        self.attempted += 1;
        match cause {
            Cause::Transport => self.transport += 1,
            Cause::Busy => self.busy += 1,
            Cause::Decode => self.decode += 1,
            Cause::Check => self.check += 1,
        }
        // Only the first few of each run are worth reading.
        if self.failed() <= 5 {
            eprintln!("perfbench: {cause:?} failure: {what}");
        }
    }

    pub fn failed(&self) -> u64 {
        self.transport + self.busy + self.decode + self.check
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.transport += other.transport;
        self.busy += other.busy;
        self.decode += other.decode;
        self.check += other.check;
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"attempted\":{},\"succeeded\":{},\"failed\":{},\"transport\":{},\"busy\":{},\"decode\":{},\"check\":{}}}",
            self.attempted,
            self.ok,
            self.failed(),
            self.transport,
            self.busy,
            self.decode,
            self.check
        )
    }
}

/// Setup and measured-phase tallies of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub setup: Tally,
    pub measured: Tally,
}

impl Ledger {
    pub fn total(&self) -> Tally {
        let mut t = self.setup;
        t.merge(&self.measured);
        t
    }
}

/// Metrics of one run, in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Human-readable table for stderr.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "  {name:<28} {value:>14.4} {unit}");
        }
        s
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, ledger: &Ledger) -> String {
        let total = ledger.total();
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            total.failed() == 0,
            total.attempted.max(1),
            total.failed()
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a missing sample shows as null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!(median(&[]).is_nan());
    }
}
