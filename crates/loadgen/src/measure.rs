//! The measurement core: per-class latency histograms and outcome
//! tallies on a [`bfdn_obs::Registry`], the daemon `/metrics` scrape,
//! and end-of-run SLO checks.
//!
//! Classes are client populations: `open`, `closed`, `big-instance`,
//! `flood` / `flood-reheat`, and one `chaos:<persona>` per misbehaving
//! persona. Latencies land in
//! the same histogram/quantile machinery the daemon itself exports, and
//! the harness's buckets are the daemon's
//! [`DEFAULT_LATENCY_BUCKETS`](bfdn_obs::metrics::DEFAULT_LATENCY_BUCKETS)
//! extended past 10s — the mix classes bucket identically to the
//! daemon, while the near-cap `big-instance` quantiles stay resolvable
//! instead of saturating at the daemon's top bucket.

use bfdn_obs::exposition::parse_exposition;
use bfdn_obs::{Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Thread-safe collector for everything the drivers observe.
pub struct Collector {
    registry: Registry,
    state: Mutex<BTreeMap<String, ClassHandles>>,
}

struct ClassHandles {
    latency: Arc<Histogram>,
    outcomes: BTreeMap<String, Arc<Counter>>,
    /// The slowest traced operations seen so far, slowest first, capped
    /// at [`SLOW_TRACES_PER_CLASS`].
    slow: Vec<SlowTrace>,
}

/// How many slowest-trace entries each class keeps.
pub const SLOW_TRACES_PER_CLASS: usize = 5;

/// The daemon's latency buckets extended to 120s, so multi-second
/// `big-instance` requests still resolve to a quantile.
const LOAD_LATENCY_BUCKETS: [f64; 17] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0,
];

/// One slow operation worth drilling into: its latency and the trace id
/// to look up in the daemon's span ring or Perfetto timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowTrace {
    pub trace: u64,
    pub latency_s: f64,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            registry: Registry::new(),
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one finished operation: its class, its outcome label
    /// (`ok`, `error:<code>`, `io_error`, a chaos label, …), and its
    /// latency when one is meaningful.
    pub fn record(&self, class: &str, outcome: &str, latency_s: Option<f64>) {
        self.record_traced(class, outcome, latency_s, None);
    }

    /// Like [`Collector::record`], additionally remembering the trace id
    /// when the operation carried one — the slowest
    /// [`SLOW_TRACES_PER_CLASS`] per class survive into the report.
    pub fn record_traced(
        &self,
        class: &str,
        outcome: &str,
        latency_s: Option<f64>,
        trace: Option<u64>,
    ) {
        let mut state = self.state.lock().expect("collector");
        let handles = state
            .entry(class.to_string())
            .or_insert_with(|| ClassHandles {
                latency: self.registry.histogram(
                    "bfdn_load_latency_seconds",
                    "Observed request latency per client class",
                    &[("class", class)],
                    &LOAD_LATENCY_BUCKETS,
                ),
                outcomes: BTreeMap::new(),
                slow: Vec::new(),
            });
        if let Some(latency) = latency_s {
            handles.latency.observe(latency);
            if let Some(trace) = trace {
                handles.slow.push(SlowTrace {
                    trace,
                    latency_s: latency,
                });
                handles
                    .slow
                    .sort_by(|a, b| b.latency_s.total_cmp(&a.latency_s));
                handles.slow.truncate(SLOW_TRACES_PER_CLASS);
            }
        }
        let counter = handles
            .outcomes
            .entry(outcome.to_string())
            .or_insert_with(|| {
                self.registry.counter(
                    "bfdn_load_outcomes_total",
                    "Operation outcomes per client class",
                    &[("class", class), ("outcome", outcome)],
                )
            });
        counter.inc();
    }

    /// Point-in-time summaries, one per class, in name order.
    pub fn snapshot(&self) -> Vec<ClassSummary> {
        let state = self.state.lock().expect("collector");
        state
            .iter()
            .map(|(class, handles)| {
                let outcomes: Vec<(String, u64)> = handles
                    .outcomes
                    .iter()
                    .map(|(label, counter)| (label.clone(), counter.get()))
                    .collect();
                let count: u64 = outcomes.iter().map(|(_, n)| n).sum();
                let ok = outcomes
                    .iter()
                    .find(|(label, _)| label == "ok")
                    .map_or(0, |(_, n)| *n);
                ClassSummary {
                    class: class.clone(),
                    count,
                    ok,
                    outcomes,
                    slow_traces: handles.slow.clone(),
                    observed: handles.latency.count(),
                    mean_s: if handles.latency.count() == 0 {
                        f64::NAN
                    } else {
                        handles.latency.sum() / handles.latency.count() as f64
                    },
                    p50_s: handles.latency.quantile(0.50),
                    p95_s: handles.latency.quantile(0.95),
                    p99_s: handles.latency.quantile(0.99),
                }
            })
            .collect()
    }

    /// The harness's own instruments in Prometheus text form.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// One class's end-of-run numbers.
#[derive(Clone, Debug)]
pub struct ClassSummary {
    pub class: String,
    /// All recorded outcomes.
    pub count: u64,
    /// Outcomes labelled exactly `ok`.
    pub ok: u64,
    /// `(label, count)` tallies in label order.
    pub outcomes: Vec<(String, u64)>,
    /// The slowest traced operations, slowest first (at most
    /// [`SLOW_TRACES_PER_CLASS`]); empty for untraced classes.
    pub slow_traces: Vec<SlowTrace>,
    /// Operations that contributed a latency sample.
    pub observed: u64,
    pub mean_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
}

impl ClassSummary {
    /// Whether this class is workload traffic (vs. a chaos persona).
    pub fn is_workload(&self) -> bool {
        !self.class.starts_with("chaos:")
    }
}

/// A latency objective for one named client class, overriding the
/// global `max_p99_s`. Exists for classes whose work is legitimately
/// orders of magnitude heavier than the mix — the `big-instance`
/// near-cap requests — where one global p99 would either mask a
/// regression in the small classes or permanently fail the big one.
#[derive(Clone, Debug)]
pub struct ClassSlo {
    /// The class label the override applies to.
    pub class: String,
    /// Highest tolerated p50 latency for this class.
    pub max_p50_s: f64,
    /// Highest tolerated p99 latency for this class.
    pub max_p99_s: f64,
}

/// End-of-run service-level objectives.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Highest tolerated `1 - ok/count` across workload classes.
    pub max_error_ratio: f64,
    /// Highest tolerated p99 latency on any workload class without a
    /// [`ClassSlo`] override.
    pub max_p99_s: f64,
    /// Per-class overrides; a listed class is judged on its own
    /// p50/p99 budgets instead of the global p99.
    pub class_slos: Vec<ClassSlo>,
    /// Lowest tolerated daemon cache hit ratio after the run (the warm
    /// share of the mix must actually be served from the cache).
    pub min_cache_hit_ratio: f64,
    /// Fail the run if the daemon reports any Theorem 1 / Lemma 2
    /// violation on work it served.
    pub require_zero_bound_violations: bool,
    /// When set, fail the run if `bfdn_cache_resident_bytes` exceeds
    /// this after the storm — the flood profile's hard-bound check
    /// against a daemon running with `--store-budget-bytes`. Missing
    /// evidence fails closed, like every other daemon-side objective.
    pub max_resident_bytes: Option<u64>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            max_error_ratio: 0.01,
            max_p99_s: 2.0,
            class_slos: Vec::new(),
            min_cache_hit_ratio: 0.05,
            require_zero_bound_violations: true,
            max_resident_bytes: None,
        }
    }
}

/// Daemon-side facts pulled from its Prometheus exposition.
#[derive(Clone, Debug, Default)]
pub struct DaemonStats {
    pub bound_checked: Option<f64>,
    pub bound_violations: Option<f64>,
    pub cache_hits: Option<f64>,
    pub cache_misses: Option<f64>,
    /// The memory tier's byte gauge — what a `--store-budget-bytes`
    /// daemon promises never to exceed.
    pub resident_bytes: Option<f64>,
    /// Memory misses answered from the persistent store's disk tier.
    pub store_hits: Option<f64>,
}

impl DaemonStats {
    pub fn parse(exposition: &str) -> DaemonStats {
        let scrape = parse_exposition(exposition);
        let value = |name: &str| scrape.value(name, &[]);
        DaemonStats {
            bound_checked: value("bfdn_bound_checked_total"),
            bound_violations: value("bfdn_bound_violations_total"),
            cache_hits: value("bfdn_cache_hits_total"),
            cache_misses: value("bfdn_cache_misses_total"),
            resident_bytes: value("bfdn_cache_resident_bytes"),
            store_hits: value("bfdn_store_hits_total"),
        }
    }

    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let (hits, misses) = (self.cache_hits?, self.cache_misses?);
        let total = hits + misses;
        (total > 0.0).then(|| hits / total)
    }
}

/// Scrapes `http://{addr}/metrics` with a plain socket and returns the
/// body.
///
/// # Errors
///
/// I/O failure, a non-200 status, or a malformed response.
pub fn scrape_http_metrics(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bfdn\r\nConnection: close\r\n\r\n")?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    if !reply.starts_with("HTTP/1.1 200") {
        return Err(io::Error::other(format!(
            "scrape answered {}",
            reply.lines().next().unwrap_or("nothing")
        )));
    }
    let body = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("scrape reply has no body"))?
        .1;
    Ok(body.to_string())
}

impl SloConfig {
    /// Evaluates the objectives; an empty vector is a pass. Inputs the
    /// evaluation cannot obtain (no scrape, empty classes) fail closed
    /// with an explicit violation rather than passing silently.
    pub fn violations(
        &self,
        summaries: &[ClassSummary],
        daemon: Option<&DaemonStats>,
        chaos_unexpected: u64,
        probe_consistent: Option<bool>,
    ) -> Vec<String> {
        let mut violations = Vec::new();

        let workload: Vec<&ClassSummary> = summaries.iter().filter(|s| s.is_workload()).collect();
        let total: u64 = workload.iter().map(|s| s.count).sum();
        let ok: u64 = workload.iter().map(|s| s.ok).sum();
        if total == 0 {
            violations.push("no workload operations completed".into());
        } else {
            let error_ratio = 1.0 - ok as f64 / total as f64;
            if error_ratio > self.max_error_ratio {
                violations.push(format!(
                    "workload error ratio {error_ratio:.4} exceeds {:.4}",
                    self.max_error_ratio
                ));
            }
        }
        for class in &workload {
            if class.observed == 0 {
                continue;
            }
            match self.class_slos.iter().find(|slo| slo.class == class.class) {
                Some(slo) => {
                    if class.p50_s > slo.max_p50_s {
                        violations.push(format!(
                            "class {} p50 {:.3}s exceeds {:.3}s",
                            class.class, class.p50_s, slo.max_p50_s
                        ));
                    }
                    if class.p99_s > slo.max_p99_s {
                        violations.push(format!(
                            "class {} p99 {:.3}s exceeds {:.3}s",
                            class.class, class.p99_s, slo.max_p99_s
                        ));
                    }
                }
                None => {
                    if class.p99_s > self.max_p99_s {
                        violations.push(format!(
                            "class {} p99 {:.3}s exceeds {:.3}s",
                            class.class, class.p99_s, self.max_p99_s
                        ));
                    }
                }
            }
        }

        if chaos_unexpected > 0 {
            violations.push(format!(
                "{chaos_unexpected} chaos outcomes outside their persona's expected set"
            ));
        }

        match daemon {
            None => violations.push("daemon /metrics was not scraped".into()),
            Some(stats) => {
                if self.require_zero_bound_violations {
                    match stats.bound_violations {
                        Some(0.0) => {}
                        Some(v) => violations
                            .push(format!("bfdn_bound_violations_total = {v} after the run")),
                        None => violations
                            .push("bfdn_bound_violations_total missing from scrape".into()),
                    }
                }
                match stats.cache_hit_ratio() {
                    Some(ratio) if ratio >= self.min_cache_hit_ratio => {}
                    Some(ratio) => violations.push(format!(
                        "cache hit ratio {ratio:.3} below {:.3}",
                        self.min_cache_hit_ratio
                    )),
                    None => violations.push("daemon served nothing from or past its cache".into()),
                }
                if let Some(budget) = self.max_resident_bytes {
                    match stats.resident_bytes {
                        Some(bytes) if bytes <= budget as f64 => {}
                        Some(bytes) => violations.push(format!(
                            "resident bytes {bytes:.0} exceed the {budget}-byte budget"
                        )),
                        None => {
                            violations.push("bfdn_cache_resident_bytes missing from scrape".into())
                        }
                    }
                }
            }
        }

        match probe_consistent {
            Some(true) => {}
            Some(false) => violations
                .push("post-storm probe payload differs from fresh local execution".into()),
            None => violations.push("post-storm probe did not run".into()),
        }

        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_tallies_outcomes_and_quantiles_per_class() {
        let collector = Collector::new();
        for ms in [1u64, 2, 3, 4, 100] {
            collector.record("open", "ok", Some(ms as f64 / 1000.0));
        }
        collector.record("open", "error:busy", None);
        collector.record("chaos:slow_loris", "cut_off", Some(0.4));

        let summaries = collector.snapshot();
        assert_eq!(summaries.len(), 2);
        let chaos = &summaries[0];
        assert_eq!(chaos.class, "chaos:slow_loris");
        assert!(!chaos.is_workload());
        assert_eq!(chaos.count, 1);
        assert_eq!(chaos.ok, 0);
        let open = &summaries[1];
        assert_eq!(open.class, "open");
        assert!(open.is_workload());
        assert_eq!((open.count, open.ok, open.observed), (6, 5, 5));
        assert_eq!(
            open.outcomes,
            vec![("error:busy".into(), 1), ("ok".into(), 5)]
        );
        assert!(open.p50_s < open.p99_s, "{} {}", open.p50_s, open.p99_s);
        assert!(open.p99_s <= 0.25, "100ms sample lands in the ≤0.25 bucket");

        let text = collector.render();
        assert!(text.contains(r#"bfdn_load_outcomes_total{class="open",outcome="ok"} 5"#));
        assert!(text.contains(r#"bfdn_load_latency_seconds_count{class="open"} 5"#));
    }

    #[test]
    fn metric_parsing_reads_unlabelled_values() {
        let text = "# HELP x y\nbfdn_bound_checked_total 12\nbfdn_bound_violations_total 0\n\
                    bfdn_cache_hits_total 30\nbfdn_cache_misses_total 10\n\
                    bfdn_cache_resident_bytes 4000\nbfdn_store_hits_total 7\n";
        let stats = DaemonStats::parse(text);
        assert_eq!(stats.bound_checked, Some(12.0));
        assert_eq!(stats.bound_violations, Some(0.0));
        assert_eq!(stats.cache_hit_ratio(), Some(0.75));
        assert_eq!(stats.resident_bytes, Some(4000.0));
        assert_eq!(stats.store_hits, Some(7.0));
    }

    #[test]
    fn slo_passes_on_a_clean_run_and_names_each_violation() {
        let collector = Collector::new();
        for _ in 0..50 {
            collector.record("open", "ok", Some(0.002));
        }
        let summaries = collector.snapshot();
        let daemon = DaemonStats {
            bound_checked: Some(40.0),
            bound_violations: Some(0.0),
            cache_hits: Some(10.0),
            cache_misses: Some(40.0),
            ..DaemonStats::default()
        };
        let slo = SloConfig::default();
        let clean = slo.violations(&summaries, Some(&daemon), 0, Some(true));
        assert!(clean.is_empty(), "{clean:?}");

        // Every failure mode is named.
        let bad_daemon = DaemonStats {
            bound_violations: Some(2.0),
            cache_hits: Some(0.0),
            cache_misses: Some(50.0),
            ..daemon
        };
        let failures = slo.violations(&summaries, Some(&bad_daemon), 3, Some(false));
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(failures.iter().any(|v| v.contains("bound_violations")));
        assert!(failures.iter().any(|v| v.contains("cache hit ratio")));
        assert!(failures.iter().any(|v| v.contains("chaos outcomes")));
        assert!(failures.iter().any(|v| v.contains("probe")));

        // Missing evidence fails closed.
        let missing = slo.violations(&summaries, None, 0, None);
        assert!(missing.iter().any(|v| v.contains("not scraped")));
        assert!(missing.iter().any(|v| v.contains("did not run")));
    }

    #[test]
    fn class_slo_overrides_judge_the_big_class_on_its_own_budget() {
        let collector = Collector::new();
        // The mix stays fast; the big class is slow but within its own
        // budget — and far past the global 2s p99.
        for _ in 0..20 {
            collector.record("open", "ok", Some(0.002));
            collector.record("big-instance", "ok", Some(8.0));
        }
        let daemon = DaemonStats {
            bound_checked: Some(40.0),
            bound_violations: Some(0.0),
            cache_hits: Some(10.0),
            cache_misses: Some(30.0),
            ..DaemonStats::default()
        };
        let mut slo = SloConfig::default();
        let failures = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(
            failures.iter().any(|v| v.contains("big-instance")),
            "without an override the global p99 trips: {failures:?}"
        );
        slo.class_slos = vec![ClassSlo {
            class: "big-instance".into(),
            max_p50_s: 30.0,
            max_p99_s: 60.0,
        }];
        let clean = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(clean.is_empty(), "{clean:?}");
        // The override judges p50 too, not just p99.
        slo.class_slos[0].max_p50_s = 1.0;
        let p50_trip = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(p50_trip.iter().any(|v| v.contains("p50")), "{p50_trip:?}");
    }

    #[test]
    fn resident_budget_slo_judges_the_gauge_and_fails_closed() {
        let collector = Collector::new();
        for _ in 0..10 {
            collector.record("flood", "ok", Some(0.002));
        }
        let daemon = DaemonStats {
            bound_checked: Some(10.0),
            bound_violations: Some(0.0),
            cache_hits: Some(1.0),
            cache_misses: Some(9.0),
            resident_bytes: Some(4000.0),
            store_hits: Some(5.0),
        };
        let mut slo = SloConfig {
            min_cache_hit_ratio: 0.0,
            ..SloConfig::default()
        };
        // Unset budget: the gauge is informational only.
        let clean = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(clean.is_empty(), "{clean:?}");
        // Within budget passes; over budget is named.
        slo.max_resident_bytes = Some(4096);
        let clean = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(clean.is_empty(), "{clean:?}");
        slo.max_resident_bytes = Some(3000);
        let over = slo.violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert!(
            over.iter().any(|v| v.contains("resident bytes")),
            "{over:?}"
        );
        // A budget with no gauge in the scrape fails closed.
        let blind = DaemonStats {
            resident_bytes: None,
            ..daemon
        };
        let missing = slo.violations(&collector.snapshot(), Some(&blind), 0, Some(true));
        assert!(
            missing
                .iter()
                .any(|v| v.contains("bfdn_cache_resident_bytes missing")),
            "{missing:?}"
        );
    }

    #[test]
    fn error_ratio_slo_trips_on_busy_storms() {
        let collector = Collector::new();
        for _ in 0..90 {
            collector.record("closed", "ok", Some(0.001));
        }
        for _ in 0..10 {
            collector.record("closed", "error:busy", None);
        }
        let daemon = DaemonStats {
            bound_checked: Some(90.0),
            bound_violations: Some(0.0),
            cache_hits: Some(45.0),
            cache_misses: Some(45.0),
            ..DaemonStats::default()
        };
        let failures =
            SloConfig::default().violations(&collector.snapshot(), Some(&daemon), 0, Some(true));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("error ratio"));
    }
}
