//! The driver: executes a [`Plan`] against a live daemon.
//!
//! Several thread populations share one run: an open-loop scheduler
//! that fires arrivals at their planned offsets without waiting for
//! completions, closed-loop clients that issue their scripts
//! back-to-back over persistent connections, one thread per chaos
//! client, and (in the flood profile) one self-pacing thread per
//! cache-busting flood request, followed post-storm by a reheat leg
//! over the oldest flood specs. Wall-clock time only paces the
//! schedule — everything *sent* was fixed at plan time.
//!
//! Every workload operation carries a deterministic trace id — an
//! FNV-1a hash of `(plan fingerprint, class, operation index)`, forced
//! odd so it never collides with the reserved zero id. Client-supplied
//! ids are always traced server-side, so the report's slowest
//! operations per class can be drilled into via the daemon's span ring
//! or its Perfetto export. Chaos personas stay untraced: they speak raw
//! bytes, not the protocol.

use crate::chaos;
use crate::measure::{scrape_http_metrics, Collector, DaemonStats, SloConfig};
use crate::workload::{Op, Plan};
use bfdn_service::client::Client;
use bfdn_service::exec;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything the run learned, ready for reporting.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub duration_s: f64,
    /// Workload operations sent (chaos clients excluded).
    pub workload_ops: u64,
    pub workload_ok: u64,
    /// Chaos outcomes outside their persona's expected set.
    pub chaos_unexpected: u64,
    /// Daemon-side facts from the post-run scrape.
    pub daemon: Option<DaemonStats>,
    /// Post-storm consistency: the probe's served payload matched a
    /// fresh local execution, cold then cached.
    pub probe_consistent: Option<bool>,
    /// `(recorded, dropped)` from the daemon's span recorder after the
    /// run; `dropped == 0` certifies every span survived the ring.
    pub trace_counters: Option<(u64, u64)>,
    pub violations: Vec<String>,
    pub pass: bool,
}

/// Runs the plan, the post-storm probe, the scrape, and the SLO checks.
/// `metrics_http` is the daemon's `--metrics-addr`; without it the
/// exposition is fetched over the wire protocol instead.
pub fn execute(
    addr: SocketAddr,
    metrics_http: Option<&str>,
    plan: &Plan,
    slo: &SloConfig,
    collector: &Collector,
) -> RunOutcome {
    let started = Instant::now();
    let chaos_unexpected = AtomicU64::new(0);

    let fingerprint = plan.fingerprint();

    // First-issue payloads per flood index, parked by the storm threads
    // and read back by the post-storm reheat leg.
    let flood_payloads: Vec<Mutex<Option<String>>> =
        plan.flood.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for (client_index, script) in plan.closed_loop.iter().enumerate() {
            scope.spawn(move || {
                closed_loop_client(addr, script, collector, fingerprint, client_index)
            });
        }
        for client in &plan.chaos {
            let chaos_unexpected = &chaos_unexpected;
            scope.spawn(move || {
                sleep_until(started, client.at_ms);
                let t0 = Instant::now();
                let outcome = chaos::run_client(addr, client);
                if !client.persona.expects(&outcome) {
                    chaos_unexpected.fetch_add(1, Ordering::Relaxed);
                }
                collector.record(
                    &format!("chaos:{}", client.persona.as_str()),
                    &outcome.label(),
                    Some(t0.elapsed().as_secs_f64()),
                );
            });
        }
        // Big-instance requests pace themselves: each thread sleeps to
        // its own offset so the heavyweight sends never delay the
        // open-loop schedule below.
        for (index, arrival) in plan.big_instance.iter().enumerate() {
            scope.spawn(move || {
                sleep_until(started, arrival.at_ms);
                let trace = trace_id(fingerprint, "big-instance", index as u64);
                let t0 = Instant::now();
                let outcome = one_shot_slow(addr, &arrival.op, trace);
                collector.record_traced(
                    "big-instance",
                    &outcome,
                    Some(t0.elapsed().as_secs_f64()),
                    Some(trace),
                );
            });
        }
        // Flood arrivals pace themselves like big-instance sends: one
        // thread per request, so the storm stays open-loop even when
        // the daemon lags under it.
        for (index, arrival) in plan.flood.iter().enumerate() {
            let slot = &flood_payloads[index];
            scope.spawn(move || {
                sleep_until(started, arrival.at_ms);
                let trace = trace_id(fingerprint, "flood", index as u64);
                let t0 = Instant::now();
                let outcome = flood_shot(addr, &arrival.op, trace, slot);
                collector.record_traced(
                    "flood",
                    &outcome,
                    Some(t0.elapsed().as_secs_f64()),
                    Some(trace),
                );
            });
        }
        // The open-loop scheduler fires each arrival on time and moves
        // on; completions are recorded by the per-request threads.
        for (index, arrival) in plan.open_loop.iter().enumerate() {
            sleep_until(started, arrival.at_ms);
            scope.spawn(move || {
                let trace = trace_id(fingerprint, "open", index as u64);
                let t0 = Instant::now();
                let outcome = one_shot(addr, &arrival.op, trace);
                collector.record_traced(
                    "open",
                    &outcome,
                    Some(t0.elapsed().as_secs_f64()),
                    Some(trace),
                );
            });
        }
    });

    flood_reheat(addr, plan, &flood_payloads, collector, fingerprint);

    let probe_consistent = Some(run_probe(addr, plan, collector));

    let daemon = fetch_daemon_stats(addr, metrics_http);
    let trace_counters = connect(addr)
        .and_then(|mut client| client.trace_spans(None).ok())
        .map(|t| (t.recorded, t.dropped));
    let duration_s = started.elapsed().as_secs_f64();

    let summaries = collector.snapshot();
    let workload_ops: u64 = summaries
        .iter()
        .filter(|s| s.is_workload())
        .map(|s| s.count)
        .sum();
    let workload_ok: u64 = summaries
        .iter()
        .filter(|s| s.is_workload())
        .map(|s| s.ok)
        .sum();
    let chaos_unexpected = chaos_unexpected.load(Ordering::Relaxed);
    let violations = slo.violations(
        &summaries,
        daemon.as_ref(),
        chaos_unexpected,
        probe_consistent,
    );

    RunOutcome {
        duration_s,
        workload_ops,
        workload_ok,
        chaos_unexpected,
        daemon,
        probe_consistent,
        trace_counters,
        pass: violations.is_empty(),
        violations,
    }
}

/// The deterministic trace id for one workload operation: FNV-1a over
/// `(plan fingerprint, class, index)`, forced odd so it can never be the
/// reserved zero id.
fn trace_id(fingerprint: u64, class: &str, index: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&fingerprint.to_le_bytes());
    eat(class.as_bytes());
    eat(&index.to_le_bytes());
    hash | 1
}

fn sleep_until(started: Instant, at_ms: u64) {
    let target = started + Duration::from_millis(at_ms);
    let now = Instant::now();
    if let Some(wait) = target.checked_duration_since(now) {
        std::thread::sleep(wait);
    }
}

/// The post-storm consistency check: a spec nothing in the workload
/// touched must execute fresh, match a local run byte for byte, and
/// then answer from the cache with the same bytes.
fn run_probe(addr: SocketAddr, plan: &Plan, collector: &Collector) -> bool {
    let Ok((local, _)) = exec::run_spec(&plan.probe) else {
        collector.record("probe", "local_exec_failed", None);
        return false;
    };
    let expected = local.payload_json();
    let issue = |expect_cached: bool| -> bool {
        let t0 = Instant::now();
        let (outcome, good) = match connect(addr) {
            None => ("io_error".to_string(), false),
            Some(mut client) => match client.explore(plan.probe.clone()) {
                Ok(result) => {
                    let consistent =
                        result.payload_json() == expected && result.cached == expect_cached;
                    (
                        if consistent { "ok" } else { "inconsistent" }.to_string(),
                        consistent,
                    )
                }
                Err(e) => (classify_error(&e), false),
            },
        };
        collector.record("probe", &outcome, Some(t0.elapsed().as_secs_f64()));
        good
    };
    let cold = issue(false);
    let warm = issue(true);
    cold && warm
}

/// A flood first issue: the spec is unique within the run, so a reply
/// with `cached == true` means something other than this run already
/// computed it — surfaced as its own outcome (`unexpected_warm`, a
/// non-`ok` label that trips the error-ratio SLO) instead of being
/// conflated with a fresh execution. The served payload is parked in
/// `slot` so the reheat leg can demand byte-identity later.
fn flood_shot(addr: SocketAddr, op: &Op, trace: u64, slot: &Mutex<Option<String>>) -> String {
    let Op::Explore(spec) = op else {
        return "not_an_explore".into();
    };
    let Some(mut client) = connect(addr) else {
        return "io_error".into();
    };
    client.set_trace(Some(trace));
    match client.explore(spec.clone()) {
        Ok(result) => {
            *slot.lock().expect("flood slot") = Some(result.payload_json());
            if result.cached {
                "unexpected_warm".into()
            } else {
                "ok".into()
            }
        }
        Err(e) => classify_error(&e),
    }
}

/// How many flood specs the reheat leg re-issues.
const FLOOD_REHEAT: usize = 8;

/// The post-storm reheat: re-issues the *oldest* flood specs — the
/// entries a resident-bytes budget is most likely to have evicted from
/// the memory tier — expecting each one served `cached == true` and
/// byte-identical to its first issue. Against a store-backed daemon
/// this is the overflow coming back from disk; any deviation lands as
/// a non-`ok` outcome in the `flood-reheat` class and trips the
/// error-ratio SLO.
fn flood_reheat(
    addr: SocketAddr,
    plan: &Plan,
    payloads: &[Mutex<Option<String>>],
    collector: &Collector,
    fingerprint: u64,
) {
    for (index, arrival) in plan.flood.iter().take(FLOOD_REHEAT).enumerate() {
        let Op::Explore(spec) = &arrival.op else {
            continue;
        };
        let expected = payloads[index].lock().expect("flood slot").clone();
        let trace = trace_id(fingerprint, "flood-reheat", index as u64);
        let t0 = Instant::now();
        let outcome = match (expected, connect(addr)) {
            (None, _) => "missing_first_issue".to_string(),
            (_, None) => "io_error".to_string(),
            (Some(expected), Some(mut client)) => {
                client.set_trace(Some(trace));
                match client.explore(spec.clone()) {
                    Ok(result) if !result.cached => "not_cached".into(),
                    Ok(result) if result.payload_json() != expected => "divergent_payload".into(),
                    Ok(_) => "ok".into(),
                    Err(e) => classify_error(&e),
                }
            }
        };
        collector.record_traced(
            "flood-reheat",
            &outcome,
            Some(t0.elapsed().as_secs_f64()),
            Some(trace),
        );
    }
}

fn fetch_daemon_stats(addr: SocketAddr, metrics_http: Option<&str>) -> Option<DaemonStats> {
    let exposition = match metrics_http {
        Some(http_addr) => scrape_http_metrics(http_addr).ok()?,
        None => connect(addr)?.metrics().ok()?,
    };
    Some(DaemonStats::parse(&exposition))
}

fn connect(addr: SocketAddr) -> Option<Client> {
    let client = Client::connect(addr).ok()?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    Some(client)
}

/// One open-loop request on a fresh connection.
fn one_shot(addr: SocketAddr, op: &Op, trace: u64) -> String {
    match connect(addr) {
        None => "io_error".into(),
        Some(mut client) => issue_on(&mut client, op, trace),
    }
}

/// A big-instance request: same shape as [`one_shot`], but the read
/// timeout matches the class's latency budget instead of the mix's —
/// a legitimate multi-second execution must not be misread as a dead
/// daemon.
fn one_shot_slow(addr: SocketAddr, op: &Op, trace: u64) -> String {
    let Some(mut client) = connect(addr) else {
        return "io_error".into();
    };
    if client
        .set_read_timeout(Some(Duration::from_secs(180)))
        .is_err()
    {
        return "io_error".into();
    }
    issue_on(&mut client, op, trace)
}

/// A closed-loop client: its script back-to-back over one connection,
/// reconnecting only after an I/O failure. Per-operation trace ids fold
/// in the client index so two clients' scripts never share an id.
fn closed_loop_client(
    addr: SocketAddr,
    script: &[Op],
    collector: &Collector,
    fingerprint: u64,
    client_index: usize,
) {
    let mut conn: Option<Client> = None;
    for (op_index, op) in script.iter().enumerate() {
        let trace = trace_id(
            fingerprint,
            "closed",
            (client_index as u64) << 32 | op_index as u64,
        );
        let t0 = Instant::now();
        let mut current = conn.take().or_else(|| connect(addr));
        let outcome = match current.as_mut() {
            None => "io_error".into(),
            Some(client) => issue_on(client, op, trace),
        };
        if outcome != "io_error" {
            conn = current;
        }
        collector.record_traced(
            "closed",
            &outcome,
            Some(t0.elapsed().as_secs_f64()),
            Some(trace),
        );
    }
}

fn issue_on(client: &mut Client, op: &Op, trace: u64) -> String {
    client.set_trace(Some(trace));
    let result = match op {
        Op::Explore(spec) => client.explore(spec.clone()).map(|_| ()),
        Op::Batch(specs) => client.batch(specs.clone()).map(|_| ()),
    };
    match result {
        Ok(()) => "ok".into(),
        Err(e) => classify_error(&e),
    }
}

fn classify_error(e: &bfdn_service::client::ClientError) -> String {
    match e.as_server_error() {
        Some(wire) => format!("error:{}", wire.code.as_str()),
        None => "io_error".into(),
    }
}
