//! Cluster-mode driving: the same deterministic plan, issued through
//! ring-routed failover clients against N shards — plus the
//! `shard-killer` chaos persona, which SIGKILLs a daemon mid-storm and
//! (optionally) restarts it, asserting the cluster's breakdown
//! tolerance the way the paper's Proposition 7 asserts `BFDN`'s.
//!
//! Everything [`crate::run::execute`] measures is measured here too and
//! judged by the same [`SloConfig`]; on top of that the post-storm
//! probe gains a *peer-fill leg*: after the probe spec is computed on
//! its serving shard, a second shard is asked for it directly and must
//! answer with a byte-identical cached copy it pulled from the first
//! shard's cache — so every cluster run deterministically exercises (and
//! counts) at least one `bfdn_peer_fill_hit_total`.
//!
//! Shard lifecycle is abstracted behind [`ShardBreaker`] so the binary
//! can SIGKILL real child processes ([`ChildShard`]) while the
//! integration tests break in-process daemons; the storm cannot tell
//! the difference.

use crate::chaos;
use crate::measure::{Collector, DaemonStats, SloConfig};
use crate::run::{classify_error, fetch_daemon_stats, sleep_until, trace_id, RunOutcome};
use crate::workload::{Op, Plan};
use bfdn_cluster::{ClusterClient, ClusterConfig, ClusterError};
use bfdn_obs::fleet::parse_exposition;
use bfdn_service::client::Client;
use bfdn_service::exec;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cluster-side facts for the report, next to the per-daemon scrape.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Shards the run routed over.
    pub shards: u64,
    /// Shards whose metrics answered the post-run scrape (a shard
    /// killed without restart is expected to be missing).
    pub shards_scraped: u64,
    /// `bfdn_peer_fill_hit_total` summed across scraped shards.
    pub peer_fill_hits: f64,
    /// `bfdn_peer_fill_miss_total` summed across scraped shards.
    pub peer_fill_misses: f64,
    /// Operations the failover clients served off their home shard.
    pub reroutes: u64,
    /// Facts read back from the federated fleet endpoint after the
    /// storm; `None` when the run had no `--fleet-metrics` collector.
    pub fleet: Option<FleetFacts>,
}

/// What the post-storm scrape of the fleet collector's aggregated
/// `/metrics` endpoint showed.
#[derive(Clone, Debug)]
pub struct FleetFacts {
    /// `bfdn_fleet_shards_up` — shards answering the collector's last
    /// scrape round.
    pub shards_up: u64,
    /// The fleet-wide `bfdn_bound_margin_worst{bound="theorem1_rounds"}`
    /// rollup (minimum over every shard, peer-filled copies included).
    pub worst_margin: Option<f64>,
    /// `bfdn_bound_violations_total` summed over the fleet — the SLO
    /// says this stays 0 through any storm.
    pub bound_violations: Option<f64>,
}

impl FleetFacts {
    /// Extracts the facts from the collector's aggregated exposition.
    pub fn from_exposition(text: &str) -> Self {
        let scrape = bfdn_obs::fleet::parse_exposition(text);
        FleetFacts {
            shards_up: scrape.value("bfdn_fleet_shards_up", &[]).unwrap_or(0.0) as u64,
            worst_margin: scrape.value("bfdn_bound_margin_worst", &[("bound", "theorem1_rounds")]),
            bound_violations: scrape.value("bfdn_bound_violations_total", &[]),
        }
    }
}

/// How a shard is broken and brought back. `kill` must be abrupt — the
/// storm is still running when it fires.
pub trait ShardBreaker: Send {
    /// Takes the shard down, hard.
    ///
    /// # Errors
    ///
    /// A message when the shard could not be taken down.
    fn kill(&mut self) -> Result<(), String>;
    /// Brings the same shard back on the same address and waits until
    /// it serves.
    ///
    /// # Errors
    ///
    /// A message when the shard did not come back.
    fn restart(&mut self) -> Result<(), String>;
}

/// When the shard-killer strikes, relative to storm start.
#[derive(Clone, Copy, Debug)]
pub struct ShardKillPlan {
    /// Storm offset of the kill, in milliseconds.
    pub at_ms: u64,
    /// When set, the shard is restarted this long after the kill; when
    /// `None` it stays dead for the rest of the run.
    pub restart_after_ms: Option<u64>,
}

/// A `bfdn-serve` child process the harness owns: spawned, killed with
/// SIGKILL (the only kind of kill [`std::process::Child`] offers, and
/// exactly what the breakdown persona wants), and respawned on the same
/// address.
pub struct ChildShard {
    bin: String,
    args: Vec<String>,
    addr: String,
    child: Option<Child>,
}

impl ChildShard {
    /// Spawns `bin args...` and waits until the wire address serves a
    /// Status request.
    ///
    /// # Errors
    ///
    /// A message when the spawn fails or readiness times out.
    pub fn spawn(bin: &str, args: &[String], addr: &str) -> Result<Self, String> {
        let mut shard = ChildShard {
            bin: bin.to_string(),
            args: args.to_vec(),
            addr: addr.to_string(),
            child: None,
        };
        shard.start()?;
        Ok(shard)
    }

    /// The wire address the shard serves on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn start(&mut self) -> Result<(), String> {
        let child = Command::new(&self.bin)
            .args(&self.args)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin))?;
        self.child = Some(child);
        self.wait_ready()
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        for _ in 0..100 {
            if let Ok(mut client) = Client::connect(&self.addr) {
                let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
                if client.status().is_ok() {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        Err(format!("shard on {} never became ready", self.addr))
    }

    /// Gracefully stops the shard when it still answers, reaps it
    /// either way. Used at teardown, not by the persona.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let acknowledged = Client::connect(&self.addr)
            .and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_secs(10)))?;
                c.shutdown()
            })
            .is_ok();
        if !acknowledged {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

impl ShardBreaker for ChildShard {
    fn kill(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Err("shard has no live child to kill".into());
        };
        child.kill().map_err(|e| format!("kill failed: {e}"))?;
        child.wait().map_err(|e| format!("reap failed: {e}"))?;
        Ok(())
    }

    fn restart(&mut self) -> Result<(), String> {
        if self.child.is_some() {
            return Err("shard is already running".into());
        }
        self.start()
    }
}

impl Drop for ChildShard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One failover client, configured like every other in the run but with
/// its own derived jitter seed (reproducible, decorrelated).
fn cluster_client(shards: &[String], seed: u64, read_timeout_ms: u64) -> ClusterClient {
    let mut config = ClusterConfig::new(shards.iter().cloned());
    config.jitter_seed = seed;
    config.read_timeout_ms = read_timeout_ms;
    ClusterClient::new(config)
}

fn classify_cluster_error(e: &ClusterError) -> String {
    match e.as_server_error() {
        Some(wire) => format!("error:{}", wire.code.as_str()),
        None => "io_error".into(),
    }
}

fn issue_cluster(client: &mut ClusterClient, op: &Op, trace: u64) -> String {
    client.set_trace(Some(trace));
    let result = match op {
        Op::Explore(spec) => client.explore(spec).map(|_| ()),
        Op::Batch(specs) => client.batch(specs).map(|_| ()),
    };
    match result {
        Ok(()) => "ok".into(),
        Err(e) => classify_cluster_error(&e),
    }
}

/// Runs the plan against a shard cluster: same schedule, same SLOs,
/// ring-routed failover clients, the optional shard-killer, the
/// peer-fill probe, and a scrape summed over every answering shard.
///
/// `metrics_http` pairs with `shards` index-by-index (`None` entries
/// scrape over the wire protocol). `kill` arms the shard-killer against
/// `shards[kill_index]` — the breaker does the breaking so the harness
/// works identically on child processes and in-process daemons.
pub fn execute_cluster(
    shards: &[String],
    metrics_http: &[Option<String>],
    plan: &Plan,
    slo: &SloConfig,
    collector: &Collector,
    kill: Option<(usize, ShardKillPlan, &mut dyn ShardBreaker)>,
) -> RunOutcome {
    let started = Instant::now();
    let chaos_unexpected = AtomicU64::new(0);
    let reroutes = AtomicU64::new(0);
    let fingerprint = plan.fingerprint();
    let killed_for_good = kill
        .as_ref()
        .filter(|(_, plan, _)| plan.restart_after_ms.is_none())
        .map(|&(index, _, _)| index);

    // Chaos personas speak raw bytes at single sockets; spread them
    // round-robin over the shards so every daemon sees abuse.
    let chaos_addrs: Vec<SocketAddr> = shards
        .iter()
        .filter_map(|s| s.to_socket_addrs().ok().and_then(|mut a| a.next()))
        .collect();

    std::thread::scope(|scope| {
        for (client_index, script) in plan.closed_loop.iter().enumerate() {
            let reroutes = &reroutes;
            scope.spawn(move || {
                let mut client = cluster_client(
                    shards,
                    fingerprint.wrapping_add(client_index as u64),
                    30_000,
                );
                for (op_index, op) in script.iter().enumerate() {
                    let trace = trace_id(
                        fingerprint,
                        "closed",
                        (client_index as u64) << 32 | op_index as u64,
                    );
                    let t0 = Instant::now();
                    let outcome = issue_cluster(&mut client, op, trace);
                    collector.record_traced(
                        "closed",
                        &outcome,
                        Some(t0.elapsed().as_secs_f64()),
                        Some(trace),
                    );
                }
                reroutes.fetch_add(client.reroutes(), Ordering::Relaxed);
            });
        }
        if !chaos_addrs.is_empty() {
            for (index, client) in plan.chaos.iter().enumerate() {
                let chaos_unexpected = &chaos_unexpected;
                let addr = chaos_addrs[index % chaos_addrs.len()];
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
        }
        if let Some((_, kill_plan, breaker)) = kill {
            let chaos_unexpected = &chaos_unexpected;
            scope.spawn(move || {
                sleep_until(started, kill_plan.at_ms);
                let t0 = Instant::now();
                let outcome = match breaker.kill() {
                    Ok(()) => "killed",
                    Err(e) => {
                        eprintln!("shard-killer: {e}");
                        chaos_unexpected.fetch_add(1, Ordering::Relaxed);
                        "kill_failed"
                    }
                };
                collector.record(
                    "chaos:shard_killer",
                    outcome,
                    Some(t0.elapsed().as_secs_f64()),
                );
                if let Some(after_ms) = kill_plan.restart_after_ms {
                    sleep_until(started, kill_plan.at_ms.saturating_add(after_ms));
                    let t0 = Instant::now();
                    let outcome = match breaker.restart() {
                        Ok(()) => "restarted",
                        Err(e) => {
                            eprintln!("shard-killer: {e}");
                            chaos_unexpected.fetch_add(1, Ordering::Relaxed);
                            "restart_failed"
                        }
                    };
                    collector.record(
                        "chaos:shard_killer",
                        outcome,
                        Some(t0.elapsed().as_secs_f64()),
                    );
                }
            });
        }
        for (index, arrival) in plan.big_instance.iter().enumerate() {
            let reroutes = &reroutes;
            scope.spawn(move || {
                sleep_until(started, arrival.at_ms);
                let trace = trace_id(fingerprint, "big-instance", index as u64);
                let mut client = cluster_client(
                    shards,
                    fingerprint.wrapping_mul(31).wrapping_add(index as u64),
                    180_000,
                );
                let t0 = Instant::now();
                let outcome = issue_cluster(&mut client, &arrival.op, trace);
                collector.record_traced(
                    "big-instance",
                    &outcome,
                    Some(t0.elapsed().as_secs_f64()),
                    Some(trace),
                );
                reroutes.fetch_add(client.reroutes(), Ordering::Relaxed);
            });
        }
        for (index, arrival) in plan.open_loop.iter().enumerate() {
            sleep_until(started, arrival.at_ms);
            let reroutes = &reroutes;
            scope.spawn(move || {
                let trace = trace_id(fingerprint, "open", index as u64);
                let mut client = cluster_client(
                    shards,
                    fingerprint.rotate_left(17).wrapping_add(index as u64),
                    30_000,
                );
                let t0 = Instant::now();
                let outcome = issue_cluster(&mut client, &arrival.op, trace);
                collector.record_traced(
                    "open",
                    &outcome,
                    Some(t0.elapsed().as_secs_f64()),
                    Some(trace),
                );
                reroutes.fetch_add(client.reroutes(), Ordering::Relaxed);
            });
        }
    });

    let (probe_consistent, probe_reroutes) =
        run_cluster_probe(shards, killed_for_good, plan, collector);
    reroutes.fetch_add(probe_reroutes, Ordering::Relaxed);

    // Scrape every shard that answers and sum the counters: the SLO
    // judgement (`bound_violations == 0`, hit-ratio floor) then covers
    // everything any surviving shard served.
    let mut scraped = 0u64;
    let mut daemon: Option<DaemonStats> = None;
    let mut peer_fill_hits = 0.0f64;
    let mut peer_fill_misses = 0.0f64;
    let mut trace_counters: Option<(u64, u64)> = None;
    for (index, shard) in shards.iter().enumerate() {
        let Some(addr) = resolve(shard) else { continue };
        let http = metrics_http.get(index).and_then(|h| h.as_deref());
        let Some(stats) = fetch_daemon_stats(addr, http) else {
            continue;
        };
        scraped += 1;
        let total = daemon.get_or_insert(DaemonStats {
            bound_checked: Some(0.0),
            bound_violations: Some(0.0),
            cache_hits: Some(0.0),
            cache_misses: Some(0.0),
            ..DaemonStats::default()
        });
        let add = |into: &mut Option<f64>, v: Option<f64>| {
            if let (Some(into), Some(v)) = (into.as_mut(), v) {
                *into += v;
            }
        };
        add(&mut total.bound_checked, stats.bound_checked);
        add(&mut total.bound_violations, stats.bound_violations);
        add(&mut total.cache_hits, stats.cache_hits);
        add(&mut total.cache_misses, stats.cache_misses);
        if let Some(exposition) = scrape_exposition(addr, http) {
            let scrape = parse_exposition(&exposition);
            peer_fill_hits += scrape.value("bfdn_peer_fill_hit_total", &[]).unwrap_or(0.0);
            peer_fill_misses += scrape
                .value("bfdn_peer_fill_miss_total", &[])
                .unwrap_or(0.0);
        }
        if let Some((recorded, dropped)) = Client::connect(addr)
            .ok()
            .and_then(|mut c| c.trace_spans(None).ok())
            .map(|t| (t.recorded, t.dropped))
        {
            let (r, d) = trace_counters.get_or_insert((0, 0));
            *r += recorded;
            *d += dropped;
        }
    }

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
        cluster: Some(ClusterStats {
            shards: shards.len() as u64,
            shards_scraped: scraped,
            peer_fill_hits,
            peer_fill_misses,
            reroutes: reroutes.load(Ordering::Relaxed),
            // Filled by the binary after the run when a fleet collector
            // was attached.
            fleet: None,
        }),
        pass: violations.is_empty(),
        violations,
    }
}

fn resolve(shard: &str) -> Option<SocketAddr> {
    shard.to_socket_addrs().ok().and_then(|mut a| a.next())
}

fn scrape_exposition(addr: SocketAddr, http: Option<&str>) -> Option<String> {
    match http {
        Some(http_addr) => crate::measure::scrape_http_metrics(http_addr).ok(),
        None => {
            let mut client = Client::connect(addr).ok()?;
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .ok()?;
            client.metrics().ok()
        }
    }
}

/// The cluster probe: the single-daemon cold/warm consistency check,
/// routed through a failover client, plus the peer-fill leg — a shard
/// that did *not* serve the probe must answer it with a byte-identical
/// cached copy pulled from the shard that did, without executing.
/// Returns `(all legs consistent, reroutes the probe client made)`.
fn run_cluster_probe(
    shards: &[String],
    killed_for_good: Option<usize>,
    plan: &Plan,
    collector: &Collector,
) -> (Option<bool>, u64) {
    let Ok((local, _)) = exec::run_spec(&plan.probe) else {
        collector.record("probe", "local_exec_failed", None);
        return (Some(false), 0);
    };
    let expected = local.payload_json();
    let mut client = cluster_client(shards, plan.fingerprint() ^ 0x70726f6265, 30_000);
    let issue = |client: &mut ClusterClient, expect_cached: bool| -> bool {
        let t0 = Instant::now();
        let (outcome, good) = match client.explore(&plan.probe) {
            Ok(result) => {
                let consistent =
                    result.payload_json() == expected && result.cached == expect_cached;
                (
                    if consistent { "ok" } else { "inconsistent" }.to_string(),
                    consistent,
                )
            }
            Err(e) => (classify_cluster_error(&e), false),
        };
        collector.record("probe", &outcome, Some(t0.elapsed().as_secs_f64()));
        good
    };
    let cold = issue(&mut client, false);
    let warm = issue(&mut client, true);

    // Peer-fill leg: ask a different, live shard directly (plain
    // client, no ring) — it must copy the serving shard's cached result
    // rather than recompute, which is what bumps its
    // `bfdn_peer_fill_hit_total`.
    let serving = client.last_shard().map(str::to_string);
    let t0 = Instant::now();
    let peer_outcome = match &serving {
        None => "peer_fill_unroutable".to_string(),
        Some(serving) => {
            let target = shards
                .iter()
                .enumerate()
                .find(|&(index, addr)| addr != serving && killed_for_good != Some(index));
            match target {
                // A 1-shard "cluster" has no peer to fill from; that is
                // a configuration without the feature, not a failure.
                None => "peer_fill_no_peer".to_string(),
                Some((_, target)) => match Client::connect(target).and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_secs(30)))?;
                    c.explore(plan.probe.clone())
                }) {
                    Ok(result) if result.payload_json() == expected && result.cached => {
                        "ok".to_string()
                    }
                    Ok(_) => "peer_fill_inconsistent".to_string(),
                    Err(e) => classify_error(&e),
                },
            }
        }
    };
    let peer_ok = peer_outcome == "ok" || peer_outcome == "peer_fill_no_peer";
    collector.record("probe", &peer_outcome, Some(t0.elapsed().as_secs_f64()));
    (Some(cold && warm && peer_ok), client.reroutes())
}
