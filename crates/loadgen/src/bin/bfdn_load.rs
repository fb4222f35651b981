//! `bfdn-load` — drive a deterministic load/chaos plan against a
//! running `bfdn-serve`, or against a shard cluster it spawns itself.
//!
//! ```text
//! bfdn-load [--addr HOST:PORT] [--profile quick|standard|chaos|flood]
//!           [--seed N] [--report-json PATH] [--metrics-http HOST:PORT]
//!           [--resident-budget BYTES]
//!           [--cluster-shards N --shard-bin PATH [--base-port P]
//!            [--kill-shard IDX [--kill-at-ms MS] [--restart-after-ms MS]]
//!            [--fleet-metrics HOST:PORT]]
//! ```
//!
//! The request sequence is a pure function of `(profile, seed)`; the
//! wall clock only paces it. `--metrics-http` points at the daemon's
//! `--metrics-addr` so the end-of-run SLO check can scrape
//! `bfdn_bound_violations_total` and the cache counters the way a real
//! monitoring stack would; without it the exposition is fetched over
//! the wire protocol. The JSON report goes to `--report-json` (and a
//! human summary to stderr). Exit codes: `0` SLO pass, `1` SLO fail,
//! `2` usage error. Hand-rolled flag parsing — the workspace carries no
//! CLI dependency.
//!
//! **Cluster mode** (`--cluster-shards N`): the harness spawns N
//! `bfdn-serve` children from `--shard-bin`, each listing the others as
//! peers (shard `i` serves on `base_port + 2i`, exports metrics on
//! `base_port + 2i + 1`), routes the same plan through ring-routed
//! failover clients, and tears the cluster down afterwards. With
//! `--kill-shard IDX` the shard-killer persona SIGKILLs that child
//! `--kill-at-ms` into the storm and, when `--restart-after-ms` is
//! given, respawns it on the same address — the SLOs (including
//! `bfdn_bound_violations_total == 0`, summed over every shard that
//! still answers) must hold regardless: the serving-layer analogue of
//! the paper's Proposition 7 breakdown tolerance.
//!
//! With `--fleet-metrics` the harness also runs the federated fleet
//! collector over the shards for the storm's duration and reads the
//! aggregated endpoint back into the report (`cluster.fleet`): shards
//! up, fleet-worst bound margin, summed bound violations.
//!
//! The `flood` profile is the cache-busting storm: every flood spec is
//! unique within the run, sized to overflow a daemon running with
//! `--store-budget-bytes`, and followed by a reheat leg expecting the
//! oldest (evicted) specs back cached and byte-identical — from the
//! disk tier when a store is attached. Pass `--resident-budget BYTES`
//! (normally the daemon's own budget) to additionally fail the run if
//! `bfdn_cache_resident_bytes` ever ends the storm above it. Flood is
//! single-daemon only: the reheat leg targets one store-backed daemon.
//!
//! The post-storm probe expects its spec cold; its seed is derived from
//! `--seed`, so re-running the same seed against a still-warm daemon
//! fails the probe's cold expectation by design. Use a fresh seed (or a
//! fresh daemon) per run.

use bfdn_cluster::fleet::{self, FleetConfig};
use bfdn_loadgen::{
    execute, execute_cluster, report, ChildShard, Collector, FleetFacts, Plan, Profile,
    ShardKillPlan,
};
use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

struct Invocation {
    addr: String,
    profile: Profile,
    seed: u64,
    report_json: Option<String>,
    metrics_http: Option<String>,
    cluster_shards: Option<usize>,
    shard_bin: Option<String>,
    base_port: u16,
    kill_shard: Option<usize>,
    kill_at_ms: u64,
    restart_after_ms: Option<u64>,
    fleet_metrics: Option<String>,
    resident_budget: Option<u64>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut invocation = Invocation {
        addr: "127.0.0.1:4077".into(),
        profile: Profile::Quick,
        seed: 1,
        report_json: None,
        metrics_http: None,
        cluster_shards: None,
        shard_bin: None,
        base_port: 4270,
        kill_shard: None,
        kill_at_ms: 500,
        restart_after_ms: None,
        fleet_metrics: None,
        resident_budget: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => invocation.addr = value("--addr")?,
            "--profile" => {
                let v = value("--profile")?;
                invocation.profile = Profile::parse(&v)
                    .ok_or_else(|| format!("bad --profile `{v}` (quick|standard|chaos|flood)"))?;
            }
            "--resident-budget" => {
                let v = value("--resident-budget")?;
                invocation.resident_budget = Some(
                    v.parse()
                        .map_err(|_| format!("bad --resident-budget `{v}`"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                invocation.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--report-json" => invocation.report_json = Some(value("--report-json")?),
            "--metrics-http" => invocation.metrics_http = Some(value("--metrics-http")?),
            "--cluster-shards" => {
                let v = value("--cluster-shards")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --cluster-shards `{v}`"))?;
                if n < 2 {
                    return Err("--cluster-shards needs at least 2".into());
                }
                invocation.cluster_shards = Some(n);
            }
            "--shard-bin" => invocation.shard_bin = Some(value("--shard-bin")?),
            "--base-port" => {
                let v = value("--base-port")?;
                invocation.base_port = v.parse().map_err(|_| format!("bad --base-port `{v}`"))?;
            }
            "--kill-shard" => {
                let v = value("--kill-shard")?;
                invocation.kill_shard =
                    Some(v.parse().map_err(|_| format!("bad --kill-shard `{v}`"))?);
            }
            "--kill-at-ms" => {
                let v = value("--kill-at-ms")?;
                invocation.kill_at_ms = v.parse().map_err(|_| format!("bad --kill-at-ms `{v}`"))?;
            }
            "--restart-after-ms" => {
                let v = value("--restart-after-ms")?;
                invocation.restart_after_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --restart-after-ms `{v}`"))?,
                );
            }
            "--fleet-metrics" => invocation.fleet_metrics = Some(value("--fleet-metrics")?),
            other => {
                return Err(format!(
                    "unknown flag `{other}` (try --addr --profile --seed \
                     --report-json --metrics-http --resident-budget \
                     --cluster-shards --shard-bin \
                     --base-port --kill-shard --kill-at-ms --restart-after-ms \
                     --fleet-metrics)"
                ))
            }
        }
    }
    if invocation.cluster_shards.is_some() && invocation.shard_bin.is_none() {
        return Err("--cluster-shards needs --shard-bin PATH".into());
    }
    if invocation.cluster_shards.is_none()
        && (invocation.shard_bin.is_some() || invocation.kill_shard.is_some())
    {
        return Err("--shard-bin/--kill-shard only make sense with --cluster-shards".into());
    }
    if invocation.cluster_shards.is_none() && invocation.fleet_metrics.is_some() {
        return Err("--fleet-metrics only makes sense with --cluster-shards".into());
    }
    if invocation.cluster_shards.is_some() && invocation.profile == Profile::Flood {
        return Err(
            "--profile flood is single-daemon only (its reheat leg targets one \
             store-backed daemon)"
                .into(),
        );
    }
    if invocation.cluster_shards.is_some() && invocation.resident_budget.is_some() {
        return Err("--resident-budget only makes sense against a single daemon".into());
    }
    if let (Some(kill), Some(count)) = (invocation.kill_shard, invocation.cluster_shards) {
        if kill >= count {
            return Err(format!(
                "--kill-shard {kill} out of range for {count} shards"
            ));
        }
    }
    Ok(invocation)
}

fn run_cluster(
    invocation: &Invocation,
    plan: &Plan,
    collector: &Collector,
) -> Result<bfdn_loadgen::RunOutcome, String> {
    let count = invocation.cluster_shards.expect("cluster mode");
    let bin = invocation.shard_bin.as_deref().expect("checked in parse");
    let addrs: Vec<String> = (0..count)
        .map(|i| format!("127.0.0.1:{}", invocation.base_port + 2 * i as u16))
        .collect();
    let metrics: Vec<Option<String>> = (0..count)
        .map(|i| {
            Some(format!(
                "127.0.0.1:{}",
                invocation.base_port + 2 * i as u16 + 1
            ))
        })
        .collect();

    let mut shards: Vec<ChildShard> = Vec::with_capacity(count);
    for (i, addr) in addrs.iter().enumerate() {
        let peers: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a.clone())
            .collect();
        let args = vec![
            "--addr".to_string(),
            addr.clone(),
            "--metrics-addr".to_string(),
            metrics[i].clone().expect("metrics addr"),
            "--peers".to_string(),
            peers.join(","),
        ];
        match ChildShard::spawn(bin, &args, addr) {
            Ok(shard) => shards.push(shard),
            Err(e) => {
                for mut shard in shards {
                    shard.stop();
                }
                return Err(format!("shard {i}: {e}"));
            }
        }
        eprintln!("bfdn-load: shard {i} serving on {addr}");
    }

    // The fleet collector watches the shards for the storm's whole
    // duration, so its shards-up gauge reflects the kill/restart
    // timeline, not just a final poll.
    const FLEET_INTERVAL_MS: u64 = 250;
    let fleet = match &invocation.fleet_metrics {
        Some(addr) => {
            let mut fleet_config = FleetConfig::new(addr.clone(), addrs.clone());
            fleet_config.interval_ms = FLEET_INTERVAL_MS;
            match fleet::spawn(fleet_config) {
                Ok(handle) => {
                    eprintln!(
                        "bfdn-load: fleet collector on http://{}/metrics",
                        handle.addr()
                    );
                    Some(handle)
                }
                Err(e) => {
                    for mut shard in shards {
                        shard.stop();
                    }
                    return Err(format!("fleet collector on {addr}: {e}"));
                }
            }
        }
        None => None,
    };

    let config = invocation.profile.config();
    let mut outcome = match invocation.kill_shard {
        Some(index) => {
            let kill_plan = ShardKillPlan {
                at_ms: invocation.kill_at_ms,
                restart_after_ms: invocation.restart_after_ms,
            };
            eprintln!(
                "bfdn-load: shard-killer armed against shard {index} at t={}ms{}",
                kill_plan.at_ms,
                match kill_plan.restart_after_ms {
                    Some(ms) => format!(" (restart {ms}ms later)"),
                    None => " (no restart)".into(),
                }
            );
            execute_cluster(
                &addrs,
                &metrics,
                plan,
                &config.slo,
                collector,
                Some((index, kill_plan, &mut shards[index])),
            )
        }
        None => execute_cluster(&addrs, &metrics, plan, &config.slo, collector, None),
    };

    if let Some(handle) = fleet {
        // Give the collector two full scrape rounds to observe the
        // post-storm state (restarted shards back up, final counters),
        // then read the aggregated endpoint back while the shards are
        // still alive.
        std::thread::sleep(Duration::from_millis(2 * FLEET_INTERVAL_MS + 100));
        match bfdn_loadgen::measure::scrape_http_metrics(&handle.addr().to_string()) {
            Ok(text) => {
                let facts = FleetFacts::from_exposition(&text);
                eprintln!(
                    "bfdn-load: fleet says shards_up={} worst_margin={} bound_violations={}",
                    facts.shards_up,
                    facts
                        .worst_margin
                        .map_or("n/a".to_string(), |v| format!("{v:.2}")),
                    facts
                        .bound_violations
                        .map_or("n/a".to_string(), |v| format!("{v}")),
                );
                if let Some(cluster) = outcome.cluster.as_mut() {
                    cluster.fleet = Some(facts);
                }
            }
            Err(e) => eprintln!("bfdn-load: fleet scrape failed: {e}"),
        }
        handle.stop();
    }
    for mut shard in shards {
        shard.stop();
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let invocation = match parse(std::env::args().skip(1)) {
        Ok(invocation) => invocation,
        Err(e) => {
            eprintln!("bfdn-load: {e}");
            return ExitCode::from(2);
        }
    };

    let mut config = invocation.profile.config();
    if let Some(budget) = invocation.resident_budget {
        config.slo.max_resident_bytes = Some(budget);
    }
    let plan = Plan::generate(&config, invocation.seed);
    eprintln!(
        "bfdn-load: profile={} seed={} fingerprint={:016x} — {} workload specs, {} chaos clients",
        plan.profile.as_str(),
        plan.seed,
        plan.fingerprint(),
        plan.total_specs(),
        plan.chaos.len()
    );

    let collector = Collector::new();
    let outcome = if invocation.cluster_shards.is_some() {
        match run_cluster(&invocation, &plan, &collector) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("bfdn-load: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let addr = match invocation
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
        {
            Some(addr) => addr,
            None => {
                eprintln!("bfdn-load: cannot resolve `{}`", invocation.addr);
                return ExitCode::from(2);
            }
        };
        execute(
            addr,
            invocation.metrics_http.as_deref(),
            &plan,
            &config.slo,
            &collector,
        )
    };
    let summaries = collector.snapshot();

    for class in &summaries {
        eprintln!(
            "bfdn-load: {:<24} count={:<5} ok={:<5} p50={} p99={}",
            class.class,
            class.count,
            class.ok,
            fmt_latency(class.p50_s),
            fmt_latency(class.p99_s),
        );
        for entry in &class.slow_traces {
            eprintln!(
                "bfdn-load:   slowest {} trace={:016x}",
                fmt_latency(entry.latency_s),
                entry.trace
            );
        }
    }
    if let Some((recorded, dropped)) = outcome.trace_counters {
        eprintln!("bfdn-load: daemon spans recorded={recorded} dropped={dropped}");
    }
    if let Some(cluster) = &outcome.cluster {
        eprintln!(
            "bfdn-load: cluster {}/{} shards scraped, peer-fill hits={} misses={}, reroutes={}",
            cluster.shards_scraped,
            cluster.shards,
            cluster.peer_fill_hits,
            cluster.peer_fill_misses,
            cluster.reroutes
        );
    }
    eprintln!(
        "bfdn-load: {} ops in {:.2}s ({:.1} req/s), {} chaos outcomes unexplained",
        outcome.workload_ops,
        outcome.duration_s,
        outcome.workload_ops as f64 / outcome.duration_s.max(1e-9),
        outcome.chaos_unexpected
    );
    for violation in &outcome.violations {
        eprintln!("bfdn-load: SLO violation: {violation}");
    }

    let text = report::render(&plan, &outcome, &summaries);
    match &invocation.report_json {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{text}\n")) {
                eprintln!("bfdn-load: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bfdn-load: report written to {path}");
        }
        None => println!("{text}"),
    }

    if outcome.pass {
        eprintln!("bfdn-load: SLO pass");
        ExitCode::SUCCESS
    } else {
        eprintln!("bfdn-load: SLO FAIL");
        ExitCode::FAILURE
    }
}

fn fmt_latency(seconds: f64) -> String {
    if seconds.is_finite() {
        format!("{:.1}ms", seconds * 1e3)
    } else {
        "n/a".into()
    }
}
