//! `bfdn-load` — drive a deterministic load/chaos plan against a
//! running `bfdn-serve`.
//!
//! ```text
//! bfdn-load [--addr HOST:PORT] [--profile quick|standard|chaos|flood]
//!           [--seed N] [--report-json PATH] [--metrics-http HOST:PORT]
//!           [--resident-budget BYTES]
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
//! The `flood` profile is the cache-busting storm: every flood spec is
//! unique within the run, sized to overflow a daemon running with
//! `--store-budget-bytes`, and followed by a reheat leg expecting the
//! oldest (evicted) specs back cached and byte-identical — from the
//! disk tier when a store is attached. Pass `--resident-budget BYTES`
//! (normally the daemon's own budget) to additionally fail the run if
//! `bfdn_cache_resident_bytes` ever ends the storm above it.
//!
//! The post-storm probe expects its spec cold; its seed is derived from
//! `--seed`, so re-running the same seed against a still-warm daemon
//! fails the probe's cold expectation by design. Use a fresh seed (or a
//! fresh daemon) per run.

use bfdn_loadgen::{execute, report, Collector, Plan, Profile};
use std::net::ToSocketAddrs;
use std::process::ExitCode;

struct Invocation {
    addr: String,
    profile: Profile,
    seed: u64,
    report_json: Option<String>,
    metrics_http: Option<String>,
    resident_budget: Option<u64>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut invocation = Invocation {
        addr: "127.0.0.1:4077".into(),
        profile: Profile::Quick,
        seed: 1,
        report_json: None,
        metrics_http: None,
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
            other => {
                return Err(format!(
                    "unknown flag `{other}` (try --addr --profile --seed \
                     --report-json --metrics-http --resident-budget)"
                ))
            }
        }
    }
    Ok(invocation)
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
    let outcome = execute(
        addr,
        invocation.metrics_http.as_deref(),
        &plan,
        &config.slo,
        &collector,
    );
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
