//! A standard cross-product sweep that can run locally or be routed
//! through a `bfdn-serve` daemon — with byte-identical output either
//! way.
//!
//! The sweep's table is built purely from [`ExploreResult`] payloads,
//! and those payloads are deterministic in their spec (seeded instance
//! generation, deterministic explorers) and JSON-exact on the wire
//! (`u64` counters verbatim; `f64` via the shortest-round-trip repr that
//! [`bfdn_service::protocol::wire_f64`] pins down). So
//! [`run_local`] and [`run_via_service`] produce byte-identical
//! [`results_table`] CSVs — the `service_determinism` integration test
//! and the CI service smoke job both assert exactly that, which is what
//! makes the daemon's content-addressed cache trustworthy.

use crate::{parallel, Scale, Table};
use bfdn_service::client::Client;
use bfdn_service::protocol::{wire_f64, ExploreResult, ExploreSpec};

/// The standard sweep grid: `algorithms × families × k × seeds` at one
/// scale-dependent size, in deterministic nesting order (24 specs).
/// [`Scale::Huge`] appends the [`huge_specs`] million-node requests.
pub fn standard_specs(scale: Scale) -> Vec<ExploreSpec> {
    let n = scale.size(2000) as u64;
    let mut specs = Vec::new();
    for algo in ["bfdn", "cte"] {
        for family in ["comb", "random-recursive", "binary"] {
            for k in [2u64, 8] {
                for seed in 0..2u64 {
                    specs.push(ExploreSpec::new(algo, family, n, k, seed));
                }
            }
        }
    }
    if scale == Scale::Huge {
        specs.extend(huge_specs());
    }
    specs
}

/// The million-node requests the huge sweep adds: single instances near
/// the top of the daemon's validation envelope (n = 10⁶ against the
/// 2·10⁶ cap), on the shallow families where that size is tractable.
/// Routed through `--via-service` each is one giant request, run on a
/// single daemon worker while its bound checker re-verifies the
/// Theorem 1 margin.
pub fn huge_specs() -> Vec<ExploreSpec> {
    vec![
        ExploreSpec::new("bfdn", "random-recursive", 1_000_000, 1024, 0),
        ExploreSpec::new("bfdn", "binary", 1_000_000, 4096, 0),
    ]
}

/// Runs every spec on this process's worker threads (the same
/// [`parallel`] substrate the daemon's batch fan-out uses).
///
/// # Errors
///
/// Returns the first spec's failure, formatted with the spec it belongs
/// to.
pub fn run_local(specs: &[ExploreSpec]) -> Result<Vec<ExploreResult>, String> {
    parallel::par_map(specs, |spec| {
        bfdn_service::exec::run_spec(spec)
            .map(|(result, _manifest)| result)
            .map_err(|e| format!("{}: {e}", spec.canonical()))
    })
    .into_iter()
    .collect()
}

/// Routes the whole sweep through a serving daemon as one batch request;
/// returns the results (in request order) plus the server's cache
/// hit/miss split.
///
/// # Errors
///
/// Formats transport and server errors as strings.
pub fn run_via_service(
    addr: &str,
    specs: Vec<ExploreSpec>,
) -> Result<(Vec<ExploreResult>, u64, u64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client.batch(specs).map_err(|e| e.to_string())
}

/// Scrapes the daemon's metrics over the wire protocol and condenses
/// the series a sweep run cares about — request mix, cache hit/miss
/// split, the persistent-store tier, and the bound-margin aggregates
/// re-checking Theorem 1 / Lemma 2 across everything the daemon has
/// served.
///
/// # Errors
///
/// Formats transport and server errors as strings.
pub fn service_telemetry_summary(addr: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let text = client.metrics().map_err(|e| e.to_string())?;
    let interesting = [
        "bfdn_requests_total",
        "bfdn_cache_hits_total",
        "bfdn_cache_misses_total",
        "bfdn_cache_entries",
        "bfdn_store_", // the persistent-store tier: hits, records, bytes
        "bfdn_bound_checked_total",
        "bfdn_bound_violations_total",
        "bfdn_bound_margin_worst",
    ];
    let picked: Vec<&str> = text
        .lines()
        .filter(|line| {
            !line.starts_with('#') && interesting.iter().any(|name| line.starts_with(name))
        })
        .collect();
    Ok(picked.join("\n"))
}

/// Summarises a `bfdn-load --report-json` file next to a sweep run, so
/// one invocation can show both the correctness grid and how the same
/// daemon held up under load. Accepts the report text, returns the
/// lines to print, or an error naming what is malformed.
pub fn loadgen_report_summary(text: &str) -> Result<String, String> {
    use bfdn_service::jsonval::Json;
    let json = Json::parse(text).map_err(|e| format!("report is not valid JSON: {e}"))?;
    let str_of = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("report missing `{key}`"))
    };
    let profile = str_of("profile")?;
    let seed = json
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("report missing `seed`")?;
    let pass = json
        .get("pass")
        .and_then(Json::as_bool)
        .ok_or("report missing `pass`")?;
    let mut lines = vec![format!(
        "load: profile={profile} seed={seed} verdict={}",
        if pass { "pass" } else { "FAIL" }
    )];
    if let (Some(ops), Some(ok), Some(rps)) = (
        json.get("workload_ops").and_then(Json::as_u64),
        json.get("workload_ok").and_then(Json::as_u64),
        json.get("throughput_rps").and_then(Json::as_f64),
    ) {
        lines.push(format!("load: {ok}/{ops} ops ok at {rps:.1} req/s"));
    }
    if let Some(daemon) = json.get("daemon").filter(|d| !d.is_null()) {
        let violations = daemon.get("bound_violations").and_then(Json::as_f64);
        let checked = daemon.get("bound_checked").and_then(Json::as_f64);
        if let (Some(violations), Some(checked)) = (violations, checked) {
            lines.push(format!(
                "load: bounds {checked:.0} checked, {violations:.0} violated"
            ));
        }
        if let Some(ratio) = daemon.get("cache_hit_ratio").and_then(Json::as_f64) {
            lines.push(format!("load: cache hit ratio {ratio:.2}"));
        }
    }
    for class in json
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let (Some(name), Some(count)) = (
            class.get("class").and_then(Json::as_str),
            class.get("count").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let quantile = |key: &str| {
            class
                .get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite())
                .map(|v| format!("{:.1}ms", v * 1e3))
                .unwrap_or_else(|| "n/a".into())
        };
        lines.push(format!(
            "load: {name:<24} count={count:<5} p50={} p99={}",
            quantile("p50_s"),
            quantile("p99_s")
        ));
        for entry in class
            .get("slow_traces")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let (Some(trace), Some(latency)) = (
                entry.get("trace").and_then(Json::as_str),
                entry.get("latency_s").and_then(Json::as_f64),
            ) else {
                continue;
            };
            lines.push(format!(
                "load:   slowest {:.1}ms trace={trace}",
                latency * 1e3
            ));
        }
    }
    if let (Some(recorded), Some(dropped)) = (
        json.get("trace_recorded").and_then(Json::as_u64),
        json.get("trace_dropped").and_then(Json::as_u64),
    ) {
        lines.push(format!(
            "load: daemon spans recorded={recorded} dropped={dropped}"
        ));
    }
    Ok(lines.join("\n"))
}

/// Renders results as the sweep table, one row per spec in input order.
pub fn results_table(results: &[ExploreResult]) -> Table {
    let mut t = Table::new(
        "sweep: rounds vs the Theorem 1 envelope across the standard grid",
        &[
            "algorithm",
            "family",
            "n",
            "k",
            "seed",
            "nodes",
            "depth",
            "max_degree",
            "rounds",
            "moves",
            "edge_events",
            "bound",
            "margin",
        ],
    );
    for r in results {
        t.row(vec![
            r.spec.algorithm.clone(),
            r.spec.family.clone(),
            r.spec.n.to_string(),
            r.spec.k.to_string(),
            r.spec.seed.to_string(),
            r.nodes.to_string(),
            r.depth.to_string(),
            r.max_degree.to_string(),
            r.metrics.rounds.to_string(),
            r.metrics.moves.to_string(),
            r.metrics.edge_events.to_string(),
            wire_f64(r.bound),
            wire_f64(r.margin),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_grid_is_deterministic_and_well_formed() {
        let specs = standard_specs(Scale::Quick);
        assert_eq!(specs.len(), 24);
        assert_eq!(specs, standard_specs(Scale::Quick));
        for spec in &specs {
            bfdn_service::exec::validate(spec).expect("grid spec validates");
        }
        // Full scale only changes n.
        let full = standard_specs(Scale::Full);
        assert!(full.iter().all(|s| s.n == 2000));
    }

    #[test]
    fn local_sweep_fills_the_table_in_grid_order() {
        let specs: Vec<ExploreSpec> = standard_specs(Scale::Quick).into_iter().take(4).collect();
        let results = run_local(&specs).expect("local sweep");
        let t = results_table(&results);
        assert_eq!(t.len(), 4);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(t.cell(i, t.col("algorithm")), spec.algorithm);
            assert_eq!(t.cell(i, t.col("seed")), spec.seed.to_string());
            let margin: f64 = t.cell(i, t.col("margin")).parse().unwrap();
            assert!(margin >= 0.0, "Theorem 1 envelope holds on row {i}");
        }
    }

    #[test]
    fn loadgen_report_summary_extracts_the_verdict_and_quantiles() {
        let report = r#"{"profile":"quick","seed":7,"workload_ops":48,"workload_ok":48,
            "throughput_rps":24.0,
            "daemon":{"bound_checked":40,"bound_violations":0,"cache_hit_ratio":0.25},
            "trace_recorded":96,"trace_dropped":0,
            "classes":[{"class":"open","count":24,"p50_s":0.004,"p99_s":0.021,
                        "slow_traces":[{"trace":"00000000000000ab","latency_s":0.021}]},
                       {"class":"closed","count":24,"p50_s":0.003,"p99_s":null}],
            "pass":true}"#;
        let summary = loadgen_report_summary(report).expect("well-formed report");
        assert!(summary.contains("profile=quick seed=7 verdict=pass"));
        assert!(summary.contains("48/48 ops ok at 24.0 req/s"));
        assert!(summary.contains("bounds 40 checked, 0 violated"));
        assert!(summary.contains("cache hit ratio 0.25"));
        assert!(summary.contains("open"));
        assert!(summary.contains("p50=4.0ms"));
        assert!(summary.contains("p99=n/a"), "null quantile renders as n/a");
        assert!(summary.contains("slowest 21.0ms trace=00000000000000ab"));
        assert!(summary.contains("daemon spans recorded=96 dropped=0"));

        assert!(loadgen_report_summary("not json").is_err());
        assert!(
            loadgen_report_summary(r#"{"profile":"quick"}"#)
                .unwrap_err()
                .contains("seed"),
            "missing fields are named"
        );
    }
}
