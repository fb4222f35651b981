//! The JSON run report consumed by CI's `load-smoke` job and by
//! `sweep --loadgen-report`.
//!
//! One object per run: identity (profile, seed, plan fingerprint),
//! aggregate throughput, the SLO verdict with every violation named,
//! daemon-side facts from the scrape (including the span recorder's
//! recorded/dropped counters), and one entry per client class with its
//! outcome tallies, latency quantiles, and the trace ids of its slowest
//! operations — ready to drill into via `bfdn-request trace --id` or
//! the daemon's Perfetto export.

use crate::measure::{ClassSummary, DaemonStats};
use crate::run::RunOutcome;
use crate::workload::Plan;
use bfdn_obs::json::JsonObject;

/// Renders the full report. The field set is part of the tooling
/// contract: CI greps `pass`, `throughput_rps`, and the per-class
/// quantiles.
pub fn render(plan: &Plan, outcome: &RunOutcome, summaries: &[ClassSummary]) -> String {
    let mut o = JsonObject::new();
    o.str("profile", plan.profile.as_str())
        .u64("seed", plan.seed)
        .str("plan_fingerprint", &format!("{:016x}", plan.fingerprint()))
        .u64("planned_specs", plan.total_specs() as u64)
        .f64("duration_s", outcome.duration_s)
        .u64("workload_ops", outcome.workload_ops)
        .u64("workload_ok", outcome.workload_ok)
        .f64(
            "throughput_rps",
            if outcome.duration_s > 0.0 {
                outcome.workload_ops as f64 / outcome.duration_s
            } else {
                f64::NAN
            },
        )
        .u64("chaos_clients", plan.chaos.len() as u64)
        .u64("chaos_unexpected", outcome.chaos_unexpected);
    match outcome.probe_consistent {
        Some(v) => o.bool("probe_consistent", v),
        None => o.raw("probe_consistent", "null"),
    };
    match &outcome.daemon {
        Some(stats) => o.raw("daemon", &daemon_json(stats)),
        None => o.raw("daemon", "null"),
    };
    match outcome.trace_counters {
        Some((recorded, dropped)) => o
            .u64("trace_recorded", recorded)
            .u64("trace_dropped", dropped),
        None => o.raw("trace_recorded", "null").raw("trace_dropped", "null"),
    };
    o.raw("classes", &classes_json(summaries));
    o.raw("violations", &string_array(&outcome.violations));
    o.bool("pass", outcome.pass);
    o.finish()
}

fn daemon_json(stats: &DaemonStats) -> String {
    let mut o = JsonObject::new();
    for (key, value) in [
        ("bound_checked", stats.bound_checked),
        ("bound_violations", stats.bound_violations),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("resident_bytes", stats.resident_bytes),
        ("store_hits", stats.store_hits),
    ] {
        match value {
            Some(v) => o.f64(key, v),
            None => o.raw(key, "null"),
        };
    }
    match stats.cache_hit_ratio() {
        Some(ratio) => o.f64("cache_hit_ratio", ratio),
        None => o.raw("cache_hit_ratio", "null"),
    };
    o.finish()
}

fn classes_json(summaries: &[ClassSummary]) -> String {
    let mut out = String::from("[");
    for (i, class) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut outcomes = JsonObject::new();
        for (label, count) in &class.outcomes {
            outcomes.u64(label, *count);
        }
        let mut slow = String::from("[");
        for (i, entry) in class.slow_traces.iter().enumerate() {
            if i > 0 {
                slow.push(',');
            }
            let mut t = JsonObject::new();
            t.str("trace", &format!("{:016x}", entry.trace))
                .f64("latency_s", entry.latency_s);
            slow.push_str(&t.finish());
        }
        slow.push(']');
        let mut o = JsonObject::new();
        o.str("class", &class.class)
            .u64("count", class.count)
            .u64("ok", class.ok)
            .raw("outcomes", &outcomes.finish())
            .raw("slow_traces", &slow)
            .u64("observed", class.observed)
            .f64("mean_s", class.mean_s)
            .f64("p50_s", class.p50_s)
            .f64("p95_s", class.p95_s)
            .f64("p99_s", class.p99_s);
        out.push_str(&o.finish());
    }
    out.push(']');
    out
}

fn string_array(values: &[String]) -> String {
    let mut out = String::from("[");
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        bfdn_obs::json::escape_into(&mut out, value);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Collector;
    use crate::workload::Profile;
    use bfdn_service::jsonval::Json;

    #[test]
    fn report_round_trips_through_the_workspace_json_parser() {
        let plan = Plan::generate(&Profile::Quick.config(), 1);
        let collector = Collector::new();
        for i in 0..10u64 {
            collector.record_traced("open", "ok", Some(0.004 + i as f64 / 1000.0), Some(i | 1));
        }
        collector.record("open", "error:busy", None);
        let outcome = RunOutcome {
            duration_s: 2.5,
            workload_ops: 11,
            workload_ok: 10,
            chaos_unexpected: 0,
            daemon: Some(DaemonStats {
                bound_checked: Some(8.0),
                bound_violations: Some(0.0),
                cache_hits: Some(3.0),
                cache_misses: Some(7.0),
                resident_bytes: Some(2048.0),
                store_hits: Some(5.0),
            }),
            probe_consistent: Some(true),
            trace_counters: Some((42, 0)),
            violations: vec!["example \"quoted\" violation".into()],
            pass: false,
        };
        let text = render(&plan, &outcome, &collector.snapshot());

        let json = Json::parse(&text).expect("report is valid JSON");
        assert_eq!(json.get("profile").and_then(Json::as_str), Some("quick"));
        assert_eq!(json.get("seed").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("pass").and_then(Json::as_bool), Some(false));
        assert_eq!(
            json.get("throughput_rps").and_then(Json::as_f64),
            Some(11.0 / 2.5)
        );
        assert_eq!(
            json.get("probe_consistent").and_then(Json::as_bool),
            Some(true)
        );
        let daemon = json.get("daemon").expect("daemon object");
        assert_eq!(
            daemon.get("bound_violations").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            daemon.get("cache_hit_ratio").and_then(Json::as_f64),
            Some(0.3)
        );
        assert_eq!(
            daemon.get("resident_bytes").and_then(Json::as_f64),
            Some(2048.0)
        );
        assert_eq!(daemon.get("store_hits").and_then(Json::as_f64), Some(5.0));
        let classes = json.get("classes").and_then(Json::as_arr).expect("classes");
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].get("class").and_then(Json::as_str), Some("open"));
        assert_eq!(classes[0].get("count").and_then(Json::as_u64), Some(11));
        assert_eq!(
            classes[0]
                .get("outcomes")
                .and_then(|o| o.get("error:busy"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("trace_recorded").and_then(Json::as_u64), Some(42));
        assert_eq!(json.get("trace_dropped").and_then(Json::as_u64), Some(0));
        let slow = classes[0]
            .get("slow_traces")
            .and_then(Json::as_arr)
            .expect("slow_traces");
        assert_eq!(slow.len(), 5, "top five slowest survive");
        // Slowest first: the i=9 sample (0.013s, trace id 9).
        assert_eq!(
            slow[0].get("trace").and_then(Json::as_str),
            Some("0000000000000009")
        );
        assert_eq!(
            slow[0].get("latency_s").and_then(Json::as_f64),
            Some(0.004 + 9.0 / 1000.0)
        );
        let violations = json
            .get("violations")
            .and_then(Json::as_arr)
            .expect("violations");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].as_str(), Some("example \"quoted\" violation"));
        // The fingerprint is stable across renders of the same plan.
        let again = render(&plan, &outcome, &collector.snapshot());
        assert_eq!(
            Json::parse(&again)
                .unwrap()
                .get("plan_fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string),
            json.get("plan_fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
        );
    }
}
