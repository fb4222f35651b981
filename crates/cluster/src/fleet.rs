//! The fleet-level observability plane: a federated metrics collector
//! and a cross-shard trace puller.
//!
//! A cluster is N `bfdn-serve` daemons, each with its own `/metrics`
//! registry and span ring — operationally N disjoint stories. The
//! [`FleetCollector`] joins them: a scraper thread pulls every shard's
//! Prometheus exposition **over the wire protocol** (the `metrics`
//! request — no per-shard HTTP listener required) on a fixed interval
//! and folds it into a [`bfdn_obs::FleetAggregator`]; an HTTP thread
//! re-exposes the federation on one endpoint:
//!
//! - `GET /metrics` — every shard's series relabeled `{shard="addr"}`
//!   plus cluster rollups: summed counters, worst-over-fleet margin
//!   gauges, per-class p99 maxima, and `bfdn_shard_up` liveness with
//!   staleness marking (a SIGKILLed shard flips to `0` within one
//!   scrape interval instead of silently vanishing).
//! - `GET /trace/<16-hex-id>` — pulls the trace's spans from every
//!   shard's ring (the wire `trace` verb filters by the envelope id),
//!   stitches them into one cross-process tree via
//!   [`bfdn_service::stitch`], and answers with Perfetto-loadable
//!   Chrome trace-event JSON.
//!
//! The same helpers back `bfdn-cluster-proxy --fleet-metrics ADDR`
//! (proxyful deployments) and the standalone `bfdn-fleet` binary
//! (proxyless ones).

use bfdn_obs::tracing::parse_hex16;
use bfdn_obs::FleetAggregator;
use bfdn_service::client::Client;
use bfdn_service::protocol::TracePayload;
use bfdn_service::server::serve_http;
use bfdn_service::stitch::{stitch, to_chrome_json, ProcessSpans};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fleet-collector configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// HTTP listen address for the aggregated endpoint (port 0 picks a
    /// free one).
    pub addr: String,
    /// Wire addresses of every shard to scrape.
    pub shards: Vec<String>,
    /// Scrape interval in milliseconds.
    pub interval_ms: u64,
    /// Connect *and* read budget per shard probe, in milliseconds — a
    /// SIGKILLed shard costs at most this much per scrape round.
    pub timeout_ms: u64,
}

impl FleetConfig {
    /// A collector on `addr` over `shards` with the default 1s interval
    /// and 500ms per-probe budget.
    pub fn new(addr: impl Into<String>, shards: Vec<String>) -> Self {
        FleetConfig {
            addr: addr.into(),
            shards,
            interval_ms: 1_000,
            timeout_ms: 500,
        }
    }
}

/// Scrapes one shard's Prometheus exposition over the wire protocol.
/// `None` means the shard is down (connect, request, or decode failed)
/// — the caller marks it stale rather than erasing its series.
pub fn scrape_shard(shard: &str, timeout: Duration) -> Option<String> {
    let addr = shard.to_socket_addrs().ok()?.next()?;
    let mut client = Client::connect_timeout(&addr, timeout).ok()?;
    client.set_read_timeout(Some(timeout)).ok()?;
    client.metrics().ok()
}

/// Pulls one trace's spans from a shard's ring. `None` means the shard
/// was unreachable; an empty payload means it simply holds no spans for
/// the id.
pub fn shard_trace(shard: &str, trace: u64, timeout: Duration) -> Option<TracePayload> {
    let addr = shard.to_socket_addrs().ok()?.next()?;
    let mut client = Client::connect_timeout(&addr, timeout).ok()?;
    client.set_read_timeout(Some(timeout)).ok()?;
    client.trace_spans(Some(trace)).ok()
}

/// Pulls `trace` from every shard and stitches the fragments — plus an
/// optional local contribution (the proxy's own `proxy_forward` spans)
/// — into one cross-process tree. Unreachable shards are skipped; each
/// reachable shard contributes under its wire address as the `shard`
/// label, which is exactly what the proxy's bridge spans name as their
/// `target`.
pub fn fleet_trace(
    shards: &[String],
    trace: u64,
    timeout: Duration,
    local: Option<ProcessSpans>,
) -> TracePayload {
    let mut processes: Vec<ProcessSpans> = local.into_iter().collect();
    for shard in shards {
        if let Some(payload) = shard_trace(shard, trace, timeout) {
            processes.push(ProcessSpans::from_payload(shard, payload));
        }
    }
    stitch(&processes)
}

/// A running fleet collector; [`FleetHandle::stop`] shuts both threads
/// down.
pub struct FleetHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl FleetHandle {
    /// The bound HTTP address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals both threads and waits for them to exit.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts the collector: a scraper thread (first round immediately,
/// then every `interval_ms`) and an HTTP thread serving `/metrics` and
/// `/trace/<id>`.
///
/// # Errors
///
/// Propagates the HTTP bind failure.
pub fn spawn(config: FleetConfig) -> io::Result<FleetHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let aggregator = Arc::new(Mutex::new(FleetAggregator::new(config.shards.clone())));
    let stop = Arc::new(AtomicBool::new(false));
    let timeout = Duration::from_millis(config.timeout_ms.max(1));
    let interval = Duration::from_millis(config.interval_ms.max(10));

    let scraper = {
        let aggregator = Arc::clone(&aggregator);
        let stop = Arc::clone(&stop);
        let shards = config.shards.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for shard in &shards {
                    match scrape_shard(shard, timeout) {
                        Some(text) => aggregator.lock().expect("fleet").observe(shard, &text),
                        None => aggregator.lock().expect("fleet").mark_down(shard),
                    }
                }
                // Sleep in short slices so stop() returns promptly even
                // with long scrape intervals.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop.load(Ordering::SeqCst) {
                    let slice = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })
    };

    let http = {
        let aggregator = Arc::clone(&aggregator);
        let stop = Arc::clone(&stop);
        let shards = config.shards.clone();
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => serve_http(stream, |target| {
                    route(target, &aggregator, &shards, timeout)
                }),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return,
            }
        })
    };

    Ok(FleetHandle {
        addr,
        stop,
        threads: vec![scraper, http],
    })
}

/// Routes one HTTP request target: `/metrics` (aggregated exposition)
/// or `/trace/<16-hex-id>` (stitched Chrome trace-event JSON).
fn route(
    target: &str,
    aggregator: &Mutex<FleetAggregator>,
    shards: &[String],
    timeout: Duration,
) -> (&'static str, &'static str, String) {
    if target == "/metrics" || target.starts_with("/metrics?") {
        let mut body = aggregator.lock().expect("fleet").render();
        body.push_str(&fleet_build_info());
        return ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body);
    }
    if let Some(id) = target
        .strip_prefix("/trace/")
        .and_then(parse_hex16)
        .filter(|&id| id != 0)
    {
        let stitched = fleet_trace(shards, id, timeout, None);
        return (
            "200 OK",
            "application/json; charset=utf-8",
            to_chrome_json(&stitched),
        );
    }
    (
        "404 Not Found",
        "text/plain; charset=utf-8",
        "try /metrics or /trace/<16-hex-trace-id>\n".to_string(),
    )
}

/// The collector's own build identity, namespaced
/// `bfdn_fleet_build_info` so it cannot collide with the per-shard
/// `bfdn_build_info` series it re-exposes.
fn fleet_build_info() -> String {
    format!(
        "# HELP bfdn_fleet_build_info Build metadata of the fleet collector.\n\
         # TYPE bfdn_fleet_build_info gauge\n\
         bfdn_fleet_build_info{{revision=\"{}\",version=\"{}\"}} 1\n",
        bfdn_obs::git_revision().unwrap_or_else(|| "unknown".to_string()),
        env!("CARGO_PKG_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_service::protocol::ExploreSpec;
    use bfdn_service::server::{serve, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http_get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect fleet http");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read reply");
        body
    }

    #[test]
    fn collector_aggregates_two_live_shards_and_marks_the_dead_one_down() {
        let a = serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .expect("shard a");
        let b = serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .expect("shard b");
        let a_addr = a.addr().to_string();
        let b_addr = b.addr().to_string();

        // Distinct workloads so the summed rollup is distinguishable.
        let mut ca = Client::connect(a.addr()).expect("client a");
        ca.explore(ExploreSpec::new("bfdn", "comb", 80, 2, 1))
            .expect("run on a");
        let mut cb = Client::connect(b.addr()).expect("client b");
        cb.explore(ExploreSpec::new("bfdn", "comb", 80, 2, 2))
            .expect("run on b");
        cb.explore(ExploreSpec::new("bfdn", "comb", 80, 2, 3))
            .expect("run on b");

        // Third shard address nobody listens on: down from scrape one.
        let dead = "127.0.0.1:1".to_string();
        let handle = spawn(FleetConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec![a_addr.clone(), b_addr.clone(), dead.clone()],
            interval_ms: 50,
            timeout_ms: 200,
        })
        .expect("fleet collector");

        // One full scrape round is guaranteed after ~interval + probes.
        std::thread::sleep(Duration::from_millis(600));
        let body = http_get(handle.addr(), "/metrics");

        assert!(body.contains("bfdn_fleet_shards 3"));
        assert!(body.contains("bfdn_fleet_shards_up 2"));
        assert!(body.contains(&format!("bfdn_shard_up{{shard=\"{a_addr}\"}} 1")));
        assert!(body.contains(&format!("bfdn_shard_up{{shard=\"{dead}\"}} 0")));
        // Per-shard relabeled series plus the exact-sum rollup.
        assert!(body.contains(&format!(
            "bfdn_requests_total{{shard=\"{a_addr}\",type=\"explore\"}} 1"
        )));
        assert!(body.contains(&format!(
            "bfdn_requests_total{{shard=\"{b_addr}\",type=\"explore\"}} 2"
        )));
        assert!(body.contains("bfdn_requests_total{type=\"explore\"} 3"));
        // Margin rollup: worst over the fleet, finite once runs exist.
        assert!(body.contains("bfdn_bound_margin_worst{bound=\"theorem1_rounds\"}"));

        let missing = http_get(handle.addr(), "/nope");
        assert!(missing.contains("404"));

        handle.stop();
        ca.shutdown().expect("bye a");
        a.join().expect("drain a");
        cb.shutdown().expect("bye b");
        b.join().expect("drain b");
    }

    #[test]
    fn fleet_trace_stitches_rings_pulled_from_live_shards() {
        let peer = serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .expect("peer shard");
        let peer_addr = peer.addr().to_string();
        let home = serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            peers: vec![peer_addr.clone()],
            ..ServerConfig::default()
        })
        .expect("home shard");
        let home_addr = home.addr().to_string();

        let spec = ExploreSpec::new("bfdn", "comb", 90, 3, 5);
        let mut warm = Client::connect(peer.addr()).expect("warm client");
        warm.explore(spec.clone()).expect("warm the peer");

        let trace = 0x0ddba11c0ffee000u64 | 1;
        let mut client = Client::connect(home.addr()).expect("traced client");
        client.set_trace(Some(trace));
        assert!(client.explore(spec).expect("peer-filled").cached);

        let shards = vec![home_addr.clone(), peer_addr.clone()];
        let stitched = fleet_trace(&shards, trace, Duration::from_millis(500), None);
        assert_eq!(stitched.dropped, 0);
        assert_eq!(
            stitched.spans.iter().filter(|s| s.parent == 0).count(),
            1,
            "one tree across both processes"
        );
        let processes: std::collections::BTreeSet<_> = stitched
            .spans
            .iter()
            .filter_map(|s| s.attrs.iter().find(|(k, _)| k == "shard"))
            .map(|(_, v)| v.clone())
            .collect();
        assert!(processes.contains(&home_addr));
        assert!(processes.contains(&peer_addr));
        // And the export is Perfetto-shaped: both pids present.
        let chrome = to_chrome_json(&stitched);
        assert!(chrome.contains("\"pid\":1"));
        assert!(chrome.contains("\"pid\":2"));

        client.shutdown().expect("bye home");
        home.join().expect("drain home");
        warm.shutdown().expect("bye peer");
        peer.join().expect("drain peer");
    }
}
