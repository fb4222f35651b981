//! End-to-end tests of the serving daemon over real loopback sockets:
//! served results match direct execution byte for byte, backpressure
//! answers `Busy` instead of blocking, graceful shutdown drains
//! in-flight work, and wire-level garbage gets structured errors.

use bfdn_service::client::{Client, ClientError};
use bfdn_service::protocol::{
    read_frame, write_frame, ErrorCode, ExploreSpec, Request, Response, SpanPayload, MAX_FRAME_LEN,
};
use bfdn_service::server::{serve, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A loopback server on an OS-assigned port.
fn start(config: ServerConfig) -> bfdn_service::server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind loopback")
}

fn connect(handle: &bfdn_service::server::ServerHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

#[test]
fn served_explore_matches_direct_execution() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let spec = ExploreSpec::new("bfdn", "comb", 200, 4, 7);
    let served = client.explore(spec.clone()).expect("served result");
    let (direct, _) = bfdn_service::exec::run_spec(&spec).expect("direct result");
    assert!(!served.cached, "first request is a miss");
    assert_eq!(
        served.payload_json(),
        direct.payload_json(),
        "the wire must not change the result"
    );

    // Second request: a cache hit with the byte-identical payload.
    let hit = client.explore(spec).expect("cached result");
    assert!(hit.cached);
    assert_eq!(hit.payload_json(), direct.payload_json());

    let status = client.status().expect("status");
    assert_eq!(status.explores, 2);
    assert_eq!(status.cache_hits, 1);
    assert_eq!(status.completed, 1, "the hit never reached the queue");

    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn batch_reissue_is_all_hits_with_identical_payloads() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);

    let specs: Vec<ExploreSpec> = (0..6)
        .map(|seed| ExploreSpec::new("bfdn", "random-recursive", 150, 4, seed))
        .collect();
    let (cold, hits, misses) = client.batch(specs.clone()).expect("cold batch");
    assert_eq!((hits, misses), (0, 6));
    assert!(cold.iter().all(|r| !r.cached));

    let (warm, hits, misses) = client.batch(specs.clone()).expect("warm batch");
    assert_eq!((hits, misses), (6, 0), "re-issued batch is 100% cache hits");
    assert!(warm.iter().all(|r| r.cached));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.payload_json(), w.payload_json());
    }
    // Results come back in request order.
    for (spec, r) in specs.iter().zip(&warm) {
        assert_eq!(&r.spec, spec);
    }

    let cache = client.cache_stats().expect("cache stats");
    assert_eq!(cache.entries, 6);
    assert_eq!(cache.hits, 6);
    assert_eq!(cache.insertions, 6);

    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn full_queue_answers_busy_without_deadlock() {
    // One worker, queue depth 1: a slow job occupies the worker, a second
    // fills the queue, everything after that must bounce with Busy.
    let handle = start(ServerConfig {
        workers: Some(1),
        queue_depth: 1,
        ..ServerConfig::default()
    });

    let slow = |seed: u64| {
        let mut spec = ExploreSpec::new("bfdn", "comb", 60, 2, seed);
        spec.options.delay_ms = 400;
        spec
    };
    let clients: Vec<std::thread::JoinHandle<Result<_, ClientError>>> = (0..4)
        .map(|seed| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)?;
                client.set_read_timeout(Some(Duration::from_secs(30)))?;
                // Stagger so the first request reaches the worker first.
                std::thread::sleep(Duration::from_millis(seed * 50));
                client.explore(slow(seed))
            })
        })
        .collect();

    let outcomes: Vec<Result<_, ClientError>> = clients
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    let busy = outcomes
        .iter()
        .filter(
            |r| matches!(r, Err(e) if e.as_server_error().map(|w| w.code) == Some(ErrorCode::Busy)),
        )
        .count();
    assert_eq!(served + busy, 4, "every request got a definite answer");
    assert!(served >= 1, "the in-flight job completes");
    assert!(busy >= 1, "overflow is rejected, not queued");

    let mut client = connect(&handle);
    let status = client.status().expect("server still responsive");
    assert_eq!(status.rejects as usize, busy);
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn split_batches_interleave_so_small_client_is_not_starved() {
    // One worker makes the schedule easy to reason about: a 64-spec
    // batch runs as two 32-spec jobs, and its second job is queued only
    // once the first finishes. A small batch arriving during the first
    // job is queued ahead of the second, so it finishes first. Without
    // the split, the small client would wait for the whole big batch
    // head-to-tail.
    let handle = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });

    let slow = |seed: u64| {
        let mut spec = ExploreSpec::new("bfdn", "comb", 60, 2, seed);
        spec.options.delay_ms = 10;
        spec
    };
    let run_batch = |addr: std::net::SocketAddr, specs: Vec<ExploreSpec>| {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let (results, hits, misses) = client.batch(specs.clone()).expect("batch");
        // Job aggregation preserves request order end to end.
        for (spec, result) in specs.iter().zip(&results) {
            assert_eq!(&result.spec, spec);
        }
        (results.len(), hits, misses, std::time::Instant::now())
    };

    let addr = handle.addr();
    let big = std::thread::spawn(move || run_batch(addr, (0..64).map(slow).collect()));
    // Let the big batch's first job (32 x 10 ms) start before the small
    // one arrives.
    std::thread::sleep(Duration::from_millis(100));
    let addr = handle.addr();
    let small = std::thread::spawn(move || run_batch(addr, (100..102).map(slow).collect()));

    let (big_len, _, big_misses, big_done) = big.join().expect("no panic");
    let (small_len, _, small_misses, small_done) = small.join().expect("no panic");
    assert_eq!((big_len, big_misses), (64, 64));
    assert_eq!((small_len, small_misses), (2, 2));
    assert!(
        small_done < big_done,
        "the late small batch finishes first because jobs interleave"
    );

    let mut client = connect(&handle);
    let status = client.status().expect("status");
    assert_eq!(status.batches, 2);
    assert_eq!(status.explores, 66);
    assert_eq!(status.completed, 3, "two big jobs and one small job");
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn all_hit_batch_is_answered_while_the_queue_is_full() {
    // One worker, queue depth 1: a slow job holds the worker and a
    // second fills the queue. New work is refused, but a batch of
    // cached specs never needs the queue.
    let handle = start(ServerConfig {
        workers: Some(1),
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let cached: Vec<ExploreSpec> = (0..3)
        .map(|seed| ExploreSpec::new("bfdn", "comb", 80, 2, seed))
        .collect();
    let (cold, _, misses) = client.batch(cached.clone()).expect("cold batch");
    assert_eq!(misses, 3);

    let wait_for = |client: &mut Client, what: &str, ready: &dyn Fn(u64, u64) -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.status().expect("status");
            if ready(status.in_flight, status.queue_depth) {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "never saw {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let send = |spec: ExploreSpec| {
        let addr = handle.addr();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr)?;
            client.set_read_timeout(Some(Duration::from_secs(30)))?;
            client.explore(spec)
        })
    };
    // The held job must outlast every check below; the queued one just
    // waits behind it.
    let mut slow = ExploreSpec::new("bfdn", "comb", 60, 2, 10);
    slow.options.delay_ms = 2_000;
    let holding = send(slow);
    wait_for(&mut client, "the worker busy", &|in_flight, _| {
        in_flight == 1
    });
    let queued = send(ExploreSpec::new("bfdn", "comb", 60, 2, 11));
    wait_for(&mut client, "the queue full", &|_, depth| depth == 1);

    // Control: a fresh spec is new work and bounces.
    let busy = client
        .explore(ExploreSpec::new("bfdn", "comb", 80, 2, 99))
        .expect_err("the queue is full");
    assert_eq!(
        busy.as_server_error().map(|w| w.code),
        Some(ErrorCode::Busy)
    );
    // The cached batch is answered on the connection, queue untouched.
    let (warm, hits, misses) = client.batch(cached).expect("all-hit batch");
    assert_eq!((hits, misses), (3, 0));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.payload_json(), w.payload_json());
    }

    assert!(holding.join().expect("no panic").is_ok());
    assert!(queued.join().expect("no panic").is_ok());
    let status = client.status().expect("status");
    assert_eq!(status.rejects, 1);
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn concurrent_scrapes_all_succeed_on_the_fixed_pool() {
    use std::io::Read;

    let handle = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let metrics_http = handle.metrics_addr().expect("metrics listener bound");

    // Four scrapes per pool thread, all in flight at once: the fixed
    // pool must answer every one (the backlog absorbs the burst).
    let scrapers: Vec<std::thread::JoinHandle<String>> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(metrics_http).expect("connect scraper");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("timeout");
                stream
                    .write_all(b"GET /metrics HTTP/1.1\r\nHost: bfdn\r\n\r\n")
                    .expect("send scrape");
                let mut reply = String::new();
                stream.read_to_string(&mut reply).expect("read scrape");
                reply
            })
        })
        .collect();
    for scraper in scrapers {
        let reply = scraper.join().expect("no panic");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("bfdn_queue_depth"), "{reply}");
    }

    let mut client = connect(&handle);
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let handle = start(ServerConfig {
        workers: Some(1),
        queue_depth: 4,
        ..ServerConfig::default()
    });

    // A slow job that is mid-flight when the shutdown lands.
    let addr = handle.addr();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut spec = ExploreSpec::new("bfdn", "comb", 80, 2, 9);
        spec.options.delay_ms = 500;
        client.explore(spec)
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut client = connect(&handle);
    client.shutdown().expect("bye");

    let result = in_flight.join().expect("no panic");
    let result = result.expect("the in-flight job is drained, not dropped");
    assert_eq!(result.metrics.rounds, {
        let spec = ExploreSpec::new("bfdn", "comb", 80, 2, 9);
        bfdn_service::exec::run_spec(&spec)
            .unwrap()
            .0
            .metrics
            .rounds
    });

    // New work after the drain began is refused, not queued.
    let refused = Client::connect(handle.addr()).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.explore(ExploreSpec::new("bfdn", "comb", 40, 2, 0))
    });
    if let Err(e) = refused {
        if let Some(wire) = e.as_server_error() {
            assert_eq!(wire.code, ErrorCode::ShuttingDown);
        }
        // A connection refused / reset is also an acceptable outcome once
        // the accept loop has exited.
    }

    handle.join().expect("clean drain");
}

#[test]
fn wire_garbage_gets_structured_errors() {
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Malformed JSON → bad_request, connection stays usable.
    write_frame(&mut stream, "this is not json").unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_json(&reply).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }

    // The retired peer cache-fill verb is an unknown request type like
    // any other: bad_request, and the connection stays usable.
    write_frame(
        &mut stream,
        r#"{"v":1,"type":"peer_fill","algorithm":"bfdn","family":"comb","n":50,"k":2,"seed":1}"#,
    )
    .unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_json(&reply).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
    write_frame(&mut stream, &Request::Metrics.to_json()).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    let text = match Response::from_json(&reply).unwrap() {
        Response::Metrics(text) => text,
        other => panic!("expected metrics, got {other:?}"),
    };
    let scrape = bfdn_obs::exposition::parse_exposition(&text);
    // The malformed-JSON frame and the peer_fill frame.
    assert_eq!(
        scrape.value("bfdn_requests_total", &[("type", "invalid")]),
        Some(2.0),
        "{text}"
    );
    assert_eq!(
        scrape.value("bfdn_requests_total", &[("type", "peer_fill")]),
        None
    );

    // Wrong protocol version → structured unsupported_version.
    write_frame(&mut stream, r#"{"v":99,"type":"status"}"#).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_json(&reply).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected error, got {other:?}"),
    }

    // Oversized frame announcement → too_large, then the connection is
    // dropped (the payload cannot be resynchronized).
    stream
        .write_all(&(MAX_FRAME_LEN + 1).to_be_bytes())
        .unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_json(&reply).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::TooLarge),
        other => panic!("expected error, got {other:?}"),
    }

    let mut client = connect(&handle);
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn telemetry_traces_a_known_request_sequence() {
    use std::io::Read;

    let dir = std::env::temp_dir().join("bfdn_service_e2e_telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let access_log = dir.join("access.jsonl");
    let _ = std::fs::remove_file(&access_log);

    // One worker, so the batch's two misses make exactly one job.
    let handle = start(ServerConfig {
        workers: Some(1),
        metrics_addr: Some("127.0.0.1:0".into()),
        access_log: Some(access_log.clone()),
        ..ServerConfig::default()
    });
    let metrics_http = handle.metrics_addr().expect("metrics listener bound");
    let mut client = connect(&handle);

    // A known sequence: one miss, one hit, one batch of three where one
    // item is already cached.
    let spec = ExploreSpec::new("bfdn", "comb", 100, 4, 1);
    assert!(!client.explore(spec.clone()).expect("miss").cached);
    assert!(client.explore(spec.clone()).expect("hit").cached);
    let batch: Vec<ExploreSpec> = (1..=3)
        .map(|seed| ExploreSpec::new("bfdn", "comb", 100, 4, seed))
        .collect();
    let (_, hits, misses) = client.batch(batch).expect("batch");
    assert_eq!((hits, misses), (1, 2));

    let text = client.metrics().expect("metrics over the wire protocol");
    // Request mix: the in-progress metrics request is not yet counted.
    assert!(
        text.contains(r#"bfdn_requests_total{type="explore"} 2"#),
        "{text}"
    );
    assert!(text.contains(r#"bfdn_requests_total{type="batch"} 1"#));
    // Two jobs reached the queue (the explore miss and the batch); the
    // explore hit never did. Histogram counts are exact.
    assert!(text.contains("bfdn_request_queue_wait_seconds_count 2"));
    assert!(text.contains("bfdn_request_execute_seconds_count 2"));
    assert!(text.contains(r#"bfdn_request_execute_seconds_bucket{le="+Inf"} 2"#));
    // Three replies were serialized before this metrics reply.
    assert!(text.contains("bfdn_request_serialize_seconds_count 3"));
    // Each spec was looked up once: three misses, each executed and
    // re-checked against the paper.
    assert!(text.contains("bfdn_cache_misses_total 3"), "{text}");
    assert!(text.contains("bfdn_bound_checked_total 3"));
    assert!(text.contains("bfdn_bound_violations_total 0"));
    let theorem1 = text
        .lines()
        .find(|l| l.starts_with(r#"bfdn_bound_margin_worst{bound="theorem1_rounds"}"#))
        .expect("worst-margin gauge is exported");
    assert!(
        !theorem1.contains("Inf"),
        "three runs shrank the gauge: {theorem1}"
    );
    // The two executed jobs ran on the worker, each adding its exact
    // execute time to its busy counter.
    let busy_ns: f64 = bfdn_obs::exposition::parse_exposition(&text)
        .samples
        .iter()
        .filter(|s| s.name == "bfdn_worker_busy_ns_total")
        .map(|s| s.value)
        .sum();
    assert!(busy_ns > 0.0, "{text}");
    assert!(text.contains("bfdn_queue_depth 0"));
    assert!(text.contains("# TYPE bfdn_request_execute_seconds histogram"));

    // The same exposition over plain HTTP for standard scrapers.
    let mut scrape = TcpStream::connect(metrics_http).expect("connect scraper");
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bfdn\r\n\r\n")
        .unwrap();
    let mut http_reply = String::new();
    scrape.read_to_string(&mut http_reply).expect("read scrape");
    assert!(http_reply.starts_with("HTTP/1.1 200 OK"), "{http_reply}");
    assert!(http_reply.contains("text/plain; version=0.0.4"));
    assert!(http_reply.contains(r#"bfdn_requests_total{type="explore"} 2"#));

    // Anything but /metrics is a 404.
    let mut other = TcpStream::connect(metrics_http).expect("connect");
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    other.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut not_found = String::new();
    other.read_to_string(&mut not_found).expect("read 404");
    assert!(not_found.starts_with("HTTP/1.1 404"), "{not_found}");

    assert_eq!(client.cache_stats().expect("cache stats").misses, 3);
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    // The access log has one JSON line per wire request, in order:
    // explore (miss), explore (hit), batch, metrics, cache_stats,
    // shutdown.
    let log = std::fs::read_to_string(&access_log).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 6, "{log}");
    assert!(lines[0].contains(r#""request":"explore""#));
    assert!(lines[0]
        .contains(r#""key":"v1|algo=bfdn|family=comb|n=100|k=4|seed=1|manifest=false|delay=0""#));
    assert!(lines[0].contains(r#""outcome":"ok""#));
    assert!(lines[0].contains(r#""cached":false"#));
    assert!(lines[1].contains(r#""cached":true"#));
    assert!(
        lines[1].contains(r#""queue_wait_ns":0"#),
        "a hit never queues: {}",
        lines[1]
    );
    assert!(lines[2].contains(r#""request":"batch""#));
    assert!(lines[2].contains(r#""key":"batch[3]""#));
    assert!(lines[3].contains(r#""request":"metrics""#));
    assert!(lines[4].contains(r#""request":"cache_stats""#));
    assert!(lines[5].contains(r#""request":"shutdown""#));
    for line in &lines {
        assert!(
            line.starts_with(r#"{"id":"#) && line.ends_with('}'),
            "{line}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_split_batch_yields_one_root_with_one_chunk_child_per_sub_job() {
    let handle = start(ServerConfig {
        workers: Some(2),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let trace_id = 0xfeed_f00d_0000_0001u64;
    client.set_trace(Some(trace_id));
    let specs: Vec<ExploreSpec> = (0..5)
        .map(|seed| ExploreSpec::new("bfdn", "comb", 80, 2, seed))
        .collect();
    let (results, hits, misses) = client.batch(specs).expect("batch");
    assert_eq!(results.len(), 5);
    assert_eq!((hits, misses), (0, 5));
    assert_eq!(
        client.last_trace(),
        Some(trace_id),
        "the server echoes the client's trace id"
    );

    client.set_trace(None);
    let payload = client.trace_spans(Some(trace_id)).expect("span ring");
    assert_eq!(payload.dropped, 0, "nothing fell out of the ring");
    let spans = &payload.spans;
    assert!(spans.iter().all(|s| s.trace == trace_id));

    let roots: Vec<&SpanPayload> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one root span per request: {spans:#?}");
    let root = roots[0];
    assert_eq!(root.name, "request");
    assert!(
        root.attrs.iter().any(|(k, v)| k == "kind" && v == "batch"),
        "{:?}",
        root.attrs
    );

    // decode, the one cache lookup and serialize sit under the root.
    assert!(spans
        .iter()
        .any(|s| s.parent == root.span && s.name == "decode"));
    let lookups: Vec<&SpanPayload> = spans.iter().filter(|s| s.name == "cache_lookup").collect();
    assert_eq!(lookups.len(), 1, "{spans:#?}");
    assert_eq!(lookups[0].parent, root.span);
    assert!(spans
        .iter()
        .any(|s| s.parent == root.span && s.name == "serialize"));

    // 5 misses on 2 workers make jobs of 3+2: exactly one chunk child
    // per job, each with its own queue wait + execution.
    let chunks: Vec<&SpanPayload> = spans.iter().filter(|s| s.name == "chunk").collect();
    assert_eq!(chunks.len(), 2, "{spans:#?}");
    assert!(chunks.iter().all(|c| c.parent == root.span));
    let mut chunk_items = 0u64;
    for chunk in &chunks {
        chunk_items += chunk
            .attrs
            .iter()
            .find(|(k, _)| k == "items")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .expect("chunk items attr");
        let kids: Vec<&SpanPayload> = spans.iter().filter(|s| s.parent == chunk.span).collect();
        assert!(
            kids.iter().any(|s| s.name == "queue_wait"),
            "chunk {kids:#?}"
        );
        let execute = kids
            .iter()
            .find(|s| s.name == "execute")
            .expect("each chunk executes");
        // Each executed spec shows its run and insert.
        let exec_kids: Vec<&SpanPayload> =
            spans.iter().filter(|s| s.parent == execute.span).collect();
        assert!(exec_kids.iter().any(|s| s.name == "run_spec"));
        assert!(exec_kids.iter().any(|s| s.name == "cache_insert"));
    }
    assert_eq!(chunk_items, 5, "chunks cover every spec exactly once");

    // Simulator phases land as children of a run_spec span.
    let run_spec = spans
        .iter()
        .find(|s| s.name == "run_spec")
        .expect("run_spec");
    for phase in ["build_tree", "explore", "sim_rounds"] {
        assert!(
            spans
                .iter()
                .any(|s| s.parent == run_spec.span && s.name == phase),
            "missing {phase} under run_spec: {spans:#?}"
        );
    }

    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}

#[test]
fn client_hangup_still_closes_the_request_span() {
    let handle = start(ServerConfig::default());
    let trace_id = 0xabad_cafe_0000_0001u64;
    {
        // A reply-hangup persona: send a traced request, then vanish
        // without reading the reply.
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let request = Request::Explore(ExploreSpec::new("bfdn", "comb", 80, 2, 77));
        write_frame(&mut stream, &request.to_json_traced(Some(trace_id))).expect("send");
    }

    // The root span must close anyway — poll the ring until it shows up.
    let mut client = connect(&handle);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let root = loop {
        let payload = client.trace_spans(Some(trace_id)).expect("span ring");
        if let Some(root) = payload
            .spans
            .iter()
            .find(|s| s.parent == 0 && s.name == "request")
        {
            break root.clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "root span never closed: {:#?}",
            payload.spans
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        root.attrs
            .iter()
            .any(|(k, v)| k == "kind" && v == "explore"),
        "{:?}",
        root.attrs
    );

    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}
