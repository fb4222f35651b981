//! End-to-end tests of the store-backed daemon: a restart against a
//! populated store serves byte-identically with zero re-executions —
//! after a graceful drain and after a SIGKILL of the real `bfdn-serve`
//! process alike — the store is append-once (re-issued work never adds
//! a byte, and two daemons serving the same specs write identical
//! stores), a crash-truncated segment tail is tolerated (never fatal),
//! and the resident-bytes budget holds under load while overflow stays
//! retrievable.

use bfdn_service::client::Client;
use bfdn_service::protocol::ExploreSpec;
use bfdn_service::server::{serve, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn start(config: ServerConfig) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind loopback")
}

fn connect(handle: &ServerHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

fn store_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn spec_for(seed: u64) -> ExploreSpec {
    ExploreSpec::new("bfdn", "comb", 120, 4, seed)
}

#[test]
fn restart_from_store_is_byte_identical_with_zero_reexecutions() {
    let dir = std::env::temp_dir().join("bfdn_store_e2e_restart");
    let _ = std::fs::remove_dir_all(&dir);

    // Cold server: execute a sweep, let the shutdown persist the index.
    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    let specs: Vec<ExploreSpec> = (0..6).map(spec_for).collect();
    let (cold, hits, misses) = client.batch(specs.clone()).expect("cold batch");
    assert_eq!((hits, misses), (0, 6));
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
    assert!(dir.join("meta.json").exists(), "store directory populated");
    assert!(dir.join("index.tsv").exists(), "index persisted on drain");

    // Restarted server: same store, empty memory. Every spec must come
    // back byte-identical without a single execution.
    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    for (seed, c) in cold.iter().enumerate() {
        let w = client.explore(spec_for(seed as u64)).expect("warm explore");
        assert!(w.cached, "seed {seed} served from the store");
        assert_eq!(
            c.payload_json(),
            w.payload_json(),
            "restart must be byte-identical"
        );
    }
    let status = client.status().expect("status");
    assert_eq!(status.completed, 0, "no job ever reached the queue");
    let text = client.metrics().expect("metrics");
    assert!(
        text.contains("bfdn_bound_checked_total 0"),
        "zero re-executions on the warm server: {text}"
    );
    // A re-issued batch is all hits too (memory + store tiers combined).
    let (warm, hits, misses) = client.batch(specs).expect("warm batch");
    assert_eq!((hits, misses), (6, 0), "all served without execution");
    assert!(warm.iter().all(|r| r.cached));
    let cache = client.cache_stats().expect("cache stats");
    assert!(cache.store_hits > 0, "the warm answers came from disk");
    assert!(cache.segments >= 1);
    assert!(cache.on_disk_bytes > 0);
    // The ratio measures the codec (stored vs raw payload bytes); the
    // RAW fallback pins it at >= 1.0 whenever records exist, and small
    // low-redundancy payloads may sit exactly there.
    assert!(
        cache.compression_ratio >= 1.0,
        "stored payload never exceeds raw: {}",
        cache.compression_ratio
    );
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A real `bfdn-serve` child process. Dropping it SIGKILLs whatever is
/// still running, so a failing test leaves no daemon behind.
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawns the binary on `dir` and reads its wire address from the
    /// `listening on` line it prints once it accepts connections.
    fn spawn(dir: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bfdn-serve"))
            .args(["--addr", "127.0.0.1:0", "--store-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn bfdn-serve");
        let mut lines = BufReader::new(child.stderr.take().expect("stderr")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.strip_prefix("bfdn-serve: listening on ")
                .map(str::to_string)
        });
        // Keep draining stderr so the daemon never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("bfdn-serve exited before listening");
        };
        ServeProcess { child, addr }
    }

    fn connect(&self) -> Client {
        let client = Client::connect(self.addr.as_str()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        client
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The break-down drill: the daemon process is SIGKILLed right after
/// serving a cold batch — no drain, no index persisted — and a restart
/// on the same store directory must still answer the whole batch from
/// disk, byte-identically, without executing anything.
#[test]
fn sigkilled_daemon_restarts_on_its_store_with_zero_reexecutions() {
    let dir = std::env::temp_dir().join("bfdn_store_e2e_sigkill");
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<ExploreSpec> = (0..6).map(spec_for).collect();

    let mut daemon = ServeProcess::spawn(&dir);
    let (cold, hits, misses) = daemon.connect().batch(specs.clone()).expect("cold batch");
    assert_eq!((hits, misses), (0, 6));
    daemon.child.kill().expect("SIGKILL");
    let status = daemon.child.wait().expect("reap");
    assert!(!status.success(), "killed, not drained: {status}");
    drop(daemon);

    let mut daemon = ServeProcess::spawn(&dir);
    let mut client = daemon.connect();
    let (warm, hits, misses) = client.batch(specs).expect("warm batch");
    assert_eq!((hits, misses), (6, 0), "every item served from the store");
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.cached);
        assert_eq!(c.payload_json(), w.payload_json(), "byte-identical");
    }
    let text = client.metrics().expect("metrics");
    assert!(
        text.contains("bfdn_bound_checked_total 0"),
        "zero re-executions after the kill: {text}"
    );
    client.shutdown().expect("bye");
    assert!(daemon.child.wait().expect("reap").success(), "clean drain");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_truncated_segment_tail_is_dropped_not_fatal() {
    let dir = std::env::temp_dir().join("bfdn_store_e2e_crash");
    let _ = std::fs::remove_dir_all(&dir);

    // Sequential explores so the segment's record order is the seed
    // order — the file's tail frame belongs to the last seed.
    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    let mut payloads = Vec::new();
    for seed in 0..5 {
        payloads.push(client.explore(spec_for(seed)).expect("cold").payload_json());
    }
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    // "kill -9 mid-write": chop a few bytes off the newest segment so
    // its final frame is torn; the persisted index is now stale too.
    let segment = dir.join(
        segment_bytes(&dir)
            .into_keys()
            .max()
            .expect("at least one segment"),
    );
    let bytes = std::fs::read(&segment).expect("read segment");
    assert!(bytes.len() > 7);
    std::fs::write(&segment, &bytes[..bytes.len() - 7]).expect("truncate tail");

    // The restarted daemon must come up (index rebuilt by scan), serve
    // the intact records byte-identically, and only re-execute the one
    // whose frame was torn.
    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    for (seed, payload) in payloads.iter().enumerate().take(4) {
        let hit = client.explore(spec_for(seed as u64)).expect("intact");
        assert!(hit.cached, "seed {seed} survived the torn tail");
        assert_eq!(&hit.payload_json(), payload, "byte-identical");
    }
    let torn = client.explore(spec_for(4)).expect("recomputed");
    assert!(!torn.cached, "the torn record is re-executed, not served");
    assert_eq!(&torn.payload_json(), &payloads[4], "determinism holds");
    let status = client.status().expect("status");
    assert_eq!(status.completed, 1, "exactly one re-execution");
    let text = client.metrics().expect("metrics");
    assert!(
        text.contains("bfdn_store_truncated_segments_total 1"),
        "the dropped tail is observable: {text}"
    );
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every segment file of the store in `dir`, by file name, with its
/// bytes.
fn segment_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store dir")
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with("seg-"))
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("read segment");
            (name, bytes)
        })
        .collect()
}

/// Append-once end to end: once a batch is stored, re-issuing it, and
/// restarting the daemon and re-issuing it again, leaves every segment
/// byte as it was.
#[test]
fn reissued_batches_across_a_restart_leave_the_segments_unchanged() {
    let dir = std::env::temp_dir().join("bfdn_store_e2e_append_once");
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<ExploreSpec> = (0..6).map(spec_for).collect();

    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    let (cold, _, misses) = client.batch(specs.clone()).expect("cold batch");
    assert_eq!(misses, 6);
    let written = segment_bytes(&dir);
    assert!(!written.is_empty(), "the cold batch was stored");
    let (_, hits, misses) = client.batch(specs.clone()).expect("re-issued batch");
    assert_eq!((hits, misses), (6, 0));
    assert_eq!(segment_bytes(&dir), written, "a re-issued batch appended");
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    let handle = start(store_config(&dir));
    let mut client = connect(&handle);
    let (warm, hits, misses) = client.batch(specs).expect("batch after restart");
    assert_eq!((hits, misses), (6, 0));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.payload_json(), w.payload_json());
    }
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
    assert_eq!(
        segment_bytes(&dir),
        written,
        "the restart changed a segment"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `manifest: true` payload carries no wall clock, so two daemons
/// that run the same spec serve identical bytes and store identical
/// records.
#[test]
fn manifest_payloads_and_stores_match_across_two_daemons() {
    let dirs =
        ["a", "b"].map(|d| std::env::temp_dir().join(format!("bfdn_store_e2e_manifest_{d}")));
    let mut spec = ExploreSpec::new("cte", "binary", 300, 8, 3);
    spec.options.manifest = true;
    let mut served = Vec::new();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        let handle = start(store_config(dir));
        let mut client = connect(&handle);
        let result = client.explore(spec.clone()).expect("explore");
        assert!(!result.cached);
        assert!(result.manifest.is_some(), "manifest requested");
        let on_disk = client.cache_stats().expect("stats").on_disk_bytes;
        client.shutdown().expect("bye");
        handle.join().expect("clean drain");
        served.push((result.payload_json(), on_disk));
    }
    assert_eq!(served[0], served[1], "payloads or on-disk bytes differ");
    assert_eq!(segment_bytes(&dirs[0]), segment_bytes(&dirs[1]));
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn resident_budget_holds_while_overflow_serves_from_disk() {
    let dir = std::env::temp_dir().join("bfdn_store_e2e_budget");
    let _ = std::fs::remove_dir_all(&dir);

    // A budget far smaller than the working set: most results must live
    // on disk only.
    let budget = 4_096u64;
    let handle = start(ServerConfig {
        store_budget_bytes: Some(budget),
        ..store_config(&dir)
    });
    let mut client = connect(&handle);
    let specs: Vec<ExploreSpec> = (0..16).map(spec_for).collect();
    let (cold, _, misses) = client.batch(specs.clone()).expect("cold batch");
    assert_eq!(misses, 16);
    let cache = client.cache_stats().expect("stats after flood");
    assert!(
        cache.resident_bytes <= budget,
        "resident {} exceeds budget {budget}",
        cache.resident_bytes
    );
    assert!(
        cache.entries < 16,
        "the memory tier cannot hold the working set"
    );

    // Everything is still retrievable, byte-identically, and serving it
    // never pushes the gauge past the budget.
    let (warm, hits, misses) = client.batch(specs).expect("warm batch");
    assert_eq!((hits, misses), (16, 0), "no re-execution");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.payload_json(), w.payload_json());
    }
    let cache = client.cache_stats().expect("stats after reheat");
    assert!(cache.resident_bytes <= budget);
    assert!(cache.store_hits > 0, "overflow came back from disk");
    let text = client.metrics().expect("metrics");
    assert!(text.contains("bfdn_bound_violations_total 0"), "{text}");
    client.shutdown().expect("bye");
    handle.join().expect("clean drain");

    let _ = std::fs::remove_dir_all(&dir);
}
