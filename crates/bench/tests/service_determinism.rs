//! The acceptance test of the serving path: a sweep routed through a
//! live `bfdn-serve` daemon produces the byte-identical CSV of a local
//! run, and re-issuing the batch answers entirely from the
//! content-addressed cache.

use bfdn_bench::{sweep, Scale};
use bfdn_service::client::Client;
use bfdn_service::server::{serve, ServerConfig};
use std::time::Duration;

#[test]
fn quick_sweep_via_service_is_byte_identical_and_cached_on_reissue() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr().to_string();

    let specs = sweep::standard_specs(Scale::Quick);
    let local_csv = sweep::results_table(&sweep::run_local(&specs).expect("local sweep")).to_csv();

    // Cold pass: everything is simulated server-side.
    let (cold, hits, misses) =
        sweep::run_via_service(&addr, specs.clone()).expect("cold service sweep");
    assert_eq!((hits, misses), (0, specs.len() as u64));
    let cold_csv = sweep::results_table(&cold).to_csv();
    assert_eq!(
        cold_csv, local_csv,
        "the wire must not change a single byte of the sweep CSV"
    );

    // Warm pass: 100% cache hits, still byte-identical.
    let (warm, hits, misses) =
        sweep::run_via_service(&addr, specs.clone()).expect("warm service sweep");
    assert_eq!(
        (hits, misses),
        (specs.len() as u64, 0),
        "re-issued batch is answered entirely from the cache"
    );
    assert!(warm.iter().all(|r| r.cached));
    assert_eq!(sweep::results_table(&warm).to_csv(), local_csv);

    // The server's own accounting agrees.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let cache = client.cache_stats().expect("cache stats");
    assert_eq!(cache.entries, specs.len() as u64);
    assert_eq!(cache.hits, specs.len() as u64);
    assert_eq!(cache.misses as usize, specs.len());

    client.shutdown().expect("bye");
    handle.join().expect("clean drain");
}
