//! The traced run's in-process layer timings. Each metric times calls
//! into one module's public functions from here, on the workload's own
//! inputs; no program code is changed or instrumented.

use crate::report::{median, Metrics};
use crate::specs::Rng;
use crate::workloads::STORE_BUDGET;
use bfdn_obs::EventSink;
use bfdn_service::protocol::{read_frame, write_frame};
use bfdn_service::{exec, CacheConfig, ExploreResult, ExploreSpec, Request, Response, ResultCache};
use bfdn_sim::{Explorer, Move, RoundContext, Simulator};
use bfdn_store::{Store, StoreConfig};
use rand::SeedableRng;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Inputs of one workload's traced run.
pub struct LayerInputs {
    /// Request documents the workload sends.
    pub requests: Vec<String>,
    /// Replies of the kind the workload receives.
    pub replies: Vec<Response>,
    /// Results the workload's cache holds.
    pub results: Vec<ExploreResult>,
    /// Round-loop splits of the workload's `bfdn` and `cte` specs.
    pub bfdn: Vec<RoundLoop>,
    pub cte: Vec<RoundLoop>,
    /// `store-tier`'s records, for the store-backed cache and the store.
    pub store_records: Vec<ExploreResult>,
}

/// Gets timed per layer call.
const GETS: usize = 20_000;
/// Request/reply exchanges over the loopback pair.
const FRAME_EXCHANGES: usize = 40;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `specs` in process (what the daemon would answer for them).
pub fn execute(specs: &[ExploreSpec]) -> Result<Vec<ExploreResult>, String> {
    specs
        .iter()
        .map(|s| exec::run_spec(s).map(|(r, _)| r).map_err(|e| e.to_string()))
        .collect()
}

pub fn emit(m: &mut Metrics, input: &LayerInputs, work: &Path, seed: u64) -> Result<(), String> {
    protocol(m, input)?;
    cache_hit(m, &input.results);
    store_tier(m, &input.store_records, work, seed)?;
    for (suffix, per_spec) in [("", &input.bfdn), (".cte", &input.cte)] {
        let med = |f: fn(&RoundLoop) -> f64| median(&per_spec.iter().map(f).collect::<Vec<_>>());
        m.put(format!("trees.build_ms{suffix}"), med(|r| r.build_ms), "ms");
        m.put(format!("sim.select_ms{suffix}"), med(|r| r.select_ms), "ms");
        m.put(
            format!("sim.apply_ms{suffix}"),
            med(|r| r.sim_ms - r.select_ms),
            "ms",
        );
        m.put(
            format!("sim.rounds{suffix}"),
            med(|r| r.rounds as f64),
            "count",
        );
        m.put(
            format!("exec.run_spec_ms{suffix}"),
            med(|r| r.run_spec_ms),
            "ms",
        );
        m.put(
            format!("exec.observe_ms{suffix}"),
            med(|r| r.observe_ms),
            "ms",
        );
        m.put(
            format!("sim.select_share{suffix}"),
            med(|r| r.select_ms / r.run_spec_ms),
            "ratio",
        );
    }
    Ok(())
}

/// `protocol.decode_us`, `protocol.encode_us` and `protocol.frame_rtt_ms`.
fn protocol(m: &mut Metrics, input: &LayerInputs) -> Result<(), String> {
    let decode: Vec<f64> = input
        .requests
        .iter()
        .map(|doc| {
            let t0 = Instant::now();
            let ok = Request::from_json(doc).is_ok();
            (ok, us(t0))
        })
        .map(|(ok, t)| {
            if ok {
                Ok(t)
            } else {
                Err("a request document did not decode")
            }
        })
        .collect::<Result<_, _>>()?;
    let encoded: Vec<(String, f64)> = input
        .replies
        .iter()
        .map(|r| {
            let t0 = Instant::now();
            let doc = r.to_json();
            (doc, us(t0))
        })
        .collect();
    m.put("protocol.decode_us", median(&decode), "us");
    m.put(
        "protocol.encode_us",
        median(&encoded.iter().map(|e| e.1).collect::<Vec<_>>()),
        "us",
    );
    let rtt =
        frame_rtt(&input.requests[0], &encoded[0].0).map_err(|e| format!("frame pair: {e}"))?;
    m.put("protocol.frame_rtt_ms", rtt, "ms");
    Ok(())
}

/// Median exchange over a loopback pair: the client end writes a request
/// frame with `TCP_NODELAY` (as `Client` does), the accepted end keeps
/// default socket options (as the daemon's does), reads it and writes
/// the reply with `write_frame`.
fn frame_rtt(request: &str, reply: &str) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let server = s.spawn(|| -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            while let Ok(_req) = read_frame(&mut peer) {
                write_frame(&mut peer, reply)?;
            }
            Ok(())
        });
        let mut client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        let mut times = Vec::with_capacity(FRAME_EXCHANGES);
        for _ in 0..FRAME_EXCHANGES {
            let t0 = Instant::now();
            write_frame(&mut client, request)?;
            read_frame(&mut client).map_err(|e| std::io::Error::other(e.to_string()))?;
            times.push(ms(t0));
        }
        drop(client);
        server.join().expect("frame peer")?;
        Ok(median(&times))
    })
}

/// `cache.hit_us`: `ResultCache::get` on resident entries of a cache
/// with the daemon's default sizing.
fn cache_hit(m: &mut Metrics, results: &[ExploreResult]) {
    let cache = ResultCache::new(CacheConfig::default());
    let resident = &results[..results.len().min(CacheConfig::default().capacity / 2)];
    for r in resident {
        cache.put(r);
    }
    let times: Vec<f64> = (0..GETS)
        .map(|i| {
            let spec = &resident[i % resident.len()].spec;
            let t0 = Instant::now();
            let hit = cache.get(spec).is_some();
            debug_assert!(hit);
            us(t0)
        })
        .collect();
    m.put("cache.hit_us", median(&times), "us");
}

/// The store-backed cache with `store-tier`'s budget (`cache.put_us`,
/// `cache.store_hit_us`) and the bare store (`store.put_us`,
/// `store.get_us`), both on `store-tier`'s records and uniform key
/// draws.
fn store_tier(
    m: &mut Metrics,
    records: &[ExploreResult],
    work: &Path,
    seed: u64,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("layer store: {e}");
    let draws: Vec<usize> = {
        let mut rng = Rng::new(seed, 5);
        (0..GETS)
            .map(|_| rng.below(records.len() as u64) as usize)
            .collect()
    };

    let (store, _) = Store::open(StoreConfig::new(work.join("layer-cache"))).map_err(io)?;
    let mut cache = ResultCache::new(CacheConfig::default());
    cache.attach_store(store, Some(STORE_BUDGET));
    let put: Vec<f64> = records
        .iter()
        .map(|r| {
            let t0 = Instant::now();
            cache.put(r);
            us(t0)
        })
        .collect();
    let mut store_hit = Vec::new();
    for &i in &draws {
        let before = cache.stats().store_hits;
        let t0 = Instant::now();
        let found = cache.get(&records[i].spec).is_some();
        let t = us(t0);
        if !found {
            return Err("a stored record went missing from the layer cache".into());
        }
        if cache.stats().store_hits > before {
            store_hit.push(t);
        }
    }
    m.put("cache.put_us", median(&put), "us");
    m.put("cache.store_hit_us", median(&store_hit), "us");

    let (mut store, _) = Store::open(StoreConfig::new(work.join("layer-store"))).map_err(io)?;
    let keyed: Vec<(String, String)> = records
        .iter()
        .map(|r| (r.spec.canonical(), r.payload_json()))
        .collect();
    let mut put = Vec::with_capacity(keyed.len());
    for (k, v) in &keyed {
        let t0 = Instant::now();
        store.put(k, v).map_err(io)?;
        put.push(us(t0));
    }
    let mut get = Vec::with_capacity(draws.len());
    for &i in &draws {
        let t0 = Instant::now();
        let found = store.get(&keyed[i].0).map_err(io)?;
        get.push(us(t0));
        if found.as_deref() != Some(keyed[i].1.as_str()) {
            return Err("the layer store returned a different payload".into());
        }
    }
    m.put("store.put_us", median(&put), "us");
    m.put("store.get_us", median(&get), "us");
    Ok(())
}

/// Times spent by `Explorer::select_moves_observed` of the wrapped
/// explorer.
struct TimedExplorer<'a> {
    inner: &'a mut dyn Explorer,
    ns: u128,
}

impl Explorer for TimedExplorer<'_> {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        let t0 = Instant::now();
        self.inner.select_moves(ctx, out);
        self.ns += t0.elapsed().as_nanos();
    }

    fn select_moves_observed(
        &mut self,
        ctx: &RoundContext<'_>,
        out: &mut [Move],
        sink: &mut dyn EventSink,
    ) {
        let t0 = Instant::now();
        self.inner.select_moves_observed(ctx, out, sink);
        self.ns += t0.elapsed().as_nanos();
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One spec's time split: tree build, the bare round loop (with its
/// selection share), the full `exec::run_spec`, and what `run_spec` adds
/// to the first two: bound tracking and the manifest.
#[derive(Clone, Copy)]
pub struct RoundLoop {
    build_ms: f64,
    select_ms: f64,
    sim_ms: f64,
    run_spec_ms: f64,
    observe_ms: f64,
    rounds: u64,
}

impl RoundLoop {
    fn measure(spec: &ExploreSpec) -> Result<RoundLoop, String> {
        let family = exec::find_family(&spec.family).ok_or("unknown family")?;
        let k = spec.k as usize;
        let t0 = Instant::now();
        let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
        let tree = family.instance(spec.n as usize, &mut rng);
        let build_ms = ms(t0);

        let mut explorer = exec::build_explorer(&spec.algorithm, k).ok_or("unknown algorithm")?;
        let mut timed = TimedExplorer {
            inner: explorer.as_mut(),
            ns: 0,
        };
        let t0 = Instant::now();
        let outcome = Simulator::new(&tree, k)
            .run(&mut timed)
            .map_err(|e| format!("{}: {e}", spec.canonical()))?;
        let sim_ms = ms(t0);
        let select_ms = timed.ns as f64 / 1e6;
        drop(tree);

        let t0 = Instant::now();
        let (result, _) = exec::run_spec(spec).map_err(|e| e.to_string())?;
        let run_spec_ms = ms(t0);
        if result.metrics.rounds != outcome.rounds {
            return Err(format!(
                "{}: round counts differ between run_spec and Simulator::run",
                spec.canonical()
            ));
        }
        Ok(RoundLoop {
            build_ms,
            select_ms,
            sim_ms,
            run_spec_ms,
            observe_ms: run_spec_ms - build_ms - sim_ms,
            rounds: outcome.rounds,
        })
    }

    /// Field-wise fastest of `reps` measurements: interference on a
    /// shared machine only ever adds time, so the minimum is the steadiest
    /// reading of what the code costs, and shares taken between minima
    /// do not mix a fast run with a slow one.
    fn best_of(spec: &ExploreSpec, reps: usize) -> Result<RoundLoop, String> {
        let runs: Vec<RoundLoop> = (0..reps.max(1))
            .map(|_| Self::measure(spec))
            .collect::<Result<_, _>>()?;
        let best = |f: fn(&RoundLoop) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
        let (build_ms, sim_ms, run_spec_ms) = (
            best(|r| r.build_ms),
            best(|r| r.sim_ms),
            best(|r| r.run_spec_ms),
        );
        Ok(RoundLoop {
            build_ms,
            select_ms: best(|r| r.select_ms),
            sim_ms,
            run_spec_ms,
            observe_ms: run_spec_ms - build_ms - sim_ms,
            rounds: runs[0].rounds,
        })
    }
}

/// The fastest-of-`reps` split of each spec.
pub fn round_loops(specs: &[ExploreSpec], reps: usize) -> Result<Vec<RoundLoop>, String> {
    specs.iter().map(|s| RoundLoop::best_of(s, reps)).collect()
}

/// [`round_loops`] of labelled classes, printing each class's split to
/// stderr.
pub fn breakdown(classes: &[(&str, ExploreSpec)], reps: usize) -> Result<Vec<RoundLoop>, String> {
    eprintln!(
        "perfbench: {:<28} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "class", "build_ms", "select", "apply", "observe", "run_spec", "rounds"
    );
    classes
        .iter()
        .map(|(label, spec)| {
            let r = RoundLoop::best_of(spec, reps)?;
            eprintln!(
                "perfbench: {label:<28} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8}",
                r.build_ms,
                r.select_ms,
                r.sim_ms - r.select_ms,
                r.observe_ms,
                r.run_spec_ms,
                r.rounds
            );
            Ok(r)
        })
        .collect()
}
