//! The three closed-loop workloads against a live `bfdn-serve`.
//!
//! An untraced run is [`ROUNDS`] rounds, each on a fresh daemon and
//! store: set up (timed; the median is `setup_s`), a closed loop from at
//! most two client connections, then a one-shot phase: sequential
//! connect → one `explore` → close, alternating a `bfdn` and a `cte` spec
//! the round has already answered. Samples are pooled over the rounds,
//! so one daemon's memory layout or one noisy stretch of the machine
//! does not set a run's figures. A traced run is one round. Every reply
//! is checked.

use crate::daemon::Daemon;
use crate::gauge::{self, Gauge};
use crate::layers::{self, LayerInputs};
use crate::report::{median, quantile, Cause, Ledger, Metrics, Tally};
use crate::specs::{self, Rng, BFDN_CLASS, COLD_CLASSES, COLD_ORDER, CTE_CLASS};
use bfdn_service::{Client, ClientError, ExploreResult, ExploreSpec, Request, Response};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["warm-rtt", "cold-compute", "store-tier"];

/// Daemons (set-up plus measured phases) per untraced run.
const ROUNDS: usize = 3;
/// Share of the measured time given to the one-shot phase.
const ONESHOT_SHARE: f64 = 0.1;
/// Least closed-loop time between two passes of the host gauge.
const GAUGE_EVERY: Duration = Duration::from_millis(50);
/// Host gauge passes just before and just after each set-up.
const SETUP_GAUGE_PASSES: usize = 20;
/// `store-tier`'s resident-memory budget, far below its working set.
pub const STORE_BUDGET: u64 = 64 * 1024;
/// Items per sub-job when the daemon splits a batch (its default
/// `batch_split`).
const SUB_JOB: usize = 32;

pub struct Ctx {
    pub serve: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Ctx {
    fn warm_pool(&self) -> usize {
        if self.smoke {
            32
        } else {
            256
        }
    }

    fn population(&self) -> usize {
        if self.smoke {
            256
        } else {
            4000
        }
    }

    fn batch(&self) -> usize {
        if self.smoke {
            64
        } else {
            512
        }
    }

    /// Divisor applied to the cold classes' `n`.
    fn shrink(&self) -> u64 {
        if self.smoke {
            100
        } else {
            1
        }
    }
}

pub struct RunOut {
    pub metrics: Metrics,
    pub ledger: Ledger,
}

/// A spec the run has answered, with the payload of its first answer.
#[derive(Clone)]
struct Answered {
    spec: ExploreSpec,
    payload: String,
}

/// One request of a closed loop: client time, a class tag, the specs it
/// carried, and the daemon's root `request` span when traced.
struct Shot {
    ms: f64,
    class: usize,
    specs: u64,
    root_ms: Option<f64>,
    traced: bool,
}

#[derive(Default)]
struct Loop {
    shots: Vec<Shot>,
    /// Loop time without the host gauge's passes.
    wall_s: f64,
    /// Host gauge pass times (ms); empty when the loop was not gauged.
    gauge: Vec<f64>,
    tally: Tally,
}

impl Loop {
    /// Client times of `class` (all classes when `None`) among the
    /// untraced (`traced == false`) or traced requests.
    fn ms(&self, class: Option<usize>, traced: bool) -> Vec<f64> {
        self.shots
            .iter()
            .filter(|s| s.traced == traced && class.is_none_or(|c| s.class == c))
            .map(|s| s.ms)
            .collect()
    }

    /// The untraced client times of `class` at the nominal host speed.
    fn nominal_ms(&self, class: Option<usize>) -> Vec<f64> {
        let f = gauge::factor(&self.gauge);
        self.ms(class, false).into_iter().map(|ms| ms * f).collect()
    }

    /// A rate over the loop time at the nominal host speed.
    fn per_s(&self, f: impl Fn(&Shot) -> u64) -> f64 {
        let n = self.shots.iter().map(f).sum::<u64>() as f64;
        n / self.wall_s / gauge::factor(&self.gauge)
    }
}

/// Class tags of single-spec requests by algorithm.
const TAG_BFDN: usize = 0;
const TAG_CTE: usize = 1;
const TAG_OTHER: usize = 2;

fn class_of(spec: &ExploreSpec) -> usize {
    match spec.algorithm.as_str() {
        "bfdn" => TAG_BFDN,
        "cte" => TAG_CTE,
        _ => TAG_OTHER,
    }
}

fn answered(r: &ExploreResult) -> Answered {
    Answered {
        spec: r.spec.clone(),
        payload: r.payload_json(),
    }
}

/// The check on a freshly executed result: it echoes the spec, was not
/// served from cache, discovered every edge, and `bfdn` stayed within
/// Theorem 1.
fn check_fresh(spec: &ExploreSpec, r: &ExploreResult) -> Result<(), String> {
    if r.spec != *spec {
        return Err(format!(
            "reply echoes {} for {}",
            r.spec.canonical(),
            spec.canonical()
        ));
    }
    if r.cached {
        return Err(format!("{} was cached but must be cold", spec.canonical()));
    }
    if r.metrics.edges_discovered + 1 != r.nodes {
        return Err(format!(
            "{}: {} edges discovered on {} nodes",
            spec.canonical(),
            r.metrics.edges_discovered,
            r.nodes
        ));
    }
    if spec.algorithm == "bfdn" && r.margin < 0.0 {
        return Err(format!(
            "{}: Theorem 1 margin {}",
            spec.canonical(),
            r.margin
        ));
    }
    Ok(())
}

/// The check on a cache answer: flagged cached and byte-identical to the
/// first answer.
fn check_hit(expect: &Answered, r: &ExploreResult) -> Result<(), String> {
    if !r.cached {
        return Err(format!("{} was recomputed", expect.spec.canonical()));
    }
    if r.payload_json() != expect.payload {
        return Err(format!(
            "{} payload differs from its first answer",
            expect.spec.canonical()
        ));
    }
    Ok(())
}

/// Books one reply: the reply after a passing check, `None` (with the
/// failure's cause counted) otherwise.
fn book<T>(
    tally: &mut Tally,
    reply: Result<T, ClientError>,
    check: impl FnOnce(&T) -> Result<(), String>,
) -> Option<T> {
    match reply {
        Ok(r) => match check(&r) {
            Ok(()) => {
                tally.ok();
                Some(r)
            }
            Err(why) => {
                tally.fail(Cause::Check, &why);
                None
            }
        },
        Err(e) => {
            tally.fail(Cause::of(&e), &e.to_string());
            None
        }
    }
}

/// How a request is traced. A traced run mixes `On` and `Control`:
/// `Control` fetches spans after the request exactly as `On` does but
/// sends the request untraced, so the two differ only in the daemon
/// recording spans.
#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    Control,
    On,
}

/// A request's trace id and how the loop traces it.
#[derive(Clone, Copy)]
struct TraceTag {
    id: u64,
    mode: Tracing,
}

impl TraceTag {
    /// The id the request itself carries.
    fn carried(self) -> Option<u64> {
        (self.mode == Tracing::On).then_some(self.id)
    }
}

/// Sends one request; returns the client time in ms, the reply, and,
/// unless tracing is off, the duration of the daemon's root `request`
/// span for the tag's id (fetched over `client` after the reply).
fn call<T>(
    client: &mut Client,
    tag: TraceTag,
    send: impl FnOnce(&mut Client) -> Result<T, ClientError>,
) -> (f64, Result<T, ClientError>, Option<f64>) {
    client.set_trace(tag.carried());
    let t0 = Instant::now();
    let reply = send(client);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    client.set_trace(None);
    let root = if tag.mode == Tracing::Off {
        None
    } else {
        client.trace_spans(Some(tag.id)).ok().and_then(|t| {
            t.spans
                .iter()
                .find(|s| s.name == "request" && s.parent == 0)
                .map(|s| s.duration_ns as f64 / 1e6)
        })
    };
    (ms, reply, root)
}

/// Runs `clients` closed-loop connections for `dur`. `send` issues one
/// request and books it, returning the sample on success. A transport
/// failure reconnects; a failed reconnect ends that client. When
/// `gauged` (one client only), the client times a host gauge pass after
/// a reply at most every [`GAUGE_EVERY`], while the daemon is idle; the
/// loop time leaves the passes out.
fn closed_loop<F>(
    daemon: &Daemon,
    clients: usize,
    dur: Duration,
    traced: bool,
    gauged: bool,
    lane: u64,
    send: F,
) -> Loop
where
    F: Fn(&mut Client, &mut Rng, TraceTag, &mut Tally) -> Option<Shot> + Sync,
{
    assert!(!gauged || clients == 1, "a gauged loop has one client");
    let start = Instant::now();
    let until = start + dur;
    let parts: Vec<Loop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let send = &send;
                s.spawn(move || {
                    let mut out = Loop::default();
                    let mut rng = Rng::new(lane, t as u64);
                    let mut client = match daemon.client() {
                        Ok(c) => c,
                        Err(e) => {
                            out.tally.fail(Cause::of(&e), &e.to_string());
                            return out;
                        }
                    };
                    let mut gauge = gauged.then(Gauge::new);
                    let mut gauged_at = Instant::now();
                    let mut n = 0u64;
                    while Instant::now() < until {
                        n += 1;
                        // A seeded coin, not `n % 2`: the cold cycle's
                        // period would pin each class to one mode.
                        let mode = match (traced, Rng::new(n, 0x7ace).next() & 1) {
                            (false, _) => Tracing::Off,
                            (true, 0) => Tracing::On,
                            (true, _) => Tracing::Control,
                        };
                        let tag = TraceTag {
                            id: ((t as u64 + 1) << 40) | n,
                            mode,
                        };
                        let lost = out.tally.transport;
                        if let Some(mut shot) = send(&mut client, &mut rng, tag, &mut out.tally) {
                            shot.traced = mode == Tracing::On;
                            out.shots.push(shot);
                        }
                        if out.tally.transport > lost {
                            match daemon.client() {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                        if let Some(g) = gauge
                            .as_mut()
                            .filter(|_| gauged_at.elapsed() >= GAUGE_EVERY)
                        {
                            g.pass();
                            gauged_at = Instant::now();
                        }
                    }
                    if let Some(g) = gauge {
                        out.gauge = g.into_passes();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Loop::default();
    for part in parts {
        all.shots.extend(part.shots);
        all.gauge.extend(part.gauge);
        all.tally.merge(&part.tally);
    }
    all.wall_s = start.elapsed().as_secs_f64() - all.gauge.iter().sum::<f64>() / 1e3;
    all
}

/// The one-shot phase: for `dur` (and at least once per probe kind),
/// connect, send one `explore`, close. Probes alternate `bfdn` and
/// `cte`. Returns the client times of each kind.
fn one_shot(
    daemon: &Daemon,
    bfdn: &[Answered],
    cte: &[Answered],
    dur: Duration,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let until = Instant::now() + dur;
    let (mut b_ms, mut c_ms) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while i < 2 || Instant::now() < until {
        let (probe, out) = if i.is_multiple_of(2) {
            (&bfdn[(i / 2) % bfdn.len()], &mut b_ms)
        } else {
            (&cte[(i / 2) % cte.len()], &mut c_ms)
        };
        i += 1;
        let t0 = Instant::now();
        let reply = daemon
            .client()
            .and_then(|mut c| c.explore(probe.spec.clone()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if book(tally, reply, |r| check_hit(probe, r)).is_some() {
            out.push(ms);
        }
    }
    (b_ms, c_ms)
}

/// Answers every spec of `specs` once, in batches of `chunk`, checking
/// each item is freshly executed; returns the answers in spec order.
fn answer_all(
    daemon: &Daemon,
    specs: &[ExploreSpec],
    chunk: usize,
    tally: &mut Tally,
) -> Result<Vec<ExploreResult>, String> {
    let mut client = daemon.client().map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(specs.len());
    for part in specs.chunks(chunk) {
        let (results, _, _) = book(tally, client.batch(part.to_vec()), |(rs, _, misses)| {
            if rs.len() != part.len() || *misses != part.len() as u64 {
                return Err(format!(
                    "batch of {} answered {} ({misses} executed)",
                    part.len(),
                    rs.len()
                ));
            }
            part.iter().zip(rs).try_for_each(|(s, r)| check_fresh(s, r))
        })
        .ok_or("a set-up batch failed")?;
        out.extend(results);
    }
    Ok(out)
}

/// `store-tier`'s stored specs: small `n`, every algorithm in turn.
fn population(ctx: &Ctx) -> Vec<ExploreSpec> {
    let mut rng = Rng::new(ctx.seed, 3);
    (0..ctx.population())
        .map(|i| specs::small_spec(&mut rng, i, 16, 128, &SMALL_KS))
        .collect()
}

const SMALL_KS: [u64; 6] = [1, 2, 3, 4, 6, 8];

/// Daemon counters around a closed loop.
struct Counters {
    status: bfdn_service::protocol::StatusPayload,
    cache: bfdn_service::protocol::CacheStatsPayload,
}

fn counters(daemon: &Daemon) -> Result<Counters, String> {
    let mut c = daemon.client().map_err(|e| e.to_string())?;
    Ok(Counters {
        status: c.status().map_err(|e| e.to_string())?,
        cache: c.cache_stats().map_err(|e| e.to_string())?,
    })
}

/// A workload's daemon: how to set one up on a fresh store directory,
/// how to send one closed-loop request, and which answered specs its
/// one-shot phase probes.
trait Workload: Sync {
    /// What set-up hands to the measured phases.
    type Data: Sync;
    const CLIENTS: usize;
    /// Whether the closed loop's figures are compute-bound, so the loop
    /// runs the host gauge and gives them at the nominal host speed.
    const GAUGED: bool;
    /// Whether set-up executes specs, so it is compute and gauged too.
    const SETUP_GAUGED: bool;
    /// Starts the measured phases' daemon. The duration is time within
    /// set-up that `setup_s` leaves out.
    fn set_up(
        &self,
        ctx: &Ctx,
        dir: &Path,
        tally: &mut Tally,
    ) -> Result<(Daemon, Self::Data, Duration), String>;
    /// Sends one request and books it.
    fn send(
        &self,
        data: &Self::Data,
        daemon: &Daemon,
        client: &mut Client,
        rng: &mut Rng,
        tag: TraceTag,
        tally: &mut Tally,
    ) -> Option<Shot>;
    /// `bfdn` and `cte` specs answered so far, for the one-shot phase.
    fn probes(&self, data: &Self::Data) -> (Vec<Answered>, Vec<Answered>);
}

/// Everything the rounds of one run measured.
struct Pooled<D> {
    run: Loop,
    /// Set-up times at the nominal host speed, and as measured.
    setup_s: Vec<f64>,
    setup_raw_s: Vec<f64>,
    oneshot: (Vec<f64>, Vec<f64>),
    rss_mb: Vec<f64>,
    /// The last round's data and the daemon counters around its loop.
    last: (D, Counters, Counters),
}

/// Runs the rounds of one run; every daemon is stopped before it returns.
fn rounds<W: Workload>(w: &W, ctx: &Ctx, ledger: &mut Ledger) -> Result<Pooled<W::Data>, String> {
    let rounds = if ctx.trace { 1 } else { ROUNDS };
    let share = if ctx.trace { 1.0 } else { 1.0 - ONESHOT_SHARE };
    let loop_dur = Duration::from_secs_f64(ctx.seconds * share / rounds as f64);
    let oneshot_dur = Duration::from_secs_f64(ctx.seconds * ONESHOT_SHARE / rounds as f64);
    let mut run = Loop::default();
    let (mut setup_s, mut setup_raw_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut b_ms, mut c_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..rounds {
        // Passes just before and just after a set-up read the host over
        // its seconds.
        let passes = if W::SETUP_GAUGED {
            SETUP_GAUGE_PASSES
        } else {
            0
        };
        let mut g = Gauge::new();
        (0..passes).for_each(|_| g.pass());
        let t0 = Instant::now();
        let (daemon, data, untimed) = w.set_up(
            ctx,
            &ctx.work.join(format!("store-{round}")),
            &mut ledger.setup,
        )?;
        let took = (t0.elapsed() - untimed).as_secs_f64();
        (0..passes).for_each(|_| g.pass());
        setup_raw_s.push(took);
        setup_s.push(took * gauge::factor(&g.into_passes()));
        let before = counters(&daemon)?;
        let lane = ctx.seed ^ ((round as u64 + 1) << 56);
        let part = closed_loop(
            &daemon,
            W::CLIENTS,
            loop_dur,
            ctx.trace,
            W::GAUGED && !ctx.trace,
            lane,
            |client, rng, tag, tally| w.send(&data, &daemon, client, rng, tag, tally),
        );
        let after = counters(&daemon)?;
        run.shots.extend(part.shots);
        run.gauge.extend(part.gauge);
        run.wall_s += part.wall_s;
        ledger.measured.merge(&part.tally);
        if !ctx.trace {
            let (bfdn, cte) = w.probes(&data);
            if bfdn.is_empty() || cte.is_empty() {
                return Err("no bfdn or no cte spec was answered to probe".into());
            }
            let (b, c) = one_shot(&daemon, &bfdn, &cte, oneshot_dur, &mut ledger.measured);
            b_ms.extend(b);
            c_ms.extend(c);
        }
        rss_mb.push(daemon.peak_rss_mb());
        if let Err(e) = daemon.stop() {
            ledger.measured.fail(Cause::Transport, &e);
        }
        last = Some((data, before, after));
    }
    Ok(Pooled {
        run,
        setup_s,
        setup_raw_s,
        oneshot: (b_ms, c_ms),
        rss_mb,
        last: last.expect("at least one round"),
    })
}

/// The end-to-end metrics of an untraced run. `latency_ms` is the
/// workload's main request class; `bfdn_ms`/`cte_ms` its single `bfdn`
/// and `cte` requests (see the README for each workload). Closed-loop
/// times and rates of a gauged workload are at the nominal host speed.
fn emit_end_to_end<D>(
    m: &mut Metrics,
    p: &Pooled<D>,
    ledger: &Ledger,
    latency_ms: &[f64],
    bfdn_ms: &[f64],
    cte_ms: &[f64],
) {
    let oneshot: Vec<f64> = p.oneshot.0.iter().chain(&p.oneshot.1).copied().collect();
    let measured = &ledger.measured;
    m.put("setup_s", median(&p.setup_s), "s");
    m.put("latency_p50_ms", median(latency_ms), "ms");
    m.put("requests_per_s", p.run.per_s(|_| 1), "1/s");
    m.put("oneshot_p50_ms", median(&oneshot), "ms");
    m.put("specs_per_s", p.run.per_s(|s| s.specs), "1/s");
    m.put("bfdn_p50_ms", median(bfdn_ms), "ms");
    m.put("cte_p50_ms", median(cte_ms), "ms");
    m.put(
        "ok_share",
        measured.ok as f64 / measured.attempted.max(1) as f64,
        "ratio",
    );
    // The mean, not the median: which allocator arenas a round's daemon
    // filled makes its peak bimodal, and a median of three keeps one mode.
    let rss_mean = p.rss_mb.iter().sum::<f64>() / p.rss_mb.len() as f64;
    m.put("daemon_rss_peak_mb", rss_mean, "MB");
    // Printed, not gated: see the README on why p99 is not a gated metric.
    eprintln!(
        "perfbench: latency_p99_ms {:.4} ms over {} samples (a p99 needs 1000)",
        quantile(latency_ms, 0.99),
        latency_ms.len()
    );
    eprintln!(
        "perfbench: samples: latency {}, one-shot {}, bfdn {}, cte {}; rounds {}, peak rss {:.1?} MB",
        latency_ms.len(),
        oneshot.len(),
        bfdn_ms.len(),
        cte_ms.len(),
        p.setup_s.len(),
        p.rss_mb
    );
    eprintln!(
        "perfbench: set-up as measured: {:.4?} s (median {:.4} s)",
        p.setup_raw_s,
        median(&p.setup_raw_s)
    );
    if !p.run.gauge.is_empty() {
        let f = gauge::factor(&p.run.gauge);
        eprintln!(
            "perfbench: host gauge {:.4} ms over {} passes (nominal {} ms), closed-loop figures scaled by {:.4}; \
             as measured: latency_p50_ms {:.4}, requests_per_s {:.4}",
            median(&p.run.gauge),
            p.run.gauge.len(),
            gauge::NOMINAL_MS,
            f,
            median(latency_ms) / f,
            p.run.per_s(|_| 1) * f
        );
    }
}

/// Per-layer numbers the daemon itself exposes: client time against
/// its root `request` span on the traced requests (main class only), the
/// traced-minus-control p50, per-job queue wait and execution over the
/// daemon's life, and cache outcome shares over the closed loop.
fn server_layers<D>(m: &mut Metrics, p: &Pooled<D>, class: Option<usize>) {
    let pairs: Vec<(f64, f64)> = p
        .run
        .shots
        .iter()
        .filter(|s| s.traced && class.is_none_or(|c| s.class == c))
        .filter_map(|s| s.root_ms.map(|root| (s.ms, root)))
        .collect();
    let rtt: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let root: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let gap: Vec<f64> = pairs.iter().map(|p| p.0 - p.1).collect();
    let share: Vec<f64> = pairs.iter().map(|p| (p.0 - p.1) / p.0).collect();
    m.put("server.rtt_ms", median(&rtt), "ms");
    m.put("server.request_span_ms", median(&root), "ms");
    m.put("server.unattributed_ms", median(&gap), "ms");
    m.put("server.unattributed_share", median(&share), "ratio");
    m.put(
        "server.trace_overhead_ms",
        median(&p.run.ms(class, true)) - median(&p.run.ms(class, false)),
        "ms",
    );
    let (_, before, after) = &p.last;
    let s = &after.status;
    let jobs = s.completed.max(1) as f64;
    m.put(
        "server.queue_wait_ms",
        s.queue_wait_ns as f64 / jobs / 1e6,
        "ms",
    );
    m.put("server.exec_ms", s.exec_ns as f64 / jobs / 1e6, "ms");
    let (a, b) = (&after.cache, &before.cache);
    let hits = a.hits - b.hits;
    let store_hits = a.store_hits - b.store_hits;
    let lookups = (hits + store_hits + a.misses - b.misses).max(1) as f64;
    m.put("cache.memory_hit_share", hits as f64 / lookups, "ratio");
    m.put(
        "cache.store_hit_share",
        store_hits as f64 / lookups,
        "ratio",
    );
    eprintln!(
        "perfbench: traced samples {} (of {} requests); jobs completed {}; daemon peak rss {:.1} MB",
        pairs.len(),
        p.run.shots.len(),
        s.completed,
        p.rss_mb[0]
    );
}

/// The `bfdn` and `cte` entries of `answers`, at most `cap` of each.
fn probes(answers: &[Answered], cap: usize) -> (Vec<Answered>, Vec<Answered>) {
    let pick = |t: usize| -> Vec<Answered> {
        answers
            .iter()
            .filter(|a| class_of(&a.spec) == t)
            .take(cap)
            .cloned()
            .collect()
    };
    (pick(TAG_BFDN), pick(TAG_CTE))
}

fn specs_of(answers: Vec<Answered>) -> Vec<ExploreSpec> {
    answers.into_iter().map(|a| a.spec).collect()
}

fn explore_doc(spec: &ExploreSpec) -> String {
    Request::Explore(spec.clone()).to_json()
}

fn as_hit(r: &ExploreResult) -> Response {
    let mut r = r.clone();
    r.cached = true;
    Response::Result(Box::new(r))
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<RunOut, String> {
    let mut ledger = Ledger::default();
    let mut m = Metrics::default();
    match workload {
        "warm-rtt" => warm_rtt(ctx, &mut ledger, &mut m),
        "cold-compute" => cold_compute(ctx, &mut ledger, &mut m),
        "store-tier" => store_tier(ctx, &mut ledger, &mut m),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            WORKLOADS.join(", ")
        )),
    }?;
    Ok(RunOut { metrics: m, ledger })
}

/// `warm-rtt`: every measured request is a memory-tier hit, so the
/// client time is transport plus a hash lookup.
struct WarmRtt {
    pool: Vec<ExploreSpec>,
}

impl Workload for WarmRtt {
    type Data = (Vec<ExploreResult>, Vec<Answered>);
    const CLIENTS: usize = 2;
    /// Transport timers, not compute, set its figures.
    const GAUGED: bool = false;
    const SETUP_GAUGED: bool = true;

    fn set_up(
        &self,
        ctx: &Ctx,
        dir: &Path,
        tally: &mut Tally,
    ) -> Result<(Daemon, Self::Data, Duration), String> {
        let d = Daemon::spawn(&ctx.serve, dir, None)?;
        let first = answer_all(&d, &self.pool, self.pool.len(), tally)?;
        let expect = first.iter().map(answered).collect();
        Ok((d, (first, expect), Duration::ZERO))
    }

    fn send(
        &self,
        data: &Self::Data,
        _: &Daemon,
        client: &mut Client,
        rng: &mut Rng,
        tag: TraceTag,
        tally: &mut Tally,
    ) -> Option<Shot> {
        let i = rng.below(self.pool.len() as u64) as usize;
        let (ms, reply, root_ms) = call(client, tag, |c| c.explore(self.pool[i].clone()));
        book(tally, reply, |r| check_hit(&data.1[i], r))?;
        Some(Shot {
            ms,
            class: class_of(&self.pool[i]),
            specs: 1,
            root_ms,
            traced: false,
        })
    }

    fn probes(&self, data: &Self::Data) -> (Vec<Answered>, Vec<Answered>) {
        probes(&data.1, 64)
    }
}

fn warm_rtt(ctx: &Ctx, ledger: &mut Ledger, m: &mut Metrics) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed, 1);
    let w = WarmRtt {
        pool: (0..ctx.warm_pool())
            .map(|i| specs::small_spec(&mut rng, i, 200, 2000, &[2, 4, 8, 16, 32]))
            .collect(),
    };
    let p = rounds(&w, ctx, ledger)?;
    if !ctx.trace {
        let run = &p.run;
        emit_end_to_end(
            m,
            &p,
            ledger,
            &run.nominal_ms(None),
            &run.nominal_ms(Some(TAG_BFDN)),
            &run.nominal_ms(Some(TAG_CTE)),
        );
        return Ok(());
    }
    server_layers(m, &p, None);
    let (first, expect) = &p.last.0;
    let (bfdn, cte) = probes(expect, 16);
    layers::emit(
        m,
        &LayerInputs {
            requests: w.pool.iter().map(explore_doc).collect(),
            replies: first.iter().map(as_hit).collect(),
            results: first.clone(),
            bfdn: layers::round_loops(&specs_of(bfdn), 1)?,
            cte: layers::round_loops(&specs_of(cte), 1)?,
            store_records: layers::execute(&population(ctx))?,
        },
        &ctx.work,
        ctx.seed,
    )
}

/// `cold-compute`: one client cycles never-cached specs, so tree build,
/// the round loop and bound tracking carry the time.
struct ColdCompute {
    seed: u64,
    shrink: u64,
    /// Requests sent so far across rounds: request `q` is class
    /// `COLD_ORDER[q % 12]` with an instance seed of its own, so no spec
    /// repeats within a run.
    next: AtomicU64,
}

impl Workload for ColdCompute {
    /// Answers of the first cycles, kept for the one-shot probes.
    type Data = Mutex<Vec<ExploreResult>>;
    const CLIENTS: usize = 1;
    const GAUGED: bool = true;
    /// Set-up only starts the daemon.
    const SETUP_GAUGED: bool = false;

    fn set_up(
        &self,
        ctx: &Ctx,
        dir: &Path,
        _: &mut Tally,
    ) -> Result<(Daemon, Self::Data, Duration), String> {
        Ok((
            Daemon::spawn(&ctx.serve, dir, None)?,
            Mutex::new(Vec::new()),
            Duration::ZERO,
        ))
    }

    fn send(
        &self,
        kept: &Self::Data,
        daemon: &Daemon,
        client: &mut Client,
        _: &mut Rng,
        tag: TraceTag,
        tally: &mut Tally,
    ) -> Option<Shot> {
        let q = self.next.fetch_add(1, Ordering::Relaxed);
        let j = COLD_ORDER[q as usize % COLD_ORDER.len()];
        let spec = specs::cold_spec(self.seed, &COLD_CLASSES[j], q, self.shrink);
        // One connection per request, as `bfdn-request` does: on a
        // kept-alive connection the reply stall fires on some cold
        // replies and not on others, which would swamp the compute time
        // this workload exists to measure.
        let (ms, reply, root_ms) = call(client, tag, |_| {
            let mut one = daemon.client()?;
            one.set_trace(tag.carried());
            one.explore(spec.clone())
        });
        let r = book(tally, reply, |r| check_fresh(&spec, r))?;
        let mut kept = kept.lock().expect("kept answers");
        if kept.len() < 64 {
            kept.push(r);
        }
        Some(Shot {
            ms,
            class: j,
            specs: 1,
            root_ms,
            traced: false,
        })
    }

    fn probes(&self, kept: &Self::Data) -> (Vec<Answered>, Vec<Answered>) {
        let kept = kept.lock().expect("kept answers");
        let in_class = |r: &&ExploreResult, c: usize| {
            r.spec.algorithm == COLD_CLASSES[c].1 && r.spec.family == COLD_CLASSES[c].2
        };
        let pick = |c: usize| {
            kept.iter()
                .filter(|r| in_class(r, c))
                .map(answered)
                .collect()
        };
        (pick(BFDN_CLASS), pick(CTE_CLASS))
    }
}

fn cold_compute(ctx: &Ctx, ledger: &mut Ledger, m: &mut Metrics) -> Result<(), String> {
    let w = ColdCompute {
        seed: ctx.seed,
        shrink: ctx.shrink(),
        next: AtomicU64::new(0),
    };
    let p = rounds(&w, ctx, ledger)?;
    if !ctx.trace {
        let run = &p.run;
        let rr = run.nominal_ms(Some(BFDN_CLASS));
        emit_end_to_end(m, &p, ledger, &rr, &rr, &run.nominal_ms(Some(CTE_CLASS)));
        return Ok(());
    }
    server_layers(m, &p, Some(BFDN_CLASS));
    let kept = p.last.0.lock().expect("kept answers").clone();
    let cycle0: Vec<(&str, ExploreSpec)> = COLD_CLASSES
        .iter()
        .map(|c| (c.0, specs::cold_spec(ctx.seed, c, 0, ctx.shrink())))
        .collect();
    let split = layers::breakdown(&cycle0, 9)?;
    layers::emit(
        m,
        &LayerInputs {
            requests: cycle0.iter().map(|(_, s)| explore_doc(s)).collect(),
            replies: kept.iter().map(as_hit).collect(),
            results: kept,
            bfdn: vec![split[BFDN_CLASS]],
            cte: vec![split[CTE_CLASS]],
            store_records: layers::execute(&population(ctx))?,
        },
        &ctx.work,
        ctx.seed,
    )
}

/// `store-tier`: the daemon restarts on a populated store with a
/// resident budget far below the working set, so nearly every batch
/// item is an indexed disk read, a decompress and a re-admit.
struct StoreTier {
    pop: Vec<ExploreSpec>,
    batch: usize,
    /// Never-seen specs sent so far.
    fresh: AtomicU64,
}

impl StoreTier {
    /// A batch: uniform draws from the population plus one never-seen
    /// spec (a seed outside the population's range) at a seeded slot of
    /// every [`SUB_JOB`] items. One new item per sub-job executes inline;
    /// two or more make the daemon spawn a thread for that sub-job, and
    /// those spawns made the batch time swing with the host's load.
    fn make_batch(&self, rng: &mut Rng) -> Vec<(ExploreSpec, Option<usize>)> {
        let mut slot = 0;
        (0..self.batch)
            .map(|j| {
                if j % SUB_JOB == 0 {
                    slot = rng.below(SUB_JOB as u64) as usize;
                }
                if j % SUB_JOB == slot {
                    let c = self.fresh.fetch_add(1, Ordering::Relaxed);
                    let mut s = specs::small_spec(rng, c as usize, 16, 128, &SMALL_KS);
                    s.seed = (1 << 40) | c;
                    (s, None)
                } else {
                    let i = rng.below(self.pop.len() as u64) as usize;
                    (self.pop[i].clone(), Some(i))
                }
            })
            .collect()
    }
}

impl Workload for StoreTier {
    type Data = (Vec<ExploreResult>, Vec<Answered>);
    /// One client: with two, batches saturate both cores and the
    /// run-to-run spread of the batch p50 reached 0.16 (see README).
    const CLIENTS: usize = 1;
    const GAUGED: bool = true;
    const SETUP_GAUGED: bool = true;

    fn set_up(
        &self,
        ctx: &Ctx,
        dir: &Path,
        tally: &mut Tally,
    ) -> Result<(Daemon, Self::Data, Duration), String> {
        let filler = Daemon::spawn(&ctx.serve, dir, None)?;
        let first = answer_all(&filler, &self.pop, self.batch, tally)?;
        // The filler's exit waits for the daemon's 250 ms store
        // maintenance tick. Timed, it made `setup_s` jump by a quarter
        // second whenever populating crossed a tick, so it is left out.
        let stopping = Instant::now();
        filler
            .stop()
            .map_err(|e| format!("populating daemon: {e}"))?;
        let untimed = stopping.elapsed();
        let expect = first.iter().map(answered).collect();
        Ok((
            Daemon::spawn(&ctx.serve, dir, Some(STORE_BUDGET))?,
            (first, expect),
            untimed,
        ))
    }

    fn send(
        &self,
        data: &Self::Data,
        _: &Daemon,
        client: &mut Client,
        rng: &mut Rng,
        tag: TraceTag,
        tally: &mut Tally,
    ) -> Option<Shot> {
        let items = self.make_batch(rng);
        let sent: Vec<ExploreSpec> = items.iter().map(|(s, _)| s.clone()).collect();
        let new = items.iter().filter(|(_, i)| i.is_none()).count() as u64;
        let (ms, reply, root_ms) = call(client, tag, |c| c.batch(sent));
        book(tally, reply, |(rs, _, misses)| {
            if rs.len() != items.len() || *misses != new {
                return Err(format!(
                    "batch of {} answered {} ({misses} executed, {new} new)",
                    items.len(),
                    rs.len()
                ));
            }
            items.iter().zip(rs).try_for_each(|((s, i), r)| match i {
                Some(i) => check_hit(&data.1[*i], r),
                None => check_fresh(s, r),
            })
        })?;
        Some(Shot {
            ms,
            class: 0,
            specs: items.len() as u64,
            root_ms,
            traced: false,
        })
    }

    fn probes(&self, data: &Self::Data) -> (Vec<Answered>, Vec<Answered>) {
        probes(&data.1, 64)
    }
}

fn store_tier(ctx: &Ctx, ledger: &mut Ledger, m: &mut Metrics) -> Result<(), String> {
    let w = StoreTier {
        pop: population(ctx),
        batch: ctx.batch(),
        fresh: AtomicU64::new(0),
    };
    let p = rounds(&w, ctx, ledger)?;
    if !ctx.trace {
        let (b, c) = &p.oneshot;
        emit_end_to_end(m, &p, ledger, &p.run.nominal_ms(None), b, c);
        return Ok(());
    }
    server_layers(m, &p, None);
    let (first, expect) = &p.last.0;
    let mut rng = Rng::new(ctx.seed, 4);
    let (bfdn, cte) = probes(expect, 16);
    let batch_docs = (0..4)
        .map(|_| {
            Request::Batch(w.make_batch(&mut rng).into_iter().map(|(s, _)| s).collect()).to_json()
        })
        .collect();
    let replies = first
        .chunks(ctx.batch())
        .map(|rs| Response::Batch {
            results: rs
                .iter()
                .map(|r| ExploreResult {
                    cached: true,
                    ..r.clone()
                })
                .collect(),
            hits: rs.len() as u64,
            misses: 0,
        })
        .collect();
    layers::emit(
        m,
        &LayerInputs {
            requests: batch_docs,
            replies,
            results: first.clone(),
            bfdn: layers::round_loops(&specs_of(bfdn), 1)?,
            cte: layers::round_loops(&specs_of(cte), 1)?,
            store_records: first.clone(),
        },
        &ctx.work,
        ctx.seed,
    )
}
