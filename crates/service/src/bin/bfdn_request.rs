//! `bfdn-request` — issue one request to a running `bfdn-serve`.
//!
//! ```text
//! bfdn-request [--addr HOST:PORT] [--retry N] [--backoff-ms M]
//!              [--backoff-jitter MS] [--jitter-seed N] [--trace]
//!              explore --algo A --family F --n N --k K --seed S
//!              [--manifest] [--delay-ms MS]
//! bfdn-request [--addr HOST:PORT] [--retry N] [--backoff-ms M]
//!              [--backoff-jitter MS] [--jitter-seed N] [--trace]
//!              batch --algos A,B --families F,G
//!              --n N --ks K1,K2 --seeds S [--delay-ms MS]
//! bfdn-request [--addr HOST:PORT] trace [--id HEX16]
//! bfdn-request [--addr HOST:PORT] status
//! bfdn-request [--addr HOST:PORT] cache-stats
//! bfdn-request [--addr HOST:PORT] metrics
//! bfdn-request [--addr HOST:PORT] shutdown
//! ```
//!
//! `explore` and `batch` print the cache-stable payload JSON of each
//! result to stdout, one per line and in deterministic request order —
//! so two identical invocations against a warm vs. cold server must
//! produce byte-identical stdout, which is exactly what the CI service
//! smoke job diffs. Bookkeeping (`cached=…`, `hits=… misses=…`) goes to
//! stderr. `batch` expands the cross product `algos × families × ks ×
//! seeds 0..S` in that nesting order. `metrics` prints the daemon's
//! Prometheus exposition.
//!
//! A structured server error exits non-zero with a distinct code:
//! `3` for `busy` backpressure, `4` for a draining (`shutting_down`)
//! server, `1` for everything else. `--retry N` re-issues a
//! `busy`-rejected explore/batch up to `N` more times, sleeping
//! `--backoff-ms M` (default 100) plus a uniformly drawn `0..=J` ms of
//! jitter (`--backoff-jitter J`, default = the backoff itself, so
//! sleeps span one to two backoff intervals) between attempts — the
//! jitter decorrelates clients rejected by the same Busy burst so they
//! do not re-arrive as a thundering herd. The jitter stream is seeded
//! (`--jitter-seed`, default: process id) and therefore reproducible.
//!
//! `--trace` attaches a client-generated trace id (derived from the
//! jitter seed, so reproducible with `--jitter-seed`) to the explore or
//! batch request, then fetches the server-side span tree for that id
//! and prints an indented breakdown to stderr. Busy/draining failures
//! (exit codes 3 and 4) include the trace id so the rejected attempt can
//! still be found in the server's span ring. The `trace` verb dumps the
//! server's recent-span ring as one JSON span per line (optionally
//! filtered to one trace with `--id`).

use bfdn_obs::tracing::{hex16, parse_hex16};
use bfdn_service::client::Client;
use bfdn_service::protocol::{ErrorCode, ExploreSpec, Request, Response, SpanPayload, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

struct Invocation {
    addr: String,
    retry: u32,
    backoff_ms: u64,
    backoff_jitter: u64,
    jitter_seed: u64,
    trace: bool,
    command: Command,
}

enum Command {
    Explore(ExploreSpec),
    Batch(Vec<ExploreSpec>),
    Trace(Option<u64>),
    Status,
    CacheStats,
    Metrics,
    Shutdown,
}

fn parse(args: Vec<String>) -> Result<Invocation, String> {
    let mut it = args.into_iter().peekable();
    let mut addr = "127.0.0.1:4077".to_string();
    let mut retry = 0u32;
    let mut backoff_ms = 100u64;
    let mut backoff_jitter: Option<u64> = None;
    let mut jitter_seed = u64::from(std::process::id());
    let mut trace = false;
    loop {
        match it.peek().map(String::as_str) {
            Some("--addr") => {
                it.next();
                addr = it.next().ok_or("--addr needs a value")?;
            }
            Some("--retry") => {
                it.next();
                let v = it.next().ok_or("--retry needs a value")?;
                retry = v.parse().map_err(|_| format!("bad --retry `{v}`"))?;
            }
            Some("--backoff-ms") => {
                it.next();
                let v = it.next().ok_or("--backoff-ms needs a value")?;
                backoff_ms = v.parse().map_err(|_| format!("bad --backoff-ms `{v}`"))?;
            }
            Some("--backoff-jitter") => {
                it.next();
                let v = it.next().ok_or("--backoff-jitter needs a value")?;
                backoff_jitter = Some(
                    v.parse()
                        .map_err(|_| format!("bad --backoff-jitter `{v}`"))?,
                );
            }
            Some("--jitter-seed") => {
                it.next();
                let v = it.next().ok_or("--jitter-seed needs a value")?;
                jitter_seed = v.parse().map_err(|_| format!("bad --jitter-seed `{v}`"))?;
            }
            Some("--trace") => {
                it.next();
                trace = true;
            }
            _ => break,
        }
    }
    // Full jitter by default: an extra uniform 0..=backoff on top of the
    // fixed backoff keeps simultaneously rejected clients decorrelated.
    let backoff_jitter = backoff_jitter.unwrap_or(backoff_ms);
    let verb = it.next().ok_or(
        "missing command (one of: explore, batch, trace, status, cache-stats, metrics, shutdown)",
    )?;
    let rest: Vec<String> = it.collect();
    let command = match verb.as_str() {
        "explore" => Command::Explore(parse_explore(rest)?),
        "batch" => Command::Batch(parse_batch(rest)?),
        "trace" => Command::Trace(parse_trace(rest)?),
        "status" => Command::Status,
        "cache-stats" => Command::CacheStats,
        "metrics" => Command::Metrics,
        "shutdown" => Command::Shutdown,
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Invocation {
        addr,
        retry,
        backoff_ms,
        backoff_jitter,
        jitter_seed,
        trace,
        command,
    })
}

fn parse_trace(args: Vec<String>) -> Result<Option<u64>, String> {
    let mut filter = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--id" => {
                let v = it.next().ok_or("--id needs a value")?;
                let id = parse_hex16(&v)
                    .filter(|&id| id != 0)
                    .ok_or_else(|| format!("bad --id `{v}` (want 16 nonzero hex digits)"))?;
                filter = Some(id);
            }
            other => return Err(format!("unknown trace flag `{other}`")),
        }
    }
    Ok(filter)
}

fn parse_explore(args: Vec<String>) -> Result<ExploreSpec, String> {
    let mut spec = ExploreSpec::new("bfdn", "random-recursive", 1000, 8, 42);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--algo" => spec.algorithm = value("--algo")?,
            "--family" => spec.family = value("--family")?,
            "--n" => spec.n = parse_u64("--n", &value("--n")?)?,
            "--k" => spec.k = parse_u64("--k", &value("--k")?)?,
            "--seed" => spec.seed = parse_u64("--seed", &value("--seed")?)?,
            "--manifest" => spec.options.manifest = true,
            "--delay-ms" => spec.options.delay_ms = parse_u64("--delay-ms", &value("--delay-ms")?)?,
            other => return Err(format!("unknown explore flag `{other}`")),
        }
    }
    Ok(spec)
}

fn parse_batch(args: Vec<String>) -> Result<Vec<ExploreSpec>, String> {
    let mut algos = vec!["bfdn".to_string()];
    let mut families = vec!["random-recursive".to_string()];
    let mut n = 1000u64;
    let mut ks = vec![8u64];
    let mut seeds = 1u64;
    let mut delay_ms = 0u64;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--algos" => algos = split_list(&value("--algos")?),
            "--families" => families = split_list(&value("--families")?),
            "--n" => n = parse_u64("--n", &value("--n")?)?,
            "--ks" => {
                ks = split_list(&value("--ks")?)
                    .iter()
                    .map(|v| parse_u64("--ks", v))
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => seeds = parse_u64("--seeds", &value("--seeds")?)?,
            "--delay-ms" => delay_ms = parse_u64("--delay-ms", &value("--delay-ms")?)?,
            other => return Err(format!("unknown batch flag `{other}`")),
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let mut specs = Vec::new();
    for algo in &algos {
        for family in &families {
            for &k in &ks {
                for seed in 0..seeds {
                    let mut spec = ExploreSpec::new(algo.clone(), family.clone(), n, k, seed);
                    spec.options.delay_ms = delay_ms;
                    specs.push(spec);
                }
            }
        }
    }
    Ok(specs)
}

fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

fn parse_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("bad {name} `{v}`"))
}

/// A failure with its process exit code: `3` for busy backpressure,
/// `4` for a draining server, `1` otherwise.
struct Failure {
    message: String,
    exit: u8,
}

impl Failure {
    fn plain(message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            exit: 1,
        }
    }

    /// Structured rendering of the daemon's error: the wire code tag,
    /// then the human-readable detail.
    fn from_wire(e: &WireError) -> Self {
        Failure {
            message: format!(
                "server refused the request ({}): {}",
                e.code.as_str(),
                e.message
            ),
            exit: match e.code {
                ErrorCode::Busy => 3,
                ErrorCode::ShuttingDown => 4,
                _ => 1,
            },
        }
    }

    fn from_client(e: &bfdn_service::client::ClientError) -> Self {
        match e.as_server_error() {
            Some(wire) => Failure::from_wire(wire),
            None => Failure::plain(e.to_string()),
        }
    }

    /// Tags busy/draining failures (exit codes 3 and 4) with the trace
    /// id the rejected request carried, so the attempt can still be
    /// correlated with the server's span ring.
    fn with_trace(mut self, trace: Option<u64>) -> Self {
        if let Some(id) = trace {
            if self.exit == 3 || self.exit == 4 {
                self.message = format!("{} [trace_id={}]", self.message, hex16(id));
            }
        }
        self
    }
}

/// Busy-retry policy: attempt budget, fixed backoff, and the seeded
/// jitter stream drawn on top of it.
struct RetryPolicy {
    retry: u32,
    backoff_ms: u64,
    backoff_jitter: u64,
    rng: StdRng,
}

impl RetryPolicy {
    fn new(invocation: &Invocation) -> Self {
        RetryPolicy {
            retry: invocation.retry,
            backoff_ms: invocation.backoff_ms,
            backoff_jitter: invocation.backoff_jitter,
            rng: StdRng::seed_from_u64(invocation.jitter_seed),
        }
    }

    /// The next sleep: fixed backoff plus a uniform draw from
    /// `0..=backoff_jitter` milliseconds.
    fn next_sleep_ms(&mut self) -> u64 {
        let jitter = match usize::try_from(self.backoff_jitter) {
            Ok(0) | Err(_) => 0,
            Ok(cap) => self.rng.random_range(0..=cap) as u64,
        };
        self.backoff_ms.saturating_add(jitter)
    }
}

/// Runs `attempt` up to `1 + retry` times, sleeping backoff + jitter
/// between tries; only `busy` answers are retried — a draining server
/// will not come back.
fn with_retry<T>(
    policy: &mut RetryPolicy,
    mut attempt: impl FnMut() -> Result<T, bfdn_service::client::ClientError>,
) -> Result<T, Failure> {
    let mut tries_left = policy.retry;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let busy = e
                    .as_server_error()
                    .is_some_and(|w| w.code == ErrorCode::Busy);
                if busy && tries_left > 0 {
                    tries_left -= 1;
                    let sleep_ms = policy.next_sleep_ms();
                    eprintln!(
                        "bfdn-request: server busy, retrying in {sleep_ms} ms ({tries_left} retries left)"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                    continue;
                }
                let mut failure = Failure::from_client(&e);
                if busy {
                    failure.message =
                        format!("{} (after {} attempts)", failure.message, policy.retry + 1);
                }
                return Err(failure);
            }
        }
    }
}

fn run(invocation: Invocation) -> Result<(), Failure> {
    let mut policy = RetryPolicy::new(&invocation);
    let mut client = Client::connect(&invocation.addr)
        .map_err(|e| Failure::plain(format!("cannot connect to {}: {e}", invocation.addr)))?;
    // The trace id is drawn from its own copy of the seeded stream so it
    // is reproducible with --jitter-seed yet leaves the backoff jitter
    // sequence untouched. `| 1` keeps it off the reserved zero id.
    let trace = invocation
        .trace
        .then(|| StdRng::seed_from_u64(invocation.jitter_seed).random::<u64>() | 1);
    client.set_trace(trace);
    match invocation.command {
        Command::Explore(spec) => {
            let result = with_retry(&mut policy, || client.explore(spec.clone()))
                .map_err(|f| f.with_trace(trace))?;
            eprintln!("cached={}", result.cached);
            println!("{}", result.payload_json());
            print_trace_breakdown(&mut client, trace)?;
        }
        Command::Batch(specs) => {
            let count = specs.len();
            let (results, hits, misses) = with_retry(&mut policy, || client.batch(specs.clone()))
                .map_err(|f| f.with_trace(trace))?;
            for result in &results {
                println!("{}", result.payload_json());
            }
            eprintln!("hits={hits} misses={misses} ({count} items)");
            print_trace_breakdown(&mut client, trace)?;
        }
        Command::Trace(filter) => {
            let payload = client
                .trace_spans(filter)
                .map_err(|e| Failure::from_client(&e))?;
            for span in &payload.spans {
                println!("{}", span.to_json_value());
            }
            eprintln!(
                "spans={} recorded={} dropped={}",
                payload.spans.len(),
                payload.recorded,
                payload.dropped
            );
        }
        Command::Status => {
            print_document(&mut client, &Request::Status)?;
        }
        Command::CacheStats => {
            print_document(&mut client, &Request::CacheStats)?;
        }
        Command::Metrics => {
            let text = client.metrics().map_err(|e| Failure::from_client(&e))?;
            print!("{text}");
        }
        Command::Shutdown => {
            client.shutdown().map_err(|e| Failure::from_client(&e))?;
            eprintln!("server acknowledged shutdown");
        }
    }
    Ok(())
}

/// Fetches and prints the server-side span tree for `trace` (when set)
/// as an indented breakdown on stderr. The fetch happens on the same
/// connection right after the traced request, so the spans are already
/// in the ring by the time we ask.
fn print_trace_breakdown(client: &mut Client, trace: Option<u64>) -> Result<(), Failure> {
    let Some(id) = trace else { return Ok(()) };
    let payload = client
        .trace_spans(Some(id))
        .map_err(|e| Failure::from_client(&e))?;
    eprintln!(
        "trace {} ({} spans, recorder dropped {})",
        hex16(id),
        payload.spans.len(),
        payload.dropped
    );
    let roots: Vec<&SpanPayload> = payload.spans.iter().filter(|s| s.parent == 0).collect();
    for root in roots {
        print_span(&payload.spans, root, 1);
    }
    Ok(())
}

fn print_span(spans: &[SpanPayload], span: &SpanPayload, depth: usize) {
    let attrs: Vec<String> = span
        .attrs
        .iter()
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    eprintln!(
        "{:indent$}{} {:.1}us {}",
        "",
        span.name,
        span.duration_ns as f64 / 1_000.0,
        attrs.join(" "),
        indent = depth * 2
    );
    for child in spans.iter().filter(|s| s.parent == span.span) {
        print_span(spans, child, depth + 1);
    }
}

/// Prints the raw (already-JSON) reply document for introspection verbs.
fn print_document(client: &mut Client, request: &Request) -> Result<(), Failure> {
    match client
        .request(request)
        .map_err(|e| Failure::from_client(&e))?
    {
        Response::Error(e) => Err(Failure::from_wire(&e)),
        reply => {
            println!("{}", reply.to_json());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let invocation = match parse(std::env::args().skip(1).collect()) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("bfdn-request: {e}");
            return ExitCode::from(2);
        }
    };
    match run(invocation) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bfdn-request: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}
