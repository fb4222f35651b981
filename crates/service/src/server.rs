//! The serving daemon: a threaded TCP server with a bounded job queue,
//! a worker pool, and the content-addressed result cache in front of
//! execution.
//!
//! Life of a request: a connection handler thread reads one frame,
//! decodes and validates it, looks every spec up in the cache exactly
//! once and answers the hits itself; an explore is a batch of one. The
//! misses become jobs of at most `MAX_JOB_SPECS` specs on a bounded
//! queue, sized to spread one request over the worker pool — when the
//! queue is at its configured depth the handler replies
//! [`ErrorCode::Busy`] instead of blocking, which is the service's
//! backpressure contract. Each worker runs its job's specs inline, in
//! order, so the pool is the only scheduler. Every executed spec lands
//! in the cache before its reply is sent.
//!
//! [`Request::Shutdown`] answers [`Response::Bye`], stops accepting new
//! work, drains the queue and in-flight jobs, and lets
//! [`ServerHandle::join`] return. Every executed result was written to
//! the store before its reply, and the store is append-once and opens
//! by scanning its segments, so shutdown has nothing to flush and a
//! SIGKILL loses nothing but a torn tail.

use crate::cache::{CacheConfig, ResultCache};
use crate::exec;
use crate::parallel;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, ExploreResult, ExploreSpec, FrameError, Request, Response,
    SpanPayload, StatusPayload, TracePayload, WireError,
};
use crate::telemetry::{AccessLog, AccessRecord, ServiceMetrics, SLOW_REQUEST_NS};
use bfdn_obs::tracing::{hex16, SpanRecord, SpanRecorder, SpanSink, TraceWriter, Tracer};
use bfdn_obs::NullSink;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration (all fields have serviceable defaults).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4077` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads draining the job queue; defaults to
    /// [`parallel::num_threads`].
    pub workers: Option<usize>,
    /// Jobs the queue holds before new misses are rejected with
    /// [`ErrorCode::Busy`] (one job carries up to 32 cache misses of
    /// one request).
    pub queue_depth: usize,
    /// Result-cache sizing.
    pub cache: CacheConfig,
    /// When set, the cache is backed by a log-structured compressed
    /// result store in this directory: every executed result is written
    /// through once (the store never rewrites a key), a memory miss
    /// falls back to an indexed disk read (the `store_hit` outcome),
    /// and a restart against the same directory serves yesterday's
    /// results byte-identically without loading them resident.
    pub store_dir: Option<PathBuf>,
    /// Hard budget for payload bytes resident in the in-memory cache
    /// tier; requires `store_dir` (overflow must have somewhere to
    /// live). `None` leaves the memory tier bounded by entry count
    /// only.
    pub store_budget_bytes: Option<u64>,
    /// When set, a plain-HTTP listener on this address answers
    /// `GET /metrics` with the Prometheus exposition (port 0 picks a
    /// free one), so standard scrapers work without the wire protocol.
    pub metrics_addr: Option<String>,
    /// When set, every finished request appends one JSON line (id,
    /// type, spec key, outcome, phase timings) to this file.
    pub access_log: Option<PathBuf>,
    /// Per-connection read budget in milliseconds: the idle wait for the
    /// next frame *and* the deadline for completing a started frame
    /// (slow-loris writers are cut off, not accumulated). `0` disables
    /// the deadline. The same budget bounds reply writes to peers that
    /// stop reading.
    pub read_timeout_ms: u64,
    /// When set, every recorded span is also streamed to this file —
    /// JSONL per-span lines, or a Perfetto-loadable Chrome trace-event
    /// array when the path ends in `.json`.
    pub trace_out: Option<PathBuf>,
    /// Rotate the access log to `<path>.1` (keeping one generation)
    /// when a line would push it past this many bytes; `0` (the
    /// default) never rotates.
    pub access_log_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4077".into(),
            workers: None,
            queue_depth: 64,
            cache: CacheConfig::default(),
            store_dir: None,
            store_budget_bytes: None,
            metrics_addr: None,
            access_log: None,
            read_timeout_ms: 30_000,
            trace_out: None,
            access_log_max_bytes: 0,
        }
    }
}

/// Specs one job carries at most. A request's misses are cut into
/// `misses / workers` (rounded up) specs per job under this cap, so a
/// large batch spreads over the pool yet leaves queue slots between its
/// jobs for other clients.
const MAX_JOB_SPECS: usize = 32;

/// Threads answering `/metrics` scrapes: the listener hands accepted
/// sockets to this fixed pool instead of spawning a thread per scrape.
const METRICS_SCRAPERS: usize = 2;

/// An active trace context: the trace id and the span new child spans
/// should be parented under.
#[derive(Clone, Copy)]
struct SpanCtx {
    trace: u64,
    parent: u64,
}

/// One queued unit of work — cache misses of one request, run in order
/// on one worker — plus the channel its reply goes back on.
struct Job {
    specs: Vec<ExploreSpec>,
    enqueued: Instant,
    reply: mpsc::Sender<JobReply>,
    /// The job's `chunk` span context, carried across the queue so the
    /// worker's `queue_wait`/`execute` spans join the caller's tree.
    trace: Option<SpanCtx>,
}

/// A finished job: its results in spec order (or the first error) and
/// the phase timings the connection handler logs.
struct JobReply {
    results: Result<Vec<ExploreResult>, WireError>,
    queue_wait_ns: u64,
    exec_ns: u64,
}

/// Why a job could not be enqueued.
enum PushError {
    Full,
    Closed,
}

/// The bounded job queue: a mutex-guarded deque with a condvar for the
/// workers and an explicit capacity for the backpressure contract.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Jobs popped but not yet marked [`JobQueue::done`]. Counted under
    /// the same lock as `jobs`, so a job is always visible in one of
    /// the two.
    in_flight: usize,
    open: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                open: true,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push: full queues reject instead of waiting — that
    /// is the whole point of the depth limit.
    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("job queue");
        if !state.open {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking push: waits for a free slot instead of rejecting. Used
    /// only for the later jobs of an already-accepted request — its
    /// first job went through [`JobQueue::push`], so the backpressure
    /// contract (a full queue answers `Busy` to *new* work) is
    /// preserved, while a started request is guaranteed to finish.
    /// Progress is guaranteed because workers never block on a push.
    fn push_wait(&self, job: Job) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("job queue");
        loop {
            if !state.open {
                return Err(PushError::Closed);
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                self.ready.notify_one();
                return Ok(());
            }
            state = self.space.wait(state).expect("job queue");
        }
    }

    /// Blocking pop; returns `None` only when the queue is closed *and*
    /// fully drained, so every accepted job is executed before workers
    /// exit. The popped job counts as in flight until [`JobQueue::done`].
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.in_flight += 1;
                self.space.notify_one();
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).expect("job queue");
        }
    }

    /// Closes the queue: pushes start failing, workers drain what is
    /// left and then exit.
    fn close(&self) {
        let mut state = self.state.lock().expect("job queue");
        state.open = false;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Marks one popped job finished.
    fn done(&self) {
        self.state.lock().expect("job queue").in_flight -= 1;
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("job queue").jobs.len()
    }

    fn in_flight(&self) -> usize {
        self.state.lock().expect("job queue").in_flight
    }

    /// The drain condition every background loop exits on: the queue
    /// is closed, empty, and no popped job is still running. Read under
    /// one lock, so a job between [`JobQueue::pop`] and
    /// [`JobQueue::done`] is never missed.
    fn drained(&self) -> bool {
        let state = self.state.lock().expect("job queue");
        !state.open && state.jobs.is_empty() && state.in_flight == 0
    }
}

/// Monotonic counters exposed through [`Request::Status`].
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    explores: AtomicU64,
    batches: AtomicU64,
    rejects: AtomicU64,
    completed: AtomicU64,
    queue_wait_ns: AtomicU64,
    exec_ns: AtomicU64,
}

/// State shared by the accept loop, connection handlers and workers.
struct Shared {
    queue: JobQueue,
    cache: ResultCache,
    counters: Counters,
    telemetry: ServiceMetrics,
    access_log: Option<AccessLog>,
    tracer: Tracer,
    workers: usize,
    read_timeout_ms: u64,
    started: Instant,
}

impl Shared {
    fn status(&self) -> StatusPayload {
        let cache = self.cache.stats();
        StatusPayload {
            requests: self.counters.requests.load(Ordering::Relaxed),
            explores: self.counters.explores.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            rejects: self.counters.rejects.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
            queue_capacity: self.queue.capacity as u64,
            workers: self.workers as u64,
            in_flight: self.queue.in_flight() as u64,
            queue_wait_ns: self.counters.queue_wait_ns.load(Ordering::Relaxed),
            exec_ns: self.counters.exec_ns.load(Ordering::Relaxed),
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Records a completed span under `ctx`, measured from `start_ns`
    /// (recorder timebase) to now. No-op when the request is untraced.
    fn span(&self, ctx: Option<SpanCtx>, name: &'static str, start_ns: u64) -> Option<SpanRecord> {
        let c = ctx?;
        let duration = self.tracer.now_ns().saturating_sub(start_ns);
        Some(SpanRecord::new(c.trace, self.tracer.next_id(), c.parent, name).at(start_ns, duration))
    }

    /// Runs one cache-missed spec and stores the result. Every
    /// execution feeds its Theorem 1 / Lemma 2 margins into the
    /// daemon-wide aggregates. When `ctx` is set, the run (with its
    /// simulator phases) and the insert each get a span.
    fn execute(
        &self,
        spec: &ExploreSpec,
        ctx: Option<SpanCtx>,
    ) -> Result<ExploreResult, WireError> {
        let run_start = self.tracer.now_ns();
        let run_span = ctx.map(|c| (c, self.tracer.next_id()));
        let (result, _, margins) = match run_span {
            Some((c, span)) => exec::execute(spec, SpanSink::new(&self.tracer, c.trace, span))?,
            None => exec::execute(spec, NullSink)?,
        };
        if let Some((c, span)) = run_span {
            let duration = self.tracer.now_ns().saturating_sub(run_start);
            self.tracer.record(
                SpanRecord::new(c.trace, span, c.parent, "run_spec")
                    .at(run_start, duration)
                    .attr_str("key", spec.canonical()),
            );
        }
        self.telemetry.record_margins(&result, margins);
        let insert_start = self.tracer.now_ns();
        self.cache.put(&result);
        if let Some(span) = self.span(ctx, "cache_insert", insert_start) {
            self.tracer.record(span);
        }
        Ok(result)
    }

    /// Snapshots the recent-span ring for a [`Request::Trace`] reply,
    /// keeping only `filter`'s spans when the request carried a trace
    /// envelope.
    fn trace_snapshot(&self, filter: Option<u64>) -> TracePayload {
        let recorder = self.tracer.recorder();
        let spans = recorder
            .snapshot()
            .iter()
            .filter(|s| filter.is_none() || filter == Some(s.trace))
            .map(SpanPayload::from)
            .collect();
        TracePayload {
            spans,
            recorded: recorder.recorded(),
            dropped: recorder.dropped(),
        }
    }

    /// Refreshes the point-in-time gauges and renders the full
    /// Prometheus exposition (shared by the `Metrics` wire request and
    /// the HTTP listener).
    fn render_metrics(&self) -> String {
        if let Some(stats) = self.cache.store_stats() {
            self.telemetry.mirror_store(&stats);
        }
        self.telemetry.render(
            &self.cache.stats(),
            self.queue.depth() as u64,
            self.queue.in_flight() as u64,
        )
    }
}

/// A running server; dropping the handle does **not** stop it — send
/// [`Request::Shutdown`] (or call [`ServerHandle::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    metrics: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-HTTP address when `--metrics-addr` was
    /// configured (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Programmatic equivalent of a [`Request::Shutdown`] frame.
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }

    /// Waits for the accept loop and workers to finish draining, then
    /// closes the trace export.
    ///
    /// Only returns once a shutdown was requested (by frame or by
    /// [`ServerHandle::shutdown`]); every in-flight job completes and
    /// every queued job is executed before this returns.
    pub fn join(self) -> io::Result<()> {
        self.accept.join().map_err(|_| worker_panic())?;
        for m in self.metrics {
            m.join().map_err(|_| worker_panic())?;
        }
        for w in self.workers {
            w.join().map_err(|_| worker_panic())?;
        }
        if let Err(e) = self.shared.tracer.close() {
            eprintln!("bfdn-serve: trace export failed: {e}");
        }
        Ok(())
    }
}

fn worker_panic() -> io::Error {
    io::Error::other("a server thread panicked")
}

/// Binds the listener, opens the result store when configured, and
/// spawns the accept loop plus the worker pool.
///
/// # Errors
///
/// Propagates the bind / store-open I/O error.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = config.workers.unwrap_or_else(parallel::num_threads).max(1);
    let mut cache = ResultCache::new(config.cache);
    if let Some(dir) = &config.store_dir {
        let mut store_config = bfdn_store::StoreConfig::new(dir);
        store_config.revision = bfdn_obs::git_revision();
        let (store, report) = bfdn_store::Store::open(store_config)?;
        if report.revision_mismatch {
            eprintln!(
                "bfdn-serve: store {} was written by another revision — {} records refused, starting a fresh store",
                dir.display(),
                report.refused
            );
        } else if report.records > 0 {
            eprintln!(
                "bfdn-serve: result store {} opened with {} records",
                dir.display(),
                report.records
            );
        }
        if report.truncated_segments > 0 {
            eprintln!(
                "bfdn-serve: dropped {} crash-truncated segment tail(s); intact records kept",
                report.truncated_segments
            );
        }
        cache.attach_store(store, config.store_budget_bytes);
    } else if config.store_budget_bytes.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "--store-budget-bytes requires --store-dir (overflow must have somewhere to live)",
        ));
    }
    let access_log = match &config.access_log {
        Some(path) => Some(AccessLog::open(path, config.access_log_max_bytes)?),
        None => None,
    };
    let metrics_listener = match &config.metrics_addr {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(listener) => Some(listener.local_addr()?),
        None => None,
    };

    let tracer = {
        let tracer = Tracer::new(SpanRecorder::DEFAULT_CAPACITY);
        match &config.trace_out {
            Some(path) => tracer.with_writer(TraceWriter::create(path)?),
            None => tracer,
        }
    };

    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_depth.max(1)),
        cache,
        counters: Counters::default(),
        telemetry: ServiceMetrics::new(workers),
        access_log,
        tracer,
        workers,
        read_timeout_ms: config.read_timeout_ms,
        started: Instant::now(),
    });

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|index| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, index))
        })
        .collect();

    let mut metrics = Vec::new();
    if let Some(listener) = metrics_listener {
        // Scrapes are answered by a fixed pool, not thread-per-scrape:
        // the accept loop hands sockets over a bounded channel and sheds
        // load (drops the socket) when the backlog is full.
        let (scrape_tx, scrape_rx) = mpsc::sync_channel::<TcpStream>(SCRAPE_BACKLOG);
        let scrape_rx = Arc::new(Mutex::new(scrape_rx));
        for _ in 0..METRICS_SCRAPERS {
            let shared = Arc::clone(&shared);
            let scrape_rx = Arc::clone(&scrape_rx);
            metrics.push(std::thread::spawn(move || loop {
                let stream = match scrape_rx.lock().expect("scrape pool").recv() {
                    Ok(stream) => stream,
                    Err(_) => return, // listener exited, pool drains out
                };
                serve_metrics_http(stream, &shared);
            }));
        }
        let shared = Arc::clone(&shared);
        metrics.push(std::thread::spawn(move || {
            metrics_http_loop(listener, &shared, &scrape_tx)
        }));
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

    Ok(ServerHandle {
        addr,
        metrics_addr,
        shared,
        accept,
        metrics,
        workers: worker_handles,
    })
}

/// Accepted-but-unserved scrape sockets the pool will hold before the
/// listener starts shedding (dropping) new ones.
const SCRAPE_BACKLOG: usize = 16;

/// Polls the metrics listener and hands accepted sockets to the fixed
/// scrape pool; a full backlog sheds the socket instead of spawning.
/// Exits on the same condition as [`accept_loop`], so scrapes keep
/// working through a drain.
fn metrics_http_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    pool: &mpsc::SyncSender<TcpStream>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // A TrySendError in either form drops the socket: Full is
                // deliberate load-shedding, Disconnected means the pool
                // is gone and the loop is about to exit anyway.
                let _ = pool.try_send(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.queue.drained() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// One scrape: only `/metrics` is served here.
fn serve_metrics_http(stream: TcpStream, shared: &Arc<Shared>) {
    serve_http(stream, |target| {
        if target == "/metrics" || target.starts_with("/metrics?") {
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                shared.render_metrics(),
            )
        } else {
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "only /metrics is served here\n".to_string(),
            )
        }
    });
}

/// Answers one plain-HTTP request on `stream`: reads the request head
/// (a scrape has no body worth waiting for), hands the request target
/// to `route` for its `(status, content type, body)`, writes a
/// `Connection: close` response and drops the socket. A read error or
/// timeout before the head completes drops the socket unanswered.
pub fn serve_http(
    mut stream: TcpStream,
    route: impl FnOnce(&str) -> (&'static str, &'static str, String),
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    // Read until the end of the request head or the 4 KiB cap.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 4096 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let target = request_line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .unwrap_or("");
    let (status, content_type, body) = route(target);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Polls the non-blocking listener so the loop can observe a shutdown;
/// exits once the queue is closed and empty with nothing in flight.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.queue.drained() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// Drains the job queue until it is closed and empty.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    while let Some(job) = shared.queue.pop() {
        let waited = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared
            .counters
            .queue_wait_ns
            .fetch_add(waited, Ordering::Relaxed);
        shared.telemetry.observe_queue_wait(waited as f64 / 1e9);
        if let Some(c) = job.trace {
            // Back-dated: the wait ended the moment this worker popped
            // the job.
            let now = shared.tracer.now_ns();
            shared.tracer.record(
                SpanRecord::new(c.trace, shared.tracer.next_id(), c.parent, "queue_wait")
                    .at(now.saturating_sub(waited), waited),
            );
        }
        let exec_span = job.trace.map(|c| (c, shared.tracer.next_id()));
        let exec_ctx = exec_span.map(|(c, span)| SpanCtx {
            trace: c.trace,
            parent: span,
        });
        let exec_start_ns = shared.tracer.now_ns();
        let exec_start = Instant::now();
        // Inline and in order: the pool is the only scheduler, and the
        // first failing spec ends the job.
        let results = job
            .specs
            .iter()
            .map(|spec| shared.execute(spec, exec_ctx))
            .collect();
        let exec_ns = u64::try_from(exec_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some((c, span)) = exec_span {
            shared.tracer.record(
                SpanRecord::new(c.trace, span, c.parent, "execute")
                    .at(exec_start_ns, exec_ns)
                    .attr_u64("worker", index as u64)
                    .attr_u64("items", job.specs.len() as u64),
            );
        }
        shared
            .counters
            .exec_ns
            .fetch_add(exec_ns, Ordering::Relaxed);
        shared.telemetry.observe_execute(exec_ns as f64 / 1e9);
        shared.telemetry.worker_busy(index, exec_ns);
        // The handler may have given up (connection dropped); a dead
        // receiver is not an error worth crashing a worker for.
        let _ = job.reply.send(JobReply {
            results,
            queue_wait_ns: waited,
            exec_ns,
        });
        shared.counters.completed.fetch_add(1, Ordering::SeqCst);
        shared.queue.done();
    }
}

/// Per-request access-log accumulator, filled through [`dispatch`] and
/// flushed (with the slow-request counters) by the connection handler.
#[derive(Default)]
struct ReqLog {
    kind: &'static str,
    key: String,
    /// The request's trace id (`0` when untraced), for the access log's
    /// `trace_id` field.
    trace_id: u64,
    queue_wait_ns: u64,
    exec_ns: u64,
}

/// Read adapter enforcing the per-connection read budget: a plain idle
/// timeout while waiting for a frame's first byte, then a hard deadline
/// for completing that frame. A slow-loris writer trickling one byte
/// per interval resets a naive per-read timeout forever; it cannot
/// outlive a whole-frame deadline.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    budget: Option<Duration>,
    /// Armed by the first byte of a frame; cleared by the handler at
    /// each frame boundary.
    deadline: Option<Instant>,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(budget) = self.budget else {
            return (&mut &*self.stream).read(buf);
        };
        let window = match self.deadline {
            None => budget,
            Some(deadline) => deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::TimedOut, "frame read budget exhausted")
                })?,
        };
        self.stream.set_read_timeout(Some(window))?;
        let n = (&mut &*self.stream).read(buf)?;
        if self.deadline.is_none() && n > 0 {
            self.deadline = Some(Instant::now() + budget);
        }
        Ok(n)
    }
}

/// One connection: a loop of frame → decode → dispatch → frame.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let budget =
        (shared.read_timeout_ms > 0).then(|| Duration::from_millis(shared.read_timeout_ms));
    // The same budget bounds reply writes, so a peer that stops reading
    // cannot pin this handler thread on a full socket buffer.
    let _ = stream.set_write_timeout(budget);
    let mut reader = DeadlineStream {
        stream: &stream,
        budget,
        deadline: None,
    };
    let mut stream = &stream;
    loop {
        reader.deadline = None; // fresh idle wait + frame budget per frame
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(FrameError::TooLarge(len)) => {
                // The peer's framing is fine (we read the length), but
                // the payload cannot be resynchronized — reply and drop.
                let e = WireError::new(
                    ErrorCode::TooLarge,
                    format!("frame of {len} bytes exceeds the cap"),
                );
                let _ = write_frame(&mut stream, &Response::Error(e).to_json());
                return;
            }
            Err(FrameError::Utf8) => {
                let e = WireError::bad_request("frame payload is not UTF-8");
                let _ = write_frame(&mut stream, &Response::Error(e).to_json());
                continue;
            }
            Err(FrameError::Io(_)) => return, // disconnect, timeout, or abuse
        };
        let received = Instant::now();
        let root_start_ns = shared.tracer.now_ns();
        let id = shared.counters.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let mut log = ReqLog {
            kind: "invalid",
            ..ReqLog::default()
        };
        let mut root: Option<SpanCtx> = None;
        let mut envelope: Option<u64> = None;
        let decode_start = shared.tracer.now_ns();
        let decoded = Request::from_json_traced(&payload);
        let decode_ns = shared.tracer.now_ns().saturating_sub(decode_start);
        let response = match decoded {
            Err(e) => Response::Error(e),
            Ok((request, client_trace)) => {
                // Only client-supplied ids are traced, and never on the
                // introspection request itself — its envelope id is a
                // filter, echoed but not recorded.
                let active = match request {
                    Request::Trace => None,
                    _ => client_trace,
                };
                envelope = client_trace;
                root = active.map(|trace| SpanCtx {
                    trace,
                    parent: shared.tracer.next_id(),
                });
                if let Some(r) = root {
                    log.trace_id = r.trace;
                    shared.tracer.record(
                        SpanRecord::new(r.trace, shared.tracer.next_id(), r.parent, "decode")
                            .at(decode_start, decode_ns)
                            .attr_u64("bytes", payload.len() as u64),
                    );
                }
                dispatch(request, shared, &mut log, root, envelope)
            }
        };
        shared.telemetry.request(log.kind);
        let serialize_start = Instant::now();
        let serialize_start_ns = shared.tracer.now_ns();
        let write_result = write_frame(&mut stream, &response.to_json_traced(envelope));
        let serialize_ns = u64::try_from(serialize_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared
            .telemetry
            .observe_serialize(serialize_ns as f64 / 1e9);
        if let Some(r) = root {
            shared.tracer.record(
                SpanRecord::new(r.trace, shared.tracer.next_id(), r.parent, "serialize")
                    .at(serialize_start_ns, serialize_ns),
            );
        }
        finish_trace(
            shared,
            id,
            &log,
            &response,
            serialize_ns,
            received,
            root,
            root_start_ns,
            write_result.is_err(),
        );
        if write_result.is_err() {
            return;
        }
    }
}

/// Closes out one request: the root `request` span, slow-request
/// accounting, and the access-log line.
///
/// Runs after the reply write regardless of its outcome, so a peer that
/// hung up mid-reply (chaos personas, cut connections) still closes its
/// span tree — the root records `write_failed` instead of vanishing.
#[allow(clippy::too_many_arguments)]
fn finish_trace(
    shared: &Arc<Shared>,
    id: u64,
    log: &ReqLog,
    response: &Response,
    serialize_ns: u64,
    received: Instant,
    root: Option<SpanCtx>,
    root_start_ns: u64,
    write_failed: bool,
) {
    let total_ns = u64::try_from(received.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if let Some(r) = root {
        let duration = shared.tracer.now_ns().saturating_sub(root_start_ns);
        let mut span = SpanRecord::new(r.trace, r.parent, 0, "request")
            .at(root_start_ns, duration)
            .attr_str("kind", log.kind)
            .attr_u64("id", id);
        if write_failed {
            span = span.attr_bool("write_failed", true);
        }
        shared.tracer.record(span);
    }
    let slow = total_ns >= SLOW_REQUEST_NS;
    if slow {
        shared
            .telemetry
            .slow_request(log.queue_wait_ns, log.exec_ns, serialize_ns, total_ns);
    }
    let Some(access) = &shared.access_log else {
        return;
    };
    let (outcome, cached) = match response {
        Response::Error(e) => (format!("error:{}", e.code.as_str()), false),
        Response::Result(r) => ("ok".to_string(), r.cached),
        Response::Batch { hits, misses, .. } => ("ok".to_string(), *misses == 0 && *hits > 0),
        _ => ("ok".to_string(), false),
    };
    access.record(&AccessRecord {
        id,
        request: log.kind.to_string(),
        key: log.key.clone(),
        outcome,
        trace_id: if log.trace_id == 0 {
            String::new()
        } else {
            hex16(log.trace_id)
        },
        cached,
        queue_wait_ns: log.queue_wait_ns,
        exec_ns: log.exec_ns,
        serialize_ns,
        total_ns,
        slow,
    });
}

/// Routes one decoded request; cache hits and introspection never touch
/// the queue. `ctx` is the active trace (children parent under the root
/// span); `envelope` is the document's raw trace id, which a
/// [`Request::Trace`] uses as a span filter.
fn dispatch(
    request: Request,
    shared: &Arc<Shared>,
    log: &mut ReqLog,
    ctx: Option<SpanCtx>,
    envelope: Option<u64>,
) -> Response {
    match request {
        Request::Status => {
            log.kind = "status";
            Response::Status(shared.status())
        }
        Request::CacheStats => {
            log.kind = "cache_stats";
            Response::CacheStats(shared.cache.stats())
        }
        Request::Metrics => {
            log.kind = "metrics";
            Response::Metrics(shared.render_metrics())
        }
        Request::Trace => {
            log.kind = "trace";
            Response::Trace(shared.trace_snapshot(envelope))
        }
        Request::Shutdown => {
            log.kind = "shutdown";
            shared.queue.close();
            Response::Bye
        }
        Request::Explore(spec) => {
            log.kind = "explore";
            log.key = spec.canonical();
            match serve_specs(shared, vec![spec], log, ctx) {
                Ok((mut results, ..)) => {
                    Response::Result(Box::new(results.pop().expect("one result per spec")))
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::Batch(specs) => {
            log.kind = "batch";
            log.key = format!("batch[{}]", specs.len());
            shared.counters.batches.fetch_add(1, Ordering::Relaxed);
            match serve_specs(shared, specs, log, ctx) {
                Ok((results, hits, misses)) => Response::Batch {
                    results,
                    hits,
                    misses,
                },
                Err(e) => Response::Error(e),
            }
        }
    }
}

/// Answers `specs` in request order with the hit and miss counts: each
/// spec is validated and looked up once, here on the connection
/// handler, and only the misses reach the worker pool.
fn serve_specs(
    shared: &Arc<Shared>,
    specs: Vec<ExploreSpec>,
    log: &mut ReqLog,
    ctx: Option<SpanCtx>,
) -> Result<(Vec<ExploreResult>, u64, u64), WireError> {
    shared
        .counters
        .explores
        .fetch_add(specs.len() as u64, Ordering::Relaxed);
    if let Some(e) = specs.iter().find_map(|s| exec::validate(s).err()) {
        return Err(e);
    }
    let lookup_start = shared.tracer.now_ns();
    let looked_up: Vec<Option<ExploreResult>> =
        specs.iter().map(|spec| shared.cache.get(spec)).collect();
    let misses: Vec<ExploreSpec> = specs
        .into_iter()
        .zip(&looked_up)
        .filter_map(|(spec, hit)| hit.is_none().then_some(spec))
        .collect();
    let hits = (looked_up.len() - misses.len()) as u64;
    if let Some(span) = shared.span(ctx, "cache_lookup", lookup_start) {
        shared.tracer.record(
            span.attr_u64("items", looked_up.len() as u64)
                .attr_u64("hits", hits),
        );
    }
    let miss_count = misses.len() as u64;
    let mut computed = run_jobs(shared, &misses, log, ctx)?.into_iter();
    let results = looked_up
        .into_iter()
        .map(|hit| {
            hit.or_else(|| computed.next())
                .expect("one result per miss")
        })
        .collect();
    Ok((results, hits, miss_count))
}

/// A queued job the connection handler waits on.
struct Queued {
    reply: mpsc::Receiver<JobReply>,
    /// The job's `chunk` span context when the request is traced.
    chunk: Option<SpanCtx>,
    index: usize,
    items: usize,
    start_ns: u64,
}

/// Runs `misses` as jobs of `misses / workers` specs (rounded up, at
/// most [`MAX_JOB_SPECS`]) and returns their results in order, blocking
/// the connection handler (not the worker pool). At most one job per
/// worker is outstanding; the next is queued when the oldest finishes,
/// so other clients' jobs interleave with a large batch's. The first
/// job goes through the non-blocking push — a full queue still answers
/// `Busy` to *new* work — while later jobs of the accepted request wait
/// for a slot, which cannot deadlock because workers never push. The
/// first error, in spec order, becomes the reply.
fn run_jobs(
    shared: &Arc<Shared>,
    misses: &[ExploreSpec],
    log: &mut ReqLog,
    ctx: Option<SpanCtx>,
) -> Result<Vec<ExploreResult>, WireError> {
    let per_job = misses
        .len()
        .div_ceil(shared.workers)
        .clamp(1, MAX_JOB_SPECS);
    let mut jobs = misses.chunks(per_job).enumerate();
    let mut outstanding: VecDeque<Queued> = VecDeque::with_capacity(shared.workers);
    let mut results = Vec::with_capacity(misses.len());
    loop {
        while outstanding.len() < shared.workers {
            let Some((index, specs)) = jobs.next() else {
                break;
            };
            outstanding.push_back(enqueue(shared, specs, index, ctx)?);
        }
        let Some(queued) = outstanding.pop_front() else {
            return Ok(results);
        };
        let reply = queued
            .reply
            .recv()
            .map_err(|_| WireError::new(ErrorCode::Internal, "worker dropped the job"))?;
        log.queue_wait_ns += reply.queue_wait_ns;
        log.exec_ns += reply.exec_ns;
        if let (Some(c), Some(chunk)) = (ctx, queued.chunk) {
            let duration = shared.tracer.now_ns().saturating_sub(queued.start_ns);
            shared.tracer.record(
                SpanRecord::new(c.trace, chunk.parent, c.parent, "chunk")
                    .at(queued.start_ns, duration)
                    .attr_u64("idx", queued.index as u64)
                    .attr_u64("items", queued.items as u64),
            );
        }
        results.extend(reply.results?);
    }
}

/// Pushes job `index` of a request; only the first may be refused as
/// `Busy`.
fn enqueue(
    shared: &Arc<Shared>,
    specs: &[ExploreSpec],
    index: usize,
    ctx: Option<SpanCtx>,
) -> Result<Queued, WireError> {
    let chunk = ctx.map(|c| SpanCtx {
        trace: c.trace,
        parent: shared.tracer.next_id(),
    });
    let (tx, rx) = mpsc::channel();
    let job = Job {
        specs: specs.to_vec(),
        enqueued: Instant::now(),
        reply: tx,
        trace: chunk,
    };
    let start_ns = shared.tracer.now_ns();
    let pushed = if index == 0 {
        shared.queue.push(job)
    } else {
        shared.queue.push_wait(job)
    };
    match pushed {
        Ok(()) => Ok(Queued {
            reply: rx,
            chunk,
            index,
            items: specs.len(),
            start_ns,
        }),
        Err(PushError::Full) => {
            shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.reject();
            Err(WireError::new(
                ErrorCode::Busy,
                format!(
                    "job queue is at its depth limit ({})",
                    shared.queue.capacity
                ),
            ))
        }
        Err(PushError::Closed) => Err(WireError::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            specs: vec![ExploreSpec::new("bfdn", "comb", 10, 1, 0)],
            enqueued: Instant::now(),
            reply: mpsc::channel().0,
            trace: None,
        }
    }

    #[test]
    fn queue_rejects_beyond_capacity_and_drains_after_close() {
        let q = JobQueue::new(2);
        assert!(q.push(job()).is_ok());
        assert!(q.push(job()).is_ok());
        assert!(matches!(q.push(job()), Err(PushError::Full)));
        assert_eq!(q.depth(), 2);
        q.close();
        assert!(matches!(q.push(job()), Err(PushError::Closed)));
        // Both accepted jobs survive the close.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn closed_empty_queue_unblocks_waiting_workers() {
        let q = Arc::new(JobQueue::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop().is_none())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap(), "pop returns None after close");
    }

    #[test]
    fn a_popped_job_keeps_the_queue_undrained_until_done() {
        let q = JobQueue::new(2);
        assert!(q.push(job()).is_ok());
        assert!(q.push(job()).is_ok());
        q.close();
        let held: Vec<Job> = (0..2).map(|_| q.pop().expect("queued")).collect();
        // The queue is empty, yet both jobs are still held by workers:
        // depth + in-flight must not read zero, nor the queue drained.
        assert_eq!((q.depth(), q.in_flight()), (0, 2));
        assert!(!q.drained());
        drop(held);
        q.done();
        assert_eq!((q.depth(), q.in_flight()), (0, 1));
        assert!(!q.drained());
        q.done();
        assert!(q.drained());
    }
}
