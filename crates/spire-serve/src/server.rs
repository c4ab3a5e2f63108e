//! The server: a readiness-driven event loop over `poll(2)`, with CPU
//! work on a bounded thread pool.
//!
//! One event-loop thread owns the listener and every connection. It
//! polls for readiness (via the vendored [`poll`] shim), accepts in a
//! loop until `WouldBlock` on every listener event (so a burst of
//! connections costs one poll wake-up, not one per connection), feeds
//! non-blocking reads through each connection's incremental
//! [`RequestParser`](crate::http::RequestParser), and hands every
//! complete request to the bounded [`ThreadPool`]. Workers run the
//! handler (compile/simulate/check — the CPU-bound part) and push the
//! response onto a completion queue, waking the loop through a loopback
//! socket pair; the loop serializes the response into the connection's
//! write buffer and flushes as the socket accepts it.
//!
//! The consequence is the scalability property the old
//! thread-per-connection design lacked: a slow, silent, or trickling
//! client costs one idle table entry, never a worker thread. Slow-loris
//! handling is a deadline, not a held thread — each request gets one
//! read window from its first byte (the window is *not* refreshed per
//! byte), a stalled mid-request connection is answered `408` and
//! closed, and an idle keep-alive connection is closed quietly.
//!
//! Backpressure is explicit at two layers: a connection-table cap sheds
//! new connections with `503` at accept time, and the pool's bounded
//! queue sheds requests with `503` at dispatch time.
//!
//! Shutdown ([`Server::shutdown`]) is graceful: the loop stops
//! accepting, idle connections close, in-flight requests finish and
//! their responses are written (bounded by a grace period), then the
//! pool drains and the call returns.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spire::cache::BudgetedMap;
use spire::{DiskStore, FaultSchedule, SingleFlight, SingleFlightCache};
use spire_trace::{derive_seed, AttrValue, TraceCtx};

use crate::api::{Doc, DocKind};
use crate::breaker::{CircuitBreaker, DEFAULT_COOLDOWN, DEFAULT_THRESHOLD};
use crate::conn::{Conn, ConnState, PendingTrace, Token};
use crate::http::{self, Limits, ParseError, Request, Response};
use crate::metrics::Metrics;
use crate::pool::{Rejected, ThreadPool};
use crate::slow::{SlowEntry, SlowLog};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads (requests processed concurrently).
    pub threads: usize,
    /// Dispatched requests that may wait for a worker before new ones
    /// are shed with `503`.
    pub backlog: usize,
    /// Read window per request, measured from its first byte (and the
    /// idle cutoff for keep-alive connections between requests).
    pub read_timeout: Duration,
    /// Time a buffered response may take to flush before the
    /// connection is dropped.
    pub write_timeout: Duration,
    /// Request parsing limits.
    pub limits: Limits,
    /// Requests served per connection before it is closed (bounds how
    /// long one client can pin a connection-table slot via keep-alive).
    pub max_keepalive_requests: usize,
    /// Connections held concurrently before new ones are shed with
    /// `503` at accept time.
    pub max_connections: usize,
    /// Directory for the persistent compile-artifact tier; `None`
    /// serves from memory only (restarts start cold).
    pub cache_dir: Option<PathBuf>,
    /// Total memory budget (bytes) across the compile cache and the
    /// response-document memo; `None` is unbounded. Each gets half,
    /// rounded up so a tiny budget still bounds, and both evict
    /// second-chance.
    pub cache_bytes: Option<u64>,
    /// How long a dispatched request may wait for a worker before it is
    /// shed with `503` + `retry-after` instead of being served stale.
    pub request_deadline: Duration,
    /// Fault-injection schedule for the disk tier (testing/chaos only;
    /// [`FaultSchedule::none`] in production).
    pub disk_faults: Option<Arc<FaultSchedule>>,
    /// Compact the persistent store once at startup, before serving.
    pub compact_on_start: bool,
    /// Consecutive disk I/O errors that open the circuit breaker.
    pub disk_failure_threshold: u32,
    /// How long an open breaker waits before releasing a probe.
    pub disk_cooldown: Duration,
    /// Trace one request in every `trace_sample` (0 disables sampling;
    /// `?trace=1` requests are always traced regardless).
    pub trace_sample: u64,
    /// Seed for the deterministic trace/span ID generator: the same
    /// seed and request sequence yield byte-identical normalized span
    /// trees, which is what makes traces assertable in tests.
    pub trace_seed: u64,
    /// Slowest traced requests retained for `GET /debug/slow`
    /// (0 disables the log).
    pub slow_log: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: default_threads(),
            backlog: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            max_keepalive_requests: 1000,
            max_connections: 1024,
            cache_dir: None,
            cache_bytes: None,
            request_deadline: Duration::from_secs(5),
            disk_faults: None,
            compact_on_start: false,
            disk_failure_threshold: DEFAULT_THRESHOLD,
            disk_cooldown: DEFAULT_COOLDOWN,
            trace_sample: 0,
            trace_seed: DEFAULT_TRACE_SEED,
            slow_log: DEFAULT_SLOW_LOG,
        }
    }
}

/// Default [`ServerConfig::slow_log`] depth.
const DEFAULT_SLOW_LOG: usize = 16;

/// Default [`ServerConfig::trace_seed`]: an arbitrary nonzero constant
/// so traces are deterministic out of the box.
const DEFAULT_TRACE_SEED: u64 = 0x5_f17e_7ace;

/// Worker count default: the machine's parallelism, capped small — the
/// service is compile-bound, not I/O-bound, so more threads than cores
/// only add contention.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZero::get)
        .min(16)
}

/// Shared state every request handler sees.
#[derive(Debug)]
pub struct AppState {
    /// The compile path: content-addressed cache + single-flight layer.
    pub compiler: SingleFlightCache,
    /// Service counters and latency histograms.
    pub metrics: Metrics,
    /// Circuit breaker guarding the disk tier: consecutive device
    /// errors open it and the serving path skips disk (memory tiers
    /// keep answering) until a cooled-down probe succeeds.
    pub breaker: CircuitBreaker,
    /// Response documents by (compile key, kind), held as the bytes
    /// that get served and memoized on first build (or decoded from the
    /// disk tier on a warm restart). Building one re-emits the circuit
    /// and renders its `.qc` text, or re-runs the static analyses —
    /// CPU a warm request must not pay again.
    pub(crate) docs: Mutex<BudgetedMap<(u128, DocKind), Doc>>,
    /// Coalesces concurrent builds of one document, so N cold requests
    /// for a key build it once.
    doc_flight: SingleFlight<Doc, (u128, DocKind)>,
    /// The persistent content-addressed artifact store, when enabled.
    disk: Option<DiskStore>,
    /// The N slowest traced requests, behind `GET /debug/slow`.
    slow: SlowLog,
    /// Base seed for per-trace ID generators.
    trace_seed: u64,
    /// Trace one request in every `trace_sample` (0 = explicit only).
    trace_sample: u64,
    /// Monotone counter over trace-eligible requests: drives sampling
    /// and derives each trace's seed, so traces are deterministic per
    /// (seed, request sequence).
    trace_seq: AtomicU64,
}

impl AppState {
    /// Fresh state (empty cache, zeroed metrics, no persistence).
    pub fn new() -> Self {
        AppState::from_config(&ServerConfig::default()).expect("no cache dir, nothing to open")
    }

    /// State per [`ServerConfig`]: memory budget split in half between
    /// the compile cache and the document memo, the configured breaker,
    /// and the persistent tier opened with any fault-injection schedule
    /// (optionally compacted before serving).
    ///
    /// # Errors
    ///
    /// Propagates store open failures. A failed `compact_on_start` is
    /// *not* an error: it is counted in the store's `io_errors` and the
    /// server starts (possibly degraded) — robustness means a full or
    /// flaky disk delays compaction, it does not keep the service down.
    pub fn from_config(config: &ServerConfig) -> io::Result<Self> {
        // Rounding up keeps a tiny nonzero budget from reading as 0,
        // which means unbounded.
        let half = config.cache_bytes.map_or(0, |total| total.div_ceil(2));
        let disk = match &config.cache_dir {
            Some(dir) => {
                let store = match &config.disk_faults {
                    Some(faults) => DiskStore::open_with(dir, Arc::clone(faults))?,
                    None => DiskStore::open(dir)?,
                };
                if config.compact_on_start {
                    let _ = store.compact();
                }
                Some(store)
            }
            None => None,
        };
        Ok(AppState {
            compiler: SingleFlightCache::with_budget(half),
            metrics: Metrics::new(),
            breaker: CircuitBreaker::new(config.disk_failure_threshold, config.disk_cooldown),
            docs: Mutex::new(BudgetedMap::new(half)),
            doc_flight: SingleFlight::new(),
            disk,
            slow: SlowLog::new(config.slow_log),
            trace_seed: config.trace_seed,
            trace_sample: config.trace_sample,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// The slow-request log.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    /// Start a trace for a request when asked (`explicit`, i.e.
    /// `?trace=1`) or picked by sampling. `epoch` is the instant the
    /// request's first byte arrived — every span of the trace measures
    /// from it, so spans recorded on the loop and on a worker share one
    /// time base. When tracing is off entirely this is one branch, no
    /// atomics: the untraced hot path stays untouched.
    pub fn begin_trace(&self, explicit: bool, epoch: Instant) -> Option<TraceCtx> {
        if !explicit && self.trace_sample == 0 {
            return None;
        }
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let sampled = self.trace_sample > 0 && seq.is_multiple_of(self.trace_sample);
        if !explicit && !sampled {
            return None;
        }
        let seed = derive_seed(self.trace_seed, seq);
        Some(TraceCtx::with_epoch(seed, explicit, epoch))
    }

    /// The persistent artifact store, when configured.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The memoized document under `key`, if resident.
    pub(crate) fn memo_get(&self, key: (u128, DocKind)) -> Option<Doc> {
        self.docs
            .lock()
            .expect("document memo poisoned")
            .get(&key)
            .cloned()
    }

    /// Memoize `doc` under `key`, returning the resident document (the
    /// first of two racing inserts).
    pub(crate) fn memo_insert(&self, key: (u128, DocKind), doc: Doc) -> Doc {
        let weight = doc.weight();
        self.docs
            .lock()
            .expect("document memo poisoned")
            .insert(key, doc, weight)
    }

    /// The document under `key`, built by `build` on a memo miss — once
    /// across concurrent callers, who wait for the builder's result.
    pub(crate) fn doc(&self, key: (u128, DocKind), build: impl FnOnce() -> Doc) -> Doc {
        if let Some(doc) = self.memo_get(key) {
            return doc;
        }
        let (doc, _) = self.doc_flight.run(key, || {
            // A flight that finished after our miss has memoized it.
            self.memo_get(key)
                .unwrap_or_else(|| self.memo_insert(key, build()))
        });
        doc
    }
}

impl Default for AppState {
    fn default() -> Self {
        AppState::new()
    }
}

/// Wakes the event loop from another thread by writing one byte to a
/// loopback socket the loop polls. (The workspace forbids `unsafe`
/// outside the vendored poll shim, so `pipe(2)`/`eventfd(2)` are out of
/// reach; a connected TCP pair on 127.0.0.1 is the portable stand-in.)
#[derive(Debug, Clone)]
struct Waker {
    tx: Arc<Mutex<TcpStream>>,
}

impl Waker {
    fn wake(&self) {
        if let Ok(mut tx) = self.tx.lock() {
            let _ = tx.write(&[1u8]);
        }
    }
}

/// Build the waker pair: a transient loopback listener accepts a
/// self-connection, then goes away. The receive side is non-blocking
/// and joins the poll set; any thread holding the [`Waker`] can nudge
/// the loop.
fn wake_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let local = tx.local_addr()?;
    // Accept until we see our own connection (a stranger racing onto
    // the ephemeral port is absurdly unlikely, but cheap to exclude).
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            break rx;
        }
    };
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((
        Waker {
            tx: Arc::new(Mutex::new(tx)),
        },
        rx,
    ))
}

/// A request trace handed back from a worker with its response: the
/// loop parks it on the connection until the response write completes.
#[derive(Debug)]
struct FinishedTrace {
    ctx: TraceCtx,
    path: String,
}

/// Responses finished by pool workers, waiting for the event loop to
/// write them out.
#[derive(Debug)]
struct Completions {
    queue: Mutex<Vec<(Token, Response, Option<FinishedTrace>)>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, token: Token, response: Response, trace: Option<FinishedTrace>) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((token, response, trace));
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(Token, Response, Option<FinishedTrace>)> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// A running server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    waker: Waker,
    event_loop: JoinHandle<()>,
}

impl Server {
    /// Bind and start serving.
    ///
    /// # Errors
    ///
    /// Propagates bind/local-addr failures and (when
    /// [`ServerConfig::cache_dir`] is set) cache-store open failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(AppState::from_config(&config)?);
        let stop = Arc::new(AtomicBool::new(false));
        let (waker, waker_rx) = wake_pair()?;
        let event_loop = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let completions = Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                waker: waker.clone(),
            });
            std::thread::Builder::new()
                .name("spire-serve-loop".to_string())
                .spawn(move || {
                    EventLoop {
                        listener,
                        config,
                        state,
                        stop,
                        waker_rx,
                        completions,
                        pool: None,
                        conns: HashMap::new(),
                        next_token: 1,
                        shutdown_deadline: None,
                    }
                    .run();
                })
                .expect("spawning event-loop thread")
        };
        Ok(Server {
            addr,
            state,
            stop,
            waker,
            event_loop,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (cache, metrics).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Block on the event loop (serve until process exit).
    pub fn join(self) {
        let _ = self.event_loop.join();
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests and
    /// write their responses, drain the pool, join the loop.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.event_loop.join();
    }
}

/// The loop's tick when no deadline is nearer: bounds how stale the
/// stop-flag check can get.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// How long a draining connection lingers discarding input before the
/// socket closes regardless.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

struct EventLoop {
    listener: TcpListener,
    config: ServerConfig,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    waker_rx: TcpStream,
    completions: Arc<Completions>,
    /// Created on entry to `run` (so its Drop-drain runs on the loop
    /// thread), `Option` only to allow construction before then.
    pool: Option<ThreadPool>,
    conns: HashMap<Token, Conn>,
    next_token: Token,
    /// Set when shutdown is first observed; in-flight work past this
    /// instant is abandoned.
    shutdown_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        self.pool = Some(ThreadPool::new(self.config.threads, self.config.backlog));
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping && self.shutdown_drained() {
                break;
            }
            // Poll set layout: waker, then (while accepting) the
            // listener, then every connection that is waiting on its
            // socket. `Processing` connections wait on the completion
            // queue, not the socket, so they are not in the set at all —
            // a hung-up client cannot spin the loop while its request
            // computes.
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            fds.push(poll::PollFd::new(self.waker_rx.as_raw_fd(), poll::POLLIN));
            let accepting = !stopping;
            if accepting {
                fds.push(poll::PollFd::new(self.listener.as_raw_fd(), poll::POLLIN));
            }
            let base = fds.len();
            let mut tokens: Vec<Token> = Vec::with_capacity(self.conns.len());
            for (&token, conn) in &self.conns {
                let events = match conn.state {
                    ConnState::Reading | ConnState::Draining => poll::POLLIN,
                    ConnState::Writing => poll::POLLOUT,
                    ConnState::Processing => continue,
                };
                tokens.push(token);
                fds.push(poll::PollFd::new(conn.fd(), events));
            }
            // Self-profile each tick: time blocked in poll(2) vs time
            // spent dispatching what it returned. The ratio is the
            // loop's own saturation signal in `/metrics`.
            let poll_start = Instant::now();
            if poll::poll(&mut fds, Some(self.poll_timeout())).is_err() {
                // Transient poll failure (descriptor churn, resource
                // pressure): back off a moment and rebuild the set.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let now = Instant::now();
            let poll_wait_ns = u64::try_from((now - poll_start).as_nanos()).unwrap_or(u64::MAX);
            if fds[0].readable() {
                self.drain_waker();
            }
            if accepting && fds[1].readable() {
                self.accept_ready(now);
            }
            for (i, &token) in tokens.iter().enumerate() {
                if fds[base + i].revents() != 0 {
                    self.conn_ready(token, now);
                }
            }
            self.apply_completions(now);
            self.expire_deadlines(now);
            let busy_ns = u64::try_from(now.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.state.metrics.record_loop_tick(poll_wait_ns, busy_ns);
            let backlog = self.pool.as_ref().map_or(0, ThreadPool::backlog);
            self.state
                .metrics
                .set_loop_gauges(backlog as u64, self.conns.len() as u64);
        }
        self.conns.clear();
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }

    /// Next poll timeout: the nearest connection deadline, capped by the
    /// idle tick.
    fn poll_timeout(&self) -> Duration {
        let now = Instant::now();
        self.conns
            .values()
            .filter(|conn| conn.state != ConnState::Processing)
            .map(|conn| conn.deadline.saturating_duration_since(now))
            .min()
            .map_or(IDLE_TICK, |nearest| nearest.min(IDLE_TICK))
    }

    /// During shutdown: close idle connections immediately, keep ones
    /// mid-exchange until they finish or the grace period ends. Returns
    /// `true` once the loop should exit.
    fn shutdown_drained(&mut self) -> bool {
        let grace = self.config.read_timeout.max(self.config.write_timeout);
        let deadline = *self
            .shutdown_deadline
            .get_or_insert_with(|| Instant::now() + grace);
        self.conns.retain(|_, conn| {
            matches!(
                conn.state,
                ConnState::Processing | ConnState::Writing | ConnState::Draining
            )
        });
        self.conns.is_empty() || Instant::now() >= deadline
    }

    /// Swallow the waker bytes so the socket goes quiet again.
    fn drain_waker(&mut self) {
        use std::io::Read as _;
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return, // waker gone; stop flag will end things
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Accept every connection the kernel has queued — stopping at the
    /// first `WouldBlock`, not the first success. Accepting just one
    /// per readiness event made a connection burst wait one poll
    /// round-trip *each*, which is exactly the repeated ~hundreds-of-ms
    /// connection-setup tail the load test used to measure.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_connections {
                        self.shed_connection(stream);
                        continue;
                    }
                    let deadline = now + self.config.read_timeout;
                    if let Ok(conn) = Conn::new(stream, self.config.limits, deadline) {
                        let token = self.next_token;
                        self.next_token += 1;
                        self.conns.insert(token, conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Persistent accept errors (EMFILE, ECONNABORTED
                    // storms): yield briefly instead of spinning at 100%
                    // CPU on a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
    }

    /// Refuse a connection over the table cap with a best-effort `503`.
    /// A fresh socket's send buffer swallows the small response, so one
    /// non-blocking write almost always delivers it.
    fn shed_connection(&self, stream: TcpStream) {
        self.state.metrics.record_shed();
        self.state.metrics.record_status(503);
        let response = error_response(503, "server/overloaded", "connection limit reached")
            .with_retry_after(1);
        let _ = stream.set_nonblocking(true);
        let mut stream = stream;
        let _ = stream.write(&http::encode_response(&response, false));
    }

    fn conn_ready(&mut self, token: Token, now: Instant) {
        let Some(state) = self.conns.get(&token).map(|conn| conn.state) else {
            return;
        };
        match state {
            ConnState::Reading => self.read_ready(token, now),
            ConnState::Writing => self.write_ready(token, now),
            ConnState::Draining => {
                let done = self.conns.get_mut(&token).is_none_or(Conn::discard);
                if done {
                    self.conns.remove(&token);
                }
            }
            ConnState::Processing => {}
        }
    }

    fn read_ready(&mut self, token: Token, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let was_mid = conn.parser.mid_request();
        if conn.fill().is_err() {
            self.conns.remove(&token);
            return;
        }
        let conn = self.conns.get_mut(&token).expect("present above");
        if !was_mid && conn.parser.mid_request() {
            // First byte of a new request: the whole request gets one
            // read window. Deliberately not refreshed per byte — a
            // slow-loris trickle exhausts this one window and gets 408,
            // it does not renew its lease a byte at a time.
            conn.deadline = now + self.config.read_timeout;
            // Also the epoch a trace of this request measures from.
            conn.first_byte = Some(now);
        }
        self.advance(token, now);
    }

    /// Try to produce and dispatch the next request on a connection in
    /// `Reading` state (after a read, or after a response finished
    /// writing and pipelined bytes may already be buffered).
    fn advance(&mut self, token: Token, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.state != ConnState::Reading {
            return;
        }
        match conn.parser.next_request() {
            Ok(Some(request)) => self.dispatch(token, request, now),
            Ok(None) => {
                if conn.peer_closed {
                    // EOF with no complete request buffered: nothing
                    // left to serve on this connection.
                    self.conns.remove(&token);
                }
            }
            Err(error) => {
                let response = match error {
                    ParseError::Malformed(message) => {
                        error_response(400, "request/malformed", message)
                    }
                    ParseError::BodyTooLarge => {
                        error_response(413, "request/body-too-large", "request body exceeds limit")
                    }
                };
                self.fail_connection(token, response, now);
            }
        }
    }

    /// Queue a terminal error response on a connection and move it
    /// toward close (draining unread input first, so the response
    /// survives the close instead of being destroyed by an RST).
    fn fail_connection(&mut self, token: Token, response: Response, now: Instant) {
        self.state.metrics.record_status(response.status);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.drain_before_close = true;
        conn.queue_response(&response, false);
        conn.deadline = now + self.config.write_timeout;
        self.write_ready(token, now);
    }

    fn dispatch(&mut self, token: Token, request: Request, now: Instant) {
        let conn = self.conns.get_mut(&token).expect("dispatch on live conn");
        conn.served += 1;
        conn.wants_close = request.wants_close();
        conn.state = ConnState::Processing;
        // Trace this request if the client asked (`?trace=1`) or
        // sampling picked it. The epoch is the first-byte instant, so
        // the `read_parse` phase recorded here and the handler spans
        // recorded on the worker share one time base.
        let first_byte = conn.first_byte.take().unwrap_or(now);
        let explicit = request.query_param("trace") == Some("1");
        let trace = self.state.begin_trace(explicit, first_byte);
        if let Some(ctx) = &trace {
            let parsed_ns = ctx.now_ns();
            ctx.record_phase(
                "read_parse",
                0,
                parsed_ns,
                &[("bytes", AttrValue::U64(request.body.len() as u64))],
            );
        }
        let path = request.path.clone();
        let state = Arc::clone(&self.state);
        let completions = Arc::clone(&self.completions);
        let enqueued = Instant::now();
        let deadline = self.config.request_deadline;
        let outcome = self
            .pool
            .as_ref()
            .expect("pool lives for the loop")
            .try_execute(move || {
                // Deadline shedding: a request that waited out its
                // deadline in the queue is answered `503` + retry-after
                // instead of burning a worker on a response the client
                // has likely already given up on — under sustained
                // overload this keeps queue wait bounded rather than
                // serving every request arbitrarily late.
                let mut finished = None;
                let response = if enqueued.elapsed() > deadline {
                    state.metrics.record_shed();
                    error_response(
                        503,
                        "server/deadline",
                        "request waited past its deadline in the queue",
                    )
                    .with_retry_after(1)
                } else if let Some(ctx) = trace {
                    // Queue-dwell span, then the handler under an
                    // installed ambient context so every pipeline stage
                    // records into this trace.
                    let queue_end = ctx.now_ns();
                    let waited = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    ctx.record_phase("queue", queue_end.saturating_sub(waited), queue_end, &[]);
                    spire_trace::install(ctx);
                    let handler = spire_trace::span("handler");
                    let response = handle_request(&state, &request);
                    drop(handler);
                    finished = spire_trace::take().map(|ctx| FinishedTrace { ctx, path });
                    response
                } else {
                    handle_request(&state, &request)
                };
                state.metrics.record_status(response.status);
                completions.push(token, response, finished);
            });
        if let Err(rejected) = outcome {
            // Dispatch-time backpressure: the bounded queue is full (or
            // the pool is stopping) — shed the request, keep the rest of
            // the system responsive.
            self.state.metrics.record_shed();
            let message = match rejected {
                Rejected::Full => "request backlog is full",
                Rejected::ShuttingDown => "server is shutting down",
            };
            let response = error_response(503, "server/overloaded", message).with_retry_after(1);
            self.state.metrics.record_status(503);
            let conn = self.conns.get_mut(&token).expect("still live");
            conn.queue_response(&response, false);
            conn.deadline = now + self.config.write_timeout;
            self.write_ready(token, now);
        }
    }

    /// Serialize finished responses onto their connections.
    fn apply_completions(&mut self, now: Instant) {
        for (token, response, trace) in self.completions.drain() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while its request computed
            };
            let keep_alive = !conn.wants_close
                && !conn.peer_closed
                && !self.stop.load(Ordering::SeqCst)
                && conn.served < self.config.max_keepalive_requests;
            // Park the trace on the connection; the `write` phase and
            // the root span are recorded when the flush completes.
            conn.trace = trace.map(|finished| PendingTrace {
                write_start_ns: finished.ctx.now_ns(),
                status: response.status,
                path: finished.path,
                ctx: finished.ctx,
            });
            conn.queue_response(&response, keep_alive);
            conn.deadline = now + self.config.write_timeout;
            self.write_ready(token, now);
        }
    }

    /// Close out a flushed response's trace: record the `write` phase
    /// and the `request` root span, then offer the whole trace to the
    /// slow log.
    fn finish_trace(&self, pending: PendingTrace) {
        let end_ns = pending.ctx.now_ns();
        pending
            .ctx
            .record_phase("write", pending.write_start_ns, end_ns, &[]);
        pending.ctx.record_root(
            end_ns,
            &[("status", AttrValue::U64(u64::from(pending.status)))],
        );
        self.state.slow.offer(SlowEntry {
            trace_id: pending.ctx.trace_id(),
            path: pending.path,
            status: pending.status,
            duration_ns: end_ns,
            records: pending.ctx.into_records(),
        });
    }

    fn write_ready(&mut self, token: Token, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.flush() {
            Ok(true) => {
                if let Some(pending) = conn.trace.take() {
                    self.finish_trace(pending);
                }
                let conn = self.conns.get_mut(&token).expect("still live");
                if conn.close_after_write {
                    if conn.drain_before_close && !conn.discard() {
                        conn.state = ConnState::Draining;
                        conn.deadline = now + DRAIN_GRACE;
                    } else {
                        self.conns.remove(&token);
                    }
                } else {
                    conn.state = ConnState::Reading;
                    conn.deadline = now + self.config.read_timeout;
                    // Strict serial pipelining: the next request may be
                    // fully buffered already — serve it without waiting
                    // for the socket.
                    self.advance(token, now);
                }
            }
            Ok(false) => {}
            Err(_) => {
                self.conns.remove(&token);
            }
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        let expired: Vec<Token> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.state != ConnState::Processing && conn.deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match conn.state {
                ConnState::Reading if conn.parser.mid_request() => {
                    // Stalled partway through a request: a best-effort
                    // 408 tells the client the half-sent request was
                    // not processed.
                    let response = error_response(408, "request/timeout", "request timed out");
                    self.fail_connection(token, response, now);
                }
                // Idle keep-alive between requests: close quietly.
                ConnState::Reading | ConnState::Writing | ConnState::Draining => {
                    self.conns.remove(&token);
                }
                ConnState::Processing => {}
            }
        }
    }
}

fn handle_request(state: &Arc<AppState>, request: &Request) -> Response {
    let _in_flight = state.metrics.begin_request();
    let timer = Instant::now();
    // A handler panic must cost one 500, not the worker.
    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::api::handle(state, request)
    }))
    .unwrap_or_else(|_| error_response(500, "server/internal", "request handler panicked"));
    state
        .metrics
        .latency
        .record_micros(timer.elapsed().as_micros() as u64);
    response
}

fn error_response(status: u16, code: &str, message: &str) -> Response {
    crate::api::ApiError {
        status,
        code: code.to_string(),
        message: message.to_string(),
    }
    .response()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::json::Json;

    #[test]
    fn concurrent_cold_checks_verify_once() {
        const N: usize = 6;
        let state = AppState::new();
        let bench = bench_suite::programs::all_benchmarks()
            .into_iter()
            .find(|b| b.name == "length")
            .expect("length benchmark");
        let body = Json::obj()
            .field("source", bench.source.as_str())
            .field("entry", bench.entry)
            .field("depth", 4)
            .build()
            .to_string();
        let request = Request {
            method: "POST".to_string(),
            path: "/check".to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let barrier = std::sync::Barrier::new(N);
        let bodies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let response = crate::api::handle(&state, &request);
                        assert_eq!(response.status, 200);
                        String::from_utf8(response.body).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Only the `served` label may differ between the N answers.
        let normalized: Vec<String> = bodies
            .iter()
            .map(|body| {
                let mut parsed = qcirc::json::parse(body).unwrap();
                if let Json::Object(fields) = &mut parsed {
                    fields.retain(|(name, _)| name != "served");
                }
                parsed.to_string()
            })
            .collect();
        assert!(normalized.iter().all(|b| *b == normalized[0]));
        assert!(normalized[0].contains("\"clean\":true"));
        assert_eq!(state.doc_flight.stats().led, 1, "the verifier ran once");
    }
}
