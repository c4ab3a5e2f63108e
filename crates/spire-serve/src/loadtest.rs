//! Closed- and open-loop load-test client and the `BENCH_serve.json`
//! perf trajectory.
//!
//! Each worker thread owns one keep-alive connection and drives it in a
//! closed loop — send a request, wait for the response, record the
//! latency, repeat — so offered load self-limits to what the server
//! sustains (the standard closed-loop model; throughput is the measured
//! outcome, not an input). The request mix cycles deterministically
//! (seeded per worker) over the paper's benchmark programs as `/compile`
//! requests, with configurable shares of `/simulate` on the running
//! example and `/check` (static verification) on the benchmark bodies.
//!
//! The closed loop measures *capacity*; it cannot measure *latency under
//! load*, because a closed loop slows its own arrival rate exactly when
//! the server slows down (coordinated omission). So after the closed
//! pass, an **open-loop sweep** replays the same mix at fixed arrival
//! rates — fractions of the just-measured capacity — from a shared
//! schedule: request *k* is due at `start + k/rate` regardless of how
//! the server is doing, and its latency is measured **from its scheduled
//! arrival time**, so time spent waiting behind a stalled schedule
//! counts against the server, not the client. The resulting
//! latency-under-load curve is serialized in the report's `open_loop`
//! array.
//!
//! After the sweep, a pair of short closed-loop passes measures the
//! **cost of tracing itself**: one pass with `?trace=1` on every request
//! (every span recorded, the trace tree rendered inline) and one
//! without. Their throughputs and the relative delta land in the
//! report's `tracing` section (schema 6); CI asserts the sampling-off
//! overhead stays under a few percent. With `trace_out` set, the
//! server's slow log is exported afterwards as Chrome `trace_event`
//! JSON (`/debug/slow?format=chrome`), loadable in Perfetto.
//!
//! Measurement is preceded by a **warmup pass**: one connection touches
//! every distinct request in the mix (each benchmark body through
//! `/compile` and `/check`, the running example through `/simulate`)
//! before any timer starts. Without it, the first-arrival compilations
//! land inside the measurement window and the tail percentiles report
//! cold-start cost as if it were steady-state serving cost. The cold
//! latencies are not discarded — they are interesting in their own
//! right — but reported in a separate `warmup` section rather than
//! folded into the steady-state distribution.
//!
//! The report serializes the client-side view (throughput, exact
//! p50/p90/p99 over every recorded latency) together with the server's
//! own final `/metrics` document (cache hit rate, single-flight
//! counters), and is written as `BENCH_serve.json` — the serving
//! analogue of `BENCH_sim.json`, a perf trajectory CI uploads on every
//! run.

use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qcirc::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::http::client_roundtrip;
use crate::server::{Server, ServerConfig};

/// Load-test parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Target `host:port`. `None` boots an in-process server on an
    /// ephemeral port and tears it down afterwards.
    pub addr: Option<String>,
    /// Closed-loop worker (connection) count.
    pub workers: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Recursion depth of the `/compile` mix.
    pub depth: i64,
    /// Fraction of requests sent to `/simulate`.
    pub simulate_share: f64,
    /// Fraction of requests sent to `/check` (static verification over
    /// the benchmark programs; the remainder after `/simulate` and
    /// `/check` goes to `/compile`).
    pub check_share: f64,
    /// RNG seed for the request mix.
    pub seed: u64,
    /// Where to write the server's slow log as Chrome `trace_event`
    /// JSON after the traced pass; `None` skips the export.
    pub trace_out: Option<PathBuf>,
}

impl LoadConfig {
    /// The CI smoke configuration: small but long enough that every
    /// benchmark program is requested at least once per worker.
    pub fn quick() -> Self {
        LoadConfig {
            addr: None,
            workers: 4,
            duration: Duration::from_secs(2),
            depth: 3,
            simulate_share: 0.1,
            check_share: 0.1,
            seed: 0x5EED,
            trace_out: None,
        }
    }

    /// The full local configuration.
    pub fn full() -> Self {
        LoadConfig {
            addr: None,
            workers: 8,
            duration: Duration::from_secs(10),
            depth: 5,
            simulate_share: 0.1,
            check_share: 0.1,
            seed: 0x5EED,
            trace_out: None,
        }
    }

    fn mode(&self) -> &'static str {
        if self.duration <= Duration::from_secs(2) {
            "quick"
        } else {
            "full"
        }
    }
}

/// Aggregated outcome of one load test.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Worker count used.
    pub workers: usize,
    /// Wall-clock measurement window.
    pub wall: Duration,
    /// Requests completed (any status).
    pub total: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// `4xx` responses.
    pub client_errors: u64,
    /// `5xx` responses (including shed `503`s).
    pub server_errors: u64,
    /// Requests that died on the socket (reconnected after).
    pub transport_errors: u64,
    /// Connect attempts that failed transiently and were retried with
    /// backoff (a high count with low `transport_errors` means the
    /// retry policy absorbed a flaky accept path).
    pub connect_retries: u64,
    /// Closed-loop workers that panicked instead of reporting. The
    /// report aggregates the survivors — a partial measurement labeled
    /// as partial beats an aborted run with no data at all.
    pub workers_failed: u64,
    /// `/compile` requests sent.
    pub compile_requests: u64,
    /// `/simulate` requests sent.
    pub simulate_requests: u64,
    /// `/check` requests sent.
    pub check_requests: u64,
    /// Completed requests per second over the window.
    pub throughput_rps: f64,
    /// Exact percentiles over every recorded latency, in microseconds.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest request.
    pub max_us: u64,
    /// Cold-start measurements from the warmup pass (first-arrival
    /// compilations, analyses, and simulation), kept out of the
    /// steady-state latency distribution above.
    pub warmup: WarmupReport,
    /// The latency-under-load curve: one open-loop point per target
    /// rate, swept as fractions of the measured closed-loop capacity.
    pub open_loop: Vec<OpenLoopPoint>,
    /// The paired traced/untraced throughput measurement.
    pub tracing: TracingReport,
    /// The server's final `/metrics` document.
    pub server_metrics: Json,
}

/// Cost of the tracing subsystem, from two short closed-loop passes over
/// the same warm server: one with `?trace=1` on every request, one
/// without.
#[derive(Debug, Clone)]
pub struct TracingReport {
    /// Throughput of the untraced pass (sampling off — the default
    /// production configuration).
    pub untraced_rps: f64,
    /// Throughput with `?trace=1` on every request.
    pub traced_rps: f64,
    /// Relative throughput lost to tracing every request:
    /// `(untraced − traced) / untraced`, as a percentage, floored at 0.
    pub overhead_pct: f64,
    /// Relative delta between the main closed-loop pass and the untraced
    /// pass — both run with sampling off, so this bounds the cost of
    /// merely having the tracing subsystem compiled in (plus run-to-run
    /// noise). CI asserts it stays small.
    pub sampled_off_overhead_pct: f64,
}

impl TracingReport {
    fn to_json_value(&self) -> Json {
        Json::obj()
            .field("untraced_rps", self.untraced_rps)
            .field("traced_rps", self.traced_rps)
            .field("overhead_pct", self.overhead_pct)
            .field("sampled_off_overhead_pct", self.sampled_off_overhead_pct)
            .build()
    }
}

/// One point on the latency-under-load curve: the same request mix
/// offered at a fixed arrival rate, with latencies measured from each
/// request's *scheduled* arrival time (coordinated-omission corrected).
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// The offered arrival rate, requests per second.
    pub target_rps: f64,
    /// Completions per second actually observed over the window.
    pub achieved_rps: f64,
    /// Requests attempted (completions plus transport failures).
    pub requests: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// Non-2xx responses plus transport failures.
    pub errors: u64,
    /// Requests whose send started more than 1ms behind schedule (the
    /// generator could not keep up — queueing shows up in the corrected
    /// latencies either way, this counts how often it happened).
    pub late_starts: u64,
    /// Transient connect failures retried with backoff.
    pub connect_retries: u64,
    /// Generator workers that panicked; survivors are aggregated.
    pub workers_failed: u64,
    /// Median corrected latency, microseconds.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest corrected latency.
    pub max_us: u64,
}

impl OpenLoopPoint {
    fn to_json_value(&self) -> Json {
        Json::obj()
            .field("target_rps", self.target_rps)
            .field("achieved_rps", self.achieved_rps)
            .field("requests", self.requests)
            .field("ok", self.ok)
            .field("errors", self.errors)
            .field("late_starts", self.late_starts)
            .field("connect_retries", self.connect_retries)
            .field("workers_failed", self.workers_failed)
            .field(
                "latency_us",
                Json::obj()
                    .field("p50", self.p50_us)
                    .field("p90", self.p90_us)
                    .field("p99", self.p99_us)
                    .field("max", self.max_us),
            )
            .build()
    }
}

/// Cold-start view of the warmup pass: one request per distinct body in
/// the mix, sent before the measurement timers start.
#[derive(Debug, Clone)]
pub struct WarmupReport {
    /// Warmup requests sent (all of them cache-cold on a fresh server).
    pub requests: u64,
    /// Wall-clock time of the whole pass.
    pub wall: Duration,
    /// Median cold latency, in microseconds.
    pub p50_us: u64,
    /// Slowest cold request.
    pub max_us: u64,
}

impl WarmupReport {
    fn to_json_value(&self) -> Json {
        Json::obj()
            .field("requests", self.requests)
            .field("duration_seconds", self.wall.as_secs_f64())
            .field(
                "latency_us",
                Json::obj()
                    .field("p50", self.p50_us)
                    .field("max", self.max_us),
            )
            .build()
    }
}

impl LoadReport {
    /// Serialize as the `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj()
            .field("schema", 6u64)
            .field("mode", self.mode)
            .field("workers", self.workers)
            .field("workers_failed", self.workers_failed)
            .field("duration_seconds", self.wall.as_secs_f64())
            .field(
                "requests",
                Json::obj()
                    .field("total", self.total)
                    .field("ok", self.ok)
                    .field("client_errors", self.client_errors)
                    .field("server_errors", self.server_errors)
                    .field("transport_errors", self.transport_errors)
                    .field("connect_retries", self.connect_retries)
                    .field("compile", self.compile_requests)
                    .field("simulate", self.simulate_requests)
                    .field("check", self.check_requests),
            )
            .field("throughput_rps", self.throughput_rps)
            .field(
                "latency_us",
                Json::obj()
                    .field("p50", self.p50_us)
                    .field("p90", self.p90_us)
                    .field("p99", self.p99_us)
                    .field("max", self.max_us),
            )
            .field("warmup", self.warmup.to_json_value())
            .field(
                "open_loop",
                Json::Array(
                    self.open_loop
                        .iter()
                        .map(OpenLoopPoint::to_json_value)
                        .collect(),
                ),
            )
            .field("tracing", self.tracing.to_json_value())
            .field("server", self.server_metrics.clone())
            .build()
            .to_string();
        doc.push('\n');
        doc
    }

    /// Write the report as `BENCH_serve.json` in `dir`, returning the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be written.
    pub fn write_json(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join("BENCH_serve.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The `/simulate` probe program: the paper's running example with a
/// concrete input, small enough to execute on every loop iteration.
const SIMULATE_SOURCE: &str = r#"
fun count[n](acc: uint, flag: bool) -> uint {
    if flag {
        let r <- acc + 1;
        let out <- count[n-1](r, flag);
    } else {
        let out <- acc;
    }
    return out;
}
"#;

struct WorkerOutcome {
    latencies_us: Vec<u64>,
    ok: u64,
    client_errors: u64,
    server_errors: u64,
    transport_errors: u64,
    connect_retries: u64,
    compile_requests: u64,
    simulate_requests: u64,
    check_requests: u64,
}

/// Most connect attempts before a worker gives up on this iteration
/// (the failure still only *counts*, it never aborts the run).
const CONNECT_ATTEMPTS: u32 = 4;

/// Base backoff before the first reconnect attempt; doubles per retry.
const CONNECT_BACKOFF: Duration = Duration::from_millis(5);

/// Connect with capped exponential backoff plus seeded jitter. A busy
/// accept queue under load is *transient* — SYNs get dropped while the
/// event loop drains a burst — so an immediate retry would pile onto
/// exactly the congestion that failed, and a fixed sleep would
/// resynchronize every failed worker into the next thundering herd.
/// Doubling with jitter (`base + rand(0..base)`, capped by
/// [`CONNECT_ATTEMPTS`]) spreads the retries out; the jitter draws from
/// the worker's own seeded RNG so a run is reproducible per seed.
/// Returns the stream (timeouts applied) or `None` after the attempts
/// are exhausted, with `retries` counting every failed-then-retried
/// attempt for the report.
fn connect_with_retry(addr: &str, rng: &mut StdRng, retries: &mut u64) -> Option<TcpStream> {
    let mut backoff = CONNECT_BACKOFF;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = crate::http::set_timeouts(
                    &stream,
                    Duration::from_secs(30),
                    Duration::from_secs(30),
                );
                return Some(stream);
            }
            Err(_) => {
                if attempt + 1 == CONNECT_ATTEMPTS {
                    break;
                }
                *retries += 1;
                let jitter_ns = rng.random_range(0..backoff.as_nanos().max(1) as u64);
                std::thread::sleep(backoff + Duration::from_nanos(jitter_ns));
                backoff *= 2;
            }
        }
    }
    None
}

/// Run a load test.
///
/// # Errors
///
/// Propagates server-boot and final-metrics-fetch failures; individual
/// request failures are counted, not fatal.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    let (addr, server) = match &config.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::start(ServerConfig::default())?;
            (server.addr().to_string(), Some(server))
        }
    };

    // Pre-render the request bodies once: the mix cycles over them.
    let compile_bodies: Vec<String> = bench_suite::programs::all_benchmarks()
        .iter()
        .map(|bench| {
            Json::obj()
                .field("source", bench.source.as_str())
                .field("entry", bench.entry)
                .field("depth", if bench.constant { 0 } else { config.depth })
                .build()
                .to_string()
        })
        .collect();
    let simulate_body = Json::obj()
        .field("source", SIMULATE_SOURCE)
        .field("entry", "count")
        .field("depth", 4i64)
        .field("inputs", Json::obj().field("flag", 1u64).field("acc", 0u64))
        .build()
        .to_string();

    // Warmup: touch every distinct request in the mix once, before any
    // measurement timer starts, so the steady-state percentiles are not
    // polluted by first-arrival compilation cost. The cold latencies are
    // reported separately.
    let warmup = warmup_pass(&addr, &compile_bodies, &simulate_body)?;

    let deadline = Instant::now() + config.duration;
    let started = Instant::now();
    // A panicking worker loses its own measurements, never the run:
    // survivors are aggregated and the failure is counted in the
    // report (`workers_failed`), so one bad thread degrades the sample
    // instead of aborting a multi-second measurement.
    let (outcomes, workers_failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|worker| {
                let addr = addr.as_str();
                let compile_bodies = &compile_bodies;
                let simulate_body = simulate_body.as_str();
                scope.spawn(move || {
                    worker_loop(
                        addr,
                        deadline,
                        compile_bodies,
                        simulate_body,
                        config.simulate_share,
                        config.check_share,
                        config.seed.wrapping_add(worker as u64),
                        "",
                    )
                })
            })
            .collect();
        let mut outcomes: Vec<WorkerOutcome> = Vec::new();
        let mut failed = 0u64;
        for handle in handles {
            match handle.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => failed += 1,
            }
        }
        (outcomes, failed)
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let total = latencies.len() as u64;
    let throughput_rps = if wall.as_secs_f64() > 0.0 {
        total as f64 / wall.as_secs_f64()
    } else {
        0.0
    };

    // The open-loop sweep: the same mix at fixed fractions of the
    // capacity the closed loop just measured. Skipped when the closed
    // loop could not establish a meaningful capacity.
    let mut open_loop = Vec::new();
    if throughput_rps >= 4.0 {
        let window = config.duration.min(Duration::from_secs(2));
        for (i, fraction) in [0.25, 0.5, 0.75, 0.9].into_iter().enumerate() {
            open_loop.push(open_loop_point(
                &addr,
                throughput_rps * fraction,
                window,
                config,
                &compile_bodies,
                &simulate_body,
                config.seed.wrapping_add(0x09E7).wrapping_add(i as u64),
            ));
        }
    }

    // Tracing-overhead pair: two short closed-loop passes over the same
    // warm server, one untraced (the production default — sampling off),
    // one with `?trace=1` on every request. The untraced pass doubles as
    // a control against the main measurement above.
    let trace_window = config.duration.min(Duration::from_secs(2));
    let untraced_rps = tracing_pass(
        &addr,
        trace_window,
        config,
        &compile_bodies,
        &simulate_body,
        "",
        config.seed ^ 0xACE0,
    );
    let traced_rps = tracing_pass(
        &addr,
        trace_window,
        config,
        &compile_bodies,
        &simulate_body,
        "?trace=1",
        config.seed ^ 0xACE1,
    );
    let tracing = TracingReport {
        untraced_rps,
        traced_rps,
        overhead_pct: if untraced_rps > 0.0 {
            ((untraced_rps - traced_rps) / untraced_rps * 100.0).max(0.0)
        } else {
            0.0
        },
        sampled_off_overhead_pct: if throughput_rps > 0.0 {
            ((throughput_rps - untraced_rps) / throughput_rps * 100.0).max(0.0)
        } else {
            0.0
        },
    };

    // The traced pass filled the server's slow log; export it as Chrome
    // trace_event JSON if asked.
    if let Some(out) = &config.trace_out {
        let mut stream = TcpStream::connect(&addr)?;
        let (status, body) =
            client_roundtrip(&mut stream, "GET", "/debug/slow?format=chrome", None)?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "/debug/slow?format=chrome returned {status}"
            )));
        }
        std::fs::write(out, body)?;
    }

    // One final metrics scrape, after the measurement window.
    let mut stream = TcpStream::connect(&addr)?;
    let (status, body) = client_roundtrip(&mut stream, "GET", "/metrics", None)?;
    drop(stream);
    if status != 200 {
        return Err(io::Error::other(format!(
            "final /metrics returned {status}"
        )));
    }
    let server_metrics = json::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| io::Error::other(format!("unparseable /metrics body: {e}")))?;

    if let Some(server) = server {
        server.shutdown();
    }

    let sum = |f: fn(&WorkerOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    Ok(LoadReport {
        mode: config.mode(),
        workers: config.workers,
        wall,
        total,
        ok: sum(|o| o.ok),
        client_errors: sum(|o| o.client_errors),
        server_errors: sum(|o| o.server_errors),
        transport_errors: sum(|o| o.transport_errors),
        connect_retries: sum(|o| o.connect_retries),
        workers_failed,
        compile_requests: sum(|o| o.compile_requests),
        simulate_requests: sum(|o| o.simulate_requests),
        check_requests: sum(|o| o.check_requests),
        throughput_rps,
        p50_us: percentile(&latencies, 50.0),
        p90_us: percentile(&latencies, 90.0),
        p99_us: percentile(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
        warmup,
        open_loop,
        tracing,
        server_metrics,
    })
}

/// One short closed-loop pass with `query` appended to every request
/// path, returning its throughput. Individual failures are absorbed the
/// same way the main loop absorbs them — the pass measures rate, not
/// correctness.
fn tracing_pass(
    addr: &str,
    window: Duration,
    config: &LoadConfig,
    compile_bodies: &[String],
    simulate_body: &str,
    query: &'static str,
    seed: u64,
) -> f64 {
    let deadline = Instant::now() + window;
    let started = Instant::now();
    let total = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|worker| {
                scope.spawn(move || {
                    worker_loop(
                        addr,
                        deadline,
                        compile_bodies,
                        simulate_body,
                        config.simulate_share,
                        config.check_share,
                        seed.wrapping_add(worker as u64),
                        query,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|handle| handle.join().ok())
            .map(|outcome| outcome.latencies_us.len() as u64)
            .sum::<u64>()
    });
    let wall = started.elapsed();
    if wall.as_secs_f64() > 0.0 {
        total as f64 / wall.as_secs_f64()
    } else {
        0.0
    }
}

/// Exact percentile over an ascending-sorted latency list (nearest-rank
/// method); `0` when empty.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Run one open-loop point: offer the mix at `target_rps` for `window`
/// from a shared schedule, with twice the closed-loop worker count so
/// the generator has in-flight headroom and does not silently degrade
/// into a closed loop at high rates. Latencies are measured from each
/// request's scheduled arrival, so a server that stalls the schedule
/// pays for the queueing it caused.
fn open_loop_point(
    addr: &str,
    target_rps: f64,
    window: Duration,
    config: &LoadConfig,
    compile_bodies: &[String],
    simulate_body: &str,
    seed: u64,
) -> OpenLoopPoint {
    let interval_ns = (1e9 / target_rps).max(1.0) as u64;
    let planned = ((window.as_secs_f64() * target_rps) as u64).max(1);
    let next = std::sync::atomic::AtomicU64::new(0);
    let workers = (config.workers * 2).max(2);
    let started = Instant::now();
    let (outcomes, workers_failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    open_loop_worker(
                        addr,
                        started,
                        interval_ns,
                        planned,
                        next,
                        compile_bodies,
                        simulate_body,
                        config.simulate_share,
                        config.check_share,
                        seed.wrapping_add(worker as u64),
                    )
                })
            })
            .collect();
        let mut outcomes: Vec<OpenLoopOutcome> = Vec::new();
        let mut failed = 0u64;
        for handle in handles {
            match handle.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => failed += 1,
            }
        }
        (outcomes, failed)
    });
    let wall = started.elapsed();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let requests = outcomes.iter().map(|o| o.ok + o.errors).sum::<u64>();
    OpenLoopPoint {
        target_rps,
        achieved_rps: if wall.as_secs_f64() > 0.0 {
            requests as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        requests,
        ok: outcomes.iter().map(|o| o.ok).sum(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        late_starts: outcomes.iter().map(|o| o.late_starts).sum(),
        connect_retries: outcomes.iter().map(|o| o.connect_retries).sum(),
        workers_failed,
        p50_us: percentile(&latencies, 50.0),
        p90_us: percentile(&latencies, 90.0),
        p99_us: percentile(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

struct OpenLoopOutcome {
    latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
    late_starts: u64,
    connect_retries: u64,
}

#[allow(clippy::too_many_arguments)]
fn open_loop_worker(
    addr: &str,
    start: Instant,
    interval_ns: u64,
    planned: u64,
    next: &std::sync::atomic::AtomicU64,
    compile_bodies: &[String],
    simulate_body: &str,
    simulate_share: f64,
    check_share: f64,
    seed: u64,
) -> OpenLoopOutcome {
    use std::sync::atomic::Ordering;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcome = OpenLoopOutcome {
        latencies_us: Vec::new(),
        ok: 0,
        errors: 0,
        late_starts: 0,
        connect_retries: 0,
    };
    let mut stream: Option<TcpStream> = None;
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= planned {
            break;
        }
        let scheduled = start + Duration::from_nanos(k.saturating_mul(interval_ns));
        let now = Instant::now();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        } else if now - scheduled > Duration::from_millis(1) {
            outcome.late_starts += 1;
        }
        let roll = f64::from(rng.random_range(0u32..1 << 20)) / f64::from(1u32 << 20);
        let (path, body) = if roll < simulate_share {
            ("/simulate", simulate_body)
        } else if roll < simulate_share + check_share {
            let i = rng.random_range(0..compile_bodies.len());
            ("/check", compile_bodies[i].as_str())
        } else {
            let i = rng.random_range(0..compile_bodies.len());
            ("/compile", compile_bodies[i].as_str())
        };
        if stream.is_none() {
            match connect_with_retry(addr, &mut rng, &mut outcome.connect_retries) {
                Some(fresh) => stream = Some(fresh),
                None => {
                    outcome.errors += 1;
                    continue;
                }
            }
        }
        let connection = stream.as_mut().expect("connected above");
        match crate::http::client_roundtrip_keepalive(connection, "POST", path, Some(body)) {
            Ok((status, _, keep_alive)) => {
                // Corrected latency: from the *scheduled* arrival, not
                // from when the send actually went out.
                outcome
                    .latencies_us
                    .push(scheduled.elapsed().as_micros() as u64);
                if (200..=299).contains(&status) {
                    outcome.ok += 1;
                } else {
                    outcome.errors += 1;
                }
                if !keep_alive {
                    stream = None;
                }
            }
            Err(_) => {
                outcome.errors += 1;
                stream = None;
            }
        }
    }
    outcome
}

/// Send every distinct request of the mix once over one connection and
/// record the cold latencies. Non-2xx responses still count — the point
/// is the latency of a first arrival, whatever its verdict.
fn warmup_pass(
    addr: &str,
    compile_bodies: &[String],
    simulate_body: &str,
) -> io::Result<WarmupReport> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let _ = crate::http::set_timeouts(&stream, Duration::from_secs(30), Duration::from_secs(30));
    let mut latencies: Vec<u64> = Vec::new();
    let requests = compile_bodies
        .iter()
        .map(|body| ("/compile", body.as_str()))
        .chain(compile_bodies.iter().map(|body| ("/check", body.as_str())))
        .chain(std::iter::once(("/simulate", simulate_body)));
    for (path, body) in requests {
        let sent = Instant::now();
        match crate::http::client_roundtrip_keepalive(&mut stream, "POST", path, Some(body)) {
            Ok((_, _, keep_alive)) => {
                latencies.push(sent.elapsed().as_micros() as u64);
                if !keep_alive {
                    stream = TcpStream::connect(addr)?;
                    let _ = crate::http::set_timeouts(
                        &stream,
                        Duration::from_secs(30),
                        Duration::from_secs(30),
                    );
                }
            }
            Err(e) => return Err(e),
        }
    }
    latencies.sort_unstable();
    Ok(WarmupReport {
        requests: latencies.len() as u64,
        wall: started.elapsed(),
        p50_us: latencies
            .get(latencies.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0),
        max_us: latencies.last().copied().unwrap_or(0),
    })
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    addr: &str,
    deadline: Instant,
    compile_bodies: &[String],
    simulate_body: &str,
    simulate_share: f64,
    check_share: f64,
    seed: u64,
    query: &str,
) -> WorkerOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcome = WorkerOutcome {
        latencies_us: Vec::new(),
        ok: 0,
        client_errors: 0,
        server_errors: 0,
        transport_errors: 0,
        compile_requests: 0,
        simulate_requests: 0,
        check_requests: 0,
        connect_retries: 0,
    };
    let mut stream: Option<TcpStream> = None;
    while Instant::now() < deadline {
        if stream.is_none() {
            match connect_with_retry(addr, &mut rng, &mut outcome.connect_retries) {
                Some(fresh) => stream = Some(fresh),
                None => {
                    // Every backoff attempt exhausted: the listener is
                    // genuinely unreachable right now, not just busy.
                    outcome.transport_errors += 1;
                    continue;
                }
            }
        }
        let connection = stream.as_mut().expect("connected above");
        // One roll splits the mix: [0, sim) → /simulate,
        // [sim, sim+check) → /check, the rest → /compile. The check and
        // compile arms draw from the same benchmark bodies, so every
        // /check after the first warm-up is a cache hit plus analysis —
        // exactly the production shape the endpoint is built for.
        // The vendored rand only samples integer ranges; a 20-bit roll
        // gives the shares ~1e-6 resolution, plenty for a request mix.
        let roll = f64::from(rng.random_range(0u32..1 << 20)) / f64::from(1u32 << 20);
        let (path, body) = if roll < simulate_share {
            outcome.simulate_requests += 1;
            ("/simulate", simulate_body)
        } else if roll < simulate_share + check_share {
            outcome.check_requests += 1;
            let i = rng.random_range(0..compile_bodies.len());
            ("/check", compile_bodies[i].as_str())
        } else {
            outcome.compile_requests += 1;
            let i = rng.random_range(0..compile_bodies.len());
            ("/compile", compile_bodies[i].as_str())
        };
        // The tracing passes append `?trace=1`; the default (empty
        // query) path stays allocation-free.
        let url: std::borrow::Cow<'_, str> = if query.is_empty() {
            path.into()
        } else {
            format!("{path}{query}").into()
        };
        let sent = Instant::now();
        match crate::http::client_roundtrip_keepalive(connection, "POST", &url, Some(body)) {
            Ok((status, _, keep_alive)) => {
                outcome.latencies_us.push(sent.elapsed().as_micros() as u64);
                match status {
                    200..=299 => outcome.ok += 1,
                    400..=499 => outcome.client_errors += 1,
                    _ => outcome.server_errors += 1,
                }
                if !keep_alive {
                    // Orderly close (keep-alive budget reached, or
                    // shutdown began): reconnect, not a transport error.
                    stream = None;
                }
            }
            Err(_) => {
                outcome.transport_errors += 1;
                stream = None; // reconnect on the next iteration
            }
        }
    }
    outcome
}
