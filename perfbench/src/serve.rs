//! The serving workloads: a `spire-serve` server in a child process, driven
//! by a closed loop of keep-alive clients.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qcirc::json::Json;

use crate::calib::Calibration;
use crate::client::Client;
use crate::oracle::{self, Expected, Oracle};
use crate::stats::{median, quantile};
use crate::workload::{self, Endpoint, Program, Session, WALK_DEPTH, WALK_SHOTS};
use crate::{E2e, Measured, Named};

/// Client connections (= the box's 2 cores).
pub const CONNECTIONS: usize = 2;
/// Measurement slices per run; the machine's speed is calibrated between
/// them (see `calib`).
const SLICES: usize = 4;
/// Server start-ups per run; `setup_s` is their median. A warm set-up
/// includes the warm-up pass (about a second), a cold one does not.
const WARM_SETUPS: usize = 3;
const COLD_SETUPS: usize = 9;
/// The cold workload's memory budget: below the artifact bytes of a run,
/// so the cache tiers insert and evict.
pub const COLD_CACHE_BYTES: u64 = 8 << 20;

/// A server child process. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Held open for the server's lifetime: the server exits when it
    /// closes, so it cannot outlive this process.
    _stdin: ChildStdin,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(cache_dir: &Path, cache_bytes: Option<u64>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("serve").arg("--cache-dir").arg(cache_dir);
        if let Some(bytes) = cache_bytes {
            command.arg("--cache-bytes").arg(bytes.to_string());
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening ")?.parse().ok())
        {
            Some(addr) => addr,
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        Ok(ServerProc {
            child,
            _stdin: stdin,
            addr,
        })
    }

    /// Poll `/healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut client = Client::new(self.addr);
        loop {
            if let Ok((200, _)) = client.request("GET", "/healthz", "") {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    pub fn metrics(&self) -> Result<Json, String> {
        let (status, body) = Client::new(self.addr)
            .request("GET", "/metrics", "")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        qcirc::json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve` subcommand: run the server until stdin closes.
pub fn serve_main(args: &crate::Args) -> Result<(), String> {
    let mut config = spire_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(PathBuf::from(args.get("--cache-dir")?)),
        ..spire_serve::ServerConfig::default()
    };
    if let Ok(bytes) = args.get("--cache-bytes") {
        config.cache_bytes = Some(bytes.parse().map_err(|e| format!("--cache-bytes: {e}"))?);
    }
    let server = spire_serve::Server::start(config).map_err(|e| format!("starting server: {e}"))?;
    println!("listening {}", server.addr());
    // Exit with the parent: its end of our stdin closes when it exits.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {}
    server.shutdown();
    Ok(())
}

/// Start `setups` fresh servers, each timed from spawn through `/healthz`
/// and `prepare`; keep the last one running. Returns it with the median
/// set-up time.
fn set_up(
    dir: &Path,
    cache_bytes: Option<u64>,
    setups: usize,
    mut prepare: impl FnMut(&ServerProc) -> Result<(), String>,
) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    let mut server: Option<ServerProc> = None;
    for i in 0..setups {
        drop(server.take()); // stop the previous server before starting the next
        let cache_dir = dir.join(format!("cache-{i}"));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let started = Instant::now();
        let proc = ServerProc::spawn(&cache_dir, cache_bytes)?;
        proc.wait_healthy()?;
        prepare(&proc)?;
        times.push(started.elapsed().as_secs_f64());
        server = Some(proc);
    }
    let server = server.expect("at least one set-up");
    Ok((server, median(&times).expect("set-up samples")))
}

/// Per-thread results of a closed loop.
#[derive(Debug, Default)]
struct Tally {
    /// `(endpoint, latency in µs)` per completed request.
    latencies: Vec<(Endpoint, f64)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    fn merge(tallies: Vec<Tally>) -> Tally {
        let mut all = Tally::default();
        for t in tallies {
            all.latencies.extend(t.latencies);
            all.attempted += t.attempted;
            all.failed += t.failed;
            if all.first_error.is_none() {
                all.first_error = t.first_error;
            }
        }
        all
    }

    /// Latencies of `kinds`, in µs.
    fn of(&self, kinds: &[Endpoint]) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(e, _)| kinds.contains(e))
            .map(|&(_, us)| us)
            .collect()
    }
}

/// A closed loop measured in [`SLICES`] equal slices of `seconds`, with a
/// calibration sample after each. `run_slice(deadline)` runs one slice's
/// client threads. Returns the merged tally and the total wall time.
fn sliced(
    seconds: f64,
    calibration: &mut Calibration,
    mut run_slice: impl FnMut(Instant) -> Vec<Tally>,
) -> (Tally, f64) {
    let mut tallies = Vec::new();
    let mut wall = 0.0;
    for _ in 0..SLICES {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds / SLICES as f64);
        tallies.extend(run_slice(deadline));
        wall += started.elapsed().as_secs_f64();
        calibration.sample();
    }
    (Tally::merge(tallies), wall)
}

/// Which requests are a workload's operations and which percentiles it
/// reports.
struct Spec {
    op: &'static [Endpoint],
    op_tail: f64,
    aux: &'static [Endpoint],
    aux_tail: f64,
    /// Completed operations: requests, or sessions of two requests.
    per_op: usize,
}

/// The result metrics of a closed loop.
fn summarize(tally: &Tally, wall: f64, spec: &Spec, setup_s: f64, peak_rss_mb: f64) -> E2e {
    let op = tally.of(spec.op);
    let aux = tally.of(spec.aux);
    let ms = |xs: &[f64], q: f64| quantile(xs, q).unwrap_or(f64::NAN) / 1e3;
    E2e {
        setup_s,
        peak_rss_mb,
        ops_per_s: (tally.latencies.len() / spec.per_op) as f64 / wall,
        op_p50_ms: ms(&op, 0.5),
        op_tail_ms: ms(&op, spec.op_tail),
        aux_p50_ms: ms(&aux, 0.5),
        aux_tail_ms: ms(&aux, spec.aux_tail),
    }
}

fn expected_warm(oracle: &Oracle, program: &Program) -> Result<Expected, String> {
    let depth = if program.depths == [0] {
        0
    } else {
        workload::WARM_DEPTH
    };
    oracle.expected(&program.label, depth, true)
}

/// Check one warm-mix response against the oracle.
fn verify_warm(
    body: &workload::WarmBody,
    expected: &[Expected],
    payload: &[u8],
) -> Result<(), String> {
    match body.endpoint {
        Endpoint::Compile => {
            oracle::check_compile(payload, expected[body.program.expect("program")], false)
        }
        Endpoint::Check => oracle::check_check(payload, expected[body.program.expect("program")]),
        Endpoint::Simulate => oracle::check_simulate(payload, WALK_SHOTS, WALK_DEPTH),
    }
}

/// `serve-warm`: every `/compile` and `/check` is a memo hit after an
/// untimed warm-up pass over every distinct body.
pub fn run_warm(ctx: &crate::Ctx, seconds: f64) -> Result<Measured, String> {
    let programs = workload::programs();
    let expected: Vec<Expected> = programs
        .iter()
        .map(|p| expected_warm(&ctx.oracle, p))
        .collect::<Result<_, _>>()?;
    let mix = workload::warm_mix(ctx.seed, &programs, 1 << 20);
    let warm_up = |server: &ServerProc| -> Result<(), String> {
        let mut client = Client::new(server.addr);
        for body in &mix.bodies {
            let (status, payload) = client
                .request("POST", body.endpoint.path(), &body.body)
                .map_err(|e| format!("warm-up {}: {e}", body.endpoint.path()))?;
            if status != 200 {
                return Err(format!(
                    "warm-up {} answered {status}",
                    body.endpoint.path()
                ));
            }
            verify_warm(body, &expected, &payload)
                .map_err(|e| format!("warm-up {}: {e}", body.endpoint.path()))?;
        }
        Ok(())
    };
    let mut calibration = Calibration::default();
    calibration.sample();
    let (server, setup_s) = set_up(&ctx.out_dir, None, WARM_SETUPS, warm_up)?;
    calibration.sample();

    let next = AtomicUsize::new(0);
    let (tally, wall) = sliced(seconds, &mut calibration, |deadline| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tally = Tally::default();
                        let mut client = Client::new(server.addr);
                        // Responses already checked in full, per body: a
                        // byte-identical answer needs no second parse.
                        let mut verified: HashMap<usize, Vec<u8>> = HashMap::new();
                        while Instant::now() < deadline {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let index = mix.sequence[i % mix.sequence.len()] as usize;
                            let body = &mix.bodies[index];
                            tally.attempted += 1;
                            let sent = Instant::now();
                            let result = client.request("POST", body.endpoint.path(), &body.body);
                            let us = sent.elapsed().as_secs_f64() * 1e6;
                            match result {
                                Ok((200, payload)) => {
                                    if verified.get(&index) != Some(&payload) {
                                        if let Err(e) = verify_warm(body, &expected, &payload) {
                                            tally.fail(e);
                                            continue;
                                        }
                                        if body.endpoint != Endpoint::Simulate {
                                            verified.insert(index, payload);
                                        }
                                    }
                                    tally.latencies.push((body.endpoint, us));
                                }
                                Ok((status, _)) => tally
                                    .fail(format!("{} answered {status}", body.endpoint.path())),
                                Err(e) => tally.fail(format!("{}: {e}", body.endpoint.path())),
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    });
    let peak_rss_mb = server.peak_rss_mb()?;
    let server_metrics = server.metrics()?;
    drop(server);

    let spec = Spec {
        op: &[Endpoint::Compile, Endpoint::Check],
        op_tail: 0.99,
        aux: &[Endpoint::Simulate],
        aux_tail: 0.9,
        per_op: 1,
    };
    let raw = summarize(&tally, wall, &spec, setup_s, peak_rss_mb);
    let (hits, sims) = (tally.of(spec.op), tally.of(spec.aux));
    let mut named = Named::default();
    named.push("setup_s", setup_s, "s", WARM_SETUPS);
    named.push("peak_rss_mb", peak_rss_mb, "MiB", 1);
    named.push(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    );
    named.push("warm_rps", raw.ops_per_s, "1/s", tally.latencies.len());
    named.push("warm_p50_us", raw.op_p50_ms * 1e3, "us", hits.len());
    named.push("warm_p99_us", raw.op_tail_ms * 1e3, "us", hits.len());
    named.push(
        "warm_simulate_p50_us",
        raw.aux_p50_ms * 1e3,
        "us",
        sims.len(),
    );
    Ok(Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        first_error: tally.first_error.clone(),
        raw,
        calibration,
        named,
        server_metrics: Some(server_metrics),
        round_trip_us: median(&tally.of(&[Endpoint::Compile])),
    })
}

/// Sessions of the cold workload, handed out whole round by whole round:
/// a round starts only before the slice's deadline and always runs to its
/// end, so every run measures the same balanced mix.
struct SessionQueue<'a> {
    seed: u64,
    programs: &'a [Program],
    state: Mutex<QueueState>,
}

struct QueueState {
    next: usize,
    deadline: Instant,
    round: Option<(usize, Arc<Vec<Session>>)>,
}

impl SessionQueue<'_> {
    /// Let rounds start again until `deadline`.
    fn resume(&self, deadline: Instant) {
        self.state.lock().expect("session queue poisoned").deadline = deadline;
    }

    fn claim(&self) -> Option<Session> {
        let round_len = workload::round_len(self.programs);
        let mut state = self.state.lock().expect("session queue poisoned");
        let i = state.next;
        if i.is_multiple_of(round_len) && Instant::now() >= state.deadline {
            return None;
        }
        state.next += 1;
        let k = i / round_len;
        if state.round.as_ref().map(|(r, _)| *r) != Some(k) {
            let sessions = workload::cold_round(self.seed, k, self.programs);
            state.round = Some((k, Arc::new(sessions)));
        }
        let (_, sessions) = state.round.as_ref().expect("round generated");
        Some(sessions[i % round_len].clone())
    }
}

/// `serve-cold`: editor sessions whose renamed entry misses every cache
/// tier; each `/compile` (with `.qc`) is followed by a `/check`.
pub fn run_cold(ctx: &crate::Ctx, seconds: f64) -> Result<Measured, String> {
    let programs = workload::programs();
    let mut calibration = Calibration::default();
    calibration.sample();
    let (server, setup_s) = set_up(
        &ctx.out_dir,
        Some(COLD_CACHE_BYTES),
        COLD_SETUPS,
        |_| Ok(()),
    )?;
    calibration.sample();
    let queue = SessionQueue {
        seed: ctx.seed,
        programs: &programs,
        state: Mutex::new(QueueState {
            next: 0,
            deadline: Instant::now(),
            round: None,
        }),
    };
    let (tally, wall) = sliced(seconds, &mut calibration, |deadline| {
        queue.resume(deadline);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tally = Tally::default();
                        let mut client = Client::new(server.addr);
                        while let Some(session) = queue.claim() {
                            cold_session(ctx, &programs, &session, &mut client, &mut tally);
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    });
    let peak_rss_mb = server.peak_rss_mb()?;
    let server_metrics = server.metrics()?;
    drop(server);

    let spec = Spec {
        op: &[Endpoint::Compile],
        op_tail: 0.9,
        aux: &[Endpoint::Check],
        aux_tail: 0.9,
        per_op: 2,
    };
    let raw = summarize(&tally, wall, &spec, setup_s, peak_rss_mb);
    let compiles = tally.of(spec.op);
    let checks = tally.of(spec.aux);
    let sessions = tally.latencies.len() / 2;
    let mut named = Named::default();
    named.push("setup_s", setup_s, "s", COLD_SETUPS);
    named.push("peak_rss_mb", peak_rss_mb, "MiB", 1);
    named.push(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    );
    named.push("cold_sessions_per_s", raw.ops_per_s, "1/s", sessions);
    named.push("cold_compile_p50_ms", raw.op_p50_ms, "ms", compiles.len());
    named.push("cold_compile_p90_ms", raw.op_tail_ms, "ms", compiles.len());
    named.push("cold_check_p50_ms", raw.aux_p50_ms, "ms", checks.len());
    named.push("cold_check_p90_ms", raw.aux_tail_ms, "ms", checks.len());
    Ok(Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        first_error: tally.first_error.clone(),
        raw,
        calibration,
        named,
        server_metrics: Some(server_metrics),
        round_trip_us: median(&compiles),
    })
}

/// One cold session: `/compile` with `.qc`, then `/check`, each checked
/// against the oracle.
fn cold_session(
    ctx: &crate::Ctx,
    programs: &[Program],
    session: &Session,
    client: &mut Client,
    tally: &mut Tally,
) {
    let program = &programs[session.program];
    let expected = match ctx
        .oracle
        .expected(&program.label, session.depth, session.spire)
    {
        Ok(e) => e,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(e);
            return;
        }
    };
    for (endpoint, body) in [
        (Endpoint::Compile, session.compile_body()),
        (Endpoint::Check, session.check_body()),
    ] {
        tally.attempted += 1;
        let sent = Instant::now();
        let result = client.request("POST", endpoint.path(), &body);
        let us = sent.elapsed().as_secs_f64() * 1e6;
        let verdict = match result {
            Ok((200, payload)) => match endpoint {
                Endpoint::Compile => oracle::check_compile(&payload, expected, true),
                _ => oracle::check_check(&payload, expected),
            },
            Ok((status, _)) => Err(format!("answered {status}")),
            Err(e) => Err(e.to_string()),
        };
        match verdict {
            Ok(()) => tally.latencies.push((endpoint, us)),
            Err(e) => tally.fail(format!(
                "{} {} depth {} ({}): {e}",
                endpoint.path(),
                program.label,
                session.depth,
                if session.spire { "spire" } else { "none" }
            )),
        }
    }
}
