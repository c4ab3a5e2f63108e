//! # spire-serve: the always-on compile-and-estimate service
//!
//! Large-scale quantum deployments need always-on classical control
//! services that compile and re-cost programs on demand; this crate
//! turns the batch Spire reproduction into that long-running,
//! measurable service. It is dependency-free — HTTP/1.1 directly on
//! [`std::net::TcpListener`] — because the build environment is offline,
//! and because the service's hot path is the compiler, not the protocol.
//!
//! Layers:
//!
//! * [`http`] — the minimal HTTP/1.1 subset: an incremental request
//!   parser (size caps, `Content-Length` bodies only, pipelining),
//!   response encoder, and the small client the load-test harness and
//!   tests use.
//! * [`conn`] — per-connection state for the event loop: non-blocking
//!   reads into the parser, buffered response writes, deadlines.
//! * [`pool`] — a bounded worker thread pool with graceful drain; a full
//!   backlog sheds requests with `503` instead of queueing without
//!   limit.
//! * [`metrics`] — wait-free counters and power-of-two-bucket latency
//!   histograms (interpolated percentiles) behind `GET /metrics`, with
//!   build provenance, the event loop's self-profile, and a Prometheus
//!   text renderer for `?format=prometheus`.
//! * [`slow`] — the slow-request log: the N slowest traced requests
//!   with their full span trees, behind `GET /debug/slow` (JSON or
//!   Chrome `trace_event`).
//! * [`api`] — the endpoints: `POST /compile` (source → T-counts, gate
//!   histogram, optional `.qc` text), `POST /simulate` (sparse-backend
//!   execution with variable bindings), `GET /benchmarks` (the paper's
//!   12 programs through the cache), `GET /metrics`, `GET /healthz`,
//!   `GET /debug/slow` — every failure mapped to a structured JSON body
//!   with a stable machine-readable error code, and `?trace=1` on the
//!   compile endpoints returning the request's span tree inline.
//! * [`server`] — the readiness-driven event loop (over the vendored
//!   `poll` shim): one thread owns the listener and every connection,
//!   CPU work runs on the pool, responses come back through a
//!   completion queue and a loopback waker. Per-request traces
//!   ([`spire_trace`]) are created here, follow the request across
//!   threads, and are finished only when the response has flushed.
//! * [`loadtest`] — a closed- and open-loop load generator over the
//!   benchmark programs that writes the `BENCH_serve.json` perf
//!   trajectory (schema 6, with latency-under-load curves, the
//!   traced-vs-untraced throughput delta, and retry / worker-failure
//!   accounting).
//!
//! The compile path sits on [`spire::CompileCache`]: a content-addressed
//! [`spire::Memo`] with a single-flight layer, so a thundering herd of
//! identical requests costs exactly one compilation. Response documents
//! live in a second memo. With [`ServerConfig::cache_dir`] set, `/compile`
//! results additionally persist to an append-only content-addressed
//! store ([`spire::DiskStore`]), so a restarted server answers
//! previously-compiled requests from disk (`"served": "disk"`) without
//! recompiling.
//!
//! See `docs/SERVING.md` for the protocol reference and a worked `curl`
//! session, and `docs/OBSERVABILITY.md` for the tracing and profiling
//! surfaces.
//!
//! # Example
//!
//! ```
//! use spire_serve::http::client_roundtrip;
//! use spire_serve::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default())?;
//! let mut conn = std::net::TcpStream::connect(server.addr())?;
//! let (status, body) = client_roundtrip(
//!     &mut conn,
//!     "POST",
//!     "/compile",
//!     Some(r#"{"source":"fun f(x: uint) -> uint { let y <- x + 1; return y; }","entry":"f"}"#),
//! )?;
//! assert_eq!(status, 200);
//! let reply = qcirc::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
//! assert!(reply.get("t_complexity").is_some());
//! drop(conn);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod breaker;
pub mod conn;
pub mod http;
pub mod loadtest;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod slow;

pub use api::ApiError;
pub use breaker::{BreakerSnapshot, BreakerState, CircuitBreaker};
pub use loadtest::{LoadConfig, LoadReport, OpenLoopPoint, TracingReport, WarmupReport};
pub use metrics::{Metrics, ServeHealth};
pub use server::{default_threads, AppState, Server, ServerConfig};
pub use slow::{SlowEntry, SlowLog};
