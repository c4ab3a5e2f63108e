//! Every cache tier of `spire-serve` answers with the same bytes.
//!
//! A `/compile` or `/check` answer may come from a fresh compile, the
//! in-memory tiers, a coalesced flight, the persistent tier after a
//! restart, a recompile after eviction, or a server whose disk fails
//! every operation. Only the `served` label may tell them apart: this
//! test drives `api::handle` over the paper benchmarks (depth 2,
//! `pop_front` at 0) under `opt` `spire` and `none`, and compares each
//! body, `served` removed, against the fresh-compile answer. One test
//! per tier, so the tiers run in parallel.

use std::path::PathBuf;
use std::sync::OnceLock;

use spire_repro::bench_suite::programs::all_benchmarks;
use spire_repro::qcirc::json::{parse, Json};
use spire_repro::spire::FaultSchedule;
use spire_repro::spire_serve::http::Request;
use spire_repro::spire_serve::{api, AppState, ServerConfig};

/// The three request shapes every tier must answer identically.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Compile,
    CompileQc,
    Check,
}

const KINDS: [Kind; 3] = [Kind::Compile, Kind::CompileQc, Kind::Check];

/// One program configuration: the request body without `include_qc`.
fn programs() -> Vec<Json> {
    let mut programs = Vec::new();
    for bench in all_benchmarks() {
        for opt in ["spire", "none"] {
            programs.push(
                Json::obj()
                    .field("source", bench.source.as_str())
                    .field("entry", bench.entry)
                    .field("depth", if bench.constant { 0 } else { 2 })
                    .field("opt", opt)
                    .build(),
            );
        }
    }
    programs
}

fn request(program: &Json, kind: Kind) -> Request {
    let mut body = program.clone();
    if let (Kind::CompileQc, Json::Object(fields)) = (kind, &mut body) {
        fields.push(("include_qc".to_string(), Json::Bool(true)));
    }
    let path = match kind {
        Kind::Compile | Kind::CompileQc => "/compile",
        Kind::Check => "/check",
    };
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: String::new(),
        headers: Vec::new(),
        body: body.to_string().into_bytes(),
    }
}

/// The body's `served` label and the body with `"served":"…",` removed.
fn split_served(body: &str) -> (String, String) {
    let start = body.find("\"served\":\"").expect("a served field");
    let label_at = start + "\"served\":\"".len();
    let label_end = label_at + body[label_at..].find('"').expect("closing quote");
    assert_eq!(&body[label_end + 1..label_end + 2], ",");
    let rest = format!("{}{}", &body[..start], &body[label_end + 2..]);
    (body[label_at..label_end].to_string(), rest)
}

/// Send one request; returns `(served, body without served)`.
fn ask(state: &AppState, program: &Json, kind: Kind) -> (String, String) {
    let response = api::handle(state, &request(program, kind));
    let body = String::from_utf8(response.body).expect("UTF-8 body");
    assert_eq!(response.status, 200, "{body}");
    split_served(&body)
}

fn state(config: ServerConfig) -> AppState {
    AppState::from_config(&config).expect("state opens")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spire-tiers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_of(body: &str) -> u128 {
    let doc = parse(body).expect("JSON body");
    let hex = doc.get("key").and_then(Json::as_str).expect("a key field");
    u128::from_str_radix(hex, 16).expect("hex key")
}

/// The program configurations and, for each, the fresh-compile body of
/// every request shape: the answer every other tier must reproduce.
/// Computed once and shared by the tests below, which run in parallel.
struct Reference {
    programs: Vec<Json>,
    bodies: Vec<[String; 3]>,
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let programs = programs();
        // A fresh state per request shape, so each shape is the first
        // request for every key and is compiled.
        let mut bodies: Vec<[String; 3]> = vec![Default::default(); programs.len()];
        let mut fresh = Vec::new();
        for (k, kind) in KINDS.into_iter().enumerate() {
            let state = AppState::new();
            for (program, want) in programs.iter().zip(&mut bodies) {
                let (served, body) = ask(&state, program, kind);
                assert_eq!(served, "compiled", "{kind:?}");
                want[k] = body;
            }
            fresh.push((kind, state));
        }
        // Repeats are memory hits: of the document memo, or of the
        // compile cache with the document built on the spot.
        for (kind, state) in &fresh {
            for (program, want) in programs.iter().zip(&bodies) {
                for (j, other) in KINDS.into_iter().enumerate() {
                    let (served, body) = ask(state, program, other);
                    assert_eq!(served, "cache", "{other:?} after {kind:?}");
                    assert_eq!(body, want[j], "memory hit, {other:?} after {kind:?}");
                }
            }
        }
        Reference { programs, bodies }
    })
}

/// Every program and request shape with its fresh-compile body.
fn cases() -> impl Iterator<Item = (&'static Json, Kind, &'static str)> {
    let reference = reference();
    reference
        .programs
        .iter()
        .zip(&reference.bodies)
        .flat_map(|(program, bodies)| {
            KINDS
                .into_iter()
                .zip(bodies)
                .map(move |(kind, body)| (program, kind, body.as_str()))
        })
}

#[test]
fn compiled_and_memory_hits_agree() {
    assert_eq!(reference().bodies.len(), 24);
}

#[test]
fn coalesced_flights_agree() {
    // Threads sharing one state race through the same requests, so
    // followers join the leader's flight.
    let shared = AppState::new();
    let barrier = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                barrier.wait();
                for (program, kind, want) in cases() {
                    let (served, body) = ask(&shared, program, kind);
                    assert!(
                        ["compiled", "coalesced", "cache"].contains(&served.as_str()),
                        "{served}"
                    );
                    assert_eq!(body, want, "concurrent {kind:?}");
                }
            });
        }
    });
}

#[test]
fn disk_after_restart_agrees() {
    let reference = reference();
    let dir = temp_dir("disk");
    let with_dir = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    {
        let writer = state(with_dir());
        for (program, want) in reference.programs.iter().zip(&reference.bodies) {
            let (_, body) = ask(&writer, program, Kind::Compile);
            assert_eq!(body, want[0]);
            // The record is the `include_qc` body without `served`.
            let stored = writer
                .disk()
                .expect("disk tier")
                .try_get(key_of(&body))
                .expect("readable")
                .expect("persisted");
            assert_eq!(String::from_utf8(stored).unwrap(), want[1]);
        }
    }
    // A reopened state per `/compile` shape, so each is served from disk.
    for (first, then) in [(0, 1), (1, 0)] {
        let reader = state(with_dir());
        for (program, want) in reference.programs.iter().zip(&reference.bodies) {
            let (served, body) = ask(&reader, program, KINDS[first]);
            assert_eq!(served, "disk", "{:?} after reopening", KINDS[first]);
            assert_eq!(body, want[first]);
            let (served, body) = ask(&reader, program, KINDS[then]);
            assert_eq!(served, "cache");
            assert_eq!(body, want[then]);
            if first == 0 {
                let (_, body) = ask(&reader, program, Kind::Check);
                assert_eq!(body, want[2], "check after reopening");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recompiles_after_eviction_agree() {
    // A budget far below one entry drops every compilation and document
    // as soon as it is stored, so each request recompiles.
    let tiny = state(ServerConfig {
        cache_bytes: Some(64),
        ..ServerConfig::default()
    });
    for (program, kind, want) in cases() {
        let misses = tiny.compiler.cache().stats().misses;
        let (served, body) = ask(&tiny, program, kind);
        assert_eq!(served, "compiled", "{kind:?} after eviction");
        assert_eq!(tiny.compiler.cache().stats().misses, misses + 1);
        assert_eq!(body, want, "re-served {kind:?} after eviction");
    }
}

#[test]
fn failing_disk_agrees() {
    // Every disk operation fails: memory keeps answering.
    let dir = temp_dir("eio");
    let faulty = state(ServerConfig {
        cache_dir: Some(dir.clone()),
        disk_faults: Some(FaultSchedule::parse("eio:all").unwrap()),
        ..ServerConfig::default()
    });
    for (program, kind, want) in cases() {
        let (_, body) = ask(&faulty, program, kind);
        assert_eq!(body, want, "{kind:?} under eio:all");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-byte budget bounds both the compile cache and the document
/// memo instead of rounding down to 0, which means unbounded.
#[test]
fn one_byte_budget_still_bounds() {
    let state = state(ServerConfig {
        cache_bytes: Some(1),
        ..ServerConfig::default()
    });
    for k in 0..4 {
        let source = format!("fun f(x: uint) -> uint {{ let y <- x + {k}; return y; }}");
        let program = Json::obj()
            .field("source", source.as_str())
            .field("entry", "f")
            .build();
        assert_eq!(ask(&state, &program, Kind::Compile).0, "compiled");
        assert_eq!(ask(&state, &program, Kind::Check).0, "compiled");
    }
    let metrics = api::handle(
        &state,
        &Request {
            method: "GET".to_string(),
            path: "/metrics".to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        },
    );
    let metrics = parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let field = |block: &str, name: &str| {
        metrics
            .get(block)
            .and_then(|b| b.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{block}.{name}"))
    };
    assert!(field("cache", "budget_bytes") > 0);
    assert!(field("cache", "evictions") >= 8, "distinct compiles evict");
    assert_eq!(field("cache", "entries"), 0);
    assert!(field("memory", "memo_evictions") >= 8);
}
