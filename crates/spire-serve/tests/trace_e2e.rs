//! End-to-end tests of the tracing surfaces: a real server on an
//! ephemeral port, driven over real sockets.
//!
//! The load-bearing assertions:
//!
//! * `?trace=1` returns the span tree inline with a schema-stable shape
//!   (trace ID, nested spans with stage/timing fields) and echoes the
//!   trace ID in the `x-spire-trace-id` response header;
//! * a traced fresh compile's tree covers every pipeline stage, and the
//!   direct children of the root account for (nearly) all of its wall
//!   time;
//! * two servers booted with the same trace seed produce byte-identical
//!   span trees (after timing normalization) for the same request;
//! * concurrent traced requests each get back only their own spans;
//! * untraced requests carry no trace field and no trace header;
//! * sampled traces (`trace_sample`) tag the response header but never
//!   change the body, and land in `/debug/slow` in both JSON and Chrome
//!   `trace_event` form.

use std::net::TcpStream;

use qcirc::json::{parse, Json};
use spire_serve::http::{client_roundtrip, read_client_response_full};
use spire_serve::{Server, ServerConfig};

const COUNT_SRC: &str = r#"
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

fn compile_body(depth: i64) -> String {
    Json::obj()
        .field("source", COUNT_SRC)
        .field("entry", "count")
        .field("depth", depth)
        .build()
        .to_string()
}

/// One request, returning status, lower-cased response headers, and the
/// parsed JSON body.
fn request_full(
    server: &Server,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, Json) {
    use std::io::Write;
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len(),
    );
    conn.write_all(message.as_bytes()).expect("send");
    let (status, headers, body, _keep_alive) =
        read_client_response_full(&mut conn).expect("response");
    let text = String::from_utf8(body).expect("UTF-8 response");
    let json = parse(&text).unwrap_or_else(|e| panic!("unparseable response `{text}`: {e}"));
    (status, headers, json)
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Collect every stage name in a span tree.
fn stages(span: &Json, out: &mut Vec<String>) {
    if let Some(stage) = span.get("stage").and_then(Json::as_str) {
        out.push(stage.to_string());
    }
    if let Some(Json::Array(children)) = span.get("children") {
        for child in children {
            stages(child, out);
        }
    }
}

/// Canonical rendering of a span tree with every timing field zeroed;
/// two traces of the same request from same-seeded servers must agree
/// on this byte-for-byte (same span IDs, same structure, same attrs).
fn normalized(value: &Json) -> Json {
    match value {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .map(|(k, v)| {
                    if k == "start_ns" || k == "dur_ns" {
                        (k.clone(), Json::UInt(0))
                    } else if k == "attrs" {
                        // Attribute values (gate counts are stable, but
                        // queue depths etc. are not) normalize too;
                        // keys must match exactly.
                        match v {
                            Json::Object(attrs) => (
                                k.clone(),
                                Json::Object(
                                    attrs
                                        .iter()
                                        .map(|(ak, _)| (ak.clone(), Json::UInt(0)))
                                        .collect(),
                                ),
                            ),
                            other => (k.clone(), other.clone()),
                        }
                    } else {
                        (k.clone(), normalized(v))
                    }
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(normalized).collect()),
        other => other.clone(),
    }
}

#[test]
fn traced_compile_returns_span_tree_and_header() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let (status, headers, body) =
        request_full(&server, "POST", "/compile?trace=1", Some(&compile_body(3)));
    assert_eq!(status, 200, "body: {body}");

    // Schema-stable trace shape.
    let trace = body.get("trace").expect("trace field on ?trace=1");
    let trace_id = trace
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("trace_id string");
    assert_eq!(trace_id.len(), 16, "16 hex digits: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(
        header(&headers, "x-spire-trace-id"),
        Some(trace_id),
        "header echoes the trace ID"
    );

    let spans = trace.get("spans").expect("spans array");
    let root = spans.item(0).expect("exactly one root");
    assert_eq!(root.get("stage").and_then(Json::as_str), Some("request"));
    for key in ["span_id", "parent_id", "start_ns", "dur_ns", "children"] {
        assert!(root.get(key).is_some(), "root span has `{key}`");
    }

    // A fresh traced compile covers the whole pipeline, including the
    // serving phases and the spire-verify checks.
    let mut seen = Vec::new();
    stages(root, &mut seen);
    // The circuit-level `qopt` passes are not part of the serving
    // pipeline (they belong to the optimizer-comparison experiments,
    // where `qopt::run_traced` records `qopt:<pass>` spans); everything
    // the serving compile does run must be here.
    for stage in [
        "read_parse",
        "queue",
        "handler",
        "flight",
        "parse",
        "inline",
        "lower",
        "typecheck",
        "optimize",
        "recheck",
        "expand",
        "layout",
        "select",
        "emit",
        "verify",
        "check_circuit",
        "check_ancillas",
        "t_bounds",
    ] {
        assert!(
            seen.iter().any(|s| s == stage),
            "stage `{stage}` missing from trace: {seen:?}"
        );
    }

    // The root's direct children partition the request: their summed
    // duration accounts for (nearly) all of the root's wall time. The
    // `write` phase is recorded after the response flushes, so it is
    // legitimately absent from the inline tree — the remaining phases
    // must still cover the time up to response serialization.
    let root_dur = root.get("dur_ns").and_then(Json::as_u64).expect("dur_ns");
    let Some(Json::Array(children)) = root.get("children") else {
        panic!("root has children");
    };
    let covered: u64 = children
        .iter()
        .filter_map(|c| c.get("dur_ns").and_then(Json::as_u64))
        .sum();
    assert!(
        covered as f64 >= root_dur as f64 * 0.9,
        "phases cover {covered} of {root_dur} ns (< 90%)"
    );
}

#[test]
fn same_seed_gives_byte_identical_normalized_traces() {
    let config = || ServerConfig {
        trace_seed: 0xD5EED,
        ..ServerConfig::default()
    };
    let trace_of = |server: &Server| {
        let (status, _, body) =
            request_full(server, "POST", "/compile?trace=1", Some(&compile_body(3)));
        assert_eq!(status, 200, "body: {body}");
        normalized(body.get("trace").expect("trace field")).to_string()
    };
    let a = Server::start(config()).expect("server a");
    let b = Server::start(config()).expect("server b");
    // Same seed, same first request: identical trace/span IDs and tree.
    assert_eq!(trace_of(&a), trace_of(&b));

    // A different seed diverges (the IDs are seed-derived, not global).
    let c = Server::start(ServerConfig {
        trace_seed: 0xD5EED + 1,
        ..ServerConfig::default()
    })
    .expect("server c");
    assert_ne!(trace_of(&a), trace_of(&c));
}

#[test]
fn concurrent_traces_each_hold_only_their_own_spans() {
    let front_and_spire: Vec<&str> =
        "parse inline lower typecheck optimize recheck expand layout select"
            .split(' ')
            .collect();
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    // Distinct depths miss the cache independently, so every request
    // runs the whole pipeline while the others are in flight.
    let responses: Vec<_> = std::thread::scope(|scope| {
        let server = &server;
        let clients: Vec<_> = (2..10)
            .map(|depth| {
                let body = compile_body(depth);
                scope.spawn(move || request_full(server, "POST", "/compile?trace=1", Some(&body)))
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (status, headers, body) in &responses {
        assert_eq!(*status, 200, "body: {body}");
        let trace = body.get("trace").expect("trace field on ?trace=1");
        assert_eq!(
            trace.get("trace_id").and_then(Json::as_str),
            header(headers, "x-spire-trace-id"),
            "the tree's spans belong to the trace the header names"
        );
        // One `request` root holding each front-end and spire stage
        // once: a span leaked from a concurrent trace would add a root
        // or a second copy of a stage.
        let Some(Json::Array(roots)) = trace.get("spans") else {
            panic!("spans array");
        };
        assert_eq!(roots.len(), 1, "exactly one root: {trace}");
        let mut seen = Vec::new();
        stages(&roots[0], &mut seen);
        assert_eq!(seen[0], "request");
        let pipeline: Vec<&str> = seen
            .iter()
            .map(String::as_str)
            .filter(|s| front_and_spire.contains(s))
            .collect();
        assert_eq!(pipeline, front_and_spire, "in {seen:?}");
        assert!(seen.iter().any(|s| s == "emit"), "no `emit`: {seen:?}");
    }
}

#[test]
fn untraced_requests_carry_no_trace_surface() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let (status, headers, body) = request_full(&server, "POST", "/compile", Some(&compile_body(3)));
    assert_eq!(status, 200);
    assert!(body.get("trace").is_none(), "no trace field uninvited");
    assert_eq!(header(&headers, "x-spire-trace-id"), None);

    // With sampling off (the default), nothing reaches the slow log.
    let (status, slow) = {
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        let (status, body) =
            client_roundtrip(&mut conn, "GET", "/debug/slow", None).expect("roundtrip");
        (status, parse(&String::from_utf8(body).unwrap()).unwrap())
    };
    assert_eq!(status, 200);
    assert_eq!(
        slow.get("slowest").and_then(|s| match s {
            Json::Array(items) => Some(items.len()),
            _ => None,
        }),
        Some(0)
    );
}

#[test]
fn sampled_traces_tag_the_header_and_fill_the_slow_log() {
    let server = Server::start(ServerConfig {
        trace_sample: 1, // every request
        ..ServerConfig::default()
    })
    .expect("server starts");
    let (status, headers, body) = request_full(&server, "POST", "/compile", Some(&compile_body(3)));
    assert_eq!(status, 200);
    let trace_id = header(&headers, "x-spire-trace-id")
        .expect("sampled request is tagged")
        .to_string();
    assert!(
        body.get("trace").is_none(),
        "sampling must never change the response body"
    );

    // The trace is recorded server-side: /debug/slow has it, in both
    // JSON and Chrome trace_event form.
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let (status, slow) = client_roundtrip(&mut conn, "GET", "/debug/slow", None).expect("slow");
    assert_eq!(status, 200);
    let slow = parse(&String::from_utf8(slow).unwrap()).unwrap();
    let entry = slow
        .get("slowest")
        .and_then(|s| s.item(0))
        .expect("one slow entry");
    assert_eq!(
        entry.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    assert_eq!(entry.get("path").and_then(Json::as_str), Some("/compile"));
    assert!(entry.get("spans").is_some());

    let (status, chrome) =
        client_roundtrip(&mut conn, "GET", "/debug/slow?format=chrome", None).expect("chrome");
    assert_eq!(status, 200);
    let chrome = parse(&String::from_utf8(chrome).unwrap()).unwrap();
    let events = chrome.get("traceEvents").expect("traceEvents");
    let Json::Array(events) = events else {
        panic!("traceEvents is an array");
    };
    assert!(!events.is_empty(), "chrome export has events");
}
