//! Request routing, schemas, and error mapping.
//!
//! Every response body is JSON. Failures are *structured*: the body is
//! `{"error":{"code":..., "message":...}}` where `code` is a stable
//! machine-readable identifier — request-shape problems use the
//! `request/` namespace, service conditions use `server/`, and compiler
//! failures carry [`SpireError::code`]/`TowerError::code` verbatim (so a
//! client can distinguish `tower/parse` from `spire/unsound-allocation`
//! without scraping prose). The HTTP status encodes the class: `400` for
//! malformed requests, `404`/`405` for routing, `413` for oversized
//! bodies, `422` for well-formed requests whose *program* is rejected by
//! the compiler, `500`/`503` for service conditions.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use qcirc::json::{self, Json};
use qcirc::sim::{BasisState, SparseState, SparseState256};
use qcirc::Circuit;
use spire::{CacheKey, CompileOptions, Compiled, Machine, OptConfig, Served, SpireError};
use tower::WordConfig;

use crate::http::{Request, Response};
use crate::server::AppState;

/// Deepest recursion depth a request may ask for: compilation cost grows
/// quickly with depth, and an unbounded request would let one client
/// stall a worker arbitrarily long. The paper's own sweeps stop at 10.
pub const MAX_DEPTH: i64 = 12;

/// Most input assignments one `/simulate` request may batch via `shots`:
/// the program is compiled and emitted once, but every shot is a full
/// simulation, so an unbounded batch would stall a worker just like an
/// unbounded recursion depth.
pub const MAX_SHOTS: usize = 64;

/// A structured API failure.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, code: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code: code.into(),
            message: message.into(),
        }
    }

    /// 400 with a `request/` code.
    pub fn bad_request(code: &str, message: impl Into<String>) -> Self {
        ApiError::new(400, code, message)
    }

    /// 422 from a compiler error, carrying its stable code.
    pub fn from_spire(error: &SpireError) -> Self {
        ApiError::new(422, error.code(), error.to_string())
    }

    /// 422 from a circuit/simulation error, carrying its stable code.
    pub fn from_qcirc(error: &qcirc::QcircError) -> Self {
        ApiError::new(422, error.code(), error.to_string())
    }

    /// The JSON response for this error.
    pub fn response(&self) -> Response {
        let body = Json::obj()
            .field(
                "error",
                Json::obj()
                    .field("code", self.code.as_str())
                    .field("message", self.message.as_str()),
            )
            .build();
        Response::json(self.status, body.to_string())
    }
}

/// Route one request. Infallible: every failure path returns a
/// structured error response.
pub fn handle(state: &AppState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/compile") => {
            state
                .metrics
                .compile
                .requests
                .fetch_add(1, Ordering::Relaxed);
            run(|| compile_endpoint(state, request))
        }
        ("POST", "/simulate") => {
            state
                .metrics
                .simulate
                .requests
                .fetch_add(1, Ordering::Relaxed);
            run(|| simulate_endpoint(state, request))
        }
        ("POST", "/check") => {
            state.metrics.check.requests.fetch_add(1, Ordering::Relaxed);
            run(|| check_endpoint(state, request))
        }
        ("GET", "/benchmarks") => {
            state
                .metrics
                .benchmarks
                .requests
                .fetch_add(1, Ordering::Relaxed);
            run(|| benchmarks_endpoint(state, request))
        }
        ("GET", "/metrics") => {
            state
                .metrics
                .control
                .requests
                .fetch_add(1, Ordering::Relaxed);
            metrics_endpoint(state, request)
        }
        ("GET", "/debug/slow") => {
            state
                .metrics
                .control
                .requests
                .fetch_add(1, Ordering::Relaxed);
            slow_endpoint(state, request)
        }
        ("GET", "/healthz") => {
            state
                .metrics
                .control
                .requests
                .fetch_add(1, Ordering::Relaxed);
            healthz_endpoint(state)
        }
        (
            _,
            "/compile" | "/simulate" | "/check" | "/benchmarks" | "/metrics" | "/debug/slow"
            | "/healthz",
        ) => ApiError::new(
            405,
            "request/method-not-allowed",
            format!(
                "method {} not supported on {}",
                request.method, request.path
            ),
        )
        .response(),
        _ => ApiError::new(
            404,
            "request/unknown-route",
            format!("no route for {}", request.path),
        )
        .response(),
    }
}

fn run(endpoint: impl FnOnce() -> Result<String, ApiError>) -> Response {
    let result = endpoint();
    let response = match result {
        // An explicit `?trace=1` gets the span tree inline; sampled
        // traces stay out of the body so sampling never changes a
        // response a client did not ask to be different.
        Ok(body) => match spire_trace::active_explicit() {
            Some(_) => Response::json(200, attach_inline_trace(body)),
            None => Response::json(200, body),
        },
        Err(e) => e.response(),
    };
    // Any traced request (explicit or sampled) can be correlated with
    // `/debug/slow` through the trace-id header.
    match spire_trace::active_trace_id() {
        Some(trace_id) => response.with_header("x-spire-trace-id", format!("{trace_id:016x}")),
        None => response,
    }
}

/// Append a `"trace"` field holding the request's span tree to a
/// successful response body (always a nonempty JSON object, so the field
/// goes before its closing `}`). The `handler` span and the `request` root
/// are still open at this point (the handler is *producing* this very
/// response), so in-progress records are synthesized for them — their
/// end timestamps read "so far", and the authoritative closed spans
/// are recorded in the trace (and offered to the slow log) when the
/// response flush completes.
fn attach_inline_trace(mut body: String) -> String {
    let Some((trace_id, mut records)) = spire_trace::active_records() else {
        return body;
    };
    let now_ns = spire_trace::active_now_ns().unwrap_or(0);
    let root_id = spire_trace::active_root_id().unwrap_or(0);
    let handler_id = spire_trace::ambient_parent().unwrap_or(root_id);
    if handler_id != root_id {
        // The handler opened after queue dwell ended.
        let start_ns = records
            .iter()
            .filter(|r| r.parent_id == root_id && r.stage() == "queue")
            .map(|r| r.end_ns)
            .max()
            .unwrap_or(0);
        records.push(spire_trace::SpanRecord::new(
            trace_id, handler_id, root_id, "handler", start_ns, now_ns,
        ));
    }
    records.push(spire_trace::SpanRecord::new(
        trace_id, root_id, 0, "request", 0, now_ns,
    ));
    let tree = spire_trace::build_tree(trace_id, &records);
    let rendered = json::parse(&tree.to_json()).unwrap_or(Json::Null);
    body.pop();
    body.push_str(",\"trace\":");
    rendered.write(&mut body);
    body.push('}');
    body
}

/// Parameters shared by `/compile` and `/simulate`.
struct CompileParams {
    source: String,
    entry: String,
    depth: i64,
    config: WordConfig,
    options: CompileOptions,
}

fn parse_body(request: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("request/invalid-utf8", "body is not UTF-8"))?;
    json::parse(text).map_err(|e| ApiError::bad_request("request/invalid-json", e.to_string()))
}

fn required_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    body.get(key)
        .ok_or_else(|| {
            ApiError::bad_request("request/missing-field", format!("missing field `{key}`"))
        })?
        .as_str()
        .ok_or_else(|| {
            ApiError::bad_request(
                "request/invalid-field",
                format!("field `{key}` must be a string"),
            )
        })
}

fn compile_params(body: &Json) -> Result<CompileParams, ApiError> {
    let source = required_str(body, "source")?.to_string();
    let entry = required_str(body, "entry")?.to_string();
    let depth = match body.get("depth") {
        None => 0,
        Some(value) => value.as_i64().ok_or_else(|| {
            ApiError::bad_request("request/invalid-field", "field `depth` must be an integer")
        })?,
    };
    if !(0..=MAX_DEPTH).contains(&depth) {
        return Err(ApiError::bad_request(
            "request/invalid-field",
            format!("field `depth` must be in 0..={MAX_DEPTH}"),
        ));
    }
    let config = match body.get("word") {
        None => WordConfig::paper_default(),
        Some(word) => {
            let bits = |key: &str, default: u32| -> Result<u32, ApiError> {
                match word.get(key) {
                    None => Ok(default),
                    Some(v) => v
                        .as_u64()
                        .and_then(|b| u32::try_from(b).ok())
                        .filter(|&b| (1..=64).contains(&b))
                        .ok_or_else(|| {
                            ApiError::bad_request(
                                "request/invalid-field",
                                format!("field `word.{key}` must be an integer in 1..=64"),
                            )
                        }),
                }
            };
            let paper = WordConfig::paper_default();
            WordConfig {
                uint_bits: bits("uint_bits", paper.uint_bits)?,
                ptr_bits: bits("ptr_bits", paper.ptr_bits)?,
            }
        }
    };
    let opt = match body.get("opt") {
        None => OptConfig::spire(),
        Some(value) => match value.as_str() {
            Some("spire") => OptConfig::spire(),
            Some("cf") => OptConfig::flattening_only(),
            Some("cn") => OptConfig::narrowing_only(),
            Some("none") => OptConfig::none(),
            _ => {
                return Err(ApiError::bad_request(
                    "request/invalid-field",
                    "field `opt` must be one of spire|cf|cn|none",
                ))
            }
        },
    };
    Ok(CompileParams {
        source,
        entry,
        depth,
        config,
        options: CompileOptions::with_opt(opt),
    })
}

fn served_label(served: Served) -> &'static str {
    match served {
        Served::CacheHit => "cache",
        Served::Led => "compiled",
        Served::Coalesced => "coalesced",
    }
}

fn compile_through_cache(
    state: &AppState,
    params: &CompileParams,
) -> Result<(Arc<Compiled>, Served, CacheKey), ApiError> {
    let (result, served, key) = state.compiler.get_or_compile_traced(
        &params.source,
        &params.entry,
        params.depth,
        params.config,
        &params.options,
    );
    let compiled = result.map_err(|e| ApiError::from_spire(&e))?;
    Ok((compiled, served, key))
}

/// Which endpoint a memoized [`Doc`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DocKind {
    /// A `/compile` artifact.
    Compile,
    /// A `/check` verification report.
    Check,
}

/// A response document, stored as the bytes that get served.
///
/// A `/compile` document is the artifact serialization
/// `{"key":…,"histogram":{…},"qc":"…"}`, byte for byte the disk record,
/// and `qc_at` is where its `.qc` field starts: a response without
/// `include_qc` takes the fields before it. A `/check` document is the
/// serialized report.
#[derive(Debug, Clone)]
pub(crate) struct Doc {
    text: Arc<str>,
    qc_at: usize,
}

impl Doc {
    /// A `/compile` document from an artifact object, freshly built or
    /// decoded from disk; `None` if `artifact` is not an object. The
    /// `.qc` field is written last, where every artifact has it, so the
    /// text is the artifact's compact serialization.
    fn compile(artifact: &Json) -> Option<Doc> {
        let fields = artifact.as_object()?;
        let field = |text: &mut String, (name, value): &(String, Json)| {
            if text.len() > 1 {
                text.push(',');
            }
            json::escape_into(text, name);
            text.push(':');
            value.write(text);
        };
        let mut text = String::from("{");
        for f in fields.iter().filter(|(name, _)| name != "qc") {
            field(&mut text, f);
        }
        let qc_at = text.len();
        for f in fields.iter().filter(|(name, _)| name == "qc") {
            field(&mut text, f);
        }
        text.push('}');
        Some(Doc {
            text: text.into(),
            qc_at,
        })
    }

    /// A `/check` document: the serialized report.
    fn check(report: &Json) -> Doc {
        let text = report.to_string();
        Doc {
            qc_at: text.len(),
            text: text.into(),
        }
    }

    /// Memo weight: the stored bytes plus a fixed per-entry overhead.
    pub(crate) fn weight(&self) -> u64 {
        self.text.len() as u64 + 64
    }

    /// The `/compile` body: `served`, then the artifact's fields, the
    /// `.qc` text only when asked for.
    fn compile_body(&self, served: &str, include_qc: bool) -> String {
        let end = if include_qc {
            self.text.len() - 1
        } else {
            self.qc_at
        };
        let fields = &self.text[1..end];
        let comma = if fields.is_empty() { "" } else { "," };
        // `concat` sizes the body exactly: growing it by doubling would
        // copy megabytes of `.qc` text.
        ["{\"served\":\"", served, "\"", comma, fields, "}"].concat()
    }

    /// The `/check` body.
    fn check_body(&self, key: CacheKey, served: &str) -> String {
        let head = format!("{{\"key\":\"{key}\",\"served\":\"{served}\",\"report\":");
        [&head, &*self.text, "}"].concat()
    }
}

/// Build the `/compile` document for one compilation — emit the
/// circuit, render its `.qc` text — and persist it.
fn compile_doc(state: &AppState, compiled: &Compiled, key: CacheKey) -> Doc {
    let hist = compiled.histogram();
    let circuit = compiled.emit();
    // Theorem 5.1: the cost model's MCX-complexity is the emitted
    // circuit's gate count.
    debug_assert_eq!(hist.mcx_complexity(), circuit.len() as u64);
    let artifact = Json::obj()
        .field("key", key.to_string())
        .field("t_complexity", hist.t_complexity())
        .field("mcx_complexity", hist.mcx_complexity())
        .field("toffoli_count", hist.toffoli_count())
        .field("max_controls", hist.max_controls())
        .field("qubits", compiled.qubits())
        .field(
            "qubits_after_decomposition",
            compiled.qubits_after_decomposition(),
        )
        .field("histogram", hist.to_json_value())
        .field("qc", qcirc::qcformat::write(&circuit))
        .build();
    let doc = Doc::compile(&artifact).expect("an artifact is an object");
    persist(state, key.value(), &doc);
    doc
}

/// Persist a freshly built document when the disk tier is enabled and
/// does not hold this key yet. Write failures never fail the request —
/// the disk tier is an optimization — but they *are* observed by the
/// circuit breaker, so a failing device stops being poked once the
/// breaker opens. The in-memory `contains` check runs before the
/// breaker gate: it does no I/O, so it must neither consume a half-open
/// probe nor count as a device success.
fn persist(state: &AppState, key: u128, doc: &Doc) {
    let Some(disk) = state.disk() else { return };
    if disk.contains(key) || !state.breaker.allow() {
        return;
    }
    match disk.put(key, doc.text.as_bytes()) {
        Ok(_) => state.breaker.record_success(),
        Err(_) => state.breaker.record_failure(),
    }
}

fn compile_endpoint(state: &AppState, request: &Request) -> Result<String, ApiError> {
    let timer = std::time::Instant::now();
    let body = parse_body(request)?;
    let params = compile_params(&body)?;
    let include_qc = matches!(body.get("include_qc"), Some(Json::Bool(true)));
    let key = CacheKey::new(
        &params.source,
        &params.entry,
        params.depth,
        params.config,
        &params.options,
    );
    let memo_key = (key.value(), DocKind::Compile);
    // Tiered resolution. 1: the in-memory compile cache (the live
    // `Compiled` — also backfills the disk tier for keys first compiled
    // by `/check` or `/simulate`). The document is memoized: building
    // one re-emits the circuit and renders its `.qc` text, milliseconds
    // of CPU a cache *hit* must not pay per request.
    let (doc, served) = if let Some(compiled) = state.compiler.lookup(key) {
        let doc = state
            .docs
            .get_or_insert_with(memo_key, || compile_doc(state, &compiled, key));
        (doc, "cache")
    } else if let Some(doc) = state.docs.get(&memo_key) {
        // 2: a document decoded from an earlier disk hit (or memoized by
        // an earlier tier-1 hit whose live compilation has since been
        // dropped).
        (doc, "cache")
    } else if let Some(doc) = disk_doc(state, key.value()) {
        // 3: the persistent tier — a previous process compiled this.
        (doc, "disk")
    } else {
        // 4: compile (deduplicated by the single-flight layer).
        let (compiled, served, _key) = compile_through_cache(state, &params)?;
        // A traced fresh compile also runs the spire-verify checks so
        // the trace covers the full pipeline (parse → … → emit →
        // verify); the report itself is the `/check` endpoint's job.
        if served == Served::Led && spire_trace::is_active() {
            let _ = spire::check_compiled(&compiled, &params.entry);
        }
        let doc = state
            .docs
            .get_or_insert_with(memo_key, || compile_doc(state, &compiled, key));
        (doc, served_label(served))
    };
    let response = doc.compile_body(served, include_qc);
    state
        .metrics
        .compile_latency
        .record_micros(timer.elapsed().as_micros() as u64);
    Ok(response)
}

/// Fetch a document from the persistent tier and memoize it so repeats
/// skip the disk read and parse. A record whose checksum verified but
/// whose payload does not decode as an artifact object is never served
/// — it is *quarantined* (dropped from the index and counted), so a
/// poisoned record costs one failed parse total instead of one per
/// request.
///
/// The tier is gated by the circuit breaker: index misses cost no I/O
/// and bypass it; actual reads report their outcome, so consecutive
/// device errors open the breaker and later requests skip straight to
/// compilation.
fn disk_doc(state: &AppState, key: u128) -> Option<Doc> {
    let disk = state.disk()?;
    if !disk.contains(key) {
        return None; // pure index miss: no device I/O to gate or record
    }
    if !state.breaker.allow() {
        return None; // breaker open: skip the tier, memory keeps serving
    }
    match disk.try_get(key) {
        Err(_) => {
            state.breaker.record_failure();
            None
        }
        Ok(None) => {
            // The device answered; the record was corrupt and the store
            // already quarantined it.
            state.breaker.record_success();
            None
        }
        Ok(Some(payload)) => {
            state.breaker.record_success();
            let decoded = std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| json::parse(text).ok())
                .and_then(|parsed| Doc::compile(&parsed));
            let Some(doc) = decoded else {
                disk.quarantine(key);
                return None;
            };
            Some(state.docs.insert((key, DocKind::Compile), doc))
        }
    }
}

/// One input assignment: variable name → classical value.
fn parse_inputs(value: &Json, context: &str) -> Result<Vec<(String, u64)>, ApiError> {
    let fields = value.as_object().ok_or_else(|| {
        ApiError::bad_request(
            "request/invalid-field",
            format!("field `{context}` must be an object"),
        )
    })?;
    let mut inputs = Vec::new();
    for (name, v) in fields {
        let value = v.as_u64().ok_or_else(|| {
            ApiError::bad_request(
                "request/invalid-field",
                format!("input `{name}` must be a non-negative integer"),
            )
        })?;
        inputs.push((name.clone(), value));
    }
    Ok(inputs)
}

fn simulate_endpoint(state: &AppState, request: &Request) -> Result<String, ApiError> {
    let body = parse_body(request)?;
    let params = compile_params(&body)?;
    // Two request shapes: a single `inputs` object, or a batched `shots`
    // array of input objects sharing one compilation.
    let shots: Vec<Vec<(String, u64)>> = match (body.get("inputs"), body.get("shots")) {
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request(
                "request/invalid-field",
                "fields `inputs` and `shots` are mutually exclusive",
            ))
        }
        (Some(inputs), None) => vec![parse_inputs(inputs, "inputs")?],
        (None, Some(list)) => {
            let entries = list.as_array().ok_or_else(|| {
                ApiError::bad_request("request/invalid-field", "field `shots` must be an array")
            })?;
            if entries.is_empty() || entries.len() > MAX_SHOTS {
                return Err(ApiError::bad_request(
                    "request/invalid-field",
                    format!("field `shots` must hold 1..={MAX_SHOTS} input objects"),
                ));
            }
            entries
                .iter()
                .map(|entry| parse_inputs(entry, "shots[..]"))
                .collect::<Result<_, _>>()?
        }
        (None, None) => vec![Vec::new()],
    };
    let batched = body.get("shots").is_some();
    let (compiled, served, _key) = compile_through_cache(state, &params)?;
    // Backend tiers by register size: the u64-keyed sparse simulator
    // (full gate set) through 64 qubits, the 256-bit-keyed one through
    // 256, classical reversible simulation beyond. The circuit is
    // emitted once and shared across every shot.
    let total = compiled.layout.total_qubits;
    let circuit = compiled.emit();
    let (backend, results) = if total <= 64 {
        let results = run_shots::<SparseState>(&compiled, &circuit, &shots, |machine| {
            Some(machine.state().support())
        })?;
        ("sparse", results)
    } else if total <= 256 {
        let results = run_shots::<SparseState256>(&compiled, &circuit, &shots, |machine| {
            Some(machine.state().support())
        })?;
        ("sparse-wide", results)
    } else {
        let results = run_shots::<BasisState>(&compiled, &circuit, &shots, |_| None)?;
        ("classical", results)
    };
    let mut response = Json::obj()
        .field("served", served_label(served))
        .field("backend", backend)
        .field("qubits", total);
    if batched {
        let rows = results
            .into_iter()
            .map(|(support, vars)| {
                Json::obj()
                    .field("support", support.map(Json::from))
                    .field("vars", vars)
                    .build()
            })
            .collect();
        response = response.field("shots", Json::Array(rows));
    } else {
        let (support, vars) = results.into_iter().next().expect("one shot ran");
        response = response
            .field("support", support.map(Json::from))
            .field("vars", vars);
    }
    Ok(response.build().to_string())
}

/// Run every shot of a batch on one backend against one emitted circuit,
/// returning each shot's final support (where the backend has one) and
/// live-variable values.
fn run_shots<S: qcirc::sim::Simulator>(
    compiled: &Compiled,
    circuit: &Circuit,
    shots: &[Vec<(String, u64)>],
    support_of: impl Fn(&Machine<S>) -> Option<usize>,
) -> Result<Vec<(Option<usize>, Json)>, ApiError> {
    shots
        .iter()
        .map(|inputs| {
            let mut machine: Machine<S> = Machine::with_backend(&compiled.layout);
            for (name, value) in inputs {
                machine
                    .set_var(name, *value)
                    .map_err(|e| ApiError::from_spire(&e))?;
            }
            machine.run(circuit).map_err(|e| ApiError::from_qcirc(&e))?;
            let vars = read_vars(compiled, |name| machine.var(name).ok());
            Ok((support_of(&machine), vars))
        })
        .collect()
}

/// Final values of the program's live variables, in declaration order:
/// the same view `spire-cli compile --simulate` prints. Superposed
/// registers serialize as `null`.
fn read_vars(compiled: &Compiled, read: impl Fn(&str) -> Option<u64>) -> Json {
    let mut seen = std::collections::HashSet::new();
    let mut fields = Vec::new();
    for (var, _ty) in &compiled.types.final_context {
        let name = var.as_str();
        if name.contains('%') {
            continue; // optimizer temporary
        }
        if !seen.insert(name) {
            continue; // re-declarations share one register
        }
        fields.push((name.to_string(), Json::from(read(name))));
    }
    Json::Object(fields)
}

/// `POST /check`: run the `spire-verify` static analyses over the
/// compiled program (same request schema as `/compile`, served through
/// the same cache) and return the diagnostics report — gate-stream
/// well-formedness, ancilla discipline, and the entry function's static
/// T-complexity bounds. A dirty report is still a `200`: the *check*
/// succeeded; `report.clean` says what it found.
fn check_endpoint(state: &AppState, request: &Request) -> Result<String, ApiError> {
    let body = parse_body(request)?;
    let params = compile_params(&body)?;
    let (compiled, served, key) = compile_through_cache(state, &params)?;
    // The analyses are deterministic over the compiled program, which
    // the content address pins — memoize the serialized report so a warm
    // `/check` costs a lookup, not a re-verification, and concurrent
    // cold ones verify once.
    let doc = state
        .docs
        .get_or_insert_with((key.value(), DocKind::Check), || {
            Doc::check(&spire::check_compiled(&compiled, &params.entry).to_json())
        });
    Ok(doc.check_body(key, served_label(served)))
}

fn benchmarks_endpoint(state: &AppState, request: &Request) -> Result<String, ApiError> {
    let depth: i64 = match request.query_param("depth") {
        None => 3,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|d| (0..=MAX_DEPTH).contains(d))
            .ok_or_else(|| {
                ApiError::bad_request(
                    "request/invalid-field",
                    format!("query `depth` must be an integer in 0..={MAX_DEPTH}"),
                )
            })?,
    };
    let mut rows = Vec::new();
    for bench in bench_suite::programs::all_benchmarks() {
        let bench_depth = if bench.constant { 0 } else { depth };
        let (result, served, _key) = state.compiler.get_or_compile_traced(
            &bench.source,
            bench.entry,
            bench_depth,
            WordConfig::paper_default(),
            &CompileOptions::spire(),
        );
        let compiled = result.map_err(|e| ApiError::from_spire(&e))?;
        let hist = compiled.histogram();
        rows.push(
            Json::obj()
                .field("name", bench.name)
                .field("group", bench.group)
                .field("entry", bench.entry)
                .field("depth", bench_depth)
                .field("served", served_label(served))
                .field("t_complexity", hist.t_complexity())
                .field("mcx_complexity", hist.mcx_complexity())
                .field("qubits", compiled.qubits())
                .build(),
        );
    }
    Ok(Json::obj()
        .field("depth", depth)
        .field("benchmarks", Json::Array(rows))
        .build()
        .to_string())
}

fn metrics_endpoint(state: &AppState, request: &Request) -> Response {
    let cache = state.compiler.stats();
    let flights = state.compiler.flight_stats();
    let disk = state.disk().map(spire::DiskStore::stats);
    let memo = state.docs.stats();
    let health = crate::metrics::ServeHealth {
        breaker: state.disk().map(|_| state.breaker.snapshot()),
        faults: state
            .disk()
            .map(spire::DiskStore::faults)
            .filter(|faults| faults.is_active())
            .map(|faults| (faults.label().to_string(), faults.stats())),
        memo_bytes: memo.resident_bytes,
        memo_evictions: memo.evictions,
    };
    match request.query_param("format") {
        Some("prometheus") => {
            let text = state
                .metrics
                .to_prometheus(&cache, &flights, disk.as_ref(), &health);
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: text.into_bytes(),
                retry_after: None,
                extra_headers: Vec::new(),
            }
        }
        Some(other) => ApiError::bad_request(
            "request/invalid-field",
            format!("query `format` must be `prometheus`, got `{other}`"),
        )
        .response(),
        None => {
            let body = state
                .metrics
                .to_json_value(&cache, &flights, disk.as_ref(), &health);
            Response::json(200, body.to_string())
        }
    }
}

/// `GET /debug/slow`: the N slowest traced requests with their full
/// span trees — JSON by default, the Chrome `trace_event` format with
/// `?format=chrome` (rendered server-side so `spire trace` and the
/// load tester save the body as-is).
fn slow_endpoint(state: &AppState, request: &Request) -> Response {
    match request.query_param("format") {
        Some("chrome") => Response::json(200, state.slow_log().to_chrome()),
        Some(other) => ApiError::bad_request(
            "request/invalid-field",
            format!("query `format` must be `chrome`, got `{other}`"),
        )
        .response(),
        None => Response::json(200, state.slow_log().to_json().to_string()),
    }
}

/// `GET /healthz`: liveness plus the degradation ladder. `"ok"` means
/// every configured tier is serving; `"degraded"` means the service is
/// up and answering but the disk tier's circuit breaker is not closed —
/// compiles still succeed from memory, persistence and warm restarts
/// are impaired. Both states are `200`: a degraded server is exactly
/// the one that must keep telling load balancers it is alive.
fn healthz_endpoint(state: &AppState) -> Response {
    let degraded = state.disk().is_some() && state.breaker.is_degraded();
    let mut body = Json::obj()
        .field("status", if degraded { "degraded" } else { "ok" })
        .field("uptime_seconds", state.metrics.uptime_seconds());
    if state.disk().is_some() {
        let snapshot = state.breaker.snapshot();
        body = body.field(
            "disk",
            Json::obj()
                .field("breaker", snapshot.state.label())
                .field(
                    "consecutive_failures",
                    u64::from(snapshot.consecutive_failures),
                )
                .field("opened_total", snapshot.opened_total),
        );
    }
    Response::json(200, body.build().to_string())
}
