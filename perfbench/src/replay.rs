//! `--trace 1`: the traced per-layer replay.
//!
//! A traced run has three parts. (1) A shortened untraced run of the
//! workload, for the counters the server's `/metrics` reports at its end
//! and the client round-trip times. (2) One paper-scale `run_all` in a
//! fresh process, for the runner's per-artifact times. (3) The replay:
//! the workload's generated inputs pushed through each layer's public
//! functions, stage by stage, with a span around every call. Passes with
//! and without span recording alternate; the difference of their median
//! wall times is the recorder's overhead. Spans are written to
//! `.bench_out/<workload>-seed<n>-spans.jsonl`.

use std::path::Path;
use std::time::Instant;

use qcirc::decompose::mcx_to_toffoli;
use qcirc::json::Json;
use qcirc::sim::{SparseState, SparseState256};
use qcirc::Circuit;
use qopt::{CircuitOptimizer, SearchConfig, SearchOpt};
use spire::layout::{layout, AllocPolicy, Layout};
use spire::spire_verify::{bound_function, check_ancillas, check_circuit, AncillaSpec};
use spire::{optimize, select, CompileOptions, Compiled, DiskStore, Machine};
use spire_serve::http::Request;
use spire_serve::{api, AppState};
use tower::{
    inline, lower_block, parse, typecheck_with, NameGen, Strictness, Symbol, TypeTable, WordConfig,
};

use crate::oracle::Expected;
use crate::serve::{ServerProc, COLD_CACHE_BYTES};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{self, walk_inputs, Endpoint, WALK_DEPTH, WALK_SOURCE};
use crate::{report, serve, Measured};

/// One replayed compile request.
#[derive(Debug, Clone)]
struct Input {
    label: String,
    source: String,
    entry: String,
    depth: i64,
    spire: bool,
    expected: Expected,
}

impl Input {
    fn options(&self) -> CompileOptions {
        if self.spire {
            CompileOptions::spire()
        } else {
            CompileOptions::baseline()
        }
    }

    fn body(&self, include_qc: bool) -> String {
        workload::compile_body(
            &self.source,
            &self.entry,
            self.depth,
            self.spire,
            include_qc,
        )
    }
}

/// The workload's own inputs: the warm mix's 12 bodies, or the first
/// round of cold sessions (the report workload replays the same round:
/// every program under both optimization settings).
fn inputs(ctx: &crate::Ctx) -> Result<Vec<Input>, String> {
    let programs = workload::programs();
    if ctx.workload == "serve-warm" {
        return programs
            .iter()
            .map(|p| {
                let depth = if p.depths == [0] {
                    0
                } else {
                    workload::WARM_DEPTH
                };
                Ok(Input {
                    label: p.label.clone(),
                    source: p.source.clone(),
                    entry: p.entry.to_string(),
                    depth,
                    spire: true,
                    expected: ctx.oracle.expected(&p.label, depth, true)?,
                })
            })
            .collect();
    }
    workload::cold_round(ctx.seed, 0, &programs)
        .into_iter()
        .map(|s| {
            let label = programs[s.program].label.clone();
            Ok(Input {
                expected: ctx.oracle.expected(&label, s.depth, s.spire)?,
                label,
                source: s.source,
                entry: s.entry,
                depth: s.depth,
                spire: s.spire,
            })
        })
        .collect()
}

/// The ancillae the layout allocates at the MCX level (the scratch region
/// `spire::check_compiled` checks).
fn scratch_spec(layout: &Layout) -> AncillaSpec {
    let mut spec = AncillaSpec::default();
    let carries = layout.scratch_carries();
    for i in 0..carries.width {
        spec.push(carries.bit(i), format!("carry scratch bit {i}"));
    }
    spec.push(
        layout.scratch_cuccaro(),
        "Cuccaro adder ancilla".to_string(),
    );
    let product = layout.scratch_product();
    for i in 0..product.width {
        spec.push(product.bit(i), format!("product scratch bit {i}"));
    }
    let dup = layout.scratch_dup();
    for i in 0..dup.width {
        spec.push(dup.bit(i), format!("operand-duplication scratch bit {i}"));
    }
    spec.push(layout.scratch_qram_match(), "qRAM match bit".to_string());
    spec
}

/// Per-session counts the replay reports alongside the times.
#[derive(Debug, Default)]
struct Counts {
    ir_stmts: Vec<f64>,
    qubits: Vec<f64>,
    gates: Vec<f64>,
    qc_bytes: Vec<f64>,
    sim_support: Vec<f64>,
}

/// Compile `input` stage by stage, each stage in its own span. Returns the
/// assembled program.
fn compile_stages(
    rec: &mut Recorder,
    source: &str,
    entry: &str,
    depth: i64,
    options: &CompileOptions,
) -> Result<Compiled, String> {
    let program = rec
        .span("tower.parse", || parse(source))
        .map_err(|e| e.to_string())?;
    let entry_sym = Symbol::new(entry);
    let fun = program
        .fun(&entry_sym)
        .ok_or(format!("no function `{entry}`"))?;
    let mut table = TypeTable::new(WordConfig::paper_default());
    for def in &program.types {
        table
            .define(def.name.clone(), def.ty.clone())
            .map_err(|e| e.to_string())?;
    }
    let inputs = fun.params.clone();
    let mut names = NameGen::new();
    let body = rec
        .span("tower.inline", || {
            inline(&program, &entry_sym, depth, &mut names)
        })
        .map_err(|e| e.to_string())?;
    let core = rec
        .span("tower.lower", || lower_block(&body, &mut names))
        .map_err(|e| e.to_string())?;
    rec.span("tower.typecheck", || {
        typecheck_with(&core, &inputs, &table, Strictness::Relaxed)
    })
    .map_err(|e| e.to_string())?;
    let ir = rec.span("spire.optimize", || {
        optimize(&core, options.opt, &mut names)
    });
    let types = rec
        .span("spire.recheck", || {
            typecheck_with(&ir, &inputs, &table, Strictness::Relaxed)
        })
        .map_err(|e| e.to_string())?;
    let expanded = rec.span("spire.expand", || ir.expand_with());
    let placed = rec
        .span("spire.layout", || {
            layout(
                &expanded,
                &inputs,
                &types,
                &table,
                AllocPolicy::Conservative,
            )
        })
        .map_err(|e| e.to_string())?;
    let instrs = rec
        .span("spire.select", || {
            select(&expanded, &placed, &types, &table)
        })
        .map_err(|e| e.to_string())?;
    Ok(Compiled {
        ir,
        layout: placed,
        instrs,
        inputs,
        ret_var: fun.ret_var.clone(),
        table,
        types,
    })
}

/// Replay one compile request through every layer: the stage-by-stage
/// compile, render, verification and store append. Checks the assembled
/// program against `spire::compile_source` and the oracle.
fn replay_input(
    rec: &mut Recorder,
    input: &Input,
    include_qc: bool,
    store: &DiskStore,
    counts: &mut Counts,
) -> Result<(), String> {
    let options = input.options();
    let compiled = compile_stages(rec, &input.source, &input.entry, input.depth, &options)?;
    let hist = rec.span("spire.histogram", || compiled.histogram());
    let reference = spire::compile_source(
        &input.source,
        &input.entry,
        input.depth,
        WordConfig::paper_default(),
        &options,
    )
    .map_err(|e| e.to_string())?;
    if hist != reference.histogram() {
        return Err(format!(
            "{}: replayed histogram differs from compile_source",
            input.label
        ));
    }
    if hist.t_complexity() != input.expected.t {
        return Err(format!(
            "{}: T {} but table1 says {}",
            input.label,
            hist.t_complexity(),
            input.expected.t
        ));
    }
    let circuit = rec.span("spire.emit", || compiled.emit());
    let qc = rec.span("qcirc.qc_render", || qcirc::qcformat::write(&circuit));
    let key = spire::CacheKey::new(
        &input.source,
        &input.entry,
        input.depth,
        WordConfig::paper_default(),
        &options,
    );
    // The `/compile` response, built the way the endpoint does: the
    // artifact document (which always holds the `.qc` text), copied into
    // the response with `served` first and `qc` only when asked for, then
    // serialized. With `include_qc` this is most of a cold answer's bytes.
    let response = rec.span("serve.render", || {
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
            .field("qc", qc.as_str())
            .build();
        let mut fields = vec![("served".to_string(), Json::from("compiled"))];
        for (name, value) in artifact.as_object().unwrap_or_default() {
            if name != "qc" || include_qc {
                fields.push((name.clone(), value.clone()));
            }
        }
        Json::Object(fields).to_string()
    });
    std::hint::black_box(response);

    let width = compiled.layout.total_qubits;
    let mut diagnostics = rec.span("verify.check_circuit", || {
        check_circuit(&circuit, Some(width))
    });
    diagnostics.extend(rec.span("verify.ancilla_mcx", || {
        check_ancillas(&circuit, &scratch_spec(&compiled.layout))
    }));
    let toffoli = rec.span("qcirc.toffoli", || mcx_to_toffoli(&circuit));
    diagnostics.extend(rec.span("verify.ancilla_toffoli", || {
        let mut spec = AncillaSpec::default();
        for q in circuit.num_qubits()..toffoli.num_qubits() {
            spec.push(q, format!("decomposition ancilla {q}"));
        }
        check_ancillas(&toffoli, &spec)
    }));
    let bound = rec
        .span("verify.t_bounds", || {
            bound_function(&compiled.ir, &compiled.types, &compiled.table)
        })
        .map_err(|e| format!("{}: T-bound walk failed: {e:?}", input.label))?;
    if !diagnostics.is_empty() {
        return Err(format!(
            "{}: verification found {} diagnostic(s)",
            input.label,
            diagnostics.len()
        ));
    }
    if !(bound.min <= hist.t_complexity() && hist.t_complexity() <= bound.max) {
        return Err(format!("{}: T-bound interval does not hold", input.label));
    }
    rec.span("store.put", || store.put(key.value(), qc.as_bytes()))
        .map_err(|e| format!("store append: {e}"))?;

    counts.ir_stmts.push(compiled.ir.size() as f64);
    counts.qubits.push(f64::from(width));
    counts.gates.push(circuit.len() as f64);
    counts.qc_bytes.push(qc.len() as f64);
    Ok(())
}

fn run_shots<S: qcirc::sim::Simulator>(
    rec: &mut Recorder,
    compiled: &Compiled,
    circuit: &Circuit,
    shots: &[u64],
    support: impl Fn(&S) -> usize,
) -> Result<Vec<usize>, String> {
    shots
        .iter()
        .map(|&v| {
            let mut machine: Machine<S> = Machine::with_backend(&compiled.layout);
            machine.set_var("v", v).map_err(|e| e.to_string())?;
            rec.span("qcirc.sim", || machine.run(circuit))
                .map_err(|e| e.to_string())?;
            Ok(support(machine.state()))
        })
        .collect()
}

/// Replay one coin-walk `/simulate` batch.
fn replay_walk(rec: &mut Recorder, shots: &[u64], counts: &mut Counts) -> Result<(), String> {
    let compiled = compile_stages(
        rec,
        WALK_SOURCE,
        "walk",
        WALK_DEPTH,
        &CompileOptions::spire(),
    )?;
    let circuit = rec.span("spire.emit", || compiled.emit());
    let supports = if compiled.layout.total_qubits <= 64 {
        run_shots::<SparseState>(rec, &compiled, &circuit, shots, SparseState::support)?
    } else {
        run_shots::<SparseState256>(rec, &compiled, &circuit, shots, SparseState256::support)?
    };
    for support in supports {
        if support != 1 << WALK_DEPTH {
            return Err(format!(
                "coin walk support {support}, expected {}",
                1 << WALK_DEPTH
            ));
        }
        counts.sim_support.push(support as f64);
    }
    Ok(())
}

fn post(path: &str, body: String) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// Everything one replay pass measures.
struct Pass {
    rec: Recorder,
    counts: Counts,
    /// `api::handle` of a cold `/compile` (fresh state), µs per input: the
    /// mean of one call before and one after the input's replay.
    cold_handle_us: Vec<f64>,
    /// `api::handle` of the same `/compile` on the warmed state, µs.
    warm_handle_us: Vec<f64>,
    wall_s: f64,
}

/// One replay pass over `inputs` and a coin-walk batch.
fn replay_pass(
    ctx: &crate::Ctx,
    inputs: &[Input],
    shots: &[u64],
    traced: bool,
    include_qc: bool,
) -> Result<Pass, String> {
    let store_dir = ctx
        .out_dir
        .join(format!("replay-store-{}", u8::from(traced)));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = DiskStore::open(&store_dir).map_err(|e| format!("opening replay store: {e}"))?;
    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();
    let mut cold_handle_us = Vec::new();
    let mut warm_handle_us = Vec::new();
    let started = Instant::now();
    for (session, input) in inputs.iter().enumerate() {
        rec.set_session(session);
        let request = post("/compile", input.body(include_qc));
        // A cold `/compile` on a fresh state right before and right after
        // the stage-by-stage replay: their mean is what the stages cover.
        let cold_handle = |rec: &mut Recorder, state: &AppState| {
            let t = Instant::now();
            let response = rec.span("serve.handle_cold", || api::handle(state, &request));
            (response, t.elapsed().as_secs_f64() * 1e6)
        };
        let (first, first_us) = cold_handle(&mut rec, &AppState::new());
        replay_input(&mut rec, input, include_qc, &store, &mut counts)?;
        let state = AppState::new();
        let (second, second_us) = cold_handle(&mut rec, &state);
        cold_handle_us.push((first_us + second_us) / 2.0);
        let t = Instant::now();
        let warm = rec.span("serve.handle", || api::handle(&state, &request));
        warm_handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        for response in [first, second, warm] {
            if response.status != 200 {
                return Err(format!(
                    "{}: api::handle answered {}",
                    input.label, response.status
                ));
            }
            crate::oracle::check_compile(&response.body, input.expected, include_qc)?;
        }
    }
    rec.set_session(inputs.len());
    replay_walk(&mut rec, shots, &mut counts)?;
    let wall_s = started.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(Pass {
        rec,
        counts,
        cold_handle_us,
        warm_handle_us,
        wall_s,
    })
}

/// Time each `qopt::registry()` pass over Figure 12's circuits (the
/// unoptimized `length` at depths 2..=10), and the search optimizer on
/// `length-simplified` at depth 5 (Table 5's deepest setting).
fn qopt_layer(
    rec: &mut Recorder,
    metrics: &mut Vec<(String, f64, &'static str)>,
) -> Result<(), String> {
    let emit = |source: &str, entry: &str, depth: i64| -> Result<Circuit, String> {
        spire::compile_source(
            source,
            entry,
            depth,
            WordConfig::paper_default(),
            &CompileOptions::baseline(),
        )
        .map(|c| c.emit())
        .map_err(|e| e.to_string())
    };
    let circuits: Vec<Circuit> = (2..=10)
        .map(|n| emit(bench_suite::programs::LENGTH, "length", n))
        .collect::<Result<_, _>>()?;
    for pass in qopt::registry() {
        let started = Instant::now();
        for circuit in &circuits {
            std::hint::black_box(rec.span("qopt.pass", || pass.optimize(circuit)));
        }
        metrics.push((
            format!("qopt.{}_ms", pass.name()),
            started.elapsed().as_secs_f64() * 1e3,
            "ms",
        ));
    }
    let simple = emit(bench_suite::programs::LENGTH_SIMPLE, "length_simple", 5)?;
    let search = SearchOpt::with_config("search", SearchConfig::quartz());
    let started = Instant::now();
    std::hint::black_box(rec.span("qopt.search", || search.optimize(&simple)));
    metrics.push((
        "qopt.search_ms".into(),
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    Ok(())
}

fn json_at(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return f64::NAN,
        }
    }
    node.as_f64().unwrap_or(f64::NAN)
}

/// Cache, flight, store and event-loop counters from a server's
/// `/metrics` document.
fn server_layer(doc: &Json, metrics: &mut Vec<(String, f64, &'static str)>) {
    let busy = json_at(doc, &["event_loop", "busy_ns"]);
    let wait = json_at(doc, &["event_loop", "poll_wait_ns"]);
    let evictions =
        json_at(doc, &["cache", "evictions"]) + json_at(doc, &["memory", "memo_evictions"]);
    let mut push =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    push(
        "cache.hit_ratio",
        json_at(doc, &["cache", "hit_rate"]),
        "ratio",
    );
    push("cache.evictions", evictions, "count");
    push(
        "flight.coalesced",
        json_at(doc, &["single_flight", "coalesced"]),
        "count",
    );
    push("store.writes", json_at(doc, &["disk", "writes"]), "count");
    push(
        "store.log_bytes",
        json_at(doc, &["disk", "log_bytes"]),
        "bytes",
    );
    push("serve.loop_busy_ratio", busy / (busy + wait), "ratio");
    push("serve.shed", json_at(doc, &["responses", "shed"]), "count");
}

/// The report workload never starts a server: send the replay's inputs
/// to a fresh one once (`/compile`, then `/check`) so the server layers
/// are measured on every workload.
fn serve_probe(ctx: &crate::Ctx, inputs: &[Input]) -> Result<(Json, f64, u64), String> {
    let server = ServerProc::spawn(&ctx.out_dir.join("probe-cache"), Some(COLD_CACHE_BYTES))?;
    server.wait_healthy()?;
    let mut client = crate::client::Client::new(server.addr);
    let mut round_trips = Vec::new();
    let mut failed = 0;
    for input in inputs {
        for endpoint in [Endpoint::Compile, Endpoint::Check] {
            let sent = Instant::now();
            let verdict = match client.request("POST", endpoint.path(), &input.body(false)) {
                Ok((200, payload)) => match endpoint {
                    Endpoint::Compile => {
                        crate::oracle::check_compile(&payload, input.expected, false)
                    }
                    _ => crate::oracle::check_check(&payload, input.expected),
                },
                Ok((status, _)) => Err(format!("answered {status}")),
                Err(e) => Err(e.to_string()),
            };
            if endpoint == Endpoint::Compile {
                round_trips.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            if let Err(e) = verdict {
                eprintln!("perfbench: probe {} {}: {e}", endpoint.path(), input.label);
                failed += 1;
            }
        }
    }
    let metrics = server.metrics()?;
    Ok((metrics, median(&round_trips).unwrap_or(f64::NAN), failed))
}

/// Runner metrics from one `report-once` result.
fn runner_layer(run: &Json, metrics: &mut Vec<(String, f64, &'static str)>) -> Result<(), String> {
    metrics.push(("runner.warm_s".into(), report::num(run, "warm_s")?, "s"));
    for spec in bench_suite::runner::artifact_specs() {
        let seconds = run
            .get("artifacts")
            .and_then(|a| a.get(spec.id))
            .and_then(Json::as_f64)
            .ok_or(format!("report run has no `{}` time", spec.id))?;
        metrics.push((format!("runner.{}_s", spec.id), seconds, "s"));
    }
    metrics.push((
        "runner.peak_parallelism".into(),
        report::num(run, "peak_parallelism")?,
        "count",
    ));
    Ok(())
}

/// Layer self times (median per call, µs) and counts from a traced pass.
fn pass_layers(pass: &Pass, metrics: &mut Vec<(String, f64, &'static str)>) {
    let self_times = pass.rec.self_times();
    let med_us = |name: &str| {
        let samples: Vec<f64> = self_times
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default();
        median(&samples).unwrap_or(f64::NAN)
    };
    for stage in [
        "tower.parse",
        "tower.inline",
        "tower.lower",
        "tower.typecheck",
        "spire.optimize",
        "spire.recheck",
        "spire.expand",
        "spire.layout",
        "spire.select",
        "spire.emit",
        "spire.histogram",
        "qcirc.qc_render",
        "qcirc.toffoli",
        "qcirc.sim",
        "verify.check_circuit",
        "verify.ancilla_mcx",
        "verify.ancilla_toffoli",
        "verify.t_bounds",
        "store.put",
        "serve.render",
    ] {
        metrics.push((format!("{stage}_us"), med_us(stage), "us"));
    }
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    metrics.push(("spire.ir_stmts".into(), med(&pass.counts.ir_stmts), "count"));
    metrics.push(("spire.qubits".into(), med(&pass.counts.qubits), "count"));
    metrics.push(("qcirc.gates".into(), med(&pass.counts.gates), "count"));
    metrics.push(("qcirc.qc_bytes".into(), med(&pass.counts.qc_bytes), "bytes"));
    metrics.push((
        "qcirc.sim_support".into(),
        med(&pass.counts.sim_support),
        "count",
    ));
    metrics.push(("serve.handle_us".into(), med(&pass.warm_handle_us), "us"));
    metrics.push((
        "serve.cold_handle_us".into(),
        med(&pass.cold_handle_us),
        "us",
    ));
}

/// Share of cold `/compile` handling time that the stage spans cover:
/// the stages `api::handle` runs for a cold compile, summed over the
/// replay's inputs, over the summed handle time.
fn coverage(pass: &Pass, inputs: usize) -> f64 {
    const COLD_COMPILE_STAGES: [&str; 13] = [
        "tower.parse",
        "tower.inline",
        "tower.lower",
        "tower.typecheck",
        "spire.optimize",
        "spire.recheck",
        "spire.expand",
        "spire.layout",
        "spire.select",
        "spire.histogram",
        "spire.emit",
        "qcirc.qc_render",
        "serve.render",
    ];
    let covered: u64 = pass
        .rec
        .spans()
        .iter()
        .filter(|s| s.session < inputs && COLD_COMPILE_STAGES.contains(&s.name))
        .map(|s| s.dur_ns())
        .sum();
    let handled: f64 = pass.cold_handle_us.iter().sum();
    covered as f64 / 1e3 / handled
}

pub fn run_traced(ctx: &crate::Ctx, seconds: f64) -> Result<(Json, Json), String> {
    let inputs = inputs(ctx)?;
    let shots = walk_inputs(&mut crate::rng::Rng::new(ctx.seed));
    // A cold workload's requests carry the `.qc` text; so does its replay.
    let include_qc = ctx.workload == "serve-cold";
    let e2e_seconds = (seconds / 2.0).max(1.0);
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();

    // (1) the untraced end-to-end run and the server's counters.
    let (measured, report_run): (Measured, Option<Json>) = match ctx.workload.as_str() {
        "serve-warm" => (serve::run_warm(ctx, e2e_seconds)?, None),
        "serve-cold" => (serve::run_cold(ctx, e2e_seconds)?, None),
        _ => {
            let (m, runs) = report::run_report(ctx, e2e_seconds)?;
            (m, runs.into_iter().next())
        }
    };
    attempted += measured.attempted;
    failed += measured.failed;
    let (server_metrics, round_trip_us) = match (measured.server_metrics, measured.round_trip_us) {
        (Some(doc), Some(rt)) => (doc, rt),
        _ => {
            let (doc, rt, probe_failed) = serve_probe(ctx, &inputs)?;
            attempted += 2 * inputs.len() as u64;
            failed += probe_failed;
            (doc, rt)
        }
    };
    server_layer(&server_metrics, &mut metrics);

    // (2) one fresh-process paper-scale run for the runner's times.
    let report_run = match report_run {
        Some(run) => run,
        None => {
            let run = report::spawn_once(&ctx.root, false)?;
            attempted += 1;
            if run
                .get("drift")
                .and_then(Json::as_array)
                .is_some_and(|d| !d.is_empty())
            {
                failed += 1;
            }
            run
        }
    };
    runner_layer(&report_run, &mut metrics)?;

    // (3) the replay, alternating passes without and with span recording;
    // the overhead compares their median wall times, and the last traced
    // pass gives the layer metrics.
    let mut walls = [Vec::new(), Vec::new()];
    let mut traced_pass = None;
    for traced in [false, true, false, true, false, true] {
        let pass = replay_pass(ctx, &inputs, &shots, traced, include_qc)?;
        attempted += inputs.len() as u64 + 1;
        walls[usize::from(traced)].push(pass.wall_s);
        if traced {
            traced_pass = Some(pass);
        }
    }
    let mut pass = traced_pass.expect("traced pass ran");
    let untraced_wall = median(&walls[0]).expect("untraced passes");
    let traced_wall = median(&walls[1]).expect("traced passes");
    pass_layers(&pass, &mut metrics);
    let handle_us = if ctx.workload == "serve-warm" {
        median(&pass.warm_handle_us)
    } else {
        median(&pass.cold_handle_us)
    }
    .unwrap_or(f64::NAN);
    metrics.push(("serve.transport_us".into(), round_trip_us - handle_us, "us"));
    qopt_layer(&mut pass.rec, &mut metrics)?;
    metrics.push((
        "trace.coverage".into(),
        coverage(&pass, inputs.len()),
        "ratio",
    ));
    metrics.push((
        "trace.overhead_pct".into(),
        (traced_wall / untraced_wall - 1.0) * 100.0,
        "%",
    ));

    let spans_path = ctx
        .root
        .join(".bench_out")
        .join(format!("{}-seed{}-spans.jsonl", ctx.workload, ctx.seed));
    write_spans(&spans_path, &pass.rec)?;

    let detail = Json::obj()
        .field("replay_inputs", inputs.len())
        .field("spans", pass.rec.spans().len())
        .field("spans_file", spans_path.display().to_string().as_str())
        .field("e2e_named_metrics", measured.named.to_json())
        .build();
    let metrics_json = crate::metrics_json(&metrics);
    Ok((detail, crate::result_line(attempted, failed, metrics_json)))
}

fn write_spans(path: &Path, rec: &Recorder) -> Result<(), String> {
    std::fs::write(path, rec.to_json_lines())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
