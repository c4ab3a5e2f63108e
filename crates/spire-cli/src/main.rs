//! `spire-cli`: command-line driver for the Spire reproduction.
//!
//! ```text
//! spire-cli compile <file.twr> --entry f --depth n [--opt spire|cf|cn|none] [--out circuit.qc]
//! spire-cli analyze <file.twr> --entry f --depth n
//! spire-cli check (<file.twr> --entry f --depth n [--opt ...] | --benchmarks) [--json]
//! spire-cli benchmarks
//! spire-cli experiments <fig2|fig12|fig15a|fig15b|table1|table2|table4|table5|fig24|appendix-a|all>
//! spire-cli report [--out-dir reports] [--threads n] [--quick] [--check]
//! spire-cli serve [--addr 127.0.0.1:0] [--threads n] [--cache-dir dir] [--cache-bytes n]
//!               [--compact-on-start] [--inject-disk-faults spec]
//!               [--trace-sample n] [--trace-seed n] [--slow-log n]
//! spire-cli loadtest [--addr host:port] [--workers n] [--seconds s] [--quick]
//!                  [--trace-out file]
//! spire-cli trace --addr host:port [--out trace.json]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench_suite::experiments;
use bench_suite::report::normalize_timings;
use bench_suite::runner::{self, MatrixParams, RunSummary, RunnerEvent};
use qcirc::sim::{BasisState, SparseState, SparseState256};
use spire::{compile_source, CompileOptions, Compiled, Machine, OptConfig};
use tower::WordConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("benchmarks") => cmd_benchmarks(),
        Some("experiments") => cmd_experiments(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadtest") => cmd_loadtest(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  spire-cli compile <file.twr> --entry <fun> --depth <n> [--opt spire|cf|cn|none] [--out <file.qc>]
                    [--simulate] [--set <var>=<value> ...]
  spire-cli analyze <file.twr> --entry <fun> --depth <n>
  spire-cli check <file.twr> --entry <fun> --depth <n> [--opt spire|cf|cn|none] [--json]
  spire-cli check --benchmarks [--json]
  spire-cli benchmarks
  spire-cli experiments <fig2|fig12|fig15a|fig15b|table1|table2|table4|table5|fig24|appendix-a|all>
  spire-cli report [--out-dir <dir>] [--threads <n>] [--quick] [--check]
  spire-cli serve [--addr <host:port>] [--threads <n>] [--backlog <n>] [--cache-dir <dir>]
                  [--cache-bytes <n[k|m|g]>] [--compact-on-start]
                  [--inject-disk-faults <none|crash=BYTES|KIND:all|KIND:nth=N|KIND:rate=R,seed=S>]
                  [--trace-sample <n>] [--trace-seed <n>] [--slow-log <n>]
  spire-cli loadtest [--addr <host:port>] [--workers <n>] [--seconds <s>]
                     [--depth <n>] [--quick] [--out-dir <dir>] [--trace-out <file>]
  spire-cli trace --addr <host:port> [--out <trace.json>]

  --simulate runs the compiled circuit (sparse backend for layouts of up
  to 64 qubits, wide-keyed sparse up to 256, classical otherwise) and
  prints every live variable; --set initializes an input register first.

  check runs the spire-verify static analyses (gate-stream
  well-formedness, ancilla discipline, static T-complexity bounds; see
  docs/ANALYSIS.md) over the compiled program and prints structured
  diagnostics with stable `verify/...` codes. --benchmarks checks every
  paper benchmark instead of a file; --json emits the machine-readable
  report (the format CI pins a golden copy of). Exits nonzero on any
  error-severity diagnostic.

  serve runs the compile-and-estimate HTTP service (POST /compile,
  POST /simulate, POST /check, GET /benchmarks, GET /metrics,
  GET /healthz) until the
  process is killed; port 0 picks an ephemeral port, printed on stdout.
  --cache-dir enables the persistent compile cache: /compile results are
  stored in an append-only content-addressed log there, so a restarted
  server answers previously-compiled requests from disk.
  --cache-bytes caps resident memory for the in-memory caches
  (second-chance eviction; suffixes k/m/g are binary multiples).
  --compact-on-start rewrites the on-disk log to live entries only
  before serving. --inject-disk-faults wires a seeded fault schedule
  into the disk tier for chaos testing (KIND is eio, enospc, or torn);
  the server degrades to memory-only behind a circuit breaker instead
  of failing requests. See docs/SERVING.md and docs/ROBUSTNESS.md.
  --trace-sample N traces every Nth request (0 disables sampling;
  ?trace=1 always traces), --trace-seed pins the deterministic trace/span
  ID streams, --slow-log sets how many slowest traced requests are kept
  for GET /debug/slow. See docs/OBSERVABILITY.md.

  loadtest drives a closed-loop request mix over the benchmark programs
  against --addr (or an in-process server when omitted), then sweeps the
  same mix open-loop at fixed fractions of the measured capacity, then
  measures the traced-vs-untraced throughput delta, and writes the
  BENCH_serve.json perf trajectory (throughput, latency percentiles
  incl. the latency-under-load curve, cache/single-flight rates, tracing
  overhead). --quick is the CI smoke configuration. --trace-out saves
  the server's slow log as Chrome trace_event JSON afterwards.

  trace fetches the slow log of a running server (GET
  /debug/slow?format=chrome) and writes it as Chrome trace_event JSON
  (default trace.json), loadable in chrome://tracing or Perfetto.

  report regenerates every paper table/figure artifact in parallel
  (Markdown + JSON under --out-dir, default `reports/`). --check
  regenerates and diffs the Markdown against the committed snapshot in
  `reports/` (timing cells normalized) instead of overwriting it, and
  fails on drift. --quick runs a reduced matrix for smoke testing.";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a byte-size argument: a plain count, or a count with a `k`,
/// `m`, or `g` suffix (binary multiples, case-insensitive).
fn parse_byte_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, multiplier) = match text.chars().last()? {
        'k' | 'K' => (&text[..text.len() - 1], 1u64 << 10),
        'm' | 'M' => (&text[..text.len() - 1], 1u64 << 20),
        'g' | 'G' => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    let count: u64 = digits.parse().ok()?;
    count.checked_mul(multiplier).filter(|&n| n > 0)
}

fn parse_opt(name: &str) -> Result<OptConfig, String> {
    Ok(match name {
        "spire" => OptConfig::spire(),
        "cf" => OptConfig::flattening_only(),
        "cn" => OptConfig::narrowing_only(),
        "none" => OptConfig::none(),
        other => return Err(format!("unknown optimization config `{other}`")),
    })
}

fn load(args: &[String]) -> Result<(String, String, i64, OptConfig), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing input file")?;
    let source = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let entry = flag(args, "--entry").ok_or("missing --entry")?;
    let depth: i64 = flag(args, "--depth")
        .ok_or("missing --depth")?
        .parse()
        .map_err(|e| format!("bad --depth: {e}"))?;
    let opt = parse_opt(&flag(args, "--opt").unwrap_or_else(|| "spire".into()))?;
    Ok((source, entry, depth, opt))
}

/// Render a compile error with its source location when one can be
/// recovered: code, `line:col`, the offending line, and a caret under the
/// span.
fn render_compile_error(source: &str, err: &spire::SpireError) -> String {
    let Some(span) = err.locate(source) else {
        return format!("{err} [{}]", err.code());
    };
    let (line, col) = span.line_col(source);
    let text = source.lines().nth(line - 1).unwrap_or("");
    let span_chars = source[span.start.min(source.len())..span.end.min(source.len())]
        .chars()
        .count();
    let room = text.chars().count().saturating_sub(col - 1);
    let caret = "^".repeat(span_chars.min(room).max(1));
    format!(
        "{err} [{}]\n --> {line}:{col} (bytes {}..{})\n  | {text}\n  | {}{caret}",
        err.code(),
        span.start,
        span.end,
        " ".repeat(col - 1),
    )
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let (source, entry, depth, opt) = load(args)?;
    let compiled = compile_source(
        &source,
        &entry,
        depth,
        WordConfig::paper_default(),
        &CompileOptions::with_opt(opt),
    )
    .map_err(|e| render_compile_error(&source, &e))?;
    let circuit = compiled.emit();
    let qc = qcirc::qcformat::write(&circuit);
    match flag(args, "--out") {
        Some(path) => {
            fs::write(&path, qc).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} gates ({} qubits) to {path}",
                circuit.len(),
                circuit.num_qubits()
            );
        }
        None => print!("{qc}"),
    }
    if args.iter().any(|a| a == "--simulate") {
        cmd_simulate(&compiled, args)?;
    }
    Ok(())
}

/// Collect repeated `--set name=value` flags.
fn input_sets(args: &[String]) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--set" {
            let kv = args
                .get(i + 1)
                .ok_or("missing argument to --set (expected name=value)")?;
            let (name, value) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad --set `{kv}`, expected name=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("bad value in --set `{kv}`: {e}"))?;
            out.push((name.to_string(), value));
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// Execute the compiled circuit and print the live variables. Layouts of
/// up to 64 qubits use the sparse backend and up to 256 its wide-keyed
/// variant (full gate set, including Hadamard statements); larger
/// layouts fall back to the classical simulator, which Tower's
/// Hadamard-free benchmarks permute exactly.
fn cmd_simulate(compiled: &Compiled, args: &[String]) -> Result<(), String> {
    let sets = input_sets(args)?;
    let total = compiled.layout.total_qubits;
    if total <= 64 {
        let machine = simulate_on::<SparseState>(compiled, &sets)?;
        println!(
            "simulated {total} qubits on the sparse backend ({} nonzero amplitude(s))",
            machine.state().support()
        );
        print_live_vars(compiled, |name| machine.var(name).ok());
    } else if total <= 256 {
        let machine = simulate_on::<SparseState256>(compiled, &sets)?;
        println!(
            "simulated {total} qubits on the sparse-wide backend ({} nonzero amplitude(s))",
            machine.state().support()
        );
        print_live_vars(compiled, |name| machine.var(name).ok());
    } else {
        let machine = simulate_on::<BasisState>(compiled, &sets)?;
        println!("simulated {total} qubits on the classical backend");
        print_live_vars(compiled, |name| machine.var(name).ok());
    }
    Ok(())
}

fn simulate_on<S: qcirc::sim::Simulator>(
    compiled: &Compiled,
    sets: &[(String, u64)],
) -> Result<Machine<S>, String> {
    let mut machine: Machine<S> = Machine::with_backend(&compiled.layout);
    for (name, value) in sets {
        machine.set_var(name, *value).map_err(|e| e.to_string())?;
    }
    machine.run(&compiled.emit()).map_err(|e| e.to_string())?;
    Ok(machine)
}

fn print_live_vars(compiled: &Compiled, read: impl Fn(&str) -> Option<u64>) {
    let mut seen = std::collections::HashSet::new();
    for (var, ty) in &compiled.types.final_context {
        let name = var.as_str();
        if name.contains('%') {
            continue; // optimizer temporary
        }
        if !seen.insert(name) {
            continue; // re-declarations share one register; print it once
        }
        match read(name) {
            Some(value) => println!("  {name}: {ty} = {value}"),
            None => println!("  {name}: {ty} = (superposed)"),
        }
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (source, entry, depth, _) = load(args)?;
    println!("cost model analysis of `{entry}` at depth {depth}:");
    for opt in [
        OptConfig::none(),
        OptConfig::narrowing_only(),
        OptConfig::flattening_only(),
        OptConfig::spire(),
    ] {
        let compiled = compile_source(
            &source,
            &entry,
            depth,
            WordConfig::paper_default(),
            &CompileOptions::with_opt(opt),
        )
        .map_err(|e| e.to_string())?;
        let hist = compiled.histogram();
        println!(
            "  {:<9} MCX-complexity {:>10}   T-complexity {:>12}   max controls {:>2}   qubits {:>5}",
            opt.label(),
            hist.mcx_complexity(),
            hist.t_complexity(),
            hist.max_controls(),
            compiled.qubits_after_decomposition(),
        );
    }
    Ok(())
}

/// `check`: the spire-verify static analyses as a diagnostics surface
/// (see `docs/ANALYSIS.md`). Exits nonzero on error-severity diagnostics.
fn cmd_check(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--benchmarks") {
        return check_benchmarks(json);
    }
    let (source, entry, depth, opt) = load(args)?;
    let report = spire::check_source(
        &source,
        &entry,
        depth,
        WordConfig::paper_default(),
        &CompileOptions::with_opt(opt),
    )
    .map_err(|e| render_compile_error(&source, &e))?;
    if json {
        println!("{}", report.to_json());
    } else {
        print_report(&format!("`{entry}` at depth {depth}"), &report);
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "check failed with {} error(s)",
            report.error_count()
        ))
    }
}

/// Check every paper benchmark under the full Spire configuration. The
/// `--json` output is deterministic (no timings) and pinned as a golden
/// file by the CI `check` job.
fn check_benchmarks(json: bool) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut dirty = 0usize;
    for bench in bench_suite::programs::all_benchmarks() {
        let depth = if bench.constant { 0 } else { 3 };
        let report = spire::check_source(
            &bench.source,
            bench.entry,
            depth,
            WordConfig::paper_default(),
            &CompileOptions::spire(),
        )
        .map_err(|e| format!("checking {}: {e}", bench.name))?;
        if !report.is_clean() {
            dirty += 1;
        }
        if json {
            rows.push(
                qcirc::json::Json::obj()
                    .field("name", bench.name)
                    .field("entry", bench.entry)
                    .field("depth", depth)
                    .field("report", report.to_json())
                    .build(),
            );
        } else {
            print_report(&format!("{} at depth {depth}", bench.name), &report);
        }
    }
    if json {
        let doc = qcirc::json::Json::obj()
            .field("clean", dirty == 0)
            .field("benchmarks", rows)
            .build();
        println!("{doc}");
    }
    if dirty == 0 {
        Ok(())
    } else {
        Err(format!("check failed on {dirty} benchmark(s)"))
    }
}

/// Human-readable rendering of one verification report.
fn print_report(subject: &str, report: &spire::spire_verify::Report) {
    let verdict = if report.is_clean() { "clean" } else { "FAILED" };
    println!(
        "check {subject}: {verdict} ({} diagnostic(s), {} function bound(s))",
        report.diagnostics.len(),
        report.functions.len()
    );
    for diag in &report.diagnostics {
        println!("  {diag}");
    }
    for bounds in &report.functions {
        println!(
            "  fn {:<16} T in [{}, {}]  actual {}  {}",
            bounds.name,
            bounds.min,
            bounds.max,
            bounds.actual,
            if bounds.holds() { "ok" } else { "VIOLATED" }
        );
    }
}

fn cmd_benchmarks() -> Result<(), String> {
    println!("benchmark programs (paper Table 1):");
    for bench in bench_suite::programs::all_benchmarks() {
        println!(
            "  {:<8} {:<14} entry `{}`{}",
            bench.group,
            bench.name,
            bench.entry,
            if bench.constant {
                "  (constant size)"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// `report`: the parallel artifact pipeline (see `docs/EXPERIMENTS.md`).
fn cmd_report(args: &[String]) -> Result<(), String> {
    let out_dir = PathBuf::from(flag(args, "--out-dir").unwrap_or_else(|| "reports".into()));
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let threads = match flag(args, "--threads") {
        Some(n) => n.parse().map_err(|e| format!("bad --threads: {e}"))?,
        None => runner::default_threads(),
    };
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let params = if quick {
        MatrixParams::quick()
    } else {
        MatrixParams::paper()
    };

    let summary = runner::run_all(&params, threads, &|event| match event {
        RunnerEvent::WarmStart { jobs, threads } => {
            println!("warming compile cache: {jobs} configurations on {threads} threads");
        }
        RunnerEvent::WarmDone { jobs, wall } => {
            println!(
                "warmed {jobs} configurations in {:.3} s",
                wall.as_secs_f64()
            );
        }
        RunnerEvent::ArtifactDone {
            id,
            wall,
            done,
            total,
        } => {
            println!("[{done}/{total}] {id} in {:.3} s", wall.as_secs_f64());
        }
    });
    println!(
        "pipeline: {} artifacts in {:.3} s on {} threads (peak parallelism {}), cache {}",
        summary.artifacts.len(),
        summary.wall.as_secs_f64(),
        summary.threads,
        summary.parallelism.peak,
        summary.cache,
    );

    // The snapshot being checked against is never overwritten: a plain
    // `report --check` is a pure read-only verification, whatever
    // spelling of the snapshot path --out-dir uses.
    let snapshot_dir = Path::new("reports");
    let write = !check || !same_dir(&out_dir, snapshot_dir);
    if write {
        write_reports(&out_dir, &summary)?;
        println!(
            "wrote {} to {}",
            artifact_file_list(&summary),
            out_dir.display()
        );
    }
    if check {
        check_reports(snapshot_dir, &summary)?;
        println!(
            "report check passed: {} artifacts match {}",
            summary.artifacts.len(),
            snapshot_dir.display()
        );
    }

    Ok(())
}

/// Whether two directory paths name the same location, robust to
/// spelling differences (`reports`, `./reports`, `reports/`, absolute).
/// Falls back to lexical normalization when a path does not exist yet.
fn same_dir(a: &Path, b: &Path) -> bool {
    match (fs::canonicalize(a), fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => {
            let normalize = |p: &Path| -> PathBuf {
                let absolute = std::env::current_dir().unwrap_or_default().join(p);
                let mut out = PathBuf::new();
                for component in absolute.components() {
                    match component {
                        std::path::Component::CurDir => {}
                        std::path::Component::ParentDir => {
                            out.pop();
                        }
                        other => out.push(other),
                    }
                }
                out
            };
            normalize(a) == normalize(b)
        }
    }
}

fn artifact_file_list(summary: &RunSummary) -> String {
    format!(
        "{} artifacts (Markdown + JSON), README.md, summary.json",
        summary.artifacts.len()
    )
}

/// Write every artifact as `<id>.md` and `<id>.json`, plus the index
/// (`README.md`) and the machine-readable run metadata (`summary.json`).
fn write_reports(dir: &Path, summary: &RunSummary) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: String, content: String| -> Result<(), String> {
        let path = dir.join(name);
        fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    for result in &summary.artifacts {
        write(format!("{}.md", result.spec.id), artifact_markdown(result))?;
        write(
            format!("{}.json", result.spec.id),
            format!("{}\n", result.artifact.to_json()),
        )?;
    }
    write("README.md".into(), index_markdown(summary))?;
    write("summary.json".into(), summary_json(summary))?;
    Ok(())
}

/// The Markdown document for one artifact (this is what the drift check
/// compares, after timing normalization).
fn artifact_markdown(result: &bench_suite::runner::ArtifactResult) -> String {
    format!(
        "<!-- generated by `spire-cli report`; do not edit (see docs/EXPERIMENTS.md) -->\n\n{}",
        result.artifact.to_markdown()
    )
}

/// The `reports/README.md` index: one row per artifact. Deliberately free
/// of timings and machine details so it is as stable as the artifacts.
fn index_markdown(summary: &RunSummary) -> String {
    let mut out = String::from(
        "<!-- generated by `spire-cli report`; do not edit (see docs/EXPERIMENTS.md) -->\n\n\
         # Paper artifacts\n\n\
         Every table and figure of the evaluation, regenerated by\n\
         `cargo run --release -p spire-cli -- report`. The experiment index in\n\
         [docs/EXPERIMENTS.md](../docs/EXPERIMENTS.md) maps each artifact to the paper and to\n\
         the code that produces it.\n\n\
         | artifact | reproduces | generator | files |\n|---|---|---|---|\n",
    );
    for result in &summary.artifacts {
        let id = result.spec.id;
        out.push_str(&format!(
            "| {} | {} | `{}` | [{id}.md]({id}.md), [{id}.json]({id}.json) |\n",
            result.artifact.title(),
            result.spec.paper_ref,
            result.spec.function,
        ));
    }
    out
}

/// Machine-readable run metadata: timings, cache statistics, and the gate
/// histograms of every benchmark at a reference depth (the `qcirc`
/// histogram serialization). Not drift-checked — it contains timings.
fn summary_json(summary: &RunSummary) -> String {
    use bench_suite::report::json_string;
    let artifacts: Vec<String> = summary
        .artifacts
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":{},\"paper_ref\":{},\"function\":{},\"seconds\":{:.6}}}",
                json_string(r.spec.id),
                json_string(r.spec.paper_ref),
                json_string(r.spec.function),
                r.wall.as_secs_f64(),
            )
        })
        .collect();
    let reference_depth = 4;
    let histograms: Vec<String> = bench_suite::programs::all_benchmarks()
        .iter()
        .map(|bench| {
            let depth = if bench.constant { 0 } else { reference_depth };
            let compiled = |options: &CompileOptions| {
                spire::compile_source_cached(
                    &bench.source,
                    bench.entry,
                    depth,
                    WordConfig::paper_default(),
                    options,
                )
            };
            let hist = |options: &CompileOptions| {
                compiled(options).map_or_else(|_| "null".into(), |c| c.histogram().to_json())
            };
            // The fully decomposed Clifford+T gate counts of the
            // Spire-optimized circuit (Tables 5/6 currency).
            let clifford_t = compiled(&CompileOptions::spire())
                .ok()
                .and_then(|c| qcirc::decompose::to_clifford_t(&c.emit()).ok()).map_or_else(|| "null".into(), |circuit| circuit.clifford_t_counts().to_json());
            format!(
                "{{\"name\":{},\"group\":{},\"entry\":{},\"depth\":{depth},\"baseline\":{},\"spire\":{},\"spire_clifford_t\":{}}}",
                json_string(bench.name),
                json_string(bench.group),
                json_string(bench.entry),
                hist(&CompileOptions::baseline()),
                hist(&CompileOptions::spire()),
                clifford_t,
            )
        })
        .collect();
    format!(
        "{{\"threads\":{},\"warm_jobs\":{},\"warm_seconds\":{:.6},\"wall_seconds\":{:.6},\
         \"peak_parallelism\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\
         \"artifacts\":[{}],\"benchmark_histograms\":[{}]}}\n",
        summary.threads,
        summary.warm_jobs,
        summary.warm_wall.as_secs_f64(),
        summary.wall.as_secs_f64(),
        summary.parallelism.peak,
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.entries,
        artifacts.join(","),
        histograms.join(","),
    )
}

/// Compare the regenerated Markdown against the committed snapshot,
/// normalizing wall-clock timing cells on both sides.
fn check_reports(snapshot_dir: &Path, summary: &RunSummary) -> Result<(), String> {
    let mut drifted = Vec::new();
    for result in &summary.artifacts {
        let name = format!("{}.md", result.spec.id);
        let path = snapshot_dir.join(&name);
        let committed = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                drifted.push(format!("{name}: unreadable ({e})"));
                continue;
            }
        };
        let fresh = artifact_markdown(result);
        if normalize_timings(&committed) != normalize_timings(&fresh) {
            drifted.push(format!("{name}: content differs"));
        }
    }
    let index_path = snapshot_dir.join("README.md");
    match fs::read_to_string(&index_path) {
        Ok(committed) if committed == index_markdown(summary) => {}
        Ok(_) => drifted.push("README.md: content differs".into()),
        Err(e) => drifted.push(format!("README.md: unreadable ({e})")),
    }
    if drifted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "report drift against {} in {} file(s):\n  {}\n\
             regenerate with `cargo run --release -p spire-cli -- report` and commit the result",
            snapshot_dir.display(),
            drifted.len(),
            drifted.join("\n  ")
        ))
    }
}

/// `serve`: run the compile-and-estimate service until killed.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = spire_serve::ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8577".into()),
        ..spire_serve::ServerConfig::default()
    };
    if let Some(threads) = flag(args, "--threads") {
        config.threads = threads
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("bad --threads: expected a positive integer")?;
    }
    if let Some(backlog) = flag(args, "--backlog") {
        config.backlog = backlog
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("bad --backlog: expected a positive integer")?;
    }
    if let Some(dir) = flag(args, "--cache-dir") {
        config.cache_dir = Some(PathBuf::from(dir));
    }
    if let Some(bytes) = flag(args, "--cache-bytes") {
        config.cache_bytes = Some(
            parse_byte_size(&bytes)
                .ok_or("bad --cache-bytes: expected a byte count like 16777216, 64k, or 256m")?,
        );
    }
    if args.iter().any(|a| a == "--compact-on-start") {
        config.compact_on_start = true;
    }
    if let Some(spec) = flag(args, "--inject-disk-faults") {
        let schedule = spire::FaultSchedule::parse(&spec)
            .map_err(|e| format!("bad --inject-disk-faults: {e}"))?;
        eprintln!(
            "spire-serve: injecting disk faults ({}); this flag is for chaos testing only",
            schedule.label()
        );
        config.disk_faults = Some(schedule);
    }
    if let Some(sample) = flag(args, "--trace-sample") {
        config.trace_sample = sample
            .parse()
            .map_err(|e| format!("bad --trace-sample: {e}"))?;
    }
    if let Some(seed) = flag(args, "--trace-seed") {
        config.trace_seed = seed.parse().map_err(|e| format!("bad --trace-seed: {e}"))?;
    }
    if let Some(capacity) = flag(args, "--slow-log") {
        config.slow_log = capacity
            .parse()
            .map_err(|e| format!("bad --slow-log: {e}"))?;
    }
    let threads = config.threads;
    let server = spire_serve::Server::start(config).map_err(|e| format!("starting server: {e}"))?;
    // The smoke tooling greps this line for the ephemeral port.
    println!(
        "spire-serve listening on {} ({threads} worker threads)",
        server.addr()
    );
    server.join();
    Ok(())
}

/// `loadtest`: closed-loop load generation + `BENCH_serve.json`.
fn cmd_loadtest(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = if quick {
        spire_serve::LoadConfig::quick()
    } else {
        spire_serve::LoadConfig::full()
    };
    config.addr = flag(args, "--addr");
    if let Some(workers) = flag(args, "--workers") {
        config.workers = workers
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("bad --workers: expected a positive integer")?;
    }
    if let Some(seconds) = flag(args, "--seconds") {
        let seconds: f64 = seconds.parse().map_err(|e| format!("bad --seconds: {e}"))?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("bad --seconds: must be a positive number".into());
        }
        config.duration = std::time::Duration::from_secs_f64(seconds);
    }
    if let Some(depth) = flag(args, "--depth") {
        // Validate against the server's own cap up front: a rejected
        // depth would silently turn the whole run into an error-latency
        // benchmark and poison the BENCH_serve.json trajectory.
        config.depth = depth
            .parse()
            .ok()
            .filter(|d| (0..=spire_serve::api::MAX_DEPTH).contains(d))
            .ok_or(format!(
                "bad --depth: expected an integer in 0..={}",
                spire_serve::api::MAX_DEPTH
            ))?;
    }
    if let Some(out) = flag(args, "--trace-out") {
        config.trace_out = Some(PathBuf::from(out));
    }
    match &config.addr {
        Some(addr) => println!(
            "load-testing {addr}: {} workers, {:.1} s",
            config.workers,
            config.duration.as_secs_f64()
        ),
        None => println!(
            "load-testing an in-process server: {} workers, {:.1} s",
            config.workers,
            config.duration.as_secs_f64()
        ),
    }
    let report = spire_serve::loadtest::run(&config).map_err(|e| format!("load test: {e}"))?;
    println!(
        "warmup: {} cold requests in {:.2} s (p50 {} µs, max {} µs)",
        report.warmup.requests,
        report.warmup.wall.as_secs_f64(),
        report.warmup.p50_us,
        report.warmup.max_us,
    );
    println!(
        "{} requests in {:.2} s: {:.0} req/s, p50 {} µs, p99 {} µs \
         ({} ok / {} 4xx / {} 5xx / {} transport)",
        report.total,
        report.wall.as_secs_f64(),
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.ok,
        report.client_errors,
        report.server_errors,
        report.transport_errors,
    );
    for point in &report.open_loop {
        println!(
            "open-loop {:.0} req/s offered: {:.0} achieved, p50 {} µs, p99 {} µs, \
             max {} µs ({} ok / {} errors / {} late starts)",
            point.target_rps,
            point.achieved_rps,
            point.p50_us,
            point.p99_us,
            point.max_us,
            point.ok,
            point.errors,
            point.late_starts,
        );
    }
    println!(
        "tracing: {:.0} req/s untraced vs {:.0} req/s traced ({:.1}% overhead; \
         {:.1}% with sampling off)",
        report.tracing.untraced_rps,
        report.tracing.traced_rps,
        report.tracing.overhead_pct,
        report.tracing.sampled_off_overhead_pct,
    );
    if let Some(out) = &config.trace_out {
        println!("wrote Chrome trace to {}", out.display());
    }
    let out_dir = match flag(args, "--out-dir") {
        Some(dir) => PathBuf::from(dir),
        None => workspace_root().to_path_buf(),
    };
    let path = report
        .write_json(&out_dir)
        .map_err(|e| format!("writing BENCH_serve.json: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `trace`: export a running server's slow log as Chrome trace_event
/// JSON, loadable in `chrome://tracing` or Perfetto.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").ok_or("missing --addr (a running spire-serve instance)")?;
    let out = PathBuf::from(flag(args, "--out").unwrap_or_else(|| "trace.json".into()));
    let mut stream =
        std::net::TcpStream::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    spire_serve::http::set_timeouts(
        &stream,
        std::time::Duration::from_secs(30),
        std::time::Duration::from_secs(30),
    )
    .map_err(|e| format!("configuring socket: {e}"))?;
    let (status, body) =
        spire_serve::http::client_roundtrip(&mut stream, "GET", "/debug/slow?format=chrome", None)
            .map_err(|e| format!("fetching /debug/slow: {e}"))?;
    if status != 200 {
        return Err(format!("/debug/slow?format=chrome returned {status}"));
    }
    fs::write(&out, &body).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} bytes); open it in chrome://tracing or https://ui.perfetto.dev",
        out.display(),
        body.len()
    );
    Ok(())
}

/// The workspace root, resolved from the build-time manifest path (same
/// scheme as the bench writers, so artifacts land in one place wherever
/// the command is run from).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .filter(|p| p.is_dir())
        .unwrap_or_else(|| Path::new("."))
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    let which = args.first().map_or("all", String::as_str);
    let run = |id: &str| -> Result<(), String> {
        match id {
            "fig2" => println!("{}", experiments::fig2(2..=10).render()),
            "fig12" | "fig12a" | "fig12b" => println!("{}", experiments::fig12(2..=10).render()),
            "fig15a" => println!("{}", experiments::fig15a(2..=10).render()),
            "fig15b" => println!("{}", experiments::fig15b(2..=10).render()),
            "table1" => println!("{}", experiments::table1(10).render()),
            "table2" => println!("{}", experiments::table2(10).render()),
            "table4" => println!("{}", experiments::table4(&[2, 10]).render()),
            "table5" | "table6" => println!("{}", experiments::table5(5).render()),
            "fig24" => println!("{}", experiments::fig24(2..=10).render()),
            "appendix-a" => {
                println!(
                    "{}",
                    experiments::appendix_a(6, &[2, 4, 8, 12, 16]).render()
                );
            }
            other => return Err(format!("unknown experiment `{other}`")),
        }
        Ok(())
    };
    if which == "all" {
        for id in [
            "fig2",
            "fig12",
            "fig15a",
            "fig15b",
            "table1",
            "table2",
            "table4",
            "table5",
            "fig24",
            "appendix-a",
        ] {
            run(id)?;
        }
        Ok(())
    } else {
        run(which)
    }
}
