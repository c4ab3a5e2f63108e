//! `spire-cli`: command-line driver for the Spire reproduction. Each
//! subcommand declares its operands and flags once, in [`COMMANDS`]; the
//! declaration both parses its command line and prints its `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{Display, Write as _};
use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use bench_suite::report;
use bench_suite::runner::{self, MatrixParams, RunnerEvent};
use qcirc::sim::{BasisState, SparseState, SparseState256};
use qcirc::Circuit;
use spire::{compile_source, CompileOptions, Compiled, Machine, OptConfig};
use tower::WordConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = COMMANDS
        .iter()
        .find(|c| args.first().is_some_and(|a| a == c.name))
    else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match Args::parse(command, &args[1..]) {
        Ok(Some(parsed)) => (command.run)(&parsed),
        Ok(None) => {
            print!("{}", command.usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => Err(format!("{message}\n\n{}", command.usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A flag's usage line: its name, then a `<placeholder>` if it takes a
/// value, then its help.
type Flag = &'static str;

/// A subcommand: its name, the operands it accepts (at most this many),
/// its flags, what it does (the first line is its summary in the
/// top-level usage) and its body.
struct Command {
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

/// Every subcommand accepts `--help`.
const HELP: Flag = "--help                       print this usage and run nothing";
const ENTRY: Flag = "--entry <fun>                entry function (required)";
const DEPTH: Flag = "--depth <n>                  recursion depth bound (required)";
const OPT: Flag = "--opt <spire|cf|cn|none>     optimization (default spire)";

const COMMANDS: &[Command] = &[
    Command {
        name: "compile",
        operands: &["<file.twr>"],
        flags: &[
            ENTRY,
            DEPTH,
            OPT,
            "--out <file.qc>              write the circuit there, not to stdout",
            "--simulate                   run the circuit, print every live variable",
            "--set <var>=<value>          initialize an input first (repeatable)",
        ],
        about: "compile a Tower program and emit its circuit in .qc format

--simulate uses the sparse backend for layouts of up to 64 qubits, its
wide-keyed variant up to 256, and the classical simulator beyond.",
        run: cmd_compile,
    },
    Command {
        name: "analyze",
        operands: &["<file.twr>"],
        flags: &[ENTRY, DEPTH],
        about: "print cost-model MCX and T complexities under each optimization",
        run: cmd_analyze,
    },
    Command {
        name: "check",
        operands: &["[<file.twr>]"],
        flags: &[
            ENTRY,
            DEPTH,
            OPT,
            "--benchmarks                 check every paper benchmark, not a file",
            "--json                       print the machine-readable report CI pins",
        ],
        about: "run the spire-verify static analyses (docs/ANALYSIS.md)

Exits nonzero on any error-severity diagnostic.",
        run: cmd_check,
    },
    Command {
        name: "benchmarks",
        operands: &[],
        flags: &[],
        about: "list the paper's benchmark programs (Table 1)",
        run: cmd_benchmarks,
    },
    Command {
        name: "experiments",
        operands: &["[<id>|all]"],
        flags: &[],
        about: "print paper tables and figures at paper scale, as Markdown

<id> names an artifact of `report` (aliases: fig12a, fig12b, table6); the
text is reports/<id>.md without its generated-by header.",
        run: cmd_experiments,
    },
    Command {
        name: "report",
        operands: &[],
        flags: &[
            "--out-dir <dir>              where the artifacts go (default reports)",
            "--threads <n>                worker threads (default 2..=8, by cores)",
            "--quick                      run a reduced matrix for smoke testing",
            "--check                      fail on drift from reports/, not overwrite it",
        ],
        about: "regenerate every paper table and figure in parallel

Writes <id>.md and <id>.json per artifact, README.md and summary.json;
--check compares the Markdown with timing cells normalized.",
        run: cmd_report,
    },
    Command {
        name: "serve",
        operands: &[],
        flags: &[
            "--addr <host:port>           listen address; port 0 picks one",
            "--threads <n>                worker threads",
            "--backlog <n>                requests that may wait for a worker",
            "--cache-dir <dir>            persist compile results there",
            "--cache-bytes <n[k|m|g]>     memory budget of the caches",
            "--compact-on-start           compact the on-disk log first",
            "--inject-disk-faults <spec>  disk fault schedule (chaos testing only)",
            "--trace-sample <n>           trace every nth request (0: none)",
            "--trace-seed <n>             seed of the trace and span IDs",
            "--slow-log <n>               slowest traced requests kept",
        ],
        about: "run the compile-and-estimate HTTP service until killed

See docs/SERVING.md, docs/ROBUSTNESS.md (the fault <spec> grammar) and
docs/OBSERVABILITY.md.",
        run: cmd_serve,
    },
    Command {
        name: "loadtest",
        operands: &[],
        flags: &[
            "--addr <host:port>           server to drive (default: in-process)",
            "--workers <n>                concurrent clients",
            "--seconds <s>                closed-loop duration",
            "--depth <n>                  recursion depth of the request mix",
            "--quick                      the CI smoke configuration",
            "--out-dir <dir>              where BENCH_serve.json goes",
            "--trace-out <file>           save the slow log as Chrome trace JSON",
        ],
        about: "load-test a server and write BENCH_serve.json

Closed loop, then open loop at fractions of the measured capacity, then
traced against untraced throughput.",
        run: cmd_loadtest,
    },
    Command {
        name: "trace",
        operands: &[],
        flags: &[
            "--addr <host:port>           the running server (required)",
            "--out <trace.json>           output file (default trace.json)",
        ],
        about: "save a running server's slow log as Chrome trace_event JSON",
        run: cmd_trace,
    },
];

/// A flag's name, and whether it takes a value.
fn split_flag(flag: Flag) -> (&'static str, bool) {
    let mut words = flag.split_whitespace();
    let name = words.next().unwrap_or_default();
    (name, words.next().is_some_and(|w| w.starts_with('<')))
}

/// The top-level usage: one line per subcommand.
fn usage() -> String {
    let mut out = String::from("usage: spire <command> [<operands>] [flags]\n\n");
    for command in COMMANDS {
        let summary = command.about.lines().next().unwrap_or_default();
        let _ = writeln!(out, "  {:<12} {summary}", command.name);
    }
    out + "\n`spire <command> --help` lists a command's flags.\n"
}

impl Command {
    /// This subcommand's usage, generated from its declaration.
    fn usage(&self) -> String {
        let mut out = format!("usage: spire {}", self.name);
        for operand in self.operands {
            let _ = write!(out, " {operand}");
        }
        let _ = write!(out, " [flags]\n\n{}\n\n", self.about);
        for flag in self.flags.iter().chain([&HELP]) {
            let _ = writeln!(out, "  {flag}");
        }
        out
    }
}

/// A command line parsed against its [`Command`]: the operands, and each
/// use of a flag in order with its value (empty for a switch).
struct Args {
    command: &'static Command,
    operands: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `args` against `command`'s declaration; `Ok(None)` asks for
    /// `--help`. An unknown flag, an operand beyond the declared ones and
    /// a value flag without its value are errors.
    fn parse(command: &'static Command, args: &[String]) -> Result<Option<Args>, String> {
        let mut parsed = Args {
            command,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" {
                return Ok(None);
            } else if !arg.starts_with("--") {
                if parsed.operands.len() == command.operands.len() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                parsed.operands.push(arg.clone());
                continue;
            }
            let (name, takes_value) = (command.flags.iter().copied())
                .map(split_flag)
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = if takes_value {
                let value = args.next().filter(|v| !v.starts_with("--"));
                value.ok_or_else(|| format!("{arg} needs a value"))?.clone()
            } else {
                String::new()
            };
            parsed.flags.push((name, value));
        }
        Ok(Some(parsed))
    }

    fn operand(&self, index: usize) -> Option<&str> {
        self.operands.get(index).map(String::as_str)
    }

    fn has(&self, name: &'static str) -> bool {
        self.values(name).next().is_some()
    }

    /// The value of the first use of flag `name`.
    fn value(&self, name: &'static str) -> Option<&str> {
        self.values(name).next()
    }

    /// The values of every use of flag `name`, in order. Asking for a
    /// flag the command does not declare is a bug.
    fn values(&self, name: &'static str) -> impl Iterator<Item = &str> {
        let declared = self.command.flags.iter().any(|&f| split_flag(f).0 == name);
        debug_assert!(declared, "`{}` does not declare {name}", self.command.name);
        let uses = self.flags.iter().filter(move |(flag, _)| *flag == name);
        uses.map(|(_, value)| value.as_str())
    }

    /// The value of flag `name` parsed as a `T`, if the flag is given.
    fn parse_value<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| format!("bad {name} `{v}`: {e}"));
        self.value(name).map(parse).transpose()
    }
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

/// The `--opt` configuration (default `spire`).
fn opt_config(args: &Args) -> Result<OptConfig, String> {
    Ok(match args.value("--opt").unwrap_or("spire") {
        "spire" => OptConfig::spire(),
        "cf" => OptConfig::flattening_only(),
        "cn" => OptConfig::narrowing_only(),
        "none" => OptConfig::none(),
        other => return Err(format!("unknown optimization config `{other}`")),
    })
}

/// The input program, `--entry` and `--depth`.
fn load(args: &Args) -> Result<(String, String, i64), String> {
    let path = args.operand(0).ok_or("missing input file")?;
    let source = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let entry = args.value("--entry").ok_or("missing --entry")?;
    let depth = args.parse_value("--depth")?.ok_or("missing --depth")?;
    Ok((source, entry.to_string(), depth))
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

fn cmd_compile(args: &Args) -> Result<(), String> {
    let (source, entry, depth) = load(args)?;
    let sets = input_sets(args)?;
    let compiled = compile_source(
        &source,
        &entry,
        depth,
        WordConfig::paper_default(),
        &CompileOptions::with_opt(opt_config(args)?),
    )
    .map_err(|e| render_compile_error(&source, &e))?;
    let circuit = compiled.emit();
    let qc = qcirc::qcformat::write(&circuit);
    match args.value("--out") {
        Some(path) => {
            fs::write(path, qc).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} gates ({} qubits) to {path}",
                circuit.len(),
                circuit.num_qubits()
            );
        }
        None => print!("{qc}"),
    }
    if args.has("--simulate") {
        cmd_simulate(&compiled, &circuit, &sets)?;
    }
    Ok(())
}

/// Every `--set name=value`, in order.
fn input_sets(args: &Args) -> Result<Vec<(String, u64)>, String> {
    args.values("--set")
        .map(|kv| {
            let (name, value) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad --set `{kv}`, expected name=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("bad value in --set `{kv}`: {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// Execute the compiled circuit and print the live variables. Layouts of
/// up to 64 qubits use the sparse backend and up to 256 its wide-keyed
/// variant (full gate set, including Hadamard statements); larger
/// layouts fall back to the classical simulator, which Tower's
/// Hadamard-free benchmarks permute exactly.
fn cmd_simulate(
    compiled: &Compiled,
    circuit: &Circuit,
    sets: &[(String, u64)],
) -> Result<(), String> {
    let total = compiled.layout.total_qubits;
    if total <= 64 {
        let machine = simulate_on::<SparseState>(compiled, circuit, sets)?;
        println!(
            "simulated {total} qubits on the sparse backend ({} nonzero amplitude(s))",
            machine.state().support()
        );
        print_live_vars(compiled, |name| machine.var(name).ok());
    } else if total <= 256 {
        let machine = simulate_on::<SparseState256>(compiled, circuit, sets)?;
        println!(
            "simulated {total} qubits on the sparse-wide backend ({} nonzero amplitude(s))",
            machine.state().support()
        );
        print_live_vars(compiled, |name| machine.var(name).ok());
    } else {
        let machine = simulate_on::<BasisState>(compiled, circuit, sets)?;
        println!("simulated {total} qubits on the classical backend");
        print_live_vars(compiled, |name| machine.var(name).ok());
    }
    Ok(())
}

fn simulate_on<S: qcirc::sim::Simulator>(
    compiled: &Compiled,
    circuit: &Circuit,
    sets: &[(String, u64)],
) -> Result<Machine<S>, String> {
    let mut machine: Machine<S> = Machine::with_backend(&compiled.layout);
    for (name, value) in sets {
        machine.set_var(name, *value).map_err(|e| e.to_string())?;
    }
    machine.run(circuit).map_err(|e| e.to_string())?;
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

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let (source, entry, depth) = load(args)?;
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
        .map_err(|e| render_compile_error(&source, &e))?;
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
fn cmd_check(args: &Args) -> Result<(), String> {
    let json = args.has("--json");
    if args.has("--benchmarks") {
        if let Some(file) = args.operand(0) {
            return Err(format!("--benchmarks takes no input file, got `{file}`"));
        }
        return check_benchmarks(json);
    }
    let (source, entry, depth) = load(args)?;
    let report = spire::check_source(
        &source,
        &entry,
        depth,
        WordConfig::paper_default(),
        &CompileOptions::with_opt(opt_config(args)?),
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

fn cmd_benchmarks(_: &Args) -> Result<(), String> {
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
fn cmd_report(args: &Args) -> Result<(), String> {
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("reports"));
    let check = args.has("--check");
    let snapshot_dir = Path::new("reports");
    if check && !snapshot_dir.is_dir() {
        return Err(format!(
            "no snapshot to check against at {}",
            snapshot_dir.display()
        ));
    }
    let threads = args
        .parse_value("--threads")?
        .map_or_else(runner::default_threads, NonZeroUsize::get);
    let params = if args.has("--quick") {
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
    if !check || !same_dir(&out_dir, snapshot_dir) {
        report::write_reports(&out_dir, &summary)?;
        println!(
            "wrote {} artifacts (Markdown + JSON), README.md, summary.json to {}",
            summary.artifacts.len(),
            out_dir.display()
        );
    }
    if check {
        report::check_reports(snapshot_dir, &summary)?;
        println!(
            "report check passed: {} artifacts match {}",
            summary.artifacts.len(),
            snapshot_dir.display()
        );
    }
    Ok(())
}

/// Whether `a` and `b` are the same existing directory, however spelled
/// (`reports`, `./reports/`, absolute). `report --check` has made sure
/// the snapshot exists, so an `--out-dir` that does not is another one.
fn same_dir(a: &Path, b: &Path) -> bool {
    matches!((fs::canonicalize(a), fs::canonicalize(b)), (Ok(a), Ok(b)) if a == b)
}

/// `serve`: run the compile-and-estimate service until killed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let defaults = spire_serve::ServerConfig::default();
    let disk_faults = match args.value("--inject-disk-faults") {
        Some(spec) => {
            let schedule = spire::FaultSchedule::parse(spec)
                .map_err(|e| format!("bad --inject-disk-faults: {e}"))?;
            eprintln!(
                "spire-serve: injecting disk faults ({}); this flag is for chaos testing only",
                schedule.label()
            );
            Some(schedule)
        }
        None => None,
    };
    let cache_bytes = args.value("--cache-bytes").map(|bytes| {
        parse_byte_size(bytes)
            .ok_or("bad --cache-bytes: expected a byte count like 16777216, 64k, or 256m")
    });
    let config = spire_serve::ServerConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:8577").to_string(),
        threads: args
            .parse_value("--threads")?
            .map_or(defaults.threads, NonZeroUsize::get),
        backlog: args
            .parse_value("--backlog")?
            .map_or(defaults.backlog, NonZeroUsize::get),
        cache_dir: args.value("--cache-dir").map(PathBuf::from),
        cache_bytes: cache_bytes.transpose()?,
        compact_on_start: args.has("--compact-on-start"),
        disk_faults,
        trace_sample: args
            .parse_value("--trace-sample")?
            .unwrap_or(defaults.trace_sample),
        trace_seed: args
            .parse_value("--trace-seed")?
            .unwrap_or(defaults.trace_seed),
        slow_log: args.parse_value("--slow-log")?.unwrap_or(defaults.slow_log),
        ..defaults
    };
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
fn cmd_loadtest(args: &Args) -> Result<(), String> {
    let mut config = if args.has("--quick") {
        spire_serve::LoadConfig::quick()
    } else {
        spire_serve::LoadConfig::full()
    };
    config.addr = args.value("--addr").map(String::from);
    if let Some(workers) = args.parse_value::<NonZeroUsize>("--workers")? {
        config.workers = workers.get();
    }
    if let Some(seconds) = args.parse_value::<f64>("--seconds")? {
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("bad --seconds: must be a positive number".into());
        }
        config.duration = std::time::Duration::from_secs_f64(seconds);
    }
    if let Some(depth) = args.parse_value("--depth")? {
        // Validate against the server's own cap up front: a rejected
        // depth would silently turn the whole run into an error-latency
        // benchmark and poison the BENCH_serve.json trajectory.
        let max = spire_serve::api::MAX_DEPTH;
        if !(0..=max).contains(&depth) {
            return Err(format!("bad --depth: expected an integer in 0..={max}"));
        }
        config.depth = depth;
    }
    config.trace_out = args.value("--trace-out").map(PathBuf::from);
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
    let out_dir = args.value("--out-dir").map_or(workspace_root(), Path::new);
    let path = report
        .write_json(out_dir)
        .map_err(|e| format!("writing BENCH_serve.json: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `trace`: export a running server's slow log as Chrome trace_event
/// JSON, loadable in `chrome://tracing` or Perfetto.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let addr = args
        .value("--addr")
        .ok_or("missing --addr (a running spire-serve instance)")?;
    let out = Path::new(args.value("--out").unwrap_or("trace.json"));
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
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
    fs::write(out, &body).map_err(|e| format!("writing {}: {e}", out.display()))?;
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

/// `experiments <id>`: one artifact of `report`, run at paper scale and
/// printed as the Markdown `report` writes without its header.
fn cmd_experiments(args: &Args) -> Result<(), String> {
    let id = match args.operand(0).unwrap_or("all") {
        "fig12a" | "fig12b" => "fig12",
        "table6" => "table5",
        id => id,
    };
    let specs = runner::artifact_specs();
    let chosen: Vec<_> = specs.iter().filter(|s| id == "all" || s.id == id).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        return Err(format!(
            "unknown experiment `{id}` (expected {} or all)",
            ids.join(", ")
        ));
    }
    let params = MatrixParams::paper();
    for (i, spec) in chosen.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", spec.run(&params).to_markdown());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, args: &[&str]) -> Result<Option<Args>, String> {
        let command = COMMANDS
            .iter()
            .find(|c| c.name == command)
            .expect("command");
        let args: Vec<String> = args.iter().map(|&a| a.to_string()).collect();
        Args::parse(command, &args)
    }

    #[test]
    fn every_flag_is_declared_once_with_help() {
        for command in COMMANDS {
            let mut names: Vec<&str> = Vec::new();
            for &flag in command.flags.iter().chain([&HELP]) {
                let (name, takes_value) = split_flag(flag);
                assert!(name.starts_with("--"), "{}: {flag:?}", command.name);
                let words = flag.split_whitespace().count();
                assert!(words > 1 + usize::from(takes_value), "no help: {flag:?}");
                names.push(name);
            }
            let count = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), count, "{} repeats a flag", command.name);
        }
    }

    #[test]
    fn flags_take_values_only_when_declared_to() {
        let args = parse(
            "compile",
            &["p.twr", "--simulate", "--set", "x=1", "--set", "y=2"],
        )
        .expect("parses")
        .expect("not --help");
        assert_eq!(args.operand(0), Some("p.twr"));
        assert!(args.has("--simulate"));
        assert_eq!(args.values("--set").collect::<Vec<_>>(), ["x=1", "y=2"]);
        assert!(parse("compile", &["--entry", "--depth", "1"]).is_err());
        assert!(parse("report", &["--check", "extra"]).is_err());
        assert!(parse("report", &["--out-dir"]).is_err());
        assert!(parse("report", &["--check", "--help"])
            .expect("help")
            .is_none());
    }
}
