//! `report-paper`: the paper-scale artifact pipeline
//! (`bench_suite::runner::run_all`), one run per fresh process so the
//! process-wide compile cache starts cold every time.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bench_suite::report::normalize_timings;
use bench_suite::runner::{run_all, MatrixParams, RunSummary};
use qcirc::json::Json;

use crate::calib::Calibration;
use crate::stats::median;
use crate::{E2e, Measured, Named};

/// Set-up-only child processes per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Worker threads of the pipeline (= the box's 2 cores).
pub const THREADS: usize = 2;

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// The Markdown `spire-cli report` writes for one artifact.
fn artifact_markdown(result: &bench_suite::runner::ArtifactResult) -> String {
    format!(
        "<!-- generated by `spire-cli report`; do not edit (see docs/EXPERIMENTS.md) -->\n\n{}",
        result.artifact.to_markdown()
    )
}

/// The `reports/README.md` index `spire-cli report` writes.
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
        let _ = writeln!(
            out,
            "| {} | {} | `{}` | [{id}.md]({id}.md), [{id}.json]({id}.json) |",
            result.artifact.title(),
            result.spec.paper_ref,
            result.spec.function,
        );
    }
    out
}

/// Compare the regenerated Markdown with the committed `reports/`,
/// timing cells normalized, as `spire-cli report --check` does. Returns
/// the drifted file names.
fn drift(root: &Path, summary: &RunSummary) -> Vec<String> {
    let dir = root.join("reports");
    let mut drifted = Vec::new();
    for result in &summary.artifacts {
        let name = format!("{}.md", result.spec.id);
        match std::fs::read_to_string(dir.join(&name)) {
            Ok(committed)
                if normalize_timings(&committed)
                    == normalize_timings(&artifact_markdown(result)) => {}
            _ => drifted.push(name),
        }
    }
    match std::fs::read_to_string(dir.join("README.md")) {
        Ok(committed) if committed == index_markdown(summary) => {}
        _ => drifted.push("README.md".into()),
    }
    drifted
}

/// The `report-once` subcommand, in its own process: time from the
/// parent's spawn to the `run_all` call, then (unless `--setup-only`) one
/// paper-scale run, checked against `reports/`. Prints one JSON line.
pub fn report_once_main(args: &crate::Args) -> Result<(), String> {
    let spawned_ns: u128 = args
        .get("--spawned-ns")?
        .parse()
        .map_err(|e| format!("--spawned-ns: {e}"))?;
    let root = Path::new(args.get("--root")?);
    let params = MatrixParams::paper();
    let setup_s = unix_ns().saturating_sub(spawned_ns) as f64 / 1e9;
    if args.flag("--setup-only") {
        println!("{}", Json::obj().field("setup_s", setup_s).build());
        return Ok(());
    }
    let started = Instant::now();
    let summary = run_all(&params, THREADS, &|_| {});
    let wall_s = started.elapsed().as_secs_f64();
    let drifted = drift(root, &summary);
    let artifacts: Vec<(String, Json)> = summary
        .artifacts
        .iter()
        .map(|a| (a.spec.id.to_string(), Json::from(a.wall.as_secs_f64())))
        .collect();
    let doc = Json::obj()
        .field("setup_s", setup_s)
        .field("wall_s", wall_s)
        .field("warm_s", summary.warm_wall.as_secs_f64())
        .field("warm_jobs", summary.warm_jobs)
        .field("artifacts", Json::Object(artifacts))
        .field("peak_parallelism", summary.parallelism.peak)
        .field("cache_hits", summary.cache.hits)
        .field("cache_misses", summary.cache.misses)
        .field("cache_evictions", summary.cache.evictions)
        .field("peak_rss_mb", crate::peak_rss_mb("/proc/self/status")?)
        .field("drift", Json::array(drifted.iter().map(String::as_str)))
        .build();
    println!("{doc}");
    Ok(())
}

/// Spawn one `report-once` child and parse its JSON line.
pub fn spawn_once(root: &Path, setup_only: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("report-once")
        .arg("--root")
        .arg(root)
        .arg("--spawned-ns")
        .arg(unix_ns().to_string());
    if setup_only {
        command.arg("--setup-only");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning report child: {e}"))?;
    if !output.status.success() {
        return Err(format!("report child failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or("");
    qcirc::json::parse(line).map_err(|e| format!("report child printed {line:?}: {e}"))
}

pub fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("report child result has no `{key}`"))
}

/// Median set-up time over `SETUPS` set-up-only children.
fn setup_median(root: &Path) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..SETUPS {
        times.push(num(&spawn_once(root, true)?, "setup_s")?);
    }
    Ok(median(&times).expect("set-up samples"))
}

/// `report-paper`: fresh-process pipeline runs until `seconds` have
/// passed (at least one), with a calibration sample before the set-up and
/// after it and every run. Returns the measurement and every run's result.
pub fn run_report(ctx: &crate::Ctx, seconds: f64) -> Result<(Measured, Vec<Json>), String> {
    let mut calibration = Calibration::default();
    calibration.sample();
    let setup_s = setup_median(&ctx.root)?;
    calibration.sample();
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut failed: u32 = 0;
    let mut first_error = None;
    while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let run = spawn_once(&ctx.root, false)?;
        calibration.sample();
        let drifted: Vec<&str> = run
            .get("drift")
            .and_then(Json::as_array)
            .map(|d| d.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        if !drifted.is_empty() {
            failed += 1;
            first_error.get_or_insert(format!("report drift in {}", drifted.join(", ")));
        }
        runs.push(run);
    }
    let series =
        |key: &str| -> Result<Vec<f64>, String> { runs.iter().map(|r| num(r, key)).collect() };
    let walls = series("wall_s")?;
    let warms = series("warm_s")?;
    let rss = series("peak_rss_mb")?;
    // Per run: the slowest artifact (Figure 12's optimizer sweep, the
    // critical path of the artifact phase) and the summed time of all the
    // others (the work the second worker does beside it).
    let mut critical = Vec::new();
    let mut others = Vec::new();
    for run in &runs {
        let times: Vec<f64> = run
            .get("artifacts")
            .and_then(Json::as_object)
            .ok_or("report child result has no artifact times")?
            .iter()
            .filter_map(|(_, t)| t.as_f64())
            .collect();
        let slowest = times.iter().copied().fold(0.0, f64::max);
        critical.push(slowest);
        others.push(times.iter().sum::<f64>() - slowest);
    }
    let med = |xs: &[f64]| median(xs).expect("at least one run");
    let raw = E2e {
        setup_s,
        peak_rss_mb: med(&rss),
        ops_per_s: 1.0 / med(&walls),
        op_p50_ms: med(&walls) * 1e3,
        op_tail_ms: med(&critical) * 1e3,
        aux_p50_ms: med(&warms) * 1e3,
        aux_tail_ms: med(&others) * 1e3,
    };
    let mut named = Named::default();
    named.push("setup_s", setup_s, "s", SETUPS);
    named.push("peak_rss_mb", raw.peak_rss_mb, "MiB", runs.len());
    named.push(
        "failed_ratio",
        f64::from(failed) / runs.len() as f64,
        "ratio",
        runs.len(),
    );
    named.push("report_s", raw.op_p50_ms / 1e3, "s", runs.len());
    let measured = Measured {
        attempted: runs.len() as u64,
        failed: u64::from(failed),
        first_error,
        raw,
        calibration,
        named,
        server_metrics: None,
        round_trip_us: None,
    };
    Ok((measured, runs))
}
