//! The repository's benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench run --workload <serve-warm|serve-cold|report-paper> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads the committed `reports/` as its
//! oracle and writes under `.bench_out/`). The last line of standard output
//! is the result object; the line before it carries the per-workload
//! metrics with sample counts, the raw values, the calibration samples and
//! machine provenance. `serve` and `report-once` are the child processes
//! the workloads spawn; `calibrate` prints one calibration sample.

mod calib;
mod client;
mod oracle;
mod replay;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;

use qcirc::json::Json;

use oracle::Oracle;

pub const WORKLOADS: [&str; 3] = ["serve-warm", "serve-cold", "report-paper"];

/// `--flag value` command-line arguments.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// What every workload's code sees.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub root: PathBuf,
    /// Scratch space for this run (server cache directories), removed at
    /// the end.
    pub out_dir: PathBuf,
    pub oracle: Oracle,
}

/// Metrics under their per-workload names, with sample counts.
#[derive(Debug, Default)]
pub struct Named(Vec<(String, f64, &'static str, usize)>);

impl Named {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name.to_string(), value, unit, samples));
    }

    pub fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit, samples)| {
                    let entry = Json::obj()
                        .field("value", *value)
                        .field("unit", *unit)
                        .field("samples", *samples)
                        .build();
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// The result metrics of one run, in the contract's vocabulary: every
/// workload has a primary operation (`op_*`) and a secondary one (`aux_*`);
/// see README.md for what they are per workload.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub aux_p50_ms: f64,
    pub aux_tail_ms: f64,
}

impl E2e {
    /// Timings multiplied by `factor`, rates divided by it.
    fn scaled(self, factor: f64) -> E2e {
        E2e {
            setup_s: self.setup_s * factor,
            peak_rss_mb: self.peak_rss_mb,
            ops_per_s: self.ops_per_s / factor,
            op_p50_ms: self.op_p50_ms * factor,
            op_tail_ms: self.op_tail_ms * factor,
            aux_p50_ms: self.aux_p50_ms * factor,
            aux_tail_ms: self.aux_tail_ms * factor,
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("op_p50_ms", self.op_p50_ms, "ms"),
            ("op_tail_ms", self.op_tail_ms, "ms"),
            ("aux_p50_ms", self.aux_p50_ms, "ms"),
            ("aux_tail_ms", self.aux_tail_ms, "ms"),
        ]
    }
}

/// One untraced run of a workload.
#[derive(Debug)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// As measured; the result scales it by `calibration`.
    pub raw: E2e,
    pub calibration: calib::Calibration,
    pub named: Named,
    /// The server's `/metrics` document at the end of the run.
    pub server_metrics: Option<Json>,
    /// Median client round-trip of `/compile`, µs.
    pub round_trip_us: Option<f64>,
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Machine and build provenance recorded with every result.
fn provenance(root: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::obj()
        .field("cores", cores)
        .field("cpu", cpu.as_str())
        .field(
            "rustc",
            command_output("rustc", &["-V"], root)
                .unwrap_or_else(|| "unknown".into())
                .as_str(),
        )
        .field(
            "git",
            command_output("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| "unknown (not a git checkout)".into())
                .as_str(),
        )
        .build()
}

pub fn metrics_json(metrics: &[(impl AsRef<str>, f64, &str)]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_ref().to_string(),
                    Json::obj()
                        .field("value", *value)
                        .field("unit", *unit)
                        .build(),
                )
            })
            .collect(),
    )
}

fn run_main(args: &Args) -> Result<(), String> {
    let workload = args.get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = args
        .get("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = args
        .get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match args.get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let oracle = Oracle::load(&root)?;
    let results = root.join(".bench_out");
    let out_dir = results.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        root: root.clone(),
        out_dir: out_dir.clone(),
        oracle,
    };
    let outcome = if traced {
        replay::run_traced(&ctx, seconds)
    } else {
        run_untraced(&ctx, seconds)
    };
    let _ = std::fs::remove_dir_all(&out_dir);
    let (detail, last) = outcome?;
    let detail = Json::obj()
        .field("workload", workload.as_str())
        .field("seed", seed)
        .field("seconds", seconds)
        .field("trace", traced)
        .field("provenance", provenance(&root))
        .field("detail", detail)
        .build();
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    std::fs::write(results.join(format!("{stem}.json")), format!("{detail}\n"))
        .map_err(|e| format!("writing result: {e}"))?;
    println!("{detail}");
    println!("{last}");
    Ok(())
}

/// The result object: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .field("correct", failed == 0)
        .field("attempted", attempted.max(1))
        .field("failed", failed)
        .field("metrics", metrics)
        .build()
}

fn run_untraced(ctx: &Ctx, seconds: f64) -> Result<(Json, Json), String> {
    let measured = match ctx.workload.as_str() {
        "serve-warm" => serve::run_warm(ctx, seconds)?,
        "serve-cold" => serve::run_cold(ctx, seconds)?,
        _ => report::run_report(ctx, seconds)?.0,
    };
    if let Some(error) = &measured.first_error {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {error}",
            measured.failed, measured.attempted
        );
    }
    let calibration = Json::obj()
        .field("reference_s", calib::REFERENCE_S)
        .field("scale", measured.calibration.scale())
        .field(
            "kernels_s",
            Json::array(measured.calibration.kernels_s().iter().copied()),
        )
        .build();
    let detail = Json::obj()
        .field("named_metrics", measured.named.to_json())
        .field("raw_metrics", metrics_json(&measured.raw.metrics()))
        .field("calibration", calibration)
        .field(
            "first_error",
            measured.first_error.as_deref().map(Json::from),
        )
        .build();
    let last = result_line(
        measured.attempted,
        measured.failed,
        metrics_json(&measured.raw.scaled(measured.calibration.scale()).metrics()),
    );
    Ok((detail, last))
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("run") => run_main(&args),
        Some("serve") => serve::serve_main(&args),
        Some("report-once") => report::report_once_main(&args),
        Some("calibrate") => {
            println!("{}", calib::measure());
            Ok(())
        }
        _ => {
            Err("usage: perfbench run --workload <w> --seed <n> --seconds <s> --trace <0|1>".into())
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
