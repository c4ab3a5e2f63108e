//! Machine-readable optimizer performance trajectory
//! (`BENCH_optimizer.json`).
//!
//! The paper's Section 8.5 evaluation re-runs every circuit-optimizer
//! analogue over the benchmark matrix, so optimizer pass time is the
//! dominant cost of `spire report` once the compile cache is warm. This
//! module measures per-pass wall time and gate throughput on the paper's
//! two headline programs and serializes the result — together with the
//! pinned pre-refactor baseline — so every future PR can compare against
//! a recorded trajectory instead of folklore.
//!
//! The `optimizer_time` criterion bench target is the one writer of the
//! file at the repository root (its `--quick` mode is what CI runs and
//! uploads); `spire-cli report` leaves it alone.

use std::time::Instant;

use qopt::{
    AdjacentCancel, CircuitOptimizer, CliffordTResynth, GlobalResynth, Peephole, PhaseFoldLight,
    ToffoliCancel, ZxGraphLike,
};
use spire::{compile_source_cached, CompileOptions};
use tower::WordConfig;

use crate::programs::{LENGTH, LENGTH_SIMPLE};
use crate::report::json_string;

/// One measured optimizer pass over one compiled benchmark circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct PassMeasurement {
    /// Benchmark program name.
    pub benchmark: &'static str,
    /// Recursion depth the program was compiled at.
    pub depth: i64,
    /// Optimizer pass name (`CircuitOptimizer::name`).
    pub optimizer: &'static str,
    /// Wall-clock seconds for one `optimize` call.
    pub seconds: f64,
    /// Gates in the MCX-level input circuit.
    pub gates_in: u64,
    /// Gates in the optimized Clifford+T output circuit.
    pub gates_out: u64,
    /// T-count of the output circuit.
    pub t_count: u64,
}

impl PassMeasurement {
    /// Input gates processed per second of pass time.
    pub fn gates_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.gates_in as f64 / self.seconds
        } else {
            f64::INFINITY
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\":{},\"depth\":{},\"optimizer\":{},\"seconds\":{:.6},\
             \"gates_in\":{},\"gates_out\":{},\"t_count\":{},\"gates_per_second\":{:.1}}}",
            json_string(self.benchmark),
            self.depth,
            json_string(self.optimizer),
            self.seconds,
            self.gates_in,
            self.gates_out,
            self.t_count,
            self.gates_per_second(),
        )
    }
}

/// The commit whose timings are pinned as [`baseline`]: the last commit
/// before the footprint-indexed gate stream refactor.
pub const BASELINE_COMMIT: &str = "8a163cc";

/// The pre-refactor timings (boxed-gate-list circuits, `Vec::remove`
/// cancellation, `Vec::contains` commutation), measured on the reference
/// machine at the paper matrix. Gate counts are load-bearing — any drift
/// in `gates_out`/`t_count` against a fresh run means an optimizer
/// changed behavior, not just speed — while the seconds are a trajectory
/// anchor.
pub fn baseline() -> Vec<PassMeasurement> {
    let m = |benchmark, depth, optimizer, seconds, gates_in, gates_out, t_count| PassMeasurement {
        benchmark,
        depth,
        optimizer,
        seconds,
        gates_in,
        gates_out,
        t_count,
    };
    vec![
        m(
            "length-simplified",
            10,
            "adjacent-cancel",
            0.0200,
            800,
            69278,
            32172,
        ),
        m(
            "length-simplified",
            10,
            "peephole",
            0.0177,
            800,
            68578,
            32172,
        ),
        m(
            "length-simplified",
            10,
            "phase-fold",
            0.0314,
            800,
            54133,
            19252,
        ),
        m(
            "length-simplified",
            10,
            "zx-graphlike",
            0.0428,
            800,
            54133,
            19252,
        ),
        m(
            "length-simplified",
            10,
            "feynman-tocliffordt",
            0.1186,
            800,
            49451,
            14704,
        ),
        m(
            "length-simplified",
            10,
            "feynman-mctexpand",
            0.0076,
            800,
            11407,
            4492,
        ),
        m(
            "length-simplified",
            10,
            "global-resynth",
            0.2141,
            800,
            10307,
            3212,
        ),
        m(
            "length",
            10,
            "adjacent-cancel",
            0.2680,
            14420,
            831424,
            384160,
        ),
        m("length", 10, "peephole", 0.2646, 14420, 829048, 384160),
        m("length", 10, "phase-fold", 0.7403, 14420, 651684, 229564),
        m("length", 10, "zx-graphlike", 0.8583, 14420, 651684, 229564),
        m(
            "length",
            10,
            "feynman-tocliffordt",
            2.8655,
            14420,
            601472,
            179248,
        ),
        m(
            "length",
            10,
            "feynman-mctexpand",
            0.2433,
            14420,
            228630,
            84696,
        ),
        m("length", 10, "global-resynth", 5.6523, 14420, 206323, 56194),
    ]
}

/// The measured trajectory of one run plus the pinned baseline.
#[derive(Debug, Clone)]
pub struct OptBenchReport {
    /// `"paper"` (depth-10 matrix) or `"quick"` (reduced smoke matrix).
    pub mode: &'static str,
    /// Fresh measurements from this run.
    pub entries: Vec<PassMeasurement>,
}

/// The configuration the acceptance criterion tracks: the
/// unbounded-window resynthesis pass on the deepest benchmark.
pub const HEADLINE: (&str, i64, &str) = ("length", 10, "global-resynth");

impl OptBenchReport {
    /// Speedup of the headline configuration versus the recorded
    /// baseline, when this run measured it (`paper` mode only).
    pub fn headline_speedup(&self) -> Option<f64> {
        let find = |entries: &[PassMeasurement]| {
            entries
                .iter()
                .find(|e| (e.benchmark, e.depth, e.optimizer) == HEADLINE)
                .map(|e| e.seconds)
        };
        let base = find(&baseline())?;
        let now = find(&self.entries)?;
        (now > 0.0).then(|| base / now)
    }

    /// Serialize the trajectory (fresh run, baseline, headline speedup)
    /// as a JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self.entries.iter().map(PassMeasurement::to_json).collect();
        let base: Vec<String> = baseline().iter().map(PassMeasurement::to_json).collect();
        let headline = match self.headline_speedup() {
            Some(speedup) => format!(
                "{{\"benchmark\":{},\"depth\":{},\"optimizer\":{},\"speedup_vs_baseline\":{:.2}}}",
                json_string(HEADLINE.0),
                HEADLINE.1,
                json_string(HEADLINE.2),
                speedup
            ),
            None => "null".into(),
        };
        format!(
            "{{\"schema\":1,\"mode\":{},\"headline\":{},\
             \"baseline\":{{\"commit\":{},\"entries\":[{}]}},\
             \"current\":{{\"entries\":[{}]}}}}\n",
            json_string(self.mode),
            headline,
            json_string(BASELINE_COMMIT),
            base.join(","),
            entries.join(","),
        )
    }
}

fn optimizers() -> Vec<Box<dyn CircuitOptimizer>> {
    vec![
        Box::new(AdjacentCancel),
        Box::new(Peephole),
        Box::new(PhaseFoldLight),
        Box::new(ZxGraphLike),
        Box::new(CliffordTResynth),
        Box::new(ToffoliCancel),
        Box::new(GlobalResynth),
    ]
}

/// Measure the optimizer matrix: every fixed-strategy pass over the
/// headline benchmarks. `quick` shrinks the matrix (one program, depth 6)
/// for CI smoke runs; the full mode measures the paper's depth-10
/// configuration, including [`HEADLINE`].
pub fn run(quick: bool) -> OptBenchReport {
    let (mode, matrix): (&'static str, Vec<(&'static str, &str, &str, i64)>) = if quick {
        (
            "quick",
            vec![("length-simplified", LENGTH_SIMPLE, "length_simple", 6)],
        )
    } else {
        (
            "paper",
            vec![
                ("length-simplified", LENGTH_SIMPLE, "length_simple", 10),
                ("length", LENGTH, "length", 10),
            ],
        )
    };
    let mut entries = Vec::new();
    for (benchmark, source, entry, depth) in matrix {
        let compiled = compile_source_cached(
            source,
            entry,
            depth,
            WordConfig::paper_default(),
            &CompileOptions::baseline(),
        )
        .unwrap_or_else(|e| panic!("compiling {benchmark} at depth {depth}: {e}"));
        let circuit = compiled.emit();
        for optimizer in optimizers() {
            let start = Instant::now();
            let out = qopt::run_traced(optimizer.as_ref(), &circuit);
            let seconds = start.elapsed().as_secs_f64();
            entries.push(PassMeasurement {
                benchmark,
                depth,
                optimizer: optimizer.name(),
                seconds,
                gates_in: circuit.len() as u64,
                gates_out: out.len() as u64,
                t_count: out.clifford_t_counts().t_count(),
            });
        }
    }
    OptBenchReport { mode, entries }
}

/// Write a report as `BENCH_optimizer.json` in `dir`, returning the path.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_json(
    report: &OptBenchReport,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("BENCH_optimizer.json");
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_measures_every_optimizer_with_stable_counts() {
        let report = run(true);
        assert_eq!(report.mode, "quick");
        assert_eq!(report.entries.len(), 7);
        for entry in &report.entries {
            assert!(entry.seconds >= 0.0);
            assert!(entry.gates_in > 0);
            assert!(entry.gates_out > 0, "{} emitted nothing", entry.optimizer);
            assert!(entry.gates_per_second() > 0.0);
        }
        // Determinism of the counts (not the timings): a second run
        // produces the same circuit sizes.
        let again = run(true);
        for (a, b) in report.entries.iter().zip(&again.entries) {
            assert_eq!(
                (a.gates_out, a.t_count),
                (b.gates_out, b.t_count),
                "{}",
                a.optimizer
            );
        }
        // Quick mode has no depth-10 headline measurement.
        assert!(report.headline_speedup().is_none());
        assert!(report.to_json().contains("\"headline\":null"));
    }

    #[test]
    fn json_embeds_baseline_and_current() {
        let report = OptBenchReport {
            mode: "paper",
            entries: vec![PassMeasurement {
                benchmark: "length",
                depth: 10,
                optimizer: "global-resynth",
                seconds: 0.5,
                gates_in: 14420,
                gates_out: 206323,
                t_count: 56194,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":1"));
        assert!(json.contains(BASELINE_COMMIT));
        assert!(json.contains("\"speedup_vs_baseline\":11.30"), "{json}");
        assert!(json.contains("\"gates_per_second\""));
        // The baseline table carries the full pre-refactor matrix.
        assert_eq!(baseline().len(), 14);
    }
}
