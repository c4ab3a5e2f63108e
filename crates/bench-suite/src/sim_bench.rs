//! Machine-readable simulator performance trajectory (`BENCH_sim.json`).
//!
//! The sparse simulator is the workhorse of every equivalence suite in
//! the workspace (the differential harness, the analyzer ground-truth
//! checks, `/simulate`), so whole-circuit throughput is a first-class
//! performance surface. This module measures gates/second on three
//! workloads — the differential harness's structured 24-qubit state on
//! `u64` keys, the same shape at 192 qubits on 256-bit keys, and a
//! support-heavy Hadamard workload that stresses branching — and
//! serializes the result together with the pinned pre-batching baseline,
//! so every future PR compares against a recorded trajectory.
//!
//! Methodology: every workload is **warmed first** (untimed runs until a
//! fixed warm-up budget elapses) and then timed over a fixed rep count.
//! The warm-up matters: a cold first measurement right after a large
//! allocation-heavy phase reads 2× slower than steady state, which is
//! cold-start cost, not simulation cost — the same distinction the
//! serving load test draws with its warmup section.
//!
//! The `sim_throughput` bench (a plain `main`, run with `cargo bench -p
//! bench-suite --bench sim_throughput`) writes the file at the
//! repository root; its `--quick` mode is what CI runs and uploads.

use std::time::{Duration, Instant};

use qcirc::sim::{Simulator, SparseState, SparseState256};
use qcirc::{Circuit, Gate};

use qcirc::json::quoted;

/// One measured workload: warm gates/second of whole-circuit sparse
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMeasurement {
    /// Workload name (`structured-24`, `structured-192`, …).
    pub workload: &'static str,
    /// Register width.
    pub qubits: u32,
    /// Gates per run of the workload circuit.
    pub gates: u64,
    /// Timed repetitions the average is taken over.
    pub reps: u32,
    /// Warm wall-clock seconds per whole-circuit run (averaged).
    pub seconds_per_run: f64,
}

impl SimMeasurement {
    /// Gates applied per second of simulation.
    pub fn gates_per_second(&self) -> f64 {
        if self.seconds_per_run > 0.0 {
            self.gates as f64 / self.seconds_per_run
        } else {
            f64::INFINITY
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"qubits\":{},\"gates\":{},\"reps\":{},\
             \"seconds_per_run\":{:.9},\"gates_per_second\":{:.0}}}",
            quoted(self.workload),
            self.qubits,
            self.gates,
            self.reps,
            self.seconds_per_run,
            self.gates_per_second(),
        )
    }
}

/// The commit whose timings are pinned as [`baseline`]: the last commit
/// before the batched wide-key execution engine, when `run` applied
/// gates one at a time through `apply_view`.
pub const BASELINE_COMMIT: &str = "01f6b8f";

/// The pre-batching measurement (gate-at-a-time `run`, `u64` keys only),
/// taken on the reference machine under the same warm methodology the
/// fresh run uses. One row: the engine had no wide-key or support-heavy
/// configuration to measure.
pub fn baseline() -> Vec<SimMeasurement> {
    vec![SimMeasurement {
        workload: "structured-24",
        qubits: 24,
        gates: 95,
        reps: 200_000,
        seconds_per_run: 6.710e-6,
    }]
}

/// The workload the acceptance criterion tracks: the differential
/// harness's structured state at its 24-qubit floor.
pub const HEADLINE: &str = "structured-24";

/// Entangling ladder + T layer + unwind + NOT layer: ~4n gates, support
/// never above 2 — the state shape compiled Tower programs actually
/// reach, and the shape the differential harness simulates all day.
pub fn structured_workload(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::h(0));
    for q in 1..n {
        c.push(Gate::cnot(q - 1, q));
    }
    for q in 0..n {
        c.push(Gate::T(q));
    }
    for q in (1..n).rev() {
        c.push(Gate::cnot(q - 1, q));
    }
    for q in 0..n {
        c.push(Gate::x(q));
    }
    c
}

/// Hadamard-heavy workload: `h` Hadamards fan the support out to 2ʰ,
/// a CNOT ladder entangles, a T layer phases, and a second Hadamard
/// layer interferes half the branches — the branching shape that
/// stresses batch expansion rather than key plumbing.
pub fn support_heavy_workload(n: u32, h: u32) -> Circuit {
    assert!(h < n, "need a non-Hadamard qubit to entangle into");
    let mut c = Circuit::new(n);
    for q in 0..h {
        c.push(Gate::h(q));
    }
    for q in 0..h {
        c.push(Gate::cnot(q, (q + h) % n));
    }
    for q in 0..h {
        c.push(Gate::T(q));
    }
    for q in 0..h / 2 {
        c.push(Gate::h(q));
    }
    c
}

/// Warm the workload until `budget` elapses, then time `reps` runs.
fn measure<S: Simulator>(
    workload: &'static str,
    circuit: &Circuit,
    reps: u32,
    budget: Duration,
) -> SimMeasurement {
    let one_run = || {
        let mut state = S::zeroed(circuit.num_qubits()).expect("workload fits the backend");
        state.run(circuit).expect("workload runs");
        std::hint::black_box(state.num_qubits());
    };
    let warm_until = Instant::now() + budget;
    while Instant::now() < warm_until {
        one_run();
    }
    let start = Instant::now();
    for _ in 0..reps {
        one_run();
    }
    let seconds_per_run = start.elapsed().as_secs_f64() / f64::from(reps);
    SimMeasurement {
        workload,
        qubits: circuit.num_qubits(),
        gates: circuit.len() as u64,
        reps,
        seconds_per_run,
    }
}

/// The measured trajectory of one run plus the pinned baseline.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// `"full"` or `"quick"` (reduced rep counts for CI smoke runs).
    pub mode: &'static str,
    /// Fresh measurements from this run.
    pub entries: Vec<SimMeasurement>,
}

impl SimBenchReport {
    /// Speedup of the [`HEADLINE`] workload versus the recorded
    /// baseline.
    pub fn headline_speedup(&self) -> Option<f64> {
        let find = |entries: &[SimMeasurement]| {
            entries
                .iter()
                .find(|e| e.workload == HEADLINE)
                .map(|e| e.seconds_per_run)
        };
        let base = find(&baseline())?;
        let now = find(&self.entries)?;
        (now > 0.0).then(|| base / now)
    }

    /// Serialize the trajectory (fresh run, baseline, headline speedup)
    /// as a JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self.entries.iter().map(SimMeasurement::to_json).collect();
        let base: Vec<String> = baseline().iter().map(SimMeasurement::to_json).collect();
        let headline = match self.headline_speedup() {
            Some(speedup) => format!(
                "{{\"workload\":{},\"speedup_vs_baseline\":{:.2}}}",
                quoted(HEADLINE),
                speedup
            ),
            None => "null".into(),
        };
        format!(
            "{{\"schema\":1,\"mode\":{},\"headline\":{},\
             \"baseline\":{{\"commit\":{},\"entries\":[{}]}},\
             \"current\":{{\"entries\":[{}]}}}}\n",
            quoted(self.mode),
            headline,
            quoted(BASELINE_COMMIT),
            base.join(","),
            entries.join(","),
        )
    }
}

/// Measure the simulator matrix. `quick` shrinks the rep counts and
/// warm-up budgets for CI smoke runs; both modes measure the same three
/// workloads, including [`HEADLINE`].
pub fn run(quick: bool) -> SimBenchReport {
    let (mode, scale) = if quick { ("quick", 10) } else { ("full", 1) };
    let budget = Duration::from_millis(if quick { 40 } else { 200 });
    let entries = vec![
        measure::<SparseState>(
            "structured-24",
            &structured_workload(24),
            200_000 / scale,
            budget,
        ),
        measure::<SparseState256>(
            "structured-192",
            &structured_workload(192),
            20_000 / scale,
            budget,
        ),
        measure::<SparseState>(
            "support-heavy-20",
            &support_heavy_workload(20, 12),
            20 / scale,
            budget,
        ),
    ];
    SimBenchReport { mode, entries }
}

/// Write a report as `BENCH_sim.json` in `dir`, returning the path.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_json(
    report: &SimBenchReport,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("BENCH_sim.json");
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_measures_every_workload() {
        let report = run(true);
        assert_eq!(report.mode, "quick");
        assert_eq!(report.entries.len(), 3);
        for entry in &report.entries {
            assert!(
                entry.seconds_per_run > 0.0,
                "{} took no time",
                entry.workload
            );
            assert!(entry.gates > 0);
            assert!(entry.gates_per_second() > 0.0);
        }
        let speedup = report.headline_speedup().expect("headline measured");
        assert!(speedup > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\":1"));
        assert!(json.contains(BASELINE_COMMIT));
        assert!(json.contains("\"speedup_vs_baseline\""));
    }

    #[test]
    fn workloads_have_the_advertised_shapes() {
        let structured = structured_workload(24);
        assert_eq!(structured.len(), 95);
        let mut state = SparseState::basis(24, 0).unwrap();
        state.run(&structured).unwrap();
        assert!(state.support() <= 2);

        let heavy = support_heavy_workload(20, 12);
        let mut state = SparseState::basis(20, 0).unwrap();
        state.run(&heavy).unwrap();
        assert!(state.support() >= 1 << 11, "support {}", state.support());
        assert!((state.norm() - 1.0).abs() < 1e-9);
    }
}
