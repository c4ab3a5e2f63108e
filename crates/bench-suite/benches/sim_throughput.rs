//! Dense vs. sparse simulation throughput, and the `BENCH_sim.json`
//! perf trajectory.
//!
//! The headline workload is the kind of state Tower programs actually
//! reach: a GHZ-style entangling ladder, a T-phase layer, and the
//! ladder's unwind — wide superposition structure but tiny support. The
//! dense backend pays O(2ⁿ) per gate regardless; the sparse backend pays
//! O(support). At the differential harness's 24-qubit floor the gap is
//! measured in orders of magnitude, which is what makes paper-sized
//! equivalence checking tractable.
//!
//! The target prints an explicit gates/sec comparison (the
//! `sim_throughput summary` block) and writes the machine-readable
//! trajectory `BENCH_sim.json` at the repo root (warm gates/sec per
//! workload, with the pinned pre-batching baseline; see
//! `bench_suite::sim_bench`). Pass `--quick` for the reduced rep counts
//! CI runs and uploads.

use std::time::Instant;

use bench_suite::sim_bench::{self, structured_workload};
use qcirc::sim::{SparseState, StateVec};
use qcirc::Circuit;

fn run_dense(circuit: &Circuit) -> f64 {
    let mut state = StateVec::basis(circuit.num_qubits(), 0).expect("dense fits");
    state.run(circuit).expect("runs");
    state.norm()
}

fn run_sparse(circuit: &Circuit) -> f64 {
    let mut state = SparseState::basis(circuit.num_qubits(), 0).expect("sparse fits");
    state.run(circuit).expect("runs");
    state.norm()
}

/// One-shot dense-vs-sparse gates/sec comparison. The sparse side warms
/// up first (`sim_bench`'s methodology); the dense side is so slow that
/// a single cold run is already representative.
fn print_summary(n: u32, quick: bool) {
    let circuit = structured_workload(n);
    let gates = circuit.len() as f64;

    let t = Instant::now();
    let norm = run_dense(&circuit);
    let dense_secs = t.elapsed().as_secs_f64();
    assert!((norm - 1.0).abs() < 1e-9);

    let reps = if quick { 20_000 } else { 200_000 };
    for _ in 0..reps / 10 {
        std::hint::black_box(run_sparse(&circuit));
    }
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(run_sparse(&circuit));
    }
    let sparse_secs = t.elapsed().as_secs_f64() / f64::from(reps);

    let dense_gps = gates / dense_secs;
    let sparse_gps = gates / sparse_secs;
    println!("\nsim_throughput summary ({n} qubits, {gates} gates, structured state)");
    println!("  dense  : {dense_gps:>14.0} gates/sec");
    println!("  sparse : {sparse_gps:>14.0} gates/sec");
    println!("  speedup: {:>14.1}x", sparse_gps / dense_gps);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_summary(24, quick);
    let report = sim_bench::run(quick);
    // Bench binaries run with the package dir as cwd; write at the
    // workspace root, next to the other BENCH_*.json trajectories.
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists");
    match sim_bench::write_json(&report, repo_root) {
        Ok(path) => {
            println!(
                "\nwrote {} ({} mode, {} workloads)",
                path.display(),
                report.mode,
                report.entries.len()
            );
            if let Some(speedup) = report.headline_speedup() {
                println!(
                    "headline: {} runs {speedup:.1}x the {} baseline",
                    sim_bench::HEADLINE,
                    sim_bench::BASELINE_COMMIT,
                );
            }
        }
        Err(e) => eprintln!("could not write BENCH_sim.json: {e}"),
    }
}
