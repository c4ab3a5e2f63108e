//! Benchmark suite and experiment harness for the Spire reproduction.
//!
//! * [`programs`] — the paper's Table-1 benchmark programs in Tower
//!   (list, queue, string, and radix-tree-set operations), plus
//!   `length-simplified`.
//! * [`polyfit`] — exact rational polynomial fitting, reproducing the
//!   paper's "lowest-degree polynomial that exactly fits" methodology.
//! * [`experiments`] — one regenerator per table and figure of the
//!   evaluation (Figures 2, 12, 15, 24; Tables 1–6; Appendix A).
//! * [`report`] — rendering and serialization of figures and tables as
//!   plain text, Markdown, and JSON.
//! * [`runner`] — the parallel artifact pipeline: warms the compile
//!   cache across the experiment matrix on scoped worker threads, then
//!   regenerates every artifact (`spire-cli report` is a thin shell over
//!   it; `docs/EXPERIMENTS.md` is the artifact index).
//! * [`sim_bench`] — the simulator throughput trajectory: warm gates/sec
//!   per workload, serialized as `BENCH_sim.json` with the pinned
//!   pre-batching baseline by the `sim_throughput` bench.
//!
//! Timings of the optimizer passes, the compiler stages and the report
//! pipeline are measured by the repository's benchmark, `perfbench/`.
//!
//! # Example
//!
//! ```no_run
//! // Regenerate Figure 2 (quadratic T vs linear MCX for `length`):
//! let report = bench_suite::experiments::fig2(2..=10);
//! println!("{}", report.render());
//!
//! // Or regenerate every artifact in parallel, with a warm cache:
//! use bench_suite::runner::{run_all, MatrixParams};
//! let summary = run_all(&MatrixParams::paper(), 4, &|_event| {});
//! assert_eq!(summary.artifacts.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod polyfit;
pub mod programs;
pub mod report;
pub mod runner;
pub mod sim_bench;
