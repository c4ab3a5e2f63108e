//! Benchmark suite and experiment harness for the Spire reproduction.
//!
//! * [`programs`] — the paper's Table-1 benchmark programs in Tower
//!   (list, queue, string, and radix-tree-set operations), plus
//!   `length-simplified`.
//! * [`polyfit`] — exact rational polynomial fitting, reproducing the
//!   paper's "lowest-degree polynomial that exactly fits" methodology.
//! * [`experiments`] — one regenerator per table and figure of the
//!   evaluation (Figures 2, 12, 15, 24; Tables 1–6; Appendix A).
//! * [`report`] — figures and tables as Markdown and JSON, and the
//!   `reports/` snapshot: writing it and checking a run against it.
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
//! use bench_suite::runner::{artifact_specs, run_all, MatrixParams};
//!
//! // Regenerate Figure 2 (quadratic T vs linear MCX for `length`) at
//! // paper scale, as `spire-cli experiments fig2` prints it:
//! let fig2 = artifact_specs()[0].run(&MatrixParams::paper());
//! println!("{}", fig2.to_markdown());
//!
//! // Or regenerate every artifact in parallel, with a warm cache:
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
