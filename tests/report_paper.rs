//! Tier-1 pin of the paper-scale evaluation: a `MatrixParams::paper()`
//! run of the artifact pipeline must match the committed `reports/`
//! snapshot, compared by the same `check_reports` that
//! `spire-cli report --check` runs (every Markdown cell, timing cells
//! normalized, and the index exactly). The Markdown carries every gate
//! and T count the JSON does, so a change that moves one at any paper
//! depth fails here. Nothing is written.
//!
//! This is its own test binary so its run does not share
//! `spire::CompileCache::global()` with `report_pipeline`'s cache
//! accounting.

use std::path::Path;

use bench_suite::report::check_reports;
use bench_suite::runner::{default_threads, run_all, MatrixParams};

#[test]
fn paper_scale_run_matches_committed_reports() {
    let summary = run_all(&MatrixParams::paper(), default_threads(), &|_| {});
    let snapshot = Path::new(env!("CARGO_MANIFEST_DIR")).join("reports");
    if let Err(drift) = check_reports(&snapshot, &summary) {
        panic!("{drift}");
    }
}
