//! The static verifier over the full paper benchmark suite.
//!
//! Acceptance gate for the analyses: all 12 benchmarks must verify with
//! zero diagnostics under both compilation strategies, and every compiled
//! T-count must land inside its statically predicted interval. Under the
//! full Spire configuration each report must also serialize exactly as the
//! benchmark's entry in the pinned `tests/golden/check_benchmarks.json`.

use spire::{check_source, CompileOptions};
use spire_repro::bench_suite::programs::all_benchmarks;
use spire_repro::qcirc::json::{self, Json};
use spire_repro::spire;
use spire_repro::tower::WordConfig;

/// The `report` entry of every benchmark in the golden file, serialized.
fn golden_reports() -> Vec<(String, String)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/check_benchmarks.json"
    );
    let text = std::fs::read_to_string(path).expect("read golden file");
    let doc = json::parse(&text).expect("golden file is JSON");
    doc.get("benchmarks")
        .and_then(Json::as_array)
        .expect("golden file lists benchmarks")
        .iter()
        .map(|row| {
            let name = row.get("name").and_then(Json::as_str).expect("name");
            let report = row.get("report").expect("report");
            (name.to_string(), report.to_string())
        })
        .collect()
}

fn bench_depth(constant: bool) -> i64 {
    if constant {
        0
    } else {
        3
    }
}

#[test]
fn all_benchmarks_verify_clean() {
    let golden = golden_reports();
    assert_eq!(golden.len(), all_benchmarks().len());
    for (options, pinned) in [
        (CompileOptions::baseline(), false),
        (CompileOptions::spire(), true),
    ] {
        for bench in all_benchmarks() {
            let report = check_source(
                &bench.source,
                bench.entry,
                bench_depth(bench.constant),
                WordConfig::paper_default(),
                &options,
            )
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", bench.name));
            if pinned {
                let (_, expected) = golden
                    .iter()
                    .find(|(name, _)| name == bench.name)
                    .unwrap_or_else(|| panic!("{} missing from the golden file", bench.name));
                assert_eq!(
                    &report.to_json().to_string(),
                    expected,
                    "{}: report drifted from tests/golden/check_benchmarks.json",
                    bench.name
                );
            }
            assert!(
                report.diagnostics.is_empty(),
                "{}: unexpected diagnostics: {:#?}",
                bench.name,
                report.diagnostics
            );
            assert!(
                !report.functions.is_empty(),
                "{}: missing T-bound rows",
                bench.name
            );
            for row in &report.functions {
                assert!(
                    row.holds(),
                    "{}: function `{}` compiled to {} T gates, outside [{}, {}]",
                    bench.name,
                    row.name,
                    row.actual,
                    row.min,
                    row.max
                );
            }
        }
    }
}
