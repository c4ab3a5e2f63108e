//! End-to-end tests of the artifact pipeline (`bench_suite::runner`):
//! the full artifact set regenerates on multiple worker threads, a
//! second run in the same process is served from the compile cache and
//! completes measurably faster, and the quick matrix's gate counts equal
//! the committed paper-scale snapshot (`reports/`) wherever they overlap.
//!
//! The two runs share `spire::CompileCache::global()`, so they live in
//! one `#[test]` to keep the hit/miss accounting deterministic (other
//! test binaries have their own process and their own global cache).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use bench_suite::report::{normalize_timings, Artifact};
use bench_suite::runner::{artifact_specs, run_all, MatrixParams, RunSummary, RunnerEvent};
use qcirc::json::{self, Json};

/// Figures whose quick sweep (n = 2..=5) overlaps the committed
/// paper-scale sweep (n = 2..=10).
const OVERLAPPING_FIGURES: [&str; 5] = ["fig2", "fig12", "fig15a", "fig15b", "fig24"];

/// The committed `reports/<id>.json`, parsed.
fn committed(id: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reports")
        .join(format!("{id}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The rows whose first cell is one of `keys`, cut to their first
/// `cells` cells (Table 5's last column is a wall-clock time).
fn rows_keyed<'a>(
    rows: impl IntoIterator<Item = Vec<&'a str>>,
    keys: &[&str],
    cells: usize,
) -> Vec<Vec<&'a str>> {
    rows.into_iter()
        .filter(|row| keys.contains(&row[0]))
        .map(|row| row.into_iter().take(cells).collect())
        .collect()
}

/// Every point of the overlapping figures and the overlapping rows of
/// Tables 4 and 5 equal the committed snapshot: a pass or stage change that moves a
/// gate count at these depths fails here, not only in `report --check`.
fn assert_matches_committed_reports(summary: &RunSummary) {
    let artifact = |id: &str| {
        &summary
            .artifacts
            .iter()
            .find(|r| r.spec.id == id)
            .unwrap_or_else(|| panic!("missing artifact {id}"))
            .artifact
    };
    for id in OVERLAPPING_FIGURES {
        let Artifact::Figure(fig) = artifact(id) else {
            panic!("{id} should be a figure");
        };
        let doc = committed(id);
        let pinned = doc.get("series").and_then(Json::as_array).expect("series");
        let pinned_labels: Vec<&str> = pinned
            .iter()
            .map(|s| s.get("label").and_then(Json::as_str).expect("label"))
            .collect();
        let fresh_labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(fresh_labels, pinned_labels, "{id}: series labels differ");
        for (series, pinned) in fig.series.iter().zip(pinned) {
            assert!(
                !series.points.is_empty(),
                "{id} {}: no points",
                series.label
            );
            let points: Vec<(i64, u64)> = pinned
                .get("points")
                .and_then(Json::as_array)
                .expect("points")
                .iter()
                .map(|p| {
                    let n = p.item(0).and_then(Json::as_i64).expect("n");
                    (n, p.item(1).and_then(Json::as_u64).expect("count"))
                })
                .collect();
            // The quick sweep starts where the paper's does, so its points
            // are a prefix of the committed ones.
            assert_eq!(
                Some(&series.points[..]),
                points.get(..series.points.len()),
                "{id} {}: fresh vs committed points",
                series.label
            );
        }
    }

    // Table 4 at depth 2 (the quick matrix's other depth is 3, the
    // paper's 10) and Table 5 at n = 1..=2, without its timing column.
    for (id, keys, cells) in [("table4", &["2"][..], 8), ("table5", &["1", "2"][..], 5)] {
        let Artifact::Table(table) = artifact(id) else {
            panic!("{id} should be a table");
        };
        let doc = committed(id);
        let pinned = doc.get("rows").and_then(Json::as_array).expect("rows");
        let pinned = pinned.iter().map(|row| {
            let cells = row.as_array().expect("row");
            cells.iter().map(|c| c.as_str().expect("cell")).collect()
        });
        let fresh = table
            .rows
            .iter()
            .map(|row| row.iter().map(String::as_str).collect());
        let fresh = rows_keyed(fresh, keys, cells);
        assert!(!fresh.is_empty(), "{id} has no rows keyed {keys:?}");
        assert_eq!(
            fresh,
            rows_keyed(pinned, keys, cells),
            "{id} rows keyed {keys:?} differ"
        );
    }
}

#[test]
fn pipeline_is_parallel_cached_and_complete() {
    let params = MatrixParams::quick();
    let threads = 4;
    let events = AtomicUsize::new(0);
    let on_event = |event: RunnerEvent| {
        if let RunnerEvent::ArtifactDone { .. } = event {
            events.fetch_add(1, Ordering::Relaxed);
        }
    };

    let first = run_all(&params, threads, &on_event);
    assert_matches_committed_reports(&first);
    let second = run_all(&params, threads, &on_event);

    // --- Completeness: every spec produced its artifact, in order. ---
    let specs = artifact_specs();
    assert_eq!(first.artifacts.len(), specs.len());
    assert_eq!(events.load(Ordering::Relaxed), 2 * specs.len());
    for (result, spec) in first.artifacts.iter().zip(&specs) {
        assert_eq!(result.artifact.id(), spec.id);
        assert!(
            !result.artifact.render().is_empty(),
            "{} rendered empty",
            spec.id
        );
        // Markdown and JSON serializations carry the artifact id.
        assert!(result.artifact.to_markdown().contains(spec.id));
        assert!(result.artifact.to_json().contains(spec.id));
    }

    // --- Parallelism: the matrix ran on more than one worker. ---
    assert_eq!(first.threads, threads);
    assert!(first.warm_jobs > 50, "warm matrix: {}", first.warm_jobs);
    assert!(
        first.parallelism.workers_engaged > 1,
        "expected >1 engaged worker, got {:?}",
        first.parallelism
    );

    // --- Caching: the first run compiles, the second run hits. ---
    assert!(
        first.cache.misses >= first.warm_jobs as u64,
        "first run should have compiled the warm matrix: {:?}",
        first.cache
    );
    assert_eq!(
        second.cache.misses, 0,
        "second run must be fully cached: {:?}",
        second.cache
    );
    assert!(second.cache.hits > 0, "second run saw no cache activity");

    // --- Speed: cache hits make the second run measurably faster. ---
    // Compilation dominates the cacheable work; the only recomputation in
    // the second run is the (uncached by design) Table 2 timing
    // experiment and the circuit-optimizer passes. Require a 1.5x
    // improvement — the observed ratio is far larger, but timing
    // assertions should leave slack for noisy CI machines.
    let speedup = first.wall.as_secs_f64() / second.wall.as_secs_f64().max(1e-9);
    assert!(
        speedup > 1.5,
        "second run not faster: first {:.3}s, second {:.3}s (speedup {speedup:.2}x)",
        first.wall.as_secs_f64(),
        second.wall.as_secs_f64()
    );

    // --- Determinism: both runs produced identical artifacts (modulo
    // wall-clock timing cells). ---
    for (a, b) in first.artifacts.iter().zip(&second.artifacts) {
        assert_eq!(
            normalize_timings(&a.artifact.to_markdown()),
            normalize_timings(&b.artifact.to_markdown()),
            "artifact {} differs between runs",
            a.spec.id
        );
    }

    // --- Shape spot-checks on the quick matrix: the paper's headline
    // results hold at reduced depth too. ---
    let by_id = |id: &str| {
        first
            .artifacts
            .iter()
            .find(|r| r.spec.id == id)
            .unwrap_or_else(|| panic!("missing artifact {id}"))
    };
    match &by_id("fig2").artifact {
        Artifact::Figure(fig) => {
            let t = &fig.series[0];
            let mcx = &fig.series[1];
            assert_eq!(t.asymptotic.as_deref(), Some("O(n^2)"), "{:?}", t.fit);
            assert_eq!(mcx.asymptotic.as_deref(), Some("O(n)"), "{:?}", mcx.fit);
        }
        other => panic!("fig2 should be a figure, got {other:?}"),
    }
    match &by_id("table1").artifact {
        Artifact::Table(table) => {
            assert_eq!(table.rows.len(), 12, "one row per benchmark");
        }
        other => panic!("table1 should be a table, got {other:?}"),
    }
}
