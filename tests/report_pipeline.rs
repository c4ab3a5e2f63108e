//! End-to-end tests of the artifact pipeline (`bench_suite::runner`):
//! the full artifact set regenerates on multiple worker threads, a
//! second run in the same process is served from the compile cache and
//! completes measurably faster. The paper-scale run is compared with the
//! committed `reports/` by `report_paper.rs`.
//!
//! The two runs share `spire::CompileCache::global()`, so they live in
//! one `#[test]` to keep the hit/miss accounting deterministic (other
//! test binaries have their own process and their own global cache).

use std::sync::atomic::{AtomicUsize, Ordering};

use bench_suite::report::{normalize_timings, Artifact};
use bench_suite::runner::{artifact_specs, run_all, MatrixParams, RunnerEvent};

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
    let second = run_all(&params, threads, &on_event);

    // --- Completeness: every spec produced its artifact, in order. ---
    let specs = artifact_specs();
    assert_eq!(first.artifacts.len(), specs.len());
    assert_eq!(events.load(Ordering::Relaxed), 2 * specs.len());
    for (result, spec) in first.artifacts.iter().zip(&specs) {
        assert_eq!(result.artifact.id(), spec.id);
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
