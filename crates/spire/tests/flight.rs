//! Concurrency tests for the single-flight layer of the compile cache:
//! N threads requesting one `CacheKey` trigger exactly one underlying
//! compile, every thread receives the same shared compilation, and
//! failures reach every waiter without being cached.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spire::flight::{Served, SingleFlight};
use spire::{CompileCache, CompileOptions};
use tower::WordConfig;

const LENGTH: &str = r#"
type list = (uint, ptr<list>);

fun length[n](xs: ptr<list>, acc: uint) -> uint {
    with {
        let is_empty <- xs == null;
    } do if is_empty {
        let out <- acc;
    } else with {
        let temp <- default<list>;
        *xs <-> temp;
        let next <- temp.2;
        let r <- acc + 1;
    } do {
        let out <- length[n-1](next, r);
    }
    return out;
}
"#;

/// The mechanism-level guarantee, made deterministic: the leader's work
/// closure blocks until every other thread has registered as a follower
/// of the same flight, so all N calls provably overlap — and the work
/// still runs exactly once.
#[test]
fn n_concurrent_callers_run_the_work_exactly_once() {
    const THREADS: u64 = 8;
    let flight: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::new());
    let runs = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS as usize));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let flight = Arc::clone(&flight);
            let runs = Arc::clone(&runs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                flight.run(0xDEAD_BEEF, || {
                    // Hold the flight open until all other threads have
                    // coalesced onto it; then do the "work".
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while flight.stats().coalesced < THREADS - 1 {
                        assert!(Instant::now() < deadline, "followers never arrived");
                        std::thread::yield_now();
                    }
                    runs.fetch_add(1, Ordering::SeqCst) + 41
                })
            })
        })
        .collect();

    let results: Vec<(u64, Served)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(runs.load(Ordering::SeqCst), 1, "work must run exactly once");
    assert!(results.iter().all(|&(v, _)| v == 41));
    assert_eq!(
        results.iter().filter(|&&(_, s)| s == Served::Led).count(),
        1,
        "exactly one leader"
    );
    assert_eq!(
        results
            .iter()
            .filter(|&&(_, s)| s == Served::Coalesced)
            .count(),
        (THREADS - 1) as usize,
        "everyone else coalesces"
    );
    let stats = flight.stats();
    assert_eq!((stats.led, stats.coalesced), (1, THREADS - 1));
    assert_eq!(flight.in_flight(), 0, "table drains after the flight");
}

/// End-to-end over the real compiler: however the threads interleave,
/// the cache records exactly one compilation (miss) for the shared key,
/// and every thread holds the same `Arc`.
#[test]
fn concurrent_identical_requests_compile_once() {
    const THREADS: usize = 8;
    let compiler = Arc::new(CompileCache::new());
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let compiler = Arc::clone(&compiler);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                compiler
                    .get_or_compile(
                        LENGTH,
                        "length",
                        6,
                        WordConfig::paper_default(),
                        &CompileOptions::spire(),
                    )
                    .unwrap()
            })
        })
        .collect();

    let compiled: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for other in &compiled[1..] {
        assert!(
            Arc::ptr_eq(&compiled[0], other),
            "all threads share one compilation"
        );
    }
    let stats = compiler.stats();
    assert_eq!(stats.misses, 1, "exactly one underlying compile");
    assert_eq!(stats.entries, 1);
    let flights = compiler.flight_stats();
    // Conservation: every request was served from the cache (hit), led a
    // flight (which counts the miss — or a hit, if it raced a completed
    // flight), or coalesced onto one.
    assert_eq!(
        stats.hits + stats.misses + flights.coalesced,
        THREADS as u64
    );
}

/// Errors propagate to every waiter of the failing flight and are not
/// cached: the next request compiles (and fails) again.
#[test]
fn failures_reach_waiters_but_are_not_cached() {
    let compiler = CompileCache::new();
    for _ in 0..2 {
        let err = compiler
            .get_or_compile(
                "fun broken(",
                "broken",
                0,
                WordConfig::tiny(),
                &CompileOptions::baseline(),
            )
            .unwrap_err();
        assert_eq!(err.code(), "tower/parse");
    }
    assert!(compiler.is_empty());
    assert_eq!(
        compiler.flight_stats().led,
        2,
        "each failure led its own flight"
    );
}

/// The consistent-snapshot guarantee of `CompileCache::stats` under load:
/// hammer the cache from many threads while a reader polls, and require
/// every snapshot to be internally coherent (a counted hit implies a
/// visible entry).
#[test]
fn stats_snapshots_are_never_torn() {
    let compiler = Arc::new(CompileCache::new());
    let stop = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let compiler = Arc::clone(&compiler);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    compiler
                        .get_or_compile(
                            LENGTH,
                            "length",
                            2,
                            WordConfig::paper_default(),
                            &CompileOptions::baseline(),
                        )
                        .unwrap();
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(300);
        while Instant::now() < deadline {
            let stats = compiler.stats();
            // Coherence: hits can only be counted against a present
            // entry, and an entry only exists after its miss was counted.
            if stats.hits > 0 || stats.entries > 0 {
                assert!(
                    stats.misses >= stats.entries as u64,
                    "entry visible before its miss: {stats:?}"
                );
                assert!(
                    stats.entries >= 1,
                    "hit counted without an entry: {stats:?}"
                );
            }
        }
        stop.store(1, Ordering::SeqCst);
    });
}
