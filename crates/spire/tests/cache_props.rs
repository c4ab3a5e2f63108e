//! Equivalence of the compile cache with a reference model: for any
//! operation sequence the cache produces the same per-operation
//! outcomes and the same consistent stats snapshot a plain map with
//! counters would, and under real concurrency its invariants
//! (requests = hits + misses + coalesced waiters, one compile and one
//! shared compilation per key, monotone consistent snapshots) hold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use spire::cache::{CacheKey, CompileCache};
use spire::{CompileOptions, Compiled};
use tower::WordConfig;

/// The key universe: tiny programs differing only in a constant, so
/// compilation on a miss is cheap and every key is distinct.
fn source(k: usize) -> String {
    format!("fun f(x: uint) -> uint {{ let y <- x + {k}; return y; }}")
}

fn key_of(k: usize, options: &CompileOptions) -> CacheKey {
    CacheKey::new(&source(k), "f", 0, WordConfig::paper_default(), options)
}

/// One scripted cache operation over the small key universe.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `lookup` — must not compile, counts a hit only when present.
    Lookup(usize),
    /// `get_or_compile` — compiles on miss, counts exactly one of
    /// hit/miss.
    GetOrCompile(usize),
}

fn arb_ops() -> BoxedStrategy<Vec<Op>> {
    vec(
        (0usize..5, any::<bool>()).prop_map(|(k, lookup)| {
            if lookup {
                Op::Lookup(k)
            } else {
                Op::GetOrCompile(k)
            }
        }),
        0..32,
    )
    .boxed()
}

/// The reference: a map plus counters, with no lock, no budget and no
/// flight.
#[derive(Default)]
struct Reference {
    present: HashMap<u128, Arc<Compiled>>,
    hits: u64,
    misses: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(ops in arb_ops()) {
        let options = CompileOptions::spire();
        let cache = CompileCache::new();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::Lookup(k) => {
                    let key = key_of(k, &options);
                    let cached = cache.lookup(key);
                    let modeled = reference.present.get(&key.value());
                    prop_assert_eq!(cached.is_some(), modeled.is_some());
                    if let (Some(cached), Some(modeled)) = (&cached, modeled) {
                        prop_assert!(Arc::ptr_eq(cached, modeled), "one shared compilation");
                        reference.hits += 1;
                    }
                }
                Op::GetOrCompile(k) => {
                    let key = key_of(k, &options);
                    let compiled = cache
                        .get_or_compile(&source(k), "f", 0, WordConfig::paper_default(), &options)
                        .expect("trivial program compiles");
                    match reference.present.get(&key.value()) {
                        Some(modeled) => {
                            prop_assert!(Arc::ptr_eq(&compiled, modeled));
                            reference.hits += 1;
                        }
                        None => {
                            reference.misses += 1;
                            reference.present.insert(key.value(), compiled);
                        }
                    }
                }
            }
            // After *every* op the consistent snapshot matches the
            // reference exactly — not only at the end.
            let stats = cache.stats();
            prop_assert_eq!(stats.hits, reference.hits);
            prop_assert_eq!(stats.misses, reference.misses);
            prop_assert_eq!(stats.entries, reference.present.len());
        }
    }
}

/// The observable behavior of a compilation, for cross-cache
/// comparison: compilation is deterministic, so two caches answering
/// the same request must agree on every derived quantity even when one
/// of them recompiled after an eviction.
fn fingerprint(compiled: &Compiled) -> (u64, u64, u32, u64) {
    (
        compiled.t_complexity(),
        compiled.mcx_complexity(),
        compiled.qubits(),
        compiled.approx_bytes(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A byte-budgeted cache is behaviorally equivalent to an unbounded
    /// one modulo misses: identical answers for every request, hits a
    /// subset of the unbounded cache's hits, and — the governance
    /// invariant — resident bytes never exceed the budget, checked
    /// after every single operation, not only at the end.
    #[test]
    fn budgeted_cache_is_equivalent_modulo_misses(
        keys in vec(0usize..8, 1..40),
        budget in 512u64..32_768,
    ) {
        let options = CompileOptions::spire();
        let budgeted = CompileCache::with_budget(budget);
        let unbounded = CompileCache::new();
        for k in keys {
            let from_budgeted = budgeted
                .get_or_compile(&source(k), "f", 0, WordConfig::paper_default(), &options)
                .expect("trivial program compiles");
            let from_unbounded = unbounded
                .get_or_compile(&source(k), "f", 0, WordConfig::paper_default(), &options)
                .expect("trivial program compiles");
            prop_assert_eq!(
                fingerprint(&from_budgeted),
                fingerprint(&from_unbounded),
                "eviction must change only *which* keys miss, never answers"
            );
            let stats = budgeted.stats();
            prop_assert!(stats.budget_bytes > 0, "budget must be configured");
            prop_assert!(
                stats.resident_bytes <= stats.budget_bytes,
                "resident {} exceeds budget {}",
                stats.resident_bytes,
                stats.budget_bytes
            );
            // Both caches count exactly one of hit/miss per request; the
            // budgeted one can only have traded hits for misses.
            let reference = unbounded.stats();
            prop_assert_eq!(
                stats.hits + stats.misses,
                reference.hits + reference.misses
            );
            prop_assert!(stats.hits <= reference.hits);
        }
    }
}

#[test]
fn concurrent_invariants_match_the_single_lock_semantics() {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: usize = 60;
    const KEYS: usize = 6;
    let options = CompileOptions::spire();
    let cache = CompileCache::new();
    let stop = AtomicBool::new(false);

    let per_thread: Vec<Vec<(usize, Arc<Compiled>)>> = std::thread::scope(|scope| {
        // A stats reader races the workers: every snapshot it takes must
        // be internally consistent (entries never exceed the universe,
        // requests never decrease — each snapshot is taken under the
        // cache's one lock, so no torn counters).
        let reader = scope.spawn(|| {
            let mut last_requests = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let stats = cache.stats();
                let requests = stats.hits + stats.misses;
                assert!(
                    requests >= last_requests,
                    "consistent snapshots are monotone"
                );
                assert!(stats.entries <= KEYS);
                last_requests = requests;
            }
        });
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let options = &options;
                let cache = &cache;
                scope.spawn(move || {
                    let mut seen: Vec<(usize, Arc<Compiled>)> = Vec::new();
                    for i in 0..OPS_PER_THREAD {
                        let k = (t + i) % KEYS;
                        let compiled = cache
                            .get_or_compile(
                                &source(k),
                                "f",
                                0,
                                WordConfig::paper_default(),
                                options,
                            )
                            .expect("trivial program compiles");
                        seen.push((k, compiled));
                    }
                    seen
                })
            })
            .collect();
        let per_thread = workers.into_iter().map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        per_thread
    });

    // Exactly one of hit/miss/coalesced per operation, entries = the key
    // universe, and exactly one miss (one compile) per distinct key.
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + cache.flight_stats().coalesced,
        (THREADS * OPS_PER_THREAD) as u64,
        "every get_or_compile is a hit, a miss or a coalesced wait"
    );
    assert_eq!(stats.entries, KEYS);
    assert_eq!(stats.misses, KEYS as u64);

    // Whatever interleaving happened, all threads share one compilation
    // per key.
    let options = CompileOptions::spire();
    let canonical: Vec<Arc<Compiled>> = (0..KEYS)
        .map(|k| cache.lookup(key_of(k, &options)).expect("cached"))
        .collect();
    for seen in &per_thread {
        for (k, arc) in seen {
            assert!(
                Arc::ptr_eq(arc, &canonical[*k]),
                "thread observed a divergent compilation for key {k}"
            );
        }
    }
}
