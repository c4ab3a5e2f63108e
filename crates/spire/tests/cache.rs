//! Integration tests for the content-addressed compile cache: hit/miss
//! behavior, key sensitivity to every compilation input, and agreement
//! between cached and fresh compilations. (The property-based variant
//! over random programs lives in the workspace-level `tests/`.)

use std::collections::HashSet;
use std::sync::Arc;

use spire::cache::{CacheKey, CompileCache};
use spire::{compile_source, AllocPolicy, CompileOptions, OptConfig};
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

#[test]
fn miss_then_hit_shares_the_compilation() {
    let cache = CompileCache::new();
    let config = WordConfig::paper_default();
    let options = CompileOptions::spire();
    assert!(cache.is_empty());

    let first = cache
        .get_or_compile(LENGTH, "length", 3, config, &options)
        .unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

    let second = cache
        .get_or_compile(LENGTH, "length", 3, config, &options)
        .unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "a hit must return the same compilation"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    cache.clear();
    assert!(cache.is_empty());
    let _ = cache
        .get_or_compile(LENGTH, "length", 3, config, &options)
        .unwrap();
    assert_eq!(cache.stats().misses, 2, "clear() forgets compilations");
}

#[test]
fn distinct_configurations_are_distinct_entries() {
    let cache = CompileCache::new();
    let paper = WordConfig::paper_default();
    for opt in [
        OptConfig::none(),
        OptConfig::narrowing_only(),
        OptConfig::flattening_only(),
        OptConfig::spire(),
    ] {
        cache
            .get_or_compile(LENGTH, "length", 3, paper, &CompileOptions::with_opt(opt))
            .unwrap();
    }
    assert_eq!(cache.len(), 4, "each OptConfig is its own entry");
    cache
        .get_or_compile(LENGTH, "length", 4, paper, &CompileOptions::spire())
        .unwrap();
    assert_eq!(cache.len(), 5, "depth is part of the key");
    assert_eq!(cache.stats().hits, 0);
}

/// The key must separate every input that affects compilation: source
/// text, entry, depth, both `WordConfig` widths, both `OptConfig` flags,
/// and the allocation policy.
#[test]
fn cache_key_is_sensitive_to_every_input() {
    let base_config = WordConfig {
        uint_bits: 8,
        ptr_bits: 4,
    };
    let base = CacheKey::new(LENGTH, "length", 3, base_config, &CompileOptions::spire());

    let variants = [
        (
            "source",
            CacheKey::new(
                "fun f() -> () { }",
                "length",
                3,
                base_config,
                &CompileOptions::spire(),
            ),
        ),
        (
            "entry",
            CacheKey::new(LENGTH, "other", 3, base_config, &CompileOptions::spire()),
        ),
        (
            "depth",
            CacheKey::new(LENGTH, "length", 4, base_config, &CompileOptions::spire()),
        ),
        (
            "uint_bits",
            CacheKey::new(
                LENGTH,
                "length",
                3,
                WordConfig {
                    uint_bits: 16,
                    ptr_bits: 4,
                },
                &CompileOptions::spire(),
            ),
        ),
        (
            "ptr_bits",
            CacheKey::new(
                LENGTH,
                "length",
                3,
                WordConfig {
                    uint_bits: 8,
                    ptr_bits: 5,
                },
                &CompileOptions::spire(),
            ),
        ),
        (
            "flattening",
            CacheKey::new(
                LENGTH,
                "length",
                3,
                base_config,
                &CompileOptions::with_opt(OptConfig::narrowing_only()),
            ),
        ),
        (
            "narrowing",
            CacheKey::new(
                LENGTH,
                "length",
                3,
                base_config,
                &CompileOptions::with_opt(OptConfig::flattening_only()),
            ),
        ),
        (
            "policy",
            CacheKey::new(
                LENGTH,
                "length",
                3,
                base_config,
                &CompileOptions {
                    opt: OptConfig::spire(),
                    policy: AllocPolicy::Aggressive,
                },
            ),
        ),
    ];
    let mut seen: HashSet<u128> = HashSet::from([base.value()]);
    for (field, key) in variants {
        assert_ne!(key, base, "changing {field} must change the key");
        assert!(
            seen.insert(key.value()),
            "key for {field} collides with an earlier variant"
        );
    }
}

/// A `WordConfig` change must produce a different *compilation*, not just
/// a different key: wider registers cost more gates.
#[test]
fn word_config_changes_the_cached_result() {
    let cache = CompileCache::new();
    let narrow = cache
        .get_or_compile(
            LENGTH,
            "length",
            3,
            WordConfig {
                uint_bits: 4,
                ptr_bits: 4,
            },
            &CompileOptions::baseline(),
        )
        .unwrap();
    let wide = cache
        .get_or_compile(
            LENGTH,
            "length",
            3,
            WordConfig {
                uint_bits: 16,
                ptr_bits: 4,
            },
            &CompileOptions::baseline(),
        )
        .unwrap();
    assert_eq!(cache.len(), 2);
    assert!(wide.t_complexity() > narrow.t_complexity());
}

#[test]
fn cached_equals_fresh_compilation() {
    let cache = CompileCache::new();
    let config = WordConfig::paper_default();
    for options in [CompileOptions::baseline(), CompileOptions::spire()] {
        let fresh = compile_source(LENGTH, "length", 4, config, &options).unwrap();
        let cached = cache
            .get_or_compile(LENGTH, "length", 4, config, &options)
            .unwrap();
        assert_eq!(fresh.histogram(), cached.histogram());
        assert_eq!(fresh.layout.total_qubits, cached.layout.total_qubits);
        assert_eq!(fresh.emit(), cached.emit());
    }
}

#[test]
fn concurrent_access_is_consistent() {
    let cache = CompileCache::new();
    let config = WordConfig::paper_default();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for depth in 2..=5 {
                    let compiled = cache
                        .get_or_compile(LENGTH, "length", depth, config, &CompileOptions::spire())
                        .unwrap();
                    assert!(compiled.t_complexity() > 0);
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, 4, "one entry per depth");
    // Racing threads coalesce onto one compile per key; total requests
    // are conserved across hits, misses and coalesced waiters.
    assert_eq!(
        stats.hits + stats.misses + cache.flight_stats().coalesced,
        16
    );
    assert_eq!(stats.misses, 4, "one compile per depth");
}
