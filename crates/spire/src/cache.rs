//! Content-addressed compile cache.
//!
//! The experiment matrix of the paper's evaluation (12 benchmarks ×
//! depths 2..=10 × every optimization configuration) compiles the same
//! `(source, entry, depth, WordConfig, CompileOptions)` tuples over and
//! over: every figure regenerator sweeps the same depth range, and the
//! tables re-compile the programs the figures already compiled. A
//! [`CompileCache`] memoizes those compilations behind a *content
//! address* — a stable 128-bit FNV-1a hash of the source text and every
//! input that affects the compiler's output — so a repeated configuration
//! returns its [`Compiled`] program as a cheap `Arc` clone.
//!
//! The cache is thread-safe and designed for two fan-out shapes: the
//! batch parallelism of `bench-suite`'s runner and the request
//! parallelism of `spire-serve`'s event loop. Lookups take a
//! short-lived lock, compilation itself runs outside the lock (two
//! threads racing on the same key may both compile; the duplicate
//! insert is benign and the results are identical because compilation
//! is deterministic), and hit and miss counts are observable through
//! [`CompileCache::stats`]. Compilation errors are *not* cached; a
//! failing configuration fails again on the next call.
//!
//! Internally the map is **lock-striped**: entries are sharded into
//! [`SHARDS`] independent segments by the high bits of the
//! content-address, each behind its own mutex, so cache *hits* on
//! different keys never contend — under the serving workload nearly
//! every request is a hit, and a single mutex would serialize the whole
//! fleet of worker threads through one cache line. Each shard carries
//! its own hit/miss counters (updated under that shard's lock, so a
//! shard's counters are always coherent with its entries);
//! [`CompileCache::stats`] locks *all* shards before reading any of
//! them, keeping the full snapshot consistent.
//!
//! A cache may carry a **byte budget**
//! ([`CompileCache::with_budget`]): sustained distinct-source traffic
//! must degrade to cache misses, not unbounded memory growth. The
//! budget is split evenly across the shards, each shard accounts the
//! approximate resident bytes of its entries
//! ([`Compiled::approx_bytes`]), and going over budget evicts via the
//! **second-chance (clock)** policy of [`BudgetedMap`]: entries cycle
//! through a queue with a referenced bit that any hit sets; an
//! unreferenced entry at the front is evicted, a referenced one is unset
//! and sent to the back. [`BudgetedMap`] is the workspace's one
//! budgeted map: `spire-serve` keeps its response-document memo in one.
//! Eviction changes only *which* keys miss — a budgeted cache returns
//! the same compilations an unbudgeted one would, because compilation
//! is deterministic (`cache_props.rs` pins this equivalence).
//!
//! # Example
//!
//! ```
//! use spire::cache::CompileCache;
//! use spire::CompileOptions;
//! use tower::WordConfig;
//!
//! let cache = CompileCache::new();
//! let src = "fun inc(x: uint) -> uint { let out <- x + 1; return out; }";
//! let args = (src, "inc", 0, WordConfig::paper_default());
//! let first = cache.get_or_compile(args.0, args.1, args.2, args.3, &CompileOptions::spire())?;
//! let second = cache.get_or_compile(args.0, args.1, args.2, args.3, &CompileOptions::spire())?;
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! # Ok::<(), spire::SpireError>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use qcirc::hash::Fnv1a128;
use tower::WordConfig;

use crate::error::SpireError;
use crate::layout::AllocPolicy;
use crate::pipeline::{compile_source, CompileOptions, Compiled};

/// A stable content address for one compilation.
///
/// The key covers everything that determines a [`Compiled`] program: the
/// source text, the entry function, the recursion depth, the register
/// widths ([`WordConfig`]), and the backend options ([`CompileOptions`] —
/// both the optimization configuration and the allocation policy).
/// Hashing is [`Fnv1a128`] over a length-prefixed serialization, so the
/// key is stable across processes and platforms (unlike `std`'s
/// `DefaultHasher`) and two different field values can never collide by
/// concatenation.
///
/// Downstream memo layers key *emitted circuits* by
/// [`Circuit::content_hash`](qcirc::Circuit::content_hash) instead; that
/// hash is likewise defined over the logical gate stream (not the packed
/// storage layout), so both addressing schemes survive representation
/// changes such as the footprint-indexed gate stream refactor unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Compute the content address of one compilation request.
    pub fn new(
        source: &str,
        entry: &str,
        depth: i64,
        config: WordConfig,
        options: &CompileOptions,
    ) -> Self {
        let mut hasher = Fnv1a128::new();
        hasher.write_len_prefixed(source.as_bytes());
        hasher.write_len_prefixed(entry.as_bytes());
        hasher.write_len_prefixed(&depth.to_le_bytes());
        hasher.write_len_prefixed(&config.uint_bits.to_le_bytes());
        hasher.write_len_prefixed(&config.ptr_bits.to_le_bytes());
        hasher.write_len_prefixed(&[
            options.opt.flattening as u8,
            options.opt.narrowing as u8,
            match options.policy {
                AllocPolicy::Conservative => 0,
                AllocPolicy::Aggressive => 1,
            },
        ]);
        CacheKey(hasher.finish())
    }

    /// The raw 128-bit hash value.
    pub fn value(&self) -> u128 {
        self.0
    }

    /// The index of the cache shard this key lives in: the hash's high
    /// bits, so striping composes with any downstream use of the low
    /// bits (e.g. `HashMap` bucketing inside a shard).
    pub fn shard(&self) -> usize {
        (self.0 >> (128 - SHARD_BITS)) as usize
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Counters observed on a [`CompileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Distinct compiled programs currently stored.
    pub entries: usize,
    /// Approximate bytes resident across all shards.
    pub resident_bytes: u64,
    /// Entries evicted by the second-chance policy.
    pub evictions: u64,
    /// Total byte budget across all shards (0 = unbounded).
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Counter difference since an earlier snapshot (entry count,
    /// resident bytes, and budget are current values, not differences).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            resident_bytes: self.resident_bytes,
            evictions: self.evictions - earlier.evictions,
            budget_bytes: self.budget_bytes,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} cached)",
            self.hits, self.misses, self.entries
        )
    }
}

/// Number of bits of the content address selecting a cache shard.
const SHARD_BITS: u32 = 4;

/// Number of lock-striped shards in a [`CompileCache`].
pub const SHARDS: usize = 1 << SHARD_BITS;

/// A thread-safe, content-addressed cache of compiled programs,
/// lock-striped into [`SHARDS`] segments by [`CacheKey::shard`].
///
/// Each shard's hit/miss counters live under the same lock as that
/// shard's entry map, so per-shard counters are never torn — a miss
/// already counted whose entry is not yet visible cannot be observed.
/// [`CompileCache::stats`] acquires every shard lock before reading any
/// counter, so the cross-shard totals (hit rate, requests = hits +
/// misses, entry count) form one *consistent snapshot* exactly as they
/// did when the cache was a single mutex.
#[derive(Debug)]
pub struct CompileCache {
    shards: [Mutex<CacheShard>; SHARDS],
}

/// A map with a byte budget, enforced by **second-chance (clock)**
/// eviction: entries cycle through a queue with a referenced bit that
/// [`get`](BudgetedMap::get) sets; going over budget evicts the first
/// unreferenced entry at the front and sends referenced ones (bit
/// cleared) to the back. Each entry's weight is given at insert and
/// frozen there. A budget of 0 means unbounded.
///
/// Not synchronized: [`CompileCache`] puts one behind each shard lock.
#[derive(Debug)]
pub struct BudgetedMap<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Clock order of the resident keys.
    clock: VecDeque<K>,
    budget: u64,
    resident: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    weight: u64,
    /// Second-chance bit: set by every hit, cleared by a clock pass.
    referenced: bool,
}

impl<K, V> BudgetedMap<K, V> {
    /// An empty map holding at most `budget` bytes of accounted weight
    /// (0 = unbounded).
    pub fn new(budget: u64) -> Self {
        BudgetedMap {
            entries: HashMap::new(),
            clock: VecDeque::new(),
            budget,
            resident: 0,
            evictions: 0,
        }
    }

    /// Summed weight of the resident entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop every entry.
    fn clear(&mut self) {
        self.entries.clear();
        self.clock.clear();
        self.resident = 0;
    }
}

impl<K: Eq + Hash + Clone, V: Clone> BudgetedMap<K, V> {
    /// The value under `key`, marking it recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.entries.get_mut(key)?;
        slot.referenced = true;
        Some(&slot.value)
    }

    /// Insert `value` under `key` with the given weight, then evict down
    /// to budget. Returns the value stored under `key`: when a racing
    /// insert got there first, *its* value is kept and returned, so
    /// handles already given out stay shared.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> V {
        if let Some(existing) = self.entries.get(&key) {
            return existing.value.clone();
        }
        self.entries.insert(
            key.clone(),
            Slot {
                value: value.clone(),
                weight,
                referenced: true,
            },
        );
        self.clock.push_back(key);
        self.resident += weight;
        self.evict_to_budget();
        value
    }

    /// Clock sweep until resident bytes fit the budget. Terminates
    /// because every rotation clears a bit (nothing can re-set one while
    /// `&mut self` is held) and every eviction shrinks the clock.
    fn evict_to_budget(&mut self) {
        if self.budget == 0 {
            return;
        }
        while self.resident > self.budget {
            let Some(key) = self.clock.pop_front() else {
                break;
            };
            let Some(slot) = self.entries.get_mut(&key) else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                self.clock.push_back(key);
            } else {
                let evicted = self.entries.remove(&key).expect("entry just seen");
                self.resident -= evicted.weight;
                self.evictions += 1;
            }
        }
    }
}

/// One lock stripe of a [`CompileCache`]: its entries and the hit/miss
/// counters kept coherent with them under the same lock.
#[derive(Debug)]
struct CacheShard {
    map: BudgetedMap<u128, Arc<Compiled>>,
    hits: u64,
    misses: u64,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::with_budget(0)
    }
}

impl CompileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// An empty cache holding at most ~`total_bytes` of compilations
    /// (approximate accounting via [`Compiled::approx_bytes`]), split
    /// evenly across the shards and enforced by second-chance
    /// eviction. `0` means unbounded (same as [`CompileCache::new`]).
    pub fn with_budget(total_bytes: u64) -> Self {
        // Rounding up gives every shard of a tiny budget at least one
        // byte, so it still bounds (to roughly one entry per shard)
        // rather than silently meaning "unbounded".
        let per_shard = total_bytes.div_ceil(SHARDS as u64);
        CompileCache {
            shards: std::array::from_fn(|_| {
                Mutex::new(CacheShard {
                    map: BudgetedMap::new(per_shard),
                    hits: 0,
                    misses: 0,
                })
            }),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<CacheShard> {
        &self.shards[key.shard()]
    }

    /// The process-wide shared cache.
    ///
    /// The experiment regenerators in `bench-suite` route every
    /// compilation through this instance, so sweeps that revisit a
    /// configuration (and a second pipeline run in the same process) get
    /// cache hits without threading a cache handle through every API.
    pub fn global() -> &'static CompileCache {
        static GLOBAL: OnceLock<CompileCache> = OnceLock::new();
        GLOBAL.get_or_init(CompileCache::new)
    }

    /// Return the cached compilation for this request, compiling on miss.
    ///
    /// # Errors
    ///
    /// Propagates [`compile_source`] errors; failures are never cached.
    pub fn get_or_compile(
        &self,
        source: &str,
        entry: &str,
        depth: i64,
        config: WordConfig,
        options: &CompileOptions,
    ) -> Result<Arc<Compiled>, SpireError> {
        let key = CacheKey::new(source, entry, depth, config, options);
        if let Some(found) = self.lookup(key) {
            return Ok(found);
        }
        let compiled = Arc::new(compile_source(source, entry, depth, config, options)?);
        let bytes = compiled.approx_bytes();
        let mut shard = self.shard(key).lock().expect("compile cache poisoned");
        shard.misses += 1;
        Ok(shard.map.insert(key.0, compiled, bytes))
    }

    /// Look up a key without compiling. Counts a hit (and marks the
    /// entry recently used) when present.
    pub fn lookup(&self, key: CacheKey) -> Option<Arc<Compiled>> {
        let mut shard = self.shard(key).lock().expect("compile cache poisoned");
        let found = shard.map.get(&key.0).cloned();
        if found.is_some() {
            shard.hits += 1;
        }
        found
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("compile cache poisoned").map.entries.len())
            .sum()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached program (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("compile cache poisoned").map.clear();
        }
    }

    /// A consistent snapshot of the hit/miss/entry counters: every shard
    /// lock is held simultaneously while the counters are read, so
    /// derived quantities (hit rate, requests = hits + misses) are
    /// internally coherent even while other threads compile — exactly
    /// the guarantee the pre-striping single-lock cache gave.
    pub fn stats(&self) -> CacheStats {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("compile cache poisoned"))
            .collect();
        let mut stats = CacheStats::default();
        for shard in &guards {
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.entries += shard.map.entries.len();
            stats.resident_bytes += shard.map.resident_bytes();
            stats.evictions += shard.map.evictions();
            stats.budget_bytes += shard.map.budget;
        }
        stats
    }
}

/// Compile through the process-wide [`CompileCache::global`] cache.
///
/// Drop-in cached variant of [`compile_source`]; returns a shared handle
/// to the (immutable) compilation.
///
/// # Errors
///
/// Propagates [`compile_source`] errors; failures are never cached.
pub fn compile_source_cached(
    source: &str,
    entry: &str,
    depth: i64,
    config: WordConfig,
    options: &CompileOptions,
) -> Result<Arc<Compiled>, SpireError> {
    CompileCache::global().get_or_compile(source, entry, depth, config, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fun inc(x: uint) -> uint { let out <- x + 1; return out; }";

    #[test]
    fn keys_are_stable_and_sensitive() {
        let base = CacheKey::new(
            SRC,
            "inc",
            0,
            WordConfig::paper_default(),
            &CompileOptions::spire(),
        );
        // Stable: same inputs, same key (also across processes — FNV-1a).
        assert_eq!(
            base,
            CacheKey::new(
                SRC,
                "inc",
                0,
                WordConfig::paper_default(),
                &CompileOptions::spire(),
            )
        );
        // Length-prefixing prevents concatenation collisions.
        assert_ne!(
            CacheKey::new("ab", "c", 0, WordConfig::tiny(), &CompileOptions::spire()),
            CacheKey::new("a", "bc", 0, WordConfig::tiny(), &CompileOptions::spire()),
        );
    }

    #[test]
    fn hit_returns_shared_arc() {
        let cache = CompileCache::new();
        let options = CompileOptions::spire();
        let first = cache
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &options)
            .unwrap();
        let second = cache
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &options)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn keys_spread_across_shards() {
        // The shard index is the hash's high bits: distinct sources land
        // in more than one shard, so striping actually distributes load.
        let shards: std::collections::HashSet<usize> = (0..64)
            .map(|i| {
                CacheKey::new(
                    &format!("fun f{i}(x: uint) -> uint {{ return x; }}"),
                    "f",
                    0,
                    WordConfig::tiny(),
                    &CompileOptions::spire(),
                )
                .shard()
            })
            .collect();
        assert!(
            shards.len() > SHARDS / 2,
            "only {} shards hit",
            shards.len()
        );
        assert!(shards.iter().all(|&s| s < SHARDS));
    }

    #[test]
    fn budget_bounds_resident_bytes_and_second_chance_keeps_hot_keys() {
        // A budget roughly two entries wide: inserting many distinct
        // programs must evict, never exceed the accounted budget, and
        // keep serving correct results.
        let probe = CompileCache::new();
        let one = probe
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &CompileOptions::spire())
            .unwrap();
        let per_entry = one.approx_bytes();

        let cache = CompileCache::with_budget(per_entry * 2 * SHARDS as u64);
        let options = CompileOptions::spire();
        for i in 0..48usize {
            let src = format!("fun f(x: uint) -> uint {{ let y <- x + {i}; return y; }}");
            cache
                .get_or_compile(&src, "f", 0, WordConfig::tiny(), &options)
                .unwrap();
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= stats.budget_bytes,
                "resident {} exceeds budget {} after insert {i}",
                stats.resident_bytes,
                stats.budget_bytes
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "48 distinct programs must evict");
        assert!(stats.entries < 48);
        // Re-requesting an evicted program recompiles correctly: the
        // budget costs misses, never wrong answers.
        let again = cache
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &options)
            .unwrap();
        assert_eq!(again.t_complexity(), one.t_complexity());
    }

    #[test]
    fn budgeted_map_stays_under_budget_and_keeps_hot_keys() {
        let mut map = BudgetedMap::new(4096);
        // A cold sentinel ahead of the hot key in clock order: the
        // first full sweep (where every bit is still set) reclaims it,
        // not the hot key.
        map.insert(999u128, 'c', 256);
        map.insert(0, 'h', 256);
        for key in 1..64u128 {
            // Key 0 is touched before every insert: the referenced bit
            // gives it a second chance on each eviction sweep.
            let _ = map.get(&0);
            map.insert(key, 'x', 256);
            assert!(map.resident_bytes() <= map.budget);
        }
        assert!(map.evictions() > 0, "evictions must have occurred");
        assert_eq!(map.get(&0), Some(&'h'), "hot key survived the sweeps");
        assert_eq!(map.get(&999), None);
        // The first of two inserts under one key is kept.
        assert_eq!(map.insert(0, 'y', 256), 'h');
    }

    #[test]
    fn unbudgeted_cache_reports_zero_budget_and_never_evicts() {
        let cache = CompileCache::new();
        let options = CompileOptions::spire();
        for i in 0..8usize {
            let src = format!("fun g(x: uint) -> uint {{ let y <- x + {i}; return y; }}");
            cache
                .get_or_compile(&src, "g", 0, WordConfig::tiny(), &options)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.budget_bytes, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 8);
        assert!(stats.resident_bytes > 0, "resident bytes are accounted");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = CompileCache::new();
        for _ in 0..2 {
            assert!(cache
                .get_or_compile(
                    "fun broken(",
                    "broken",
                    0,
                    WordConfig::tiny(),
                    &CompileOptions::baseline(),
                )
                .is_err());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 0);
    }
}
