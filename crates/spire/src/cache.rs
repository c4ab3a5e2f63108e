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
//! parallelism of `spire-serve`'s event loop. It is one [`Memo`]: a
//! [`BudgetedMap`] and its hit/miss counters behind one mutex, plus a
//! [`SingleFlight`], so concurrent misses on one key compile once and
//! the rest wait for that result. Compilation runs outside the lock.
//! Hit and miss counts are observable through [`CompileCache::stats`].
//! Compilation errors reach every waiter of the failing flight but are
//! *not* cached; a failing configuration fails again on the next call.
//!
//! A cache may carry a **byte budget**
//! ([`CompileCache::with_budget`]): sustained distinct-source traffic
//! must degrade to cache misses, not unbounded memory growth. Each entry
//! is charged its [`Compiled::approx_bytes`], and going over budget
//! evicts via the **second-chance (clock)** policy of [`BudgetedMap`]:
//! entries cycle through a queue with a referenced bit that any hit
//! sets; an unreferenced entry at the front is evicted, a referenced one
//! is unset and sent to the back. [`Memo`] is the workspace's one
//! memo: `spire-serve` keeps its response documents in a second one.
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
use std::convert::Infallible;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use qcirc::hash::Fnv1a128;
use tower::WordConfig;

use crate::error::SpireError;
use crate::flight::{FlightStats, Served, SingleFlight};
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
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Counters observed on a [`Memo`] (and so on a [`CompileCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Distinct compiled programs currently stored.
    pub entries: usize,
    /// Approximate bytes resident.
    pub resident_bytes: u64,
    /// Entries evicted by the second-chance policy.
    pub evictions: u64,
    /// Byte budget (0 = unbounded).
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

/// A map with a byte budget, enforced by **second-chance (clock)**
/// eviction: entries cycle through a queue with a referenced bit that
/// [`get`](BudgetedMap::get) sets; going over budget evicts the first
/// unreferenced entry at the front and sends referenced ones (bit
/// cleared) to the back. Each entry's weight is given at insert and
/// frozen there. A budget of 0 means unbounded.
///
/// Not synchronized: a [`Memo`] puts one behind its lock.
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
            } else if let Some(evicted) = self.entries.remove(&key) {
                self.resident -= evicted.weight;
                self.evictions += 1;
            }
        }
    }
}

/// A thread-safe memo: look up, else build once, then store under a
/// byte budget.
///
/// One mutex guards a [`BudgetedMap`] and its hit/miss counters, so a
/// [`stats`](Memo::stats) snapshot is always coherent with the entries
/// (a counted miss whose entry is not yet visible cannot be observed).
/// Concurrent misses on one key coalesce in a [`SingleFlight`]: one
/// caller builds, outside the lock, and the others wait for its result.
/// A failed build (`Err`) reaches every waiter of its flight and is not
/// stored; a build that panics abandons its flight, and the next caller
/// builds again. Nothing that can panic runs under the lock: `weigh`
/// (each entry's budget charge) runs before it is taken, and the key's
/// `Hash`, `Eq` and `Clone` and the value's `Clone`, which run under it,
/// must not panic.
///
/// A [`get`](Memo::get) that finds an entry counts a hit; a stored value
/// counts a miss.
#[derive(Debug)]
pub struct Memo<K, V, E = Infallible> {
    state: Mutex<MemoState<K, V>>,
    flight: SingleFlight<Result<V, E>, K>,
    weigh: fn(&V) -> u64,
}

#[derive(Debug)]
struct MemoState<K, V> {
    map: BudgetedMap<K, V>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone, E: Clone> Memo<K, V, E> {
    /// An empty memo holding at most `budget` bytes, each entry charged
    /// `weigh(&value)` (0 = unbounded).
    pub fn new(budget: u64, weigh: fn(&V) -> u64) -> Self {
        Memo {
            state: Mutex::new(MemoState {
                map: BudgetedMap::new(budget),
                hits: 0,
                misses: 0,
            }),
            flight: SingleFlight::new(),
            weigh,
        }
    }

    fn state(&self) -> MutexGuard<'_, MemoState<K, V>> {
        self.state
            .lock()
            .expect("memo poisoned: nothing that can panic runs under its lock")
    }

    /// The value under `key`, marking it recently used. Counts a hit
    /// when present.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut state = self.state();
        let found = state.map.get(key).cloned();
        if found.is_some() {
            state.hits += 1;
        }
        found
    }

    /// Store `value` under `key` and count a miss. Returns the value
    /// stored under `key`: when a racing insert got there first, *its*
    /// value is kept and returned, so handles already given out stay
    /// shared.
    pub fn insert(&self, key: K, value: V) -> V {
        let weight = (self.weigh)(&value);
        let mut state = self.state();
        state.misses += 1;
        state.map.insert(key, value, weight)
    }

    /// The value under `key`, built by `build` and stored on a miss —
    /// once across concurrent callers, who wait for the builder's result.
    /// Also returns how this call was served.
    pub fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> (Result<V, E>, Served) {
        if let Some(found) = self.get(&key) {
            return (Ok(found), Served::CacheHit);
        }
        self.flight.run(key.clone(), || {
            // A flight that finished after our miss has stored it.
            match self.get(&key) {
                Some(found) => Ok(found),
                None => build().map(|value| self.insert(key, value)),
            }
        })
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.state().map.clear();
    }

    /// A consistent snapshot of the counters and residency.
    pub fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            entries: state.map.entries.len(),
            resident_bytes: state.map.resident_bytes(),
            evictions: state.map.evictions(),
            budget_bytes: state.map.budget,
        }
    }

    /// Led/coalesced counters of the memo's flights.
    pub fn flight_stats(&self) -> FlightStats {
        self.flight.stats()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// [`get_or_build`](Memo::get_or_build) for a build that cannot fail.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> V {
        let (Ok(value), _) = self.get_or_build(key, || Ok(build()));
        value
    }
}

/// A thread-safe, content-addressed cache of compiled programs: one
/// [`Memo`] in front of [`compile_source`].
#[derive(Debug)]
pub struct CompileCache {
    memo: Memo<u128, Arc<Compiled>, SpireError>,
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
    /// (approximate accounting via [`Compiled::approx_bytes`]), enforced
    /// by second-chance eviction. `0` means unbounded (same as
    /// [`CompileCache::new`]).
    pub fn with_budget(total_bytes: u64) -> Self {
        CompileCache {
            memo: Memo::new(total_bytes, |compiled| compiled.approx_bytes()),
        }
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
    /// Propagates [`compile_source`] errors (shared with every waiter of
    /// the same flight); failures are never cached.
    pub fn get_or_compile(
        &self,
        source: &str,
        entry: &str,
        depth: i64,
        config: WordConfig,
        options: &CompileOptions,
    ) -> Result<Arc<Compiled>, SpireError> {
        self.get_or_compile_traced(source, entry, depth, config, options)
            .0
    }

    /// [`get_or_compile`](CompileCache::get_or_compile), also reporting
    /// how the request was served and the content address it was served
    /// under (callers echo the key; computing it hashes the whole
    /// source, so it is returned rather than recomputed). Records a
    /// `flight` span whose `served` attribute is `cache`, `led` or
    /// `follower`.
    pub fn get_or_compile_traced(
        &self,
        source: &str,
        entry: &str,
        depth: i64,
        config: WordConfig,
        options: &CompileOptions,
    ) -> (Result<Arc<Compiled>, SpireError>, Served, CacheKey) {
        let mut span = spire_trace::span("flight");
        let key = CacheKey::new(source, entry, depth, config, options);
        let (result, served) = self.memo.get_or_build(key.0, || {
            compile_source(source, entry, depth, config, options).map(Arc::new)
        });
        span.attr_label(
            "served",
            match served {
                Served::CacheHit => "cache",
                Served::Led => "led",
                Served::Coalesced => "follower",
            },
        );
        (result, served, key)
    }

    /// Look up a key without compiling. Counts a hit (and marks the
    /// entry recently used) when present.
    pub fn lookup(&self, key: CacheKey) -> Option<Arc<Compiled>> {
        self.memo.get(&key.0)
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached program (counters are kept).
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// A consistent snapshot of the hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Led/coalesced counters of the compile flights.
    pub fn flight_stats(&self) -> FlightStats {
        self.memo.flight_stats()
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
    fn budget_of_two_entries_keeps_one() {
        // One map, one budget: an entry of half the budget is resident
        // after it is stored, so the next request hits.
        let options = CompileOptions::spire();
        let approx = CompileCache::new()
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &options)
            .unwrap()
            .approx_bytes();
        let cache = CompileCache::with_budget(2 * approx);
        cache
            .get_or_compile(SRC, "inc", 0, WordConfig::tiny(), &options)
            .unwrap();
        let key = CacheKey::new(SRC, "inc", 0, WordConfig::tiny(), &options);
        assert!(cache.lookup(key).is_some(), "{:?}", cache.stats());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
    }

    #[test]
    fn panicking_build_leaves_the_memo_usable() {
        let memo: Memo<u32, u32> = Memo::new(0, |_| 1);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(7, || panic!("build dies"))
        }));
        assert!(died.is_err());
        assert_eq!(memo.stats(), CacheStats::default(), "nothing stored");
        // The next call builds, and the memo keeps answering.
        assert_eq!(memo.get_or_insert_with(7, || 42), 42);
        assert_eq!(memo.get_or_insert_with(7, || 0), 42);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(memo.flight_stats().led, 2);
    }

    #[test]
    fn failed_builds_are_shared_but_not_stored() {
        let memo: Memo<u32, u32, &str> = Memo::new(0, |_| 1);
        assert_eq!(memo.get_or_build(1, || Err("no")).0, Err("no"));
        assert_eq!(memo.get_or_build(1, || Ok(5)), (Ok(5), Served::Led));
        assert_eq!(
            memo.get_or_build(1, || Err("no")),
            (Ok(5), Served::CacheHit)
        );
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

        let cache = CompileCache::with_budget(per_entry * 2);
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
