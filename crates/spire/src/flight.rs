//! Single-flight request coalescing over the compile cache.
//!
//! [`CompileCache`] deliberately lets two threads racing on the same key
//! both compile (the duplicate insert is benign for a handful of batch
//! workers). A serving workload inverts that trade-off: a thundering
//! herd of identical requests — every client recompiling the same hot
//! program — would burn one full compilation *per request* during the
//! window before the first one lands in the cache. The single-flight
//! layer closes that window: concurrent requests for one [`CacheKey`]
//! coalesce onto a single *leader* that compiles, while the *followers*
//! block until the leader publishes the result, so N concurrent
//! identical requests cost exactly one compile.
//!
//! [`SingleFlight`] is the generic mechanism (any `Clone` value, keyed
//! by a `u128` content address unless told otherwise);
//! [`SingleFlightCache`] composes it with a [`CompileCache`]
//! into the object `spire-serve` actually uses. Failures propagate to
//! every waiter of the flight but are not cached, matching the cache's
//! errors-are-retried policy.
//!
//! # Example
//!
//! ```
//! use spire::flight::SingleFlightCache;
//! use spire::CompileOptions;
//! use tower::WordConfig;
//!
//! let compiler = SingleFlightCache::new();
//! let src = "fun inc(x: uint) -> uint { let out <- x + 1; return out; }";
//! let first = compiler.get_or_compile(
//!     src, "inc", 0, WordConfig::tiny(), &CompileOptions::spire(),
//! )?;
//! let again = compiler.get_or_compile(
//!     src, "inc", 0, WordConfig::tiny(), &CompileOptions::spire(),
//! )?;
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! assert_eq!(compiler.cache().stats().misses, 1);
//! # Ok::<(), spire::SpireError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use tower::WordConfig;

use crate::cache::{CacheKey, CompileCache};
use crate::error::SpireError;
use crate::pipeline::{CompileOptions, Compiled};

/// How a coalesced request was served (observable in `/metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Answered directly from the compile cache.
    CacheHit,
    /// This request led the flight: it ran the compilation itself.
    Led,
    /// This request joined an in-progress flight and waited for its
    /// leader's result.
    Coalesced,
}

/// Counters observed on a [`SingleFlight`] / [`SingleFlightCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Requests that led a flight (ran the underlying work).
    pub led: u64,
    /// Requests that waited on another request's flight.
    pub coalesced: u64,
}

impl fmt::Display for FlightStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} led / {} coalesced", self.led, self.coalesced)
    }
}

/// State of one in-progress flight.
enum FlightState<V> {
    /// The leader is still working.
    Pending,
    /// The leader finished with this value.
    Done(V),
    /// The leader panicked before publishing; waiters must retry.
    Abandoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }
}

/// Generic single-flight coalescing: concurrent [`SingleFlight::run`]
/// calls with the same key execute the work closure exactly once and
/// share its (cloned) result.
pub struct SingleFlight<V, K = u128> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
    stats: Mutex<FlightStats>,
}

impl<V, K> fmt::Debug for SingleFlight<V, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleFlight")
            .field("in_flight", &self.inflight.lock().map(|m| m.len()).ok())
            .finish()
    }
}

impl<V, K> Default for SingleFlight<V, K> {
    fn default() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            stats: Mutex::new(FlightStats::default()),
        }
    }
}

/// Removes the flight entry when the leader exits — by completion *or*
/// by panic. On panic (publish never ran) it marks the flight abandoned
/// and wakes the waiters so they retry as leaders instead of hanging.
struct LeaderGuard<'a, V, K: Eq + Hash> {
    owner: &'a SingleFlight<V, K>,
    key: K,
    flight: &'a Arc<Flight<V>>,
}

impl<V, K: Eq + Hash> Drop for LeaderGuard<'_, V, K> {
    fn drop(&mut self) {
        let mut map = self.owner.inflight.lock().expect("single-flight poisoned");
        if let Some(current) = map.get(&self.key) {
            if Arc::ptr_eq(current, self.flight) {
                map.remove(&self.key);
            }
        }
        drop(map);
        let mut state = self.flight.state.lock().expect("flight poisoned");
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Abandoned;
            self.flight.done.notify_all();
        }
    }
}

impl<V: Clone, K: Eq + Hash + Clone> SingleFlight<V, K> {
    /// An empty single-flight table.
    pub fn new() -> Self {
        SingleFlight::default()
    }

    /// Run `work` for `key`, coalescing with any in-progress call.
    ///
    /// Exactly one concurrent caller per key executes `work` (the
    /// leader); the rest block until the leader finishes and receive a
    /// clone of its value. Returns the value and this caller's
    /// [`Served`] role. If a leader panics, its waiters transparently
    /// retry (one becomes the next leader).
    pub fn run(&self, key: K, work: impl FnOnce() -> V) -> (V, Served) {
        let mut work = Some(work);
        loop {
            let flight = {
                let mut map = self.inflight.lock().expect("single-flight poisoned");
                match map.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(entry) => {
                        let flight = entry.get().clone();
                        drop(map);
                        self.stats.lock().expect("stats poisoned").coalesced += 1;
                        match self.wait(&flight) {
                            Some(value) => return (value, Served::Coalesced),
                            None => continue, // leader abandoned; retry
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        let flight = Arc::new(Flight::new());
                        entry.insert(flight.clone());
                        flight
                    }
                }
            };
            // Leader path: run the work with the entry-removal guard held
            // so a panic wakes the waiters instead of stranding them.
            self.stats.lock().expect("stats poisoned").led += 1;
            let guard = LeaderGuard {
                owner: self,
                key,
                flight: &flight,
            };
            let value = (work.take().expect("leader runs work once"))();
            {
                let mut state = flight.state.lock().expect("flight poisoned");
                *state = FlightState::Done(value.clone());
                flight.done.notify_all();
            }
            drop(guard);
            return (value, Served::Led);
        }
    }

    fn wait(&self, flight: &Arc<Flight<V>>) -> Option<V> {
        let mut state = flight.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = flight.done.wait(state).expect("flight poisoned");
                }
                FlightState::Done(value) => return Some(value.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    /// Number of flights currently in progress.
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().expect("single-flight poisoned").len()
    }

    /// Led/coalesced counters (consistent snapshot).
    pub fn stats(&self) -> FlightStats {
        *self.stats.lock().expect("stats poisoned")
    }
}

/// A [`CompileCache`] with a single-flight layer on top: the compile path
/// of `spire-serve`.
///
/// Requests check the cache first; on a miss they coalesce per
/// [`CacheKey`], so a thundering herd of identical sources costs one
/// compilation. Compile errors reach every waiter of the failing flight
/// but are never cached (the next flight retries).
#[derive(Debug, Default)]
pub struct SingleFlightCache {
    cache: CompileCache,
    flight: SingleFlight<Result<Arc<Compiled>, SpireError>>,
}

impl SingleFlightCache {
    /// A new empty cache with its single-flight layer.
    pub fn new() -> Self {
        SingleFlightCache::default()
    }

    /// A new cache bounded to ~`total_bytes`
    /// ([`CompileCache::with_budget`]) with its single-flight layer.
    pub fn with_budget(total_bytes: u64) -> Self {
        SingleFlightCache {
            cache: CompileCache::with_budget(total_bytes),
            flight: SingleFlight::new(),
        }
    }

    /// The underlying compile cache (for stats or direct lookups).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Led/coalesced counters of the single-flight layer.
    pub fn flight_stats(&self) -> FlightStats {
        self.flight.stats()
    }

    /// Compile through cache + single-flight.
    ///
    /// # Errors
    ///
    /// Propagates compile errors (shared with every coalesced waiter of
    /// the same flight; never cached).
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

    /// [`get_or_compile`](SingleFlightCache::get_or_compile), also
    /// reporting how the request was served and the content address it
    /// was served under (callers echo the key; computing it hashes the
    /// whole source, so it is returned rather than recomputed).
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
        if let Some(found) = self.cache.lookup(key) {
            span.attr_label("served", "cache");
            return (Ok(found), Served::CacheHit, key);
        }
        let (result, served) = self.flight.run(key.value(), || {
            self.cache
                .get_or_compile(source, entry, depth, config, options)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn sequential_runs_do_not_coalesce() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        let (a, served_a) = flight.run(1, || 10);
        let (b, served_b) = flight.run(1, || 20);
        assert_eq!((a, served_a), (10, Served::Led));
        // The flight is gone after its leader returns: the second run
        // leads again (the caller's cache layer is what persists values).
        assert_eq!((b, served_b), (20, Served::Led));
        assert_eq!(flight.stats().led, 2);
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn abandoned_flight_retries_instead_of_hanging() {
        let flight: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let calls = Arc::new(AtomicU64::new(0));
        // Leader panics mid-flight.
        let leader = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    flight.run(7, || -> u32 { panic!("leader dies") });
                }));
            })
        };
        leader.join().unwrap();
        // The table is clean and the next caller succeeds.
        assert_eq!(flight.in_flight(), 0);
        let calls2 = Arc::clone(&calls);
        let (value, served) = flight.run(7, move || {
            calls2.fetch_add(1, Ordering::SeqCst);
            42
        });
        assert_eq!((value, served), (42, Served::Led));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
