//! Service metrics: lock-free counters and a log-bucketed latency
//! histogram, serialized for `GET /metrics`.
//!
//! Everything on the request path is an atomic increment — no locks, no
//! allocation — so metrics collection never becomes the contention point
//! it is supposed to diagnose. The histogram buckets latencies by
//! power-of-two microseconds (64 buckets cover `[1 µs, ~5 × 10¹³ µs)`,
//! far beyond any request this service can serve), and percentiles are
//! reconstructed from the bucket counts by linear interpolation within
//! the bucket holding the requested rank (see
//! [`LatencyHistogram::percentile_micros`] for the exact error bound).
//! That trade — coarse buckets for a wait-free hot path — is the
//! standard one for serving systems.
//!
//! Two export formats share the counters: the JSON document behind
//! `GET /metrics` ([`Metrics::to_json_value`]) and the Prometheus text
//! exposition behind `GET /metrics?format=prometheus`
//! ([`Metrics::to_prometheus`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qcirc::json::Json;

use crate::breaker::BreakerSnapshot;

/// Serving-health extras for the `/metrics` document: disk-tier breaker
/// state, any active fault injection, and document-memo residency — the
/// observability half of the graceful-degradation story.
#[derive(Debug, Default)]
pub struct ServeHealth {
    /// Breaker snapshot; `None` when the disk tier is disabled.
    pub breaker: Option<BreakerSnapshot>,
    /// Active fault-injection schedule `(label, stats)`; `None` when no
    /// injection is configured (the production case).
    pub faults: Option<(String, spire::FaultStats)>,
    /// Resident bytes of the response-document memo.
    pub memo_bytes: u64,
    /// Entries evicted from the document memo by its byte budget.
    pub memo_evictions: u64,
}

/// Number of power-of-two latency buckets.
const BUCKETS: usize = 64;

/// A wait-free histogram of microsecond latencies in power-of-two
/// buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one latency.
    pub fn record_micros(&self, micros: u64) {
        // Bucket b holds samples in [2^b, 2^(b+1)); 0 µs lands in b = 0.
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Estimated `p`-th percentile latency in microseconds, for `p` in
    /// `0..=100`. Returns 0 when empty.
    ///
    /// The estimate interpolates linearly inside the bucket holding the
    /// requested rank: bucket `b` covers `[2^b, 2^(b+1))`, and the value
    /// reported is `2^b + 2^b · (rank_in_bucket / bucket_count)`,
    /// rounded to the nearest microsecond. **Error bound:** if samples
    /// are uniformly distributed within their bucket the estimate is
    /// exact in expectation; in the worst case (all bucket samples piled
    /// at one end) the error is strictly less than one bucket width,
    /// i.e. less than the true value itself (2× resolution) — the same
    /// bound the pre-interpolation upper-bound report had, but without
    /// its systematic upward bias of up to 2×.
    ///
    /// Concurrent writers can skew an in-flight snapshot by at most the
    /// samples recorded during the scan; the value is a monitoring
    /// estimate, not an accounting figure.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &n) in counts.iter().enumerate() {
            if seen + n >= rank {
                let lower = lower_bound_micros(bucket) as f64;
                let width = (upper_bound_micros(bucket) - lower_bound_micros(bucket)) as f64;
                let in_bucket = (rank - seen) as f64 / n as f64;
                return (lower + width * in_bucket).round() as u64;
            }
            seen += n;
        }
        upper_bound_micros(BUCKETS - 1)
    }

    /// A relaxed snapshot of every bucket count (index `b` counts
    /// samples in `[2^b, 2^(b+1))` µs; 0 µs lands in bucket 0).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Serialize count/mean/percentiles plus the raw bucket array as a
    /// JSON object. `buckets` always holds all 64 counts so consumers
    /// can re-derive any percentile offline.
    pub fn to_json_value(&self) -> Json {
        let buckets = self
            .bucket_counts()
            .into_iter()
            .map(Json::from)
            .collect::<Vec<_>>();
        Json::obj()
            .field("count", self.count())
            .field("mean_us", self.mean_micros())
            .field("p50_us", self.percentile_micros(50.0))
            .field("p90_us", self.percentile_micros(90.0))
            .field("p99_us", self.percentile_micros(99.0))
            .field("buckets", Json::Array(buckets))
            .build()
    }

    /// Append this histogram to a Prometheus exposition under `name`
    /// (conventional `_bucket`/`_sum`/`_count` series, cumulative `le`
    /// labels in microseconds). Empty trailing buckets collapse into the
    /// final `+Inf` bucket to keep the document small.
    fn render_prometheus(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write as _;
        let counts = self.bucket_counts();
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let last = counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (bucket, &n) in counts.iter().enumerate().take(last) {
            cumulative += n;
            let le = upper_bound_micros(bucket);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let total = self.count();
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
        let sum = self.total_micros.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {total}");
    }
}

/// Inclusive lower bound of bucket `b` in microseconds.
fn lower_bound_micros(bucket: usize) -> u64 {
    1u64 << bucket
}

/// Exclusive upper bound of bucket `b` in microseconds.
fn upper_bound_micros(bucket: usize) -> u64 {
    1u64 << (bucket + 1)
}

/// One endpoint's request counter set.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// Requests routed to the endpoint.
    pub requests: AtomicU64,
}

/// All service metrics, shared across workers.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// Requests currently being handled.
    in_flight: AtomicU64,
    /// Per-endpoint request counts.
    pub compile: EndpointCounters,
    /// `/simulate` requests.
    pub simulate: EndpointCounters,
    /// `/check` requests.
    pub check: EndpointCounters,
    /// `/benchmarks` requests.
    pub benchmarks: EndpointCounters,
    /// `/metrics` + `/healthz` requests.
    pub control: EndpointCounters,
    /// Responses by class.
    ok_2xx: AtomicU64,
    client_4xx: AtomicU64,
    server_5xx: AtomicU64,
    /// Connections shed because the worker pool backlog was full.
    shed: AtomicU64,
    /// End-to-end handler latency (all endpoints).
    pub latency: LatencyHistogram,
    /// Handler latency of `/compile` alone (the hot endpoint).
    pub compile_latency: LatencyHistogram,
    /// Event-loop self-profile: total nanoseconds blocked in `poll(2)`.
    poll_wait_ns: AtomicU64,
    /// Event-loop self-profile: total nanoseconds spent dispatching
    /// ready events (everything in a tick that is not the poll wait).
    loop_busy_ns: AtomicU64,
    /// Event-loop iterations (poll wake-ups).
    loop_ticks: AtomicU64,
    /// Requests waiting in the worker-pool queue (gauge, sampled by the
    /// loop each tick).
    queue_depth: AtomicU64,
    /// Open connections in the loop's table (gauge, sampled each tick).
    connections: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            start: Instant::now(),
            in_flight: AtomicU64::new(0),
            compile: EndpointCounters::default(),
            simulate: EndpointCounters::default(),
            check: EndpointCounters::default(),
            benchmarks: EndpointCounters::default(),
            control: EndpointCounters::default(),
            ok_2xx: AtomicU64::new(0),
            client_4xx: AtomicU64::new(0),
            server_5xx: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            compile_latency: LatencyHistogram::new(),
            poll_wait_ns: AtomicU64::new(0),
            loop_busy_ns: AtomicU64::new(0),
            loop_ticks: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh metrics anchored at "now".
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Seconds since the metrics (i.e. the server) started.
    pub fn uptime_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Mark a request in flight; decrements on drop.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Requests currently being handled.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Count a response status.
    pub fn record_status(&self, status: u16) {
        let class = match status {
            200..=299 => &self.ok_2xx,
            400..=499 => &self.client_4xx,
            _ => &self.server_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection shed by pool backpressure.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Record one event-loop tick's self-profile: time blocked in
    /// `poll(2)` vs time spent dispatching the readiness it returned.
    pub fn record_loop_tick(&self, poll_wait_ns: u64, busy_ns: u64) {
        self.poll_wait_ns.fetch_add(poll_wait_ns, Ordering::Relaxed);
        self.loop_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        self.loop_ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Sample the worker-queue depth and connection-table size gauges.
    pub fn set_loop_gauges(&self, queue_depth: u64, connections: u64) {
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.connections.store(connections, Ordering::Relaxed);
    }

    /// The event-loop self-profile as a JSON object: cumulative
    /// poll-wait and dispatch nanoseconds, tick count, and the sampled
    /// queue-depth and connection gauges.
    fn event_loop_json(&self) -> Json {
        let load = Ordering::Relaxed;
        Json::obj()
            .field("poll_wait_ns", self.poll_wait_ns.load(load))
            .field("busy_ns", self.loop_busy_ns.load(load))
            .field("ticks", self.loop_ticks.load(load))
            .field("queue_depth", self.queue_depth.load(load))
            .field("connections", self.connections.load(load))
            .build()
    }

    /// The `/metrics` document body, combining service counters with the
    /// compile layer's cache and single-flight statistics, (when the
    /// persistent tier is enabled) the disk store's counters, and the
    /// degradation surface: breaker state, active fault injection, and
    /// memory-budget residency.
    pub fn to_json_value(
        &self,
        cache: &spire::CacheStats,
        flights: &spire::FlightStats,
        disk: Option<&spire::DiskStats>,
        health: &ServeHealth,
    ) -> Json {
        let load = Ordering::Relaxed;
        let total_cache = cache.hits + cache.misses;
        let hit_rate = if total_cache == 0 {
            0.0
        } else {
            cache.hits as f64 / total_cache as f64
        };
        Json::obj()
            .field("uptime_seconds", self.uptime_seconds())
            .field(
                "build_info",
                Json::obj()
                    .field("git_hash", build_git_hash())
                    .field("rustc", build_rustc()),
            )
            .field("in_flight", self.in_flight())
            .field("event_loop", self.event_loop_json())
            .field(
                "requests",
                Json::obj()
                    .field("compile", self.compile.requests.load(load))
                    .field("simulate", self.simulate.requests.load(load))
                    .field("check", self.check.requests.load(load))
                    .field("benchmarks", self.benchmarks.requests.load(load))
                    .field("control", self.control.requests.load(load)),
            )
            .field(
                "responses",
                Json::obj()
                    .field("ok_2xx", self.ok_2xx.load(load))
                    .field("client_4xx", self.client_4xx.load(load))
                    .field("server_5xx", self.server_5xx.load(load))
                    .field("shed", self.shed.load(load)),
            )
            .field("latency", self.latency.to_json_value())
            .field("compile_latency", self.compile_latency.to_json_value())
            .field(
                "cache",
                Json::obj()
                    .field("hits", cache.hits)
                    .field("misses", cache.misses)
                    .field("entries", cache.entries)
                    .field("hit_rate", hit_rate)
                    .field("resident_bytes", cache.resident_bytes)
                    .field("evictions", cache.evictions)
                    .field("budget_bytes", cache.budget_bytes),
            )
            .field(
                "memory",
                Json::obj()
                    .field("cache_bytes", cache.resident_bytes)
                    .field("memo_bytes", health.memo_bytes)
                    .field("resident_bytes", cache.resident_bytes + health.memo_bytes)
                    .field("memo_evictions", health.memo_evictions),
            )
            .field(
                "single_flight",
                Json::obj()
                    .field("led", flights.led)
                    .field("coalesced", flights.coalesced),
            )
            .field(
                "disk",
                match disk {
                    None => Json::obj().field("enabled", false),
                    Some(stats) => Json::obj()
                        .field("enabled", true)
                        .field("hits", stats.hits)
                        .field("misses", stats.misses)
                        .field("writes", stats.writes)
                        .field("corrupt_dropped", stats.corrupt_dropped)
                        .field("entries", stats.entries as u64)
                        .field("io_errors", stats.io_errors)
                        .field("garbage_bytes", stats.garbage_bytes)
                        .field("log_bytes", stats.log_bytes)
                        .field("compactions", stats.compactions),
                },
            )
            .field(
                "breaker",
                match &health.breaker {
                    None => Json::obj().field("enabled", false),
                    Some(snapshot) => Json::obj()
                        .field("enabled", true)
                        .field("state", snapshot.state.label())
                        .field(
                            "consecutive_failures",
                            u64::from(snapshot.consecutive_failures),
                        )
                        .field("threshold", u64::from(snapshot.threshold))
                        .field("opened_total", snapshot.opened_total)
                        .field("rejected", snapshot.rejected),
                },
            )
            .field(
                "faults",
                match &health.faults {
                    None => Json::obj().field("injecting", false),
                    Some((label, stats)) => Json::obj()
                        .field("injecting", true)
                        .field("schedule", label.as_str())
                        .field("ops", stats.ops)
                        .field("written_bytes", stats.written_bytes)
                        .field("injected", stats.injected)
                        .field("crashed", stats.crashed),
                },
            )
            .build()
    }

    /// The `/metrics?format=prometheus` document: the same counters as
    /// the JSON form in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` comments, `name{labels} value` samples,
    /// conventional `_total` counters and `_bucket`/`_sum`/`_count`
    /// histograms). One scrape target per process; no timestamps, so
    /// the scraper assigns them.
    pub fn to_prometheus(
        &self,
        cache: &spire::CacheStats,
        flights: &spire::FlightStats,
        disk: Option<&spire::DiskStats>,
        health: &ServeHealth,
    ) -> String {
        use std::fmt::Write as _;
        let load = Ordering::Relaxed;
        let mut out = String::with_capacity(4096);
        let w = &mut out;
        let _ = writeln!(
            w,
            "# HELP spire_build_info Build provenance (value is always 1)."
        );
        let _ = writeln!(w, "# TYPE spire_build_info gauge");
        let _ = writeln!(
            w,
            "spire_build_info{{git_hash=\"{}\",rustc=\"{}\"}} 1",
            prom_label(build_git_hash()),
            prom_label(build_rustc()),
        );
        gauge(
            w,
            "spire_uptime_seconds",
            "Seconds since the server started.",
            &format!("{:.3}", self.uptime_seconds()),
        );
        gauge(
            w,
            "spire_in_flight_requests",
            "Requests currently being handled.",
            &self.in_flight().to_string(),
        );
        let _ = writeln!(
            w,
            "# HELP spire_requests_total Requests routed, by endpoint."
        );
        let _ = writeln!(w, "# TYPE spire_requests_total counter");
        for (endpoint, counters) in [
            ("compile", &self.compile),
            ("simulate", &self.simulate),
            ("check", &self.check),
            ("benchmarks", &self.benchmarks),
            ("control", &self.control),
        ] {
            let _ = writeln!(
                w,
                "spire_requests_total{{endpoint=\"{endpoint}\"}} {}",
                counters.requests.load(load)
            );
        }
        let _ = writeln!(
            w,
            "# HELP spire_responses_total Responses sent, by status class."
        );
        let _ = writeln!(w, "# TYPE spire_responses_total counter");
        for (class, counter) in [
            ("2xx", &self.ok_2xx),
            ("4xx", &self.client_4xx),
            ("5xx", &self.server_5xx),
        ] {
            let _ = writeln!(
                w,
                "spire_responses_total{{class=\"{class}\"}} {}",
                counter.load(load)
            );
        }
        counter_line(
            w,
            "spire_shed_total",
            "Connections or requests shed by backpressure.",
            self.shed.load(load),
        );
        self.latency.render_prometheus(
            w,
            "spire_request_latency_us",
            "End-to-end handler latency in microseconds.",
        );
        self.compile_latency.render_prometheus(
            w,
            "spire_compile_latency_us",
            "Handler latency of /compile in microseconds.",
        );
        counter_line(
            w,
            "spire_eventloop_poll_wait_ns_total",
            "Nanoseconds the event loop spent blocked in poll(2).",
            self.poll_wait_ns.load(load),
        );
        counter_line(
            w,
            "spire_eventloop_busy_ns_total",
            "Nanoseconds the event loop spent dispatching readiness.",
            self.loop_busy_ns.load(load),
        );
        counter_line(
            w,
            "spire_eventloop_ticks_total",
            "Event-loop iterations.",
            self.loop_ticks.load(load),
        );
        gauge(
            w,
            "spire_queue_depth",
            "Requests waiting in the worker-pool queue.",
            &self.queue_depth.load(load).to_string(),
        );
        gauge(
            w,
            "spire_connections",
            "Open connections in the event loop's table.",
            &self.connections.load(load).to_string(),
        );
        counter_line(
            w,
            "spire_cache_hits_total",
            "Compile-cache hits.",
            cache.hits,
        );
        counter_line(
            w,
            "spire_cache_misses_total",
            "Compile-cache misses.",
            cache.misses,
        );
        gauge(
            w,
            "spire_cache_resident_bytes",
            "Resident bytes of the compile cache.",
            &cache.resident_bytes.to_string(),
        );
        counter_line(
            w,
            "spire_cache_evictions_total",
            "Compile-cache evictions.",
            cache.evictions,
        );
        counter_line(
            w,
            "spire_flight_led_total",
            "Requests that led a single-flight compile.",
            flights.led,
        );
        counter_line(
            w,
            "spire_flight_coalesced_total",
            "Requests coalesced onto another request's flight.",
            flights.coalesced,
        );
        counter_line(
            w,
            "spire_memo_evictions_total",
            "Entries evicted from the response-document memo.",
            health.memo_evictions,
        );
        gauge(
            w,
            "spire_memo_resident_bytes",
            "Resident bytes of the response-document memo.",
            &health.memo_bytes.to_string(),
        );
        if let Some(stats) = disk {
            counter_line(
                w,
                "spire_disk_hits_total",
                "Persistent-tier hits.",
                stats.hits,
            );
            counter_line(
                w,
                "spire_disk_misses_total",
                "Persistent-tier misses.",
                stats.misses,
            );
            counter_line(
                w,
                "spire_disk_writes_total",
                "Persistent-tier writes.",
                stats.writes,
            );
            counter_line(
                w,
                "spire_disk_io_errors_total",
                "Persistent-tier I/O errors.",
                stats.io_errors,
            );
            gauge(
                w,
                "spire_disk_log_bytes",
                "Bytes in the persistent store's log.",
                &stats.log_bytes.to_string(),
            );
        }
        if let Some(snapshot) = &health.breaker {
            let _ = writeln!(
                w,
                "# HELP spire_breaker_state Disk breaker state (value 1 on the active state)."
            );
            let _ = writeln!(w, "# TYPE spire_breaker_state gauge");
            for state in ["closed", "open", "half-open"] {
                let active = u64::from(snapshot.state.label() == state);
                let _ = writeln!(w, "spire_breaker_state{{state=\"{state}\"}} {active}");
            }
            counter_line(
                w,
                "spire_breaker_opened_total",
                "Times the disk breaker opened.",
                snapshot.opened_total,
            );
            counter_line(
                w,
                "spire_breaker_rejected_total",
                "Disk operations rejected by an open breaker.",
                snapshot.rejected,
            );
        }
        out
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Emit one `# HELP`/`# TYPE gauge`/sample triple.
fn gauge(out: &mut String, name: &str, help: &str, value: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Emit one `# HELP`/`# TYPE counter`/sample triple.
fn counter_line(out: &mut String, name: &str, help: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// The short git hash the binary was built from (`"unknown"` outside a
/// checkout). Baked in by `build.rs`.
pub fn build_git_hash() -> &'static str {
    env!("SPIRE_BUILD_GIT_HASH")
}

/// The `rustc --version` string the binary was built with (`"unknown"`
/// when the probe failed). Baked in by `build.rs`.
pub fn build_rustc() -> &'static str {
    env!("SPIRE_BUILD_RUSTC")
}

/// RAII in-flight marker from [`Metrics::begin_request`].
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.percentile_micros(99.0), 0, "empty reports zero");
        // 90 fast samples at ~8 µs, 10 slow at ~4096 µs.
        for _ in 0..90 {
            hist.record_micros(8);
        }
        for _ in 0..10 {
            hist.record_micros(4096);
        }
        assert_eq!(hist.count(), 100);
        // Interpolated percentiles, pinned exactly. p50: rank 50 of 90
        // samples in [8,16) → 8 + 8·(50/90) = 12.44 → 12. p99: rank 9
        // of 10 samples in [4096,8192) → 4096 + 4096·(9/10) = 7782.4 →
        // 7782. p100 is the bucket's upper bound by construction.
        assert_eq!(hist.percentile_micros(50.0), 12);
        assert_eq!(hist.percentile_micros(99.0), 7782);
        assert_eq!(hist.percentile_micros(100.0), 8192);
        let mean = hist.mean_micros();
        assert!((400..=500).contains(&mean), "mean ≈ 416, got {mean}");
        // The raw bucket array is exported and re-derivable.
        let counts = hist.bucket_counts();
        assert_eq!(counts.len(), 64);
        assert_eq!(counts[3], 90);
        assert_eq!(counts[12], 10);
    }

    #[test]
    fn zero_micros_is_representable() {
        let hist = LatencyHistogram::new();
        hist.record_micros(0);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.percentile_micros(100.0), 2);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let metrics = Metrics::new();
        metrics.record_status(200);
        metrics.latency.record_micros(100);
        metrics.record_loop_tick(1_000, 500);
        metrics.set_loop_gauges(3, 7);
        let text = metrics.to_prometheus(
            &spire::CacheStats::default(),
            &spire::FlightStats::default(),
            None,
            &ServeHealth::default(),
        );
        // Every sample line is `name{labels} value` with a numeric value.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line}");
        }
        assert!(text.contains("spire_build_info{"));
        assert!(text.contains("spire_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("spire_request_latency_us_count 1"));
        assert!(text.contains("spire_request_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("spire_queue_depth 3"));
        assert!(text.contains("spire_connections 7"));
        // Histograms are cumulative: the le=128 bucket holds the 100 µs
        // sample and every later bucket at least matches it.
        assert!(text.contains("spire_request_latency_us_bucket{le=\"128\"} 1"));
    }

    #[test]
    fn in_flight_guard_is_balanced() {
        let metrics = Metrics::new();
        {
            let _a = metrics.begin_request();
            let _b = metrics.begin_request();
            assert_eq!(metrics.in_flight(), 2);
        }
        assert_eq!(metrics.in_flight(), 0);
    }

    #[test]
    fn metrics_document_is_parseable() {
        let metrics = Metrics::new();
        metrics.record_status(200);
        metrics.record_status(422);
        metrics.latency.record_micros(120);
        let cache = spire::CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            resident_bytes: 2048,
            ..Default::default()
        };
        let flights = spire::FlightStats {
            led: 1,
            coalesced: 2,
        };
        let disk = spire::DiskStats {
            hits: 4,
            misses: 2,
            writes: 5,
            corrupt_dropped: 0,
            entries: 5,
            io_errors: 1,
            ..Default::default()
        };
        let health = ServeHealth {
            breaker: Some(crate::breaker::CircuitBreaker::with_defaults().snapshot()),
            faults: Some(("eio:all".to_string(), spire::FaultStats::default())),
            memo_bytes: 768,
            memo_evictions: 3,
        };
        let doc = metrics
            .to_json_value(&cache, &flights, Some(&disk), &health)
            .to_string();
        let parsed = qcirc::json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(
            parsed
                .get("single_flight")
                .and_then(|c| c.get("coalesced"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("responses")
                .and_then(|c| c.get("client_4xx"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("disk")
                .and_then(|d| d.get("hits"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            parsed
                .get("disk")
                .and_then(|d| d.get("io_errors"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("breaker")
                .and_then(|b| b.get("state"))
                .and_then(Json::as_str),
            Some("closed")
        );
        assert_eq!(
            parsed
                .get("faults")
                .and_then(|f| f.get("schedule"))
                .and_then(Json::as_str),
            Some("eio:all")
        );
        assert_eq!(
            parsed
                .get("memory")
                .and_then(|m| m.get("resident_bytes"))
                .and_then(Json::as_u64),
            Some(2048 + 768)
        );
    }

    #[test]
    fn disabled_disk_tier_reports_enabled_false() {
        let metrics = Metrics::new();
        let doc = metrics
            .to_json_value(
                &spire::CacheStats::default(),
                &spire::FlightStats::default(),
                None,
                &ServeHealth::default(),
            )
            .to_string();
        let parsed = qcirc::json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("disk")
                .and_then(|d| d.get("enabled"))
                .and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            parsed
                .get("breaker")
                .and_then(|b| b.get("enabled"))
                .and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            parsed
                .get("faults")
                .and_then(|f| f.get("injecting"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}
