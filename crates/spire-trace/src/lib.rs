//! Dependency-free structured tracing and profiling for the Spire stack.
//!
//! The crate provides what every layer shares:
//!
//! * **Span records** ([`SpanRecord`]) — trace ID, span ID, parent link,
//!   monotonic start/end nanoseconds, a short static stage name, and a
//!   small typed attribute set (gate counts, cache-tier labels, …). All
//!   strings are stored inline in fixed-size buffers so a record is
//!   `Copy` and never allocates.
//! * **A per-trace span buffer** — each [`TraceCtx`] owns the finished
//!   spans of its request, at most [`MAX_SPANS`] of them plus the
//!   `request` root. Reading a trace costs O(its spans), never a scan
//!   of other requests' spans. The buffer needs no lock: a context is
//!   `Send` but not `Sync`, so it is only ever used by the one thread
//!   it was last moved to.
//! * **Seeded IDs** ([`IdGen`]) — trace and span IDs come from a
//!   SplitMix64 stream, so a server booted with a fixed seed produces
//!   byte-identical (time-normalized) span trees for identical requests
//!   and tests can pin traces.
//! * **An ambient API** ([`TraceCtx`], [`install`], [`span`]) — a
//!   thread-local current trace lets deep layers (`tower`, `qopt`,
//!   `spire`) record stage spans without threading a context through
//!   every signature. When no trace is installed, [`span`] is a single
//!   thread-local check and records nothing.
//!
//! On top of the records sit two exporters: [`build_tree`] assembles a
//! parent-linked [`SpanTree`] (with a canonical JSON form used by the
//! `?trace=1` serving surface and the determinism tests), and
//! [`chrome_trace_json`] writes Chrome `trace_event` JSON loadable in
//! `chrome://tracing` or Perfetto.
//!
//! The crate is intentionally `std`-only: it sits below `tower` in the
//! dependency graph so the whole compile pipeline can be instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;

mod ambient;
mod chrome;
mod tree;

pub use ambient::{
    active_explicit, active_now_ns, active_records, active_root_id, active_trace_id,
    ambient_parent, install, is_active, span, take, SpanGuard, TraceCtx,
};
pub use chrome::{chrome_trace_json, ChromeGroup};
pub use tree::{build_tree, SpanNode, SpanTree};

/// Maximum number of stage and phase spans one trace keeps; extra spans
/// are silently dropped (the `request` root is always kept).
pub const MAX_SPANS: usize = 4096;
/// Maximum number of attributes a span can carry; extra attributes are
/// silently dropped.
pub const MAX_ATTRS: usize = 4;
/// Maximum stage-name length stored in a record (longer names truncate).
pub const MAX_STAGE_LEN: usize = 24;
/// Maximum attribute-key length stored in a record.
pub const MAX_KEY_LEN: usize = 16;
/// Maximum label-value length stored in a record.
pub const MAX_LABEL_LEN: usize = 8;

/// A short string stored inline (no heap), truncated at a char boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FixedStr<const N: usize> {
    bytes: [u8; N],
    len: u8,
}

impl<const N: usize> FixedStr<N> {
    /// Copies `s` into an inline buffer, truncating to at most `N` bytes
    /// on a character boundary.
    pub fn new(s: &str) -> FixedStr<N> {
        let mut end = s.len().min(N);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; N];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        FixedStr {
            bytes,
            len: end as u8,
        }
    }

    /// The stored string.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).unwrap_or("")
    }
}

impl<const N: usize> Default for FixedStr<N> {
    fn default() -> Self {
        FixedStr {
            bytes: [0u8; N],
            len: 0,
        }
    }
}

/// A typed span-attribute value: either a counter-like number or a short
/// label (cache tier, single-flight role, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrValue {
    /// A numeric value (gate count, byte count, …).
    U64(u64),
    /// A short inline label, at most [`MAX_LABEL_LEN`] bytes.
    Label(FixedStr<MAX_LABEL_LEN>),
}

/// Builds a [`AttrValue::Label`] from a string, truncating as needed.
pub fn label(s: &str) -> AttrValue {
    AttrValue::Label(FixedStr::new(s))
}

/// One key/value attribute on a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Attr {
    key: FixedStr<MAX_KEY_LEN>,
    value: AttrValue,
}

impl Attr {
    /// The attribute key.
    pub fn key(&self) -> &str {
        self.key.as_str()
    }

    /// The attribute value.
    pub fn value(&self) -> AttrValue {
        self.value
    }
}

/// A finished span: one timed stage of one traced request.
///
/// Records are plain `Copy` values with inline strings; `span_id` is
/// never zero and `parent_id == 0` marks a root span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The trace this span belongs to (never zero).
    pub trace_id: u64,
    /// This span's ID (never zero).
    pub span_id: u64,
    /// Parent span ID, or zero for a root span.
    pub parent_id: u64,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End time in nanoseconds since the trace epoch.
    pub end_ns: u64,
    stage: FixedStr<MAX_STAGE_LEN>,
    attrs: [Attr; MAX_ATTRS],
    attr_count: u8,
}

impl SpanRecord {
    /// Builds a record with no attributes.
    pub fn new(
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        stage: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id,
            start_ns,
            end_ns,
            stage: FixedStr::new(stage),
            attrs: [Attr {
                key: FixedStr::default(),
                value: AttrValue::U64(0),
            }; MAX_ATTRS],
            attr_count: 0,
        }
    }

    /// Appends an attribute; silently dropped past [`MAX_ATTRS`].
    pub fn push_attr(&mut self, key: &str, value: AttrValue) {
        let n = usize::from(self.attr_count);
        if n < MAX_ATTRS {
            self.attrs[n] = Attr {
                key: FixedStr::new(key),
                value,
            };
            self.attr_count = self.attr_count.wrapping_add(1);
        }
    }

    /// The stage name.
    pub fn stage(&self) -> &str {
        self.stage.as_str()
    }

    /// The attributes, in insertion order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, AttrValue)> {
        self.attrs[..usize::from(self.attr_count)]
            .iter()
            .map(|a| (a.key.as_str(), a.value))
    }

    /// Span duration in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A deterministic SplitMix64 ID stream.
///
/// Seeded generators yield the same ID sequence on every run, so a
/// server booted with a fixed seed assigns identical trace and span IDs
/// to identical request sequences — the determinism tests rely on this.
/// IDs are never zero (zero is the "no parent" sentinel).
#[derive(Debug)]
pub struct IdGen {
    state: Cell<u64>,
}

impl IdGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> IdGen {
        IdGen {
            state: Cell::new(seed),
        }
    }

    /// The next non-zero ID in the stream.
    pub fn next_id(&self) -> u64 {
        loop {
            let next = splitmix64(self.state.get());
            self.state
                .set(self.state.get().wrapping_add(0x9e37_79b9_7f4a_7c15));
            if next != 0 {
                return next;
            }
        }
    }
}

/// Derives the seed for the `n`-th trace from a base seed, so each trace
/// gets an independent but reproducible ID stream.
pub fn derive_seed(base: u64, n: u64) -> u64 {
    splitmix64(base ^ n.wrapping_mul(0xff51_afd7_ed55_8ccd))
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_str_truncates_on_char_boundary() {
        let s: FixedStr<4> = FixedStr::new("héllo");
        // 'h' (1) + 'é' (2) = 3 bytes; adding 'l' fits exactly at 4.
        assert_eq!(s.as_str(), "hél");
        let t: FixedStr<8> = FixedStr::new("short");
        assert_eq!(t.as_str(), "short");
    }

    #[test]
    fn id_gen_is_deterministic_and_nonzero() {
        let a = IdGen::new(42);
        let b = IdGen::new(42);
        let ids_a: Vec<u64> = (0..64).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..64).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b);
        assert!(ids_a.iter().all(|&id| id != 0));
        let c = IdGen::new(43);
        let ids_c: Vec<u64> = (0..64).map(|_| c.next_id()).collect();
        assert_ne!(ids_a, ids_c);
    }

    #[test]
    fn derive_seed_separates_traces() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn record_attrs_cap_at_max() {
        let mut rec = SpanRecord::new(1, 2, 0, "stage", 0, 10);
        for i in 0..8u64 {
            rec.push_attr("k", AttrValue::U64(i));
        }
        assert_eq!(rec.attrs().count(), MAX_ATTRS);
        assert_eq!(rec.duration_ns(), 10);
    }

    #[test]
    fn label_truncates() {
        let AttrValue::Label(l) = label("a-very-long-tier-name") else {
            panic!("expected label");
        };
        assert_eq!(l.as_str().len(), MAX_LABEL_LEN);
    }
}
