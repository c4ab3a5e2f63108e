//! The ambient (thread-local) current trace.
//!
//! A [`TraceCtx`] is created per traced request, [`install`]ed on the
//! thread that executes the request, and [`take`]n back afterward so the
//! event loop can finish the trace (write-phase span, slow log). While a
//! context is installed, [`span`] opens an RAII stage span whose parent
//! is the innermost open span; deep layers call it unconditionally — when
//! no trace is installed it costs one thread-local check and records
//! nothing.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::{AttrValue, IdGen, SpanRecord, MAX_SPANS};

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// The per-request tracing context: trace ID, deterministic span-ID
/// stream, the epoch all span timestamps are relative to, and the
/// buffer of this trace's finished spans.
///
/// The buffer needs no lock: a context is never shared, only moved
/// (event loop → worker → event loop), and it is `Send` but not `Sync`.
///
/// The context carries a pre-allocated root span ID ([`TraceCtx::root_id`]);
/// phase spans recorded before/after the handler runs (read/parse, queue,
/// write) parent onto it, and the final `request` root record is written
/// when the response has been flushed.
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: u64,
    root_id: u64,
    ids: IdGen,
    explicit: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    parent: Cell<u64>,
}

impl TraceCtx {
    /// Creates a context whose epoch is "now".
    pub fn new(seed: u64, explicit: bool) -> TraceCtx {
        TraceCtx::with_epoch(seed, explicit, Instant::now())
    }

    /// Creates a context with an explicit epoch (e.g. the instant the
    /// first request byte arrived), so spans recorded from different
    /// threads share a time base.
    pub fn with_epoch(seed: u64, explicit: bool, epoch: Instant) -> TraceCtx {
        let ids = IdGen::new(seed);
        let trace_id = ids.next_id();
        let root_id = ids.next_id();
        TraceCtx {
            trace_id,
            root_id,
            ids,
            explicit,
            epoch,
            spans: RefCell::new(Vec::new()),
            parent: Cell::new(root_id),
        }
    }

    /// The trace ID (never zero).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The pre-allocated root span ID; the `request` root record itself
    /// is written by [`TraceCtx::record_root`] once the request is done.
    pub fn root_id(&self) -> u64 {
        self.root_id
    }

    /// Whether the client asked for the trace explicitly (`?trace=1`),
    /// as opposed to being picked up by sampling.
    pub fn is_explicit(&self) -> bool {
        self.explicit
    }

    /// Nanoseconds elapsed since the trace epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Keeps a finished stage or phase span unless the buffer is full.
    fn push(&self, rec: SpanRecord) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        }
    }

    /// Records an already-timed span under the root (used by the event
    /// loop for the read/parse, queue, and write phases, which do not
    /// run inside an installed context). Returns the new span's ID.
    pub fn record_phase(
        &self,
        stage: &str,
        start_ns: u64,
        end_ns: u64,
        attrs: &[(&str, AttrValue)],
    ) -> u64 {
        let span_id = self.ids.next_id();
        let mut rec = SpanRecord::new(
            self.trace_id,
            span_id,
            self.root_id,
            stage,
            start_ns,
            end_ns,
        );
        for (key, value) in attrs {
            rec.push_attr(key, *value);
        }
        self.push(rec);
        span_id
    }

    /// Writes the `request` root record spanning the whole request, from
    /// epoch (first byte) to `end_ns`. The root is kept even when the
    /// buffer is full.
    pub fn record_root(&self, end_ns: u64, attrs: &[(&str, AttrValue)]) {
        let mut rec = SpanRecord::new(self.trace_id, self.root_id, 0, "request", 0, end_ns);
        for (key, value) in attrs {
            rec.push_attr(key, *value);
        }
        self.spans.borrow_mut().push(rec);
    }

    /// Every span recorded so far, sorted by `(start_ns, span_id)` so the
    /// order is deterministic even for zero-length spans.
    pub fn records(&self) -> Vec<SpanRecord> {
        sorted(self.spans.borrow().clone())
    }

    /// Consumes the context and returns its spans in [`TraceCtx::records`]
    /// order, without copying them.
    pub fn into_records(self) -> Vec<SpanRecord> {
        sorted(self.spans.into_inner())
    }
}

fn sorted(mut records: Vec<SpanRecord>) -> Vec<SpanRecord> {
    records.sort_by_key(|r| (r.start_ns, r.span_id));
    records
}

/// Installs `ctx` as the current trace for this thread, replacing (and
/// dropping) any previous one.
pub fn install(ctx: TraceCtx) {
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(ctx);
    });
}

/// Removes and returns the current trace, if any.
pub fn take() -> Option<TraceCtx> {
    CURRENT.with(|current| current.borrow_mut().take())
}

/// Whether a trace is installed on this thread.
pub fn is_active() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// The current trace ID, if a trace is installed.
pub fn active_trace_id() -> Option<u64> {
    CURRENT.with(|current| current.borrow().as_ref().map(TraceCtx::trace_id))
}

/// The current trace ID if the trace was requested explicitly
/// (`?trace=1`); `None` for sampled or absent traces.
pub fn active_explicit() -> Option<u64> {
    CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .filter(|ctx| ctx.is_explicit())
            .map(TraceCtx::trace_id)
    })
}

/// The current trace's pre-allocated root span ID, if one is installed.
pub fn active_root_id() -> Option<u64> {
    CURRENT.with(|current| current.borrow().as_ref().map(TraceCtx::root_id))
}

/// Nanoseconds since the current trace's epoch, if one is installed.
pub fn active_now_ns() -> Option<u64> {
    CURRENT.with(|current| current.borrow().as_ref().map(TraceCtx::now_ns))
}

/// The innermost open span's ID (the ambient parent), if a trace is
/// installed. Before any span opens this is the root span ID.
pub fn ambient_parent() -> Option<u64> {
    CURRENT.with(|current| current.borrow().as_ref().map(|ctx| ctx.parent.get()))
}

/// The current trace's visible records, paired with its trace ID.
pub fn active_records() -> Option<(u64, Vec<SpanRecord>)> {
    CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .map(|ctx| (ctx.trace_id, ctx.records()))
    })
}

/// An RAII stage span. Created by [`span`]; the span is pushed into the
/// current trace's buffer when the guard drops. Inert (a no-op) when no
/// trace is installed on the thread.
pub struct SpanGuard {
    live: Option<SpanRecord>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (a trace is installed).
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attaches a numeric attribute (gate count, byte count, …).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(live) = self.live.as_mut() {
            live.push_attr(key, AttrValue::U64(value));
        }
    }

    /// Attaches a short label attribute (cache tier, flight role, …).
    pub fn attr_label(&mut self, key: &'static str, value: &str) {
        if let Some(live) = self.live.as_mut() {
            live.push_attr(key, crate::label(value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut rec) = self.live.take() else {
            return;
        };
        CURRENT.with(|current| {
            let borrow = current.borrow();
            let Some(ctx) = borrow.as_ref() else {
                // The context was taken while the span was open; the
                // span is lost, which is fine — guards are scoped
                // strictly inside the install/take window by callers.
                return;
            };
            ctx.parent.set(rec.parent_id);
            rec.end_ns = ctx.now_ns();
            ctx.push(rec);
        });
    }
}

/// Opens a stage span under the current trace. The returned guard
/// records the span when dropped; nested calls nest spans. When no trace
/// is installed this is a single thread-local check returning an inert
/// guard.
pub fn span(stage: &'static str) -> SpanGuard {
    CURRENT.with(|current| {
        let borrow = current.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return SpanGuard { live: None };
        };
        let span_id = ctx.ids.next_id();
        let parent_id = ctx.parent.replace(span_id);
        let start_ns = ctx.now_ns();
        SpanGuard {
            live: Some(SpanRecord::new(
                ctx.trace_id,
                span_id,
                parent_id,
                stage,
                start_ns,
                start_ns,
            )),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> TraceCtx {
        TraceCtx::new(seed, true)
    }

    #[test]
    fn span_without_trace_is_inert() {
        assert!(take().is_none());
        let mut guard = span("parse");
        assert!(!guard.is_recording());
        guard.attr("gates", 3);
        drop(guard);
        assert!(!is_active());
    }

    #[test]
    fn nested_spans_build_parent_links() {
        install(ctx(11));
        let outer = span("handler");
        let outer_id = ambient_parent().unwrap();
        {
            let mut inner = span("parse");
            inner.attr("bytes", 42);
        }
        drop(outer);
        let taken = take().expect("installed");
        let records = taken.records();
        assert_eq!(records.len(), 2);
        let parse = records.iter().find(|r| r.stage() == "parse").unwrap();
        let handler = records.iter().find(|r| r.stage() == "handler").unwrap();
        assert_eq!(parse.parent_id, handler.span_id);
        assert_eq!(handler.span_id, outer_id);
        assert_eq!(handler.parent_id, taken.root_id());
        assert_eq!(parse.attrs().next(), Some(("bytes", AttrValue::U64(42))));
    }

    #[test]
    fn phase_and_root_records_parent_onto_root() {
        let trace = ctx(5);
        let root = trace.root_id();
        trace.record_phase("queue", 10, 20, &[("depth", AttrValue::U64(2))]);
        trace.record_root(99, &[]);
        let records = trace.records();
        let queue = records.iter().find(|r| r.stage() == "queue").unwrap();
        let request = records.iter().find(|r| r.stage() == "request").unwrap();
        assert_eq!(queue.parent_id, root);
        assert_eq!(request.span_id, root);
        assert_eq!(request.parent_id, 0);
        assert_eq!(request.end_ns, 99);
    }

    #[test]
    fn take_returns_installed_context() {
        install(ctx(1));
        assert!(is_active());
        assert!(active_trace_id().is_some());
        assert!(active_explicit().is_some());
        assert!(active_now_ns().is_some());
        let taken = take().unwrap();
        assert!(taken.is_explicit());
        assert!(!is_active());
        assert!(active_explicit().is_none());
    }

    #[test]
    fn seeded_contexts_assign_identical_ids() {
        let a = ctx(77);
        let b = ctx(77);
        assert_eq!(a.trace_id(), b.trace_id());
        assert_eq!(a.root_id(), b.root_id());
        install(a);
        {
            let _outer = span("x");
            let _inner = span("y");
        }
        let a = take().unwrap();
        install(b);
        {
            let _outer = span("x");
            let _inner = span("y");
        }
        let b = take().unwrap();
        let ids_a: Vec<u64> = a.records().iter().map(|r| r.span_id).collect();
        let ids_b: Vec<u64> = b.records().iter().map(|r| r.span_id).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn concurrent_contexts_keep_only_their_own_spans_in_order() {
        const SPANS: usize = 32;
        let barrier = std::sync::Barrier::new(2);
        let traces = std::thread::scope(|scope| {
            let barrier = &barrier;
            [3, 4]
                .map(|seed| {
                    scope.spawn(move || {
                        let trace = ctx(seed);
                        // Recorded out of start order; records() sorts.
                        trace.record_phase("late", u64::MAX / 2, u64::MAX / 2, &[]);
                        trace.record_phase("early", 0, 1, &[]);
                        install(trace);
                        for _ in 0..SPANS {
                            barrier.wait();
                            let _span = span("stage");
                        }
                        take().expect("installed")
                    })
                })
                .map(|worker| worker.join().unwrap())
        });
        assert_ne!(traces[0].trace_id(), traces[1].trace_id());
        for trace in &traces {
            let records = trace.records();
            assert_eq!(records.len(), SPANS + 2);
            assert!(records.iter().all(|r| r.trace_id == trace.trace_id()));
            assert!(records
                .windows(2)
                .all(|w| (w[0].start_ns, w[0].span_id) < (w[1].start_ns, w[1].span_id)));
            assert_eq!(records[0].stage(), "early");
            assert_eq!(records[SPANS + 1].stage(), "late");
        }
    }

    #[test]
    fn buffer_caps_stage_spans_but_keeps_the_root() {
        let trace = ctx(9);
        for i in 0..MAX_SPANS as u64 + 5 {
            trace.record_phase("stage", i, i + 1, &[]);
        }
        trace.record_root(u64::MAX, &[]);
        let records = trace.records();
        let stages = records.iter().filter(|r| r.stage() == "stage").count();
        assert_eq!(stages, MAX_SPANS);
        assert!(records
            .iter()
            .any(|r| r.stage() == "request" && r.span_id == trace.root_id()));
        assert_eq!(trace.into_records(), records);
    }
}
