//! The replay's span recorder. Spans are opened and closed around calls
//! into the layers' public functions, kept in memory, and written out as
//! JSON lines when the replay ends. Nothing inside the program under test
//! is instrumented: every span here wraps a call made by the benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based span id; 0 is "no parent".
    pub id: usize,
    pub parent: usize,
    /// The replay session (one generated request) this span belongs to.
    pub session: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled recorder still runs every wrapped
/// call, so the same replay can be timed with and without recording to
/// measure the recorder's own overhead.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
        }
    }

    pub fn set_session(&mut self, session: usize) {
        self.session = session;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            session: self.session,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        let now = self.now_ns();
        self.spans[id - 1].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (its duration minus the time its direct
    /// children cover), grouped by span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent] += span.dur_ns();
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            let own = span.dur_ns().saturating_sub(child_ns[span.id]);
            by_name.entry(span.name).or_default().push(own);
        }
        by_name
    }

    /// The spans as JSON lines (`name`, `id`, `parent`, `session`,
    /// `start_ns`, `end_ns`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"session\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.session, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.enter("outer");
        rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans[1].parent, spans[0].id);
        let times = rec.self_times();
        assert!(times["inner"][0] >= 2_000_000);
        assert!(times["outer"][0] < spans[0].dur_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", || 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
