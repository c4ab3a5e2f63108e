//! Tracing adapter for optimizer passes: wraps any [`CircuitOptimizer`]
//! so each `optimize` call records a span named after the pass, with
//! gate-count and T-count deltas as attributes. When no ambient trace is
//! installed (the common case) the wrapper adds one thread-local check
//! per call and records nothing.

use qcirc::Circuit;

use crate::passes::CircuitOptimizer;

/// A [`CircuitOptimizer`] that records a span per `optimize` call.
///
/// The span is named `qopt:<pass name>` and carries the input/output
/// gate counts and T-counts, so a trace shows exactly what each pass
/// bought — the attribution the optimizer-portfolio scheduler needs.
#[derive(Debug)]
pub struct TracedPass<O> {
    inner: O,
}

impl<O: CircuitOptimizer> TracedPass<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> TracedPass<O> {
        TracedPass { inner }
    }

    /// The wrapped pass.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: CircuitOptimizer> CircuitOptimizer for TracedPass<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn analogue_of(&self) -> &'static str {
        self.inner.analogue_of()
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        run_traced(&self.inner, circuit)
    }
}

/// Runs `pass` on `circuit` under a span carrying gate/T-count deltas.
///
/// This is the function the wrapper delegates to; callers holding a
/// `&dyn CircuitOptimizer` (the registry) can use it directly without
/// re-boxing.
pub fn run_traced(pass: &dyn CircuitOptimizer, circuit: &Circuit) -> Circuit {
    let mut span = spire_trace::span(span_name(pass.name()));
    let out = pass.optimize(circuit);
    if span.is_recording() {
        span.attr("gates_before", circuit.len() as u64);
        span.attr("gates_after", out.len() as u64);
        span.attr("t_before", circuit.t_count());
        span.attr("t_after", out.t_count());
    }
    out
}

/// Maps a pass name to a `'static` span stage name. Span stages must be
/// `&'static str`; the pass names are a closed set, so unknown names
/// (only possible for downstream custom passes) fall back to `"qopt"`.
fn span_name(pass: &str) -> &'static str {
    match pass {
        "adjacent-cancel" => "qopt:adjacent-cancel",
        "peephole" => "qopt:peephole",
        "phase-fold" => "qopt:phase-fold",
        "zx-graphlike" => "qopt:zx-graphlike",
        "feynman-tocliffordt" => "qopt:feynman-tocliffordt",
        "feynman-mctexpand" => "qopt:feynman-mctexpand",
        "global-resynth" => "qopt:global-resynth",
        "quartz-search" => "qopt:quartz-search",
        "queso-search" => "qopt:queso-search",
        _ => "qopt",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{registry, AdjacentCancel};
    use qcirc::Circuit;

    fn toy() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(qcirc::Gate::x(0));
        c.push(qcirc::Gate::x(0));
        c.push(qcirc::Gate::cnot(0, 1));
        c
    }

    #[test]
    fn traced_pass_matches_inner_pass() {
        let traced = TracedPass::new(AdjacentCancel);
        assert_eq!(traced.name(), "adjacent-cancel");
        let plain = AdjacentCancel.optimize(&toy());
        let wrapped = traced.optimize(&toy());
        assert_eq!(plain.len(), wrapped.len());
    }

    #[test]
    fn run_traced_records_delta_attrs_under_a_trace() {
        spire_trace::install(spire_trace::TraceCtx::new(1, true));
        let out = run_traced(&AdjacentCancel, &toy());
        let ctx = spire_trace::take().expect("trace installed");
        let records = ctx.records();
        let span = records
            .iter()
            .find(|r| r.stage() == "qopt:adjacent-cancel")
            .expect("pass span recorded");
        let attrs: Vec<(&str, spire_trace::AttrValue)> = span.attrs().collect();
        assert_eq!(attrs[0], ("gates_before", spire_trace::AttrValue::U64(3)));
        assert_eq!(
            attrs[1],
            ("gates_after", spire_trace::AttrValue::U64(out.len() as u64))
        );
    }

    #[test]
    fn every_registry_pass_has_a_static_span_name() {
        for pass in registry() {
            assert_ne!(
                span_name(pass.name()),
                "qopt",
                "unmapped pass {}",
                pass.name()
            );
        }
    }
}
