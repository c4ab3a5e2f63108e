//! Theorem 5.1 on the emitted circuit: the cost model is exact.
//!
//! The paper's cost model (§5) computes a program's gate histogram from its
//! syntax, and Theorem 5.1 states that it equals the histogram of the
//! circuit the compiler emits. [`check_cost_model`] compares the two, so a
//! cost-model bug surfaces as `verify/cost-model-mismatch` on every check,
//! release builds included.

use qcirc::{Circuit, GateHistogram};

use crate::ancilla::ArityScan;
use crate::codes;
use crate::diag::Diagnostic;

/// How many differing arities a mismatch message lists.
const LISTED: usize = 3;

/// Compare the cost model's histogram with an MCX-level circuit's.
///
/// Returns one `verify/cost-model-mismatch` error when any arity's count
/// differs or the circuit holds a phase gate (no histogram models one),
/// and nothing when they agree. A circuit that fails
/// [`Circuit::audit_raw`] is not read.
pub fn check_cost_model(model: &GateHistogram, circuit: &Circuit) -> Vec<Diagnostic> {
    ArityScan::of(circuit).cost_model(model)
}

/// The comparison behind [`check_cost_model`], on a scanned histogram.
pub(crate) fn compare(
    model: &GateHistogram,
    emitted: &GateHistogram,
    phase_gates: u64,
) -> Vec<Diagnostic> {
    let mut differences = Vec::new();
    for arity in 0..=model.max_controls().max(emitted.max_controls()) {
        for (name, modeled, found) in [
            ("MCX", model.mcx_count(arity), emitted.mcx_count(arity)),
            ("MCH", model.mch_count(arity), emitted.mch_count(arity)),
        ] {
            if modeled != found {
                differences.push(format!(
                    "{name} with {arity} controls: {modeled} modeled, {found} emitted"
                ));
            }
        }
    }
    if phase_gates > 0 {
        differences.push(format!("{phase_gates} phase gate(s) emitted"));
    }
    if differences.is_empty() {
        return Vec::new();
    }
    let more = differences.len().saturating_sub(LISTED);
    differences.truncate(LISTED);
    let mut listed = differences.join("; ");
    if more > 0 {
        listed.push_str(&format!("; and {more} more"));
    }
    vec![Diagnostic::error(
        codes::COST_MODEL_MISMATCH,
        format!("the emitted circuit ({emitted}) differs from the cost model ({model}): {listed}"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Gate;

    fn circuit() -> Circuit {
        let mut c = Circuit::new(5);
        c.push(Gate::mcx(vec![0, 1, 2], 3));
        c.push(Gate::toffoli(0, 1, 4));
        c.push(Gate::cnot(0, 1));
        c
    }

    fn histogram_of(circuit: &Circuit) -> GateHistogram {
        let mut hist = GateHistogram::new();
        for view in circuit {
            hist.record_view(&view);
        }
        hist
    }

    #[test]
    fn matching_histogram_is_silent() {
        let c = circuit();
        assert!(check_cost_model(&histogram_of(&c), &c).is_empty());
    }

    #[test]
    fn hand_built_mismatch_is_an_error() {
        let c = circuit();
        let mut model = histogram_of(&c);
        model.add_mcx(3, 1); // one 3-control MCX more than was emitted
        let diags = check_cost_model(&model, &c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::COST_MODEL_MISMATCH);
        assert_eq!(diags[0].severity, crate::Severity::Error);
        assert!(
            diags[0]
                .message
                .ends_with(": MCX with 3 controls: 2 modeled, 1 emitted"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn phase_gates_never_match_a_model() {
        let mut c = circuit();
        c.push(Gate::T(0));
        let diags = check_cost_model(&histogram_of(&circuit()), &c);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.ends_with(": 1 phase gate(s) emitted"));
    }

    #[test]
    fn long_mismatches_are_summarized() {
        let mut model = GateHistogram::new();
        for arity in 0..6 {
            model.add_mcx(arity, 1);
        }
        let diags = check_cost_model(&model, &Circuit::new(2));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.ends_with("; and 3 more"));
    }
}
