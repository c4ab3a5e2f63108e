//! Gate-stream well-formedness: structural audit of the packed circuit.
//!
//! Wraps [`qcirc::Circuit::audit_raw`] — the non-panicking walk over the
//! packed representation that checks arena slices, control ordering,
//! control/target overlap, qubit accounting, and the stored-versus-recomputed
//! [`qcirc::Footprint`] invariant — and maps each defect to a stable
//! `verify/…` diagnostic. Optionally also checks every gate against an
//! *allocated* width (the layout's qubit budget), which is stricter than the
//! circuit's own `num_qubits` accounting.

use qcirc::{Circuit, RawDefect};

use crate::codes;
use crate::diag::Diagnostic;

/// Check a circuit's structural invariants.
///
/// `allocated_width` is the number of qubits the enclosing layout actually
/// allocated; pass `None` to check only against the circuit's own
/// `num_qubits` accounting. Returns one diagnostic per defect, in gate-stream
/// order.
pub fn check_circuit(circuit: &Circuit, allocated_width: Option<u32>) -> Vec<Diagnostic> {
    check_audited_circuit(circuit, &circuit.audit_raw(), allocated_width)
}

/// [`check_circuit`] given the circuit's [`Circuit::audit_raw`] defects,
/// for a caller that audits once for several checks.
pub fn check_audited_circuit(
    circuit: &Circuit,
    defects: &[RawDefect],
    allocated_width: Option<u32>,
) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = defects.iter().map(defect_to_diagnostic).collect();

    // The width sweep reads gate views, which assume an intact arena; skip it
    // when the structural audit already found arena corruption.
    let arena_ok = !defects
        .iter()
        .any(|d| matches!(d, RawDefect::ArenaOutOfBounds { .. }));
    if let (Some(width), true) = (allocated_width, arena_ok) {
        for (index, view) in circuit.iter().enumerate() {
            let max = view.max_qubit();
            if max >= width {
                diags.push(
                    Diagnostic::error(
                        codes::QUBIT_OUT_OF_RANGE,
                        format!(
                            "gate {index} touches qubit {max} but the layout \
                             allocates only {width} qubits"
                        ),
                    )
                    .at_gate(index),
                );
            }
        }
    }
    diags
}

fn defect_to_diagnostic(defect: &RawDefect) -> Diagnostic {
    match *defect {
        RawDefect::ArenaOutOfBounds {
            index,
            offset,
            nctrl,
            arena_len,
        } => Diagnostic::error(
            codes::ARENA_OUT_OF_BOUNDS,
            format!(
                "gate {index} references arena controls {offset}..{} but the \
                 arena holds only {arena_len} entries",
                offset as usize + nctrl as usize
            ),
        )
        .at_gate(index),
        RawDefect::UnsortedControls {
            index,
            first,
            second,
        } => Diagnostic::error(
            codes::UNSORTED_CONTROLS,
            format!(
                "gate {index} has controls out of order: {first} before {second} \
                 (controls must be strictly increasing)"
            ),
        )
        .at_gate(index),
        RawDefect::ControlTargetOverlap { index, qubit } => Diagnostic::error(
            codes::CONTROL_TARGET_OVERLAP,
            format!("gate {index} uses qubit {qubit} as both control and target"),
        )
        .at_gate(index),
        RawDefect::QubitOutOfRange {
            index,
            qubit,
            width,
        } => Diagnostic::error(
            codes::QUBIT_OUT_OF_RANGE,
            format!(
                "gate {index} touches qubit {qubit} but the circuit declares \
                 only {width} qubits"
            ),
        )
        .at_gate(index),
        RawDefect::FootprintMismatch {
            index,
            stored,
            recomputed,
        } => Diagnostic::error(
            codes::FOOTPRINT_MISMATCH,
            format!(
                "gate {index} stores footprint mask {stored:#x} but its operands \
                 recompute to {recomputed:#x}"
            ),
        )
        .at_gate(index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::{Gate, GateKind};

    #[test]
    fn clean_circuit_produces_no_diagnostics() {
        let mut c = Circuit::new(4);
        c.push(Gate::mcx(vec![0, 1], 3));
        c.push(Gate::h(2));
        c.push(Gate::T(3));
        assert!(check_circuit(&c, Some(4)).is_empty());
    }

    #[test]
    fn layout_width_is_stricter_than_circuit_width() {
        let mut c = Circuit::new(8);
        c.push(Gate::cnot(0, 7));
        // Well-formed by the circuit's own accounting…
        assert!(check_circuit(&c, None).is_empty());
        // …but qubit 7 exceeds a 6-qubit layout budget.
        let diags = check_circuit(&c, Some(6));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::QUBIT_OUT_OF_RANGE);
        assert_eq!(diags[0].gate, Some(0));
    }

    #[test]
    fn corrupted_footprint_is_reported() {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(0, 1, 2));
        c.corrupt_footprint_for_test(0, 0b1000);
        let diags = check_circuit(&c, Some(3));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::FOOTPRINT_MISMATCH);
    }

    #[test]
    fn arena_corruption_suppresses_width_sweep_but_is_reported() {
        let mut c = Circuit::new(6);
        c.push(Gate::mcx(vec![0, 1, 2, 3], 5));
        c.corrupt_arena_offset_for_test(0, 1_000);
        let diags = check_circuit(&c, Some(6));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::ARENA_OUT_OF_BOUNDS);
    }

    #[test]
    fn overlap_and_ordering_are_reported() {
        let mut c = Circuit::new(4);
        c.push_raw_for_test(GateKind::Mcx, &[2, 1], 3);
        c.push_raw_for_test(GateKind::Mcx, &[0, 2], 2);
        let codes_seen: Vec<&str> = check_circuit(&c, None).iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::UNSORTED_CONTROLS));
        assert!(codes_seen.contains(&codes::CONTROL_TARGET_OVERLAP));
    }
}
