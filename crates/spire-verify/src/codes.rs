//! The stable `verify/…` diagnostic-code namespace.
//!
//! Codes are part of the tool's public contract: CI goldens, the negative
//! fixture corpus, and `POST /check` clients all match on them, so a code is
//! never renamed or reused once published. New analyses append new codes.

/// Operand-arena slice of an MCX lies outside the arena.
pub const ARENA_OUT_OF_BOUNDS: &str = "verify/arena-out-of-bounds";
/// Control list of a gate is not strictly sorted (unordered or duplicated).
pub const UNSORTED_CONTROLS: &str = "verify/unsorted-controls";
/// A gate's target also appears among its controls.
pub const CONTROL_TARGET_OVERLAP: &str = "verify/control-target-overlap";
/// A gate touches a qubit index at or beyond the allocated width.
pub const QUBIT_OUT_OF_RANGE: &str = "verify/qubit-out-of-range";
/// A gate's stored footprint mask differs from the recomputed mask.
pub const FOOTPRINT_MISMATCH: &str = "verify/footprint-mismatch";
/// An ancilla is provably not |0⟩ when the circuit ends.
pub const LEAKED_ANCILLA: &str = "verify/leaked-ancilla";
/// An ancilla is read as a control after it was uncomputed back to |0⟩.
pub const USE_AFTER_UNCOMPUTE: &str = "verify/use-after-uncompute";
/// The analysis lost precision and cannot prove the ancilla returns to |0⟩.
pub const ANCILLA_INDETERMINATE: &str = "verify/ancilla-indeterminate";
/// A compiled T-count falls outside the statically predicted interval.
pub const T_BOUND_VIOLATION: &str = "verify/t-bound-violation";
/// An optimizer pass increased the T-count of the circuit it rewrote.
pub const PASS_T_INCREASE: &str = "verify/pass-t-increase";
/// The emitted circuit's gate histogram differs from the cost model's
/// (Theorem 5.1).
pub const COST_MODEL_MISMATCH: &str = "verify/cost-model-mismatch";

/// Every published code, in publication order.
pub const ALL: &[&str] = &[
    ARENA_OUT_OF_BOUNDS,
    UNSORTED_CONTROLS,
    CONTROL_TARGET_OVERLAP,
    QUBIT_OUT_OF_RANGE,
    FOOTPRINT_MISMATCH,
    LEAKED_ANCILLA,
    USE_AFTER_UNCOMPUTE,
    ANCILLA_INDETERMINATE,
    T_BOUND_VIOLATION,
    PASS_T_INCREASE,
    COST_MODEL_MISMATCH,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    /// The code namespace is a stable contract: prefixed, kebab-case, unique.
    #[test]
    fn codes_are_stable_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for code in ALL {
            let suffix = code
                .strip_prefix("verify/")
                .unwrap_or_else(|| panic!("{code}: missing verify/ prefix"));
            assert!(
                !suffix.is_empty()
                    && suffix
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{code}: suffix must be kebab-case"
            );
            assert!(seen.insert(*code), "{code}: duplicated");
        }
        assert_eq!(seen.len(), 11, "adding a code? append it to ALL");
    }
}
