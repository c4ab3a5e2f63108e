//! Static verification for compiled Tower circuits.
//!
//! This crate implements the static-analysis layer of the Spire reproduction
//! of *The T-Complexity Costs of Error Correction for Control Flow in Quantum
//! Computation* (Yuan & Carbin, PLDI 2024). The paper's central claim is that
//! control flow under error correction is only as cheap as its uncomputation
//! discipline; the analyses here *prove* the properties the rest of the
//! pipeline merely trusts:
//!
//! * [`wellformed`] — structural well-formedness of the footprint-indexed
//!   gate stream: control/target overlap, qubit range versus the allocated
//!   layout width, operand-arena integrity, and an audit that every gate's
//!   precomputed [`qcirc::Footprint`] mask equals the mask recomputed from
//!   its operands.
//! * [`ancilla`] — an exact symbolic dataflow over the permutation fragment
//!   (X/CX/CCX/MCX, with havoc at Hadamard frontiers) proving each ancilla
//!   returns to |0⟩ before release, and flagging leaked ancillae and
//!   use-after-uncompute — on the MCX stream, and for the Barenco
//!   decomposition's ancillae by certifying each template once and
//!   scanning gate arities (with the streamed Toffoli level as fallback).
//! * [`cost`] — Theorem 5.1 on the emitted circuit: its gate histogram
//!   equals the cost model's.
//! * [`tbounds`] — an interval analysis over the Tower core IR predicting
//!   `[min, max]` T-count per function *before* selection and decomposition,
//!   cross-checked against actual compiled counts.
//! * [`certify`] — re-verification of optimizer pass output (structural
//!   checks plus a T-count non-increase invariant), the hook `qopt` runs
//!   behind `debug_assertions` or an opt-in flag.
//!
//! Every finding is a [`Diagnostic`] with a stable `verify/…` code (see
//! [`codes`]); a [`Report`] aggregates diagnostics with optional per-function
//! T-bounds and serializes to the workspace JSON model for `spire-cli check
//! --json` and the `POST /check` endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ancilla;
pub mod certify;
pub mod codes;
pub mod cost;
pub mod diag;
pub mod tbounds;
pub mod wellformed;

pub use ancilla::{
    check_ancillas, check_decomposition_ancillas, check_decomposition_ancillas_streamed,
    AncillaSpec, ArityScan,
};
pub use certify::{assert_certified, certify_pass};
pub use cost::check_cost_model;
pub use diag::{bound_violations, Diagnostic, FunctionBounds, Report, Severity};
pub use tbounds::{bound_function, TBound};
pub use wellformed::{check_audited_circuit, check_circuit};
