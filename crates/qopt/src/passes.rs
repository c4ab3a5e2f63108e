//! The named optimizer analogues used in the paper's evaluation
//! (Section 8.3). Every optimizer accepts an MCX-level circuit (as the
//! Spire compiler emits) and returns a Clifford+T circuit; where the real
//! tool required preprocessing, the analogue performs the equivalent
//! lowering internally, mirroring the paper's methodology of feeding each
//! optimizer the gate set it accepts.
//!
//! | analogue | stands for | mechanism |
//! |---|---|---|
//! | [`AdjacentCancel`] | Qiskit `transpile -O3` | Clifford+T peephole |
//! | [`Peephole`] | Pytket `FullPeepholeOptimise` | wider peephole |
//! | [`PhaseFoldLight`] | VOQC `optimize_nam` | rotation merging |
//! | [`ZxGraphLike`] | Pytket `ZXGraphlikeOptimisation` | rotation merging variant |
//! | [`CliffordTResynth`] | Feynman `-toCliffordT -O2` | decompose, then fold/cancel to fixpoint |
//! | [`ToffoliCancel`] | Feynman `-mctExpand -O2` | cancel at the Toffoli level first |
//! | [`GlobalResynth`] | QuiZX `full_simp` | unbounded-window cancellation + folding |
//!
//! The mechanism determines the asymptotics on control-flow circuits
//! (paper Section 8.5): only the Toffoli-level passes recover linear
//! T-complexity.

use qcirc::decompose::{mcx_to_toffoli, toffoli_to_clifford_t};
use qcirc::Circuit;

use crate::cancel::cancel_fixpoint;
use crate::phase_fold::phase_fold;

/// A circuit optimizer in the style of the paper's Section 8.3 baselines.
pub trait CircuitOptimizer {
    /// Short identifier used in reports (e.g. `"feynman-mctexpand"`).
    fn name(&self) -> &'static str;

    /// The published tool this analogue stands for.
    fn analogue_of(&self) -> &'static str;

    /// Optimize an MCX-level circuit into a Clifford+T circuit.
    fn optimize(&self, circuit: &Circuit) -> Circuit;
}

impl std::fmt::Debug for dyn CircuitOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CircuitOptimizer({})", self.name())
    }
}

fn decompose(circuit: &Circuit) -> Circuit {
    toffoli_to_clifford_t(&mcx_to_toffoli(circuit)).expect("mcx_to_toffoli leaves arity <= 2")
}

/// Alternate [`phase_fold`] and [`cancel_fixpoint`] (with `window`) until
/// a round no longer shrinks the circuit, and return the smallest circuit.
///
/// A round whose cancellation removed nothing returns its output at once.
/// Its output is then `phase_fold(current)`, and the next round would
/// reproduce it exactly: `phase_fold` is idempotent gate for gate, so the
/// refold returns the same circuit, and `cancel_fixpoint` is deterministic
/// and already removed nothing from it. That round would find no
/// shrinkage and return this same circuit, so skipping it changes no
/// output gate.
fn fold_cancel_fixpoint(mut current: Circuit, window: usize) -> Circuit {
    loop {
        let folded = phase_fold(&current);
        let next = cancel_fixpoint(&folded, window);
        if next.len() >= current.len() {
            return current;
        }
        if next.len() == folded.len() {
            return next;
        }
        current = next;
    }
}

/// Qiskit-style adjacent-gate cancellation on the Clifford+T circuit.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdjacentCancel;

impl CircuitOptimizer for AdjacentCancel {
    fn name(&self) -> &'static str {
        "adjacent-cancel"
    }

    fn analogue_of(&self) -> &'static str {
        "Qiskit transpile optimization_level=3"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        cancel_fixpoint(&decompose(circuit), 1)
    }
}

/// Pytket-style peephole: adjacent cancellation with a slightly wider
/// window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peephole;

impl CircuitOptimizer for Peephole {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn analogue_of(&self) -> &'static str {
        "Pytket FullPeepholeOptimise"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        cancel_fixpoint(&decompose(circuit), 4)
    }
}

/// VOQC-style rotation merging over the Clifford+T circuit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseFoldLight;

impl CircuitOptimizer for PhaseFoldLight {
    fn name(&self) -> &'static str {
        "phase-fold"
    }

    fn analogue_of(&self) -> &'static str {
        "VOQC optimize_nam"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        cancel_fixpoint(&phase_fold(&decompose(circuit)), 2)
    }
}

/// Pytket-ZX-style variant: cancellation before and after folding.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZxGraphLike;

impl CircuitOptimizer for ZxGraphLike {
    fn name(&self) -> &'static str {
        "zx-graphlike"
    }

    fn analogue_of(&self) -> &'static str {
        "Pytket ZXGraphlikeOptimisation"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        let c = cancel_fixpoint(&decompose(circuit), 2);
        cancel_fixpoint(&phase_fold(&c), 2)
    }
}

/// Feynman `-toCliffordT`: decompose first, then fold and cancel to a
/// fixpoint. Better constants than the peepholes, still quadratic on
/// control-flow circuits (the Hadamards inside decomposed Toffolis block
/// the folding regions).
///
/// The fixpoint stops after a round whose cancellation removed nothing:
/// [`phase_fold`] is idempotent gate for gate and cancellation is
/// deterministic, so the round that used to follow reproduced that
/// round's output exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliffordTResynth;

impl CircuitOptimizer for CliffordTResynth {
    fn name(&self) -> &'static str {
        "feynman-tocliffordt"
    }

    fn analogue_of(&self) -> &'static str {
        "Feynman feynopt -toCliffordT -O2"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        fold_cancel_fixpoint(decompose(circuit), 16)
    }
}

/// Feynman `-mctExpand`: cancel at the Toffoli level *before* decomposing.
/// This captures conditional flattening (paper Section 8.5) and recovers
/// asymptotically efficient circuits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ToffoliCancel;

impl CircuitOptimizer for ToffoliCancel {
    fn name(&self) -> &'static str {
        "feynman-mctexpand"
    }

    fn analogue_of(&self) -> &'static str {
        "Feynman feynopt -mctExpand -O2"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        let toffoli_level = cancel_fixpoint(&mcx_to_toffoli(circuit), 64);
        let clifford_t =
            toffoli_to_clifford_t(&toffoli_level).expect("arity <= 2 after mcx_to_toffoli");
        cancel_fixpoint(&phase_fold(&clifford_t), 16)
    }
}

/// QuiZX-style long-range resynthesis: unbounded-window cancellation at the
/// Toffoli level, then folding and unbounded cancellation at the
/// Clifford+T level, iterated to a fixpoint. Finds the most structure and
/// takes the most time (the paper reports QuiZX 14×–6500× slower than
/// Feynman).
///
/// The Clifford+T fixpoint stops after a round whose cancellation removed
/// nothing: [`phase_fold`] is idempotent gate for gate and cancellation is
/// deterministic, so the round that used to follow reproduced that
/// round's output exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalResynth;

impl CircuitOptimizer for GlobalResynth {
    fn name(&self) -> &'static str {
        "global-resynth"
    }

    fn analogue_of(&self) -> &'static str {
        "QuiZX full_simp"
    }

    fn optimize(&self, circuit: &Circuit) -> Circuit {
        let toffoli_level = cancel_fixpoint(&mcx_to_toffoli(circuit), usize::MAX);
        let clifford_t =
            toffoli_to_clifford_t(&toffoli_level).expect("arity <= 2 after mcx_to_toffoli");
        fold_cancel_fixpoint(clifford_t, usize::MAX)
    }
}

/// All fixed-strategy optimizers, in the order the paper lists them
/// (the search-based optimizers live in [`crate::SearchOpt`]).
pub fn registry() -> Vec<Box<dyn CircuitOptimizer>> {
    vec![
        Box::new(AdjacentCancel),
        Box::new(Peephole),
        Box::new(PhaseFoldLight),
        Box::new(ZxGraphLike),
        Box::new(CliffordTResynth),
        Box::new(ToffoliCancel),
        Box::new(GlobalResynth),
    ]
}

/// [`registry`] with every pass wrapped in [`crate::Certified`]: each
/// application is re-verified (structural audit plus the T-count
/// non-increase invariant) when certification is active — always under
/// `debug_assertions`, or via `QOPT_CERTIFY=1` in release builds.
pub fn registry_certified() -> Vec<Box<dyn CircuitOptimizer>> {
    vec![
        Box::new(crate::Certified(AdjacentCancel)),
        Box::new(crate::Certified(Peephole)),
        Box::new(crate::Certified(PhaseFoldLight)),
        Box::new(crate::Certified(ZxGraphLike)),
        Box::new(crate::Certified(CliffordTResynth)),
        Box::new(crate::Certified(ToffoliCancel)),
        Box::new(crate::Certified(GlobalResynth)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::sim::StateVec;
    use qcirc::Gate;

    /// A miniature "compiled control flow" circuit in the Figure 16 style:
    /// consecutive MCX gates sharing a deep control set.
    fn control_flow_circuit(levels: u32) -> Circuit {
        let mut c = Circuit::new(0);
        for level in 1..=levels {
            let controls: Vec<u32> = (0..level).collect();
            // Two body gates per level, as nested ifs would produce.
            c.push(Gate::mcx(controls.clone(), levels + 2 * level));
            c.push(Gate::mcx(controls, levels + 2 * level + 1));
        }
        c
    }

    #[test]
    fn all_optimizers_produce_clifford_t() {
        let circuit = control_flow_circuit(4);
        for opt in registry() {
            let out = opt.optimize(&circuit);
            let counts = out.clifford_t_counts();
            assert_eq!(counts.mcx_large, 0, "{}", opt.name());
            assert_eq!(counts.toffoli, 0, "{}", opt.name());
            assert_eq!(counts.ch, 0, "{}", opt.name());
        }
    }

    #[test]
    fn all_optimizers_reduce_or_preserve_t_count() {
        let circuit = control_flow_circuit(4);
        let naive = qcirc::decompose::to_clifford_t(&circuit).unwrap();
        let baseline = naive.clifford_t_counts().t_count();
        for opt in registry() {
            let out = opt.optimize(&circuit);
            assert!(
                out.clifford_t_counts().t_count() <= baseline,
                "{} regressed T-count",
                opt.name()
            );
        }
    }

    #[test]
    fn toffoli_level_passes_beat_clifford_t_passes() {
        let circuit = control_flow_circuit(5);
        let peephole = AdjacentCancel
            .optimize(&circuit)
            .clifford_t_counts()
            .t_count();
        let mct = ToffoliCancel
            .optimize(&circuit)
            .clifford_t_counts()
            .t_count();
        let zx = GlobalResynth
            .optimize(&circuit)
            .clifford_t_counts()
            .t_count();
        assert!(mct < peephole, "mctExpand {mct} vs peephole {peephole}");
        assert!(zx <= mct, "global resynthesis {zx} vs mctExpand {mct}");
    }

    #[test]
    fn optimizers_preserve_semantics() {
        // Small circuit so the state-vector simulator covers the ancillas
        // introduced by decomposition.
        let circuit = Circuit::from_gates(vec![
            Gate::mcx(vec![0, 1, 2], 3),
            Gate::cnot(0, 4),
            Gate::mcx(vec![0, 1, 2], 3),
            Gate::x(2),
            Gate::toffoli(1, 2, 4),
        ]);
        for opt in registry() {
            let out = opt.optimize(&circuit);
            let qubits = out.num_qubits().max(circuit.num_qubits()).max(6);
            for basis in 0..(1u64 << 5) {
                let mut reference = StateVec::basis(qubits, basis).unwrap();
                reference.run(&circuit).unwrap();
                let mut optimized = StateVec::basis(qubits, basis).unwrap();
                optimized.run(&out).unwrap();
                assert!(
                    (reference.fidelity(&optimized) - 1.0).abs() < 1e-9,
                    "{} changed semantics on basis {basis}",
                    opt.name()
                );
            }
        }
    }

    #[test]
    fn two_gate_rotations_refold_to_themselves() {
        // Amounts 3 (S·T) and 5 (Z·T) are the only merged rotations emitted
        // as two gates; the early exit of `fold_cancel_fixpoint` needs them
        // to refold to the same pair, with the anchor constant unset and
        // set (a leading X).
        for (amount, emitted) in [(3, [Gate::S(0), Gate::T(0)]), (5, [Gate::Z(0), Gate::T(0)])] {
            for prefix in [vec![], vec![Gate::x(0)]] {
                let mut raw = prefix.clone();
                raw.extend((0..amount).map(|_| Gate::T(0)));
                let folded = phase_fold(&Circuit::from_gates(raw));
                let mut expected = prefix.clone();
                expected.extend(emitted.iter().cloned());
                let case = format!("amount {amount}, prefix {prefix:?}");
                assert_eq!(folded.to_gates(), expected, "{case}");
                assert_eq!(phase_fold(&folded), folded, "{case}");
            }
        }
    }

    #[test]
    fn adjacent_mcx_pairs_vanish_at_toffoli_level() {
        // The redundant pair of Figure 16.
        let circuit = Circuit::from_gates(vec![
            Gate::mcx(vec![0, 1, 2], 4),
            Gate::mcx(vec![0, 1, 2], 4),
        ]);
        let out = ToffoliCancel.optimize(&circuit);
        assert_eq!(out.clifford_t_counts().t_count(), 0);
        // The Clifford+T peephole cannot do this (Figure 17's asymmetry).
        let peep = AdjacentCancel.optimize(&circuit);
        assert!(peep.clifford_t_counts().t_count() > 0);
    }
}
