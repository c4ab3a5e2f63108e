//! Differential tests pinning the footprint-indexed optimizer rewrite to
//! the pre-refactor behavior, gate for gate.
//!
//! Two obligations from the refactor:
//!
//! 1. the footprint-mask commutation kernel ([`qopt::commutes_views`])
//!    decides exactly the syntactic relation of [`qopt::commutes`] on
//!    arbitrary gate pairs — including registers wider than 64 qubits,
//!    where the mask folds and must fall back to exact operand checks;
//! 2. every rewritten pass (windowed cancellation, its fixpoint, phase
//!    folding, and the seven fixed-strategy optimizer compositions)
//!    produces a circuit identical to the pre-refactor reference
//!    implementation, which is kept here verbatim as test-only code,
//!    running on materialized `Vec<Gate>` lists exactly as the old
//!    `qopt` did.
//!
//! Random programs come from the shared [`spire_repro::difftest`]
//! generator, so the circuits exercised are real compiler output
//! (conjugation structure, deep control sets, Hadamard statements), not
//! just synthetic gate soup.

use proptest::prelude::*;
use qcirc::decompose::{mcx_to_toffoli, toffoli_to_clifford_t};
use qcirc::{Circuit, Footprint, Gate, Qubit};
use qopt::{commutes, commutes_views};
use spire_repro::difftest::{generate, seed_bytes, GenConfig};
use spire_repro::{qcirc, qopt};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Reference implementations (pre-refactor `qopt`, kept test-only).
// ---------------------------------------------------------------------

fn reference_cancel_with_window(circuit: &Circuit, window: usize) -> Circuit {
    let mut out: Vec<Gate> = Vec::with_capacity(circuit.len());
    for gate in circuit.to_gates() {
        let mut cancelled = false;
        let mut steps = 0usize;
        // Walk back over commuting gates looking for the adjoint.
        let mut i = out.len();
        while i > 0 && steps <= window {
            let candidate = &out[i - 1];
            if *candidate == gate.adjoint() {
                out.remove(i - 1);
                cancelled = true;
                break;
            }
            if !commutes(candidate, &gate) {
                break;
            }
            i -= 1;
            steps += 1;
        }
        if !cancelled {
            out.push(gate);
        }
    }
    let mut result = Circuit::new(circuit.num_qubits());
    result.extend(out);
    result
}

fn reference_cancel_fixpoint(circuit: &Circuit, window: usize) -> Circuit {
    let mut current = reference_cancel_with_window(circuit, window);
    loop {
        let next = reference_cancel_with_window(&current, window);
        if next.len() == current.len() {
            return next;
        }
        current = next;
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RefParity {
    labels: Vec<u32>,
    constant: bool,
}

impl RefParity {
    fn fresh(label: u32) -> Self {
        RefParity {
            labels: vec![label],
            constant: false,
        }
    }

    fn xor_with(&mut self, other: &RefParity) {
        let mut merged = Vec::with_capacity(self.labels.len() + other.labels.len());
        let (mut i, mut j) = (0, 0);
        while i < self.labels.len() && j < other.labels.len() {
            match self.labels[i].cmp(&other.labels[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.labels[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.labels[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.labels[i..]);
        merged.extend_from_slice(&other.labels[j..]);
        self.labels = merged;
        self.constant ^= other.constant;
    }
}

#[derive(Debug)]
enum RefSlot {
    Gate(Gate),
    Anchor(Vec<u32>),
}

#[derive(Debug)]
struct RefTerm {
    amount: i32,
    qubit: Qubit,
    anchor_constant: bool,
}

fn reference_phase_fold(circuit: &Circuit) -> Circuit {
    let mut parities: HashMap<Qubit, RefParity> = HashMap::new();
    let mut next_label = 0u32;
    let fresh = |parities: &mut HashMap<Qubit, RefParity>, q: Qubit, next_label: &mut u32| {
        let label = *next_label;
        *next_label += 1;
        parities.insert(q, RefParity::fresh(label));
    };
    for q in 0..circuit.num_qubits() {
        fresh(&mut parities, q, &mut next_label);
    }

    let mut slots: Vec<RefSlot> = Vec::with_capacity(circuit.len());
    let mut terms: HashMap<Vec<u32>, RefTerm> = HashMap::new();

    for gate in circuit.to_gates() {
        match &gate {
            Gate::Mcx { controls, target } if controls.is_empty() => {
                parities.get_mut(target).expect("initialized").constant ^= true;
                slots.push(RefSlot::Gate(gate.clone()));
            }
            Gate::Mcx { controls, target } if controls.len() == 1 => {
                let source = parities[&controls[0]].clone();
                parities
                    .get_mut(target)
                    .expect("initialized")
                    .xor_with(&source);
                slots.push(RefSlot::Gate(gate.clone()));
            }
            Gate::Mcx { target, .. } => {
                fresh(&mut parities, *target, &mut next_label);
                slots.push(RefSlot::Gate(gate.clone()));
            }
            Gate::Mch { target, .. } => {
                fresh(&mut parities, *target, &mut next_label);
                slots.push(RefSlot::Gate(gate.clone()));
            }
            Gate::T(q) | Gate::Tdg(q) | Gate::S(q) | Gate::Sdg(q) | Gate::Z(q) => {
                let amount: i32 = match gate {
                    Gate::T(_) => 1,
                    Gate::S(_) => 2,
                    Gate::Z(_) => 4,
                    Gate::Sdg(_) => 6,
                    Gate::Tdg(_) => 7,
                    _ => unreachable!(),
                };
                let parity = parities[q].clone();
                let signed = if parity.constant { -amount } else { amount };
                let term = terms.entry(parity.labels.clone()).or_insert_with(|| {
                    slots.push(RefSlot::Anchor(parity.labels.clone()));
                    RefTerm {
                        amount: 0,
                        qubit: *q,
                        anchor_constant: parity.constant,
                    }
                });
                term.amount = (term.amount + signed).rem_euclid(8);
            }
        }
    }

    let mut out = Circuit::new(circuit.num_qubits());
    for slot in slots {
        match slot {
            RefSlot::Gate(g) => out.push(g),
            RefSlot::Anchor(key) => {
                let term = &terms[&key];
                let physical = if term.anchor_constant {
                    (-term.amount).rem_euclid(8)
                } else {
                    term.amount.rem_euclid(8)
                };
                emit_rotation(physical as u8, term.qubit, &mut out);
            }
        }
    }
    out
}

fn emit_rotation(amount: u8, q: Qubit, out: &mut Circuit) {
    match amount % 8 {
        0 => {}
        1 => out.push(Gate::T(q)),
        2 => out.push(Gate::S(q)),
        3 => {
            out.push(Gate::S(q));
            out.push(Gate::T(q));
        }
        4 => out.push(Gate::Z(q)),
        5 => {
            out.push(Gate::Z(q));
            out.push(Gate::T(q));
        }
        6 => out.push(Gate::Sdg(q)),
        7 => out.push(Gate::Tdg(q)),
        _ => unreachable!(),
    }
}

fn reference_decompose(circuit: &Circuit) -> Circuit {
    toffoli_to_clifford_t(&mcx_to_toffoli(circuit)).expect("arity <= 2 after mcx_to_toffoli")
}

/// The pre-refactor fixed-strategy optimizer compositions, by name (the
/// exact pass orders of `qopt::registry`).
fn reference_optimize(name: &str, circuit: &Circuit) -> Circuit {
    match name {
        "adjacent-cancel" => reference_cancel_fixpoint(&reference_decompose(circuit), 1),
        "peephole" => reference_cancel_fixpoint(&reference_decompose(circuit), 4),
        "phase-fold" => {
            reference_cancel_fixpoint(&reference_phase_fold(&reference_decompose(circuit)), 2)
        }
        "zx-graphlike" => {
            let c = reference_cancel_fixpoint(&reference_decompose(circuit), 2);
            reference_cancel_fixpoint(&reference_phase_fold(&c), 2)
        }
        "feynman-tocliffordt" => {
            let mut current = reference_decompose(circuit);
            loop {
                let next = reference_cancel_fixpoint(&reference_phase_fold(&current), 16);
                if next.len() >= current.len() {
                    return current;
                }
                current = next;
            }
        }
        "feynman-mctexpand" => {
            let toffoli_level = reference_cancel_fixpoint(&mcx_to_toffoli(circuit), 64);
            let clifford_t = toffoli_to_clifford_t(&toffoli_level).expect("arity <= 2");
            reference_cancel_fixpoint(&reference_phase_fold(&clifford_t), 16)
        }
        "global-resynth" => {
            let toffoli_level = reference_cancel_fixpoint(&mcx_to_toffoli(circuit), usize::MAX);
            let mut current = toffoli_to_clifford_t(&toffoli_level).expect("arity <= 2");
            loop {
                let next = reference_cancel_fixpoint(&reference_phase_fold(&current), usize::MAX);
                if next.len() >= current.len() {
                    return current;
                }
                current = next;
            }
        }
        other => panic!("unknown optimizer {other}"),
    }
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// A random gate over a register wide enough to exercise mask folding
/// (qubits up to 200 → footprints collide mod 64).
fn arb_gate() -> impl Strategy<Value = Gate> {
    let qubit = 0u32..200;
    prop_oneof![
        qubit.clone().prop_map(Gate::x),
        qubit.clone().prop_map(Gate::h),
        qubit.clone().prop_map(Gate::T),
        qubit.clone().prop_map(Gate::Tdg),
        qubit.clone().prop_map(Gate::S),
        qubit.clone().prop_map(Gate::Sdg),
        qubit.clone().prop_map(Gate::Z),
        (qubit.clone(), qubit.clone())
            .prop_filter("distinct", |(c, t)| c != t)
            .prop_map(|(c, t)| Gate::cnot(c, t)),
        (qubit.clone(), qubit.clone(), qubit.clone())
            .prop_filter("distinct", |(a, b, t)| a != b && a != t && b != t)
            .prop_map(|(a, b, t)| Gate::toffoli(a, b, t)),
        proptest::collection::vec(qubit.clone(), 3..=5)
            .prop_filter("distinct operands", |qs| {
                let mut sorted = qs.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len() == qs.len()
            })
            .prop_map(|mut qs| {
                let target = qs.pop().expect("nonempty");
                Gate::mcx(qs, target)
            }),
        (qubit.clone(), qubit)
            .prop_filter("distinct", |(c, t)| c != t)
            .prop_map(|(c, t)| Gate::ch(c, t)),
    ]
}

fn compiled_circuit(seed: u64) -> Circuit {
    let program = generate(&seed_bytes(seed, 96), &GenConfig::wide_quantum());
    program
        .compile(spire_repro::spire::OptConfig::none())
        .emit()
}

/// Deterministic pseudo-random gate soup (no external RNG): denser
/// overlap patterns than compiled programs produce, over registers both
/// below and above the 64-qubit mask-folding boundary.
fn pseudo_random_circuit(seed: u64, len: usize, qubits: u32) -> Circuit {
    let mut state = seed | 1;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut gates = Vec::with_capacity(len);
    for _ in 0..len {
        let q = qubits as u64;
        let gate = match next(8) {
            0 => Gate::x(next(q) as u32),
            1 => Gate::h(next(q) as u32),
            2 => Gate::T(next(q) as u32),
            3 => Gate::Tdg(next(q) as u32),
            4 | 5 => {
                let c = next(q) as u32;
                let t = next(q) as u32;
                if c == t {
                    Gate::x(t)
                } else {
                    Gate::cnot(c, t)
                }
            }
            _ => {
                let a = next(q) as u32;
                let b = next(q) as u32;
                let t = next(q) as u32;
                if a == b || a == t || b == t {
                    Gate::S(t)
                } else {
                    Gate::toffoli(a, b, t)
                }
            }
        };
        gates.push(gate);
    }
    Circuit::from_gates(gates)
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The footprint-mask kernel agrees with the syntactic rules on
    /// random gate pairs (both orders — the relation is symmetric but
    /// the implementations branch asymmetrically).
    #[test]
    fn mask_commutes_agrees_with_syntactic(a in arb_gate(), b in arb_gate()) {
        let (va, vb) = (a.as_view(), b.as_view());
        let (fa, fb) = (Footprint::of_view(&va), Footprint::of_view(&vb));
        prop_assert_eq!(
            commutes_views(&va, fa, &vb, fb),
            commutes(&a, &b),
            "kernel diverges on {} vs {}", a, b
        );
        prop_assert_eq!(
            commutes_views(&vb, fb, &va, fa),
            commutes(&b, &a),
            "kernel diverges on {} vs {}", b, a
        );
    }

    /// Windowed cancellation and its fixpoint are gate-for-gate identical
    /// to the pre-refactor implementation on real compiled circuits.
    #[test]
    fn cancel_matches_reference_on_compiled_programs(
        seed in 0u64..5000,
        window in prop_oneof![Just(0usize), Just(1), Just(4), Just(16), Just(64), Just(usize::MAX)],
    ) {
        let circuit = mcx_to_toffoli(&compiled_circuit(seed));
        let pass = qopt::cancel_with_window(&circuit, window);
        prop_assert_eq!(&pass, &reference_cancel_with_window(&circuit, window));
        let fixpoint = qopt::cancel_fixpoint(&circuit, window);
        prop_assert_eq!(&fixpoint, &reference_cancel_fixpoint(&circuit, window));
    }

    /// Phase folding is gate-for-gate identical to the pre-refactor
    /// implementation on decomposed compiled circuits.
    #[test]
    fn phase_fold_matches_reference_on_compiled_programs(seed in 0u64..5000) {
        let circuit = reference_decompose(&compiled_circuit(seed));
        prop_assert_eq!(&qopt::phase_fold(&circuit), &reference_phase_fold(&circuit));
    }

    /// Same obligations on dense gate soup (heavier qubit overlap than
    /// compiled circuits, and registers straddling the mask fold).
    #[test]
    fn passes_match_reference_on_gate_soup(
        seed in any::<u64>(),
        qubits in prop_oneof![Just(3u32), Just(6), Just(80)],
        window in prop_oneof![Just(0usize), Just(1), Just(4), Just(16), Just(64), Just(usize::MAX)],
    ) {
        let c = pseudo_random_circuit(seed, 120, qubits);
        prop_assert_eq!(
            &qopt::cancel_with_window(&c, window),
            &reference_cancel_with_window(&c, window)
        );
        prop_assert_eq!(
            &qopt::cancel_fixpoint(&c, window),
            &reference_cancel_fixpoint(&c, window)
        );
        prop_assert_eq!(&qopt::phase_fold(&c), &reference_phase_fold(&c));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Phase folding is idempotent gate for gate: the premise of the
    /// early exit in the fold/cancel fixpoints of `CliffordTResynth` and
    /// `GlobalResynth`.
    #[test]
    fn phase_fold_is_idempotent(
        seed in 0u64..5000,
        qubits in prop_oneof![Just(3u32), Just(6), Just(80)],
    ) {
        for circuit in [
            reference_decompose(&compiled_circuit(seed)),
            pseudo_random_circuit(seed, 120, qubits),
        ] {
            let once = qopt::phase_fold(&circuit);
            prop_assert_eq!(&qopt::phase_fold(&once), &once);
        }
    }
}

/// The fold/cancel pipelines match the pre-refactor reference on Figure
/// 12's own input, unoptimized `length` (here at depth 2), whose
/// circuits are larger and more regular than the generated programs'.
#[test]
fn resynth_pipelines_match_reference_on_length() {
    use spire_repro::bench_suite::programs::LENGTH;
    use spire_repro::spire::{compile_source, CompileOptions};
    use spire_repro::tower::WordConfig;

    let circuit = compile_source(
        LENGTH,
        "length",
        2,
        WordConfig::paper_default(),
        &CompileOptions::baseline(),
    )
    .expect("length compiles")
    .emit();
    let passes: [&dyn qopt::CircuitOptimizer; 2] = [&qopt::CliffordTResynth, &qopt::GlobalResynth];
    for optimizer in passes {
        assert_eq!(
            optimizer.optimize(&circuit),
            reference_optimize(optimizer.name(), &circuit),
            "{} diverges from the pre-refactor pipeline",
            optimizer.name()
        );
    }
}

proptest! {
    // Full pipelines run every pass to fixpoints; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every fixed-strategy optimizer composition produces a circuit
    /// identical to the pre-refactor pipeline on compiled programs.
    #[test]
    fn registry_matches_reference_on_compiled_programs(seed in 0u64..5000) {
        let circuit = compiled_circuit(seed);
        for optimizer in qopt::registry() {
            let fast = optimizer.optimize(&circuit);
            let reference = reference_optimize(optimizer.name(), &circuit);
            prop_assert_eq!(
                &fast, &reference,
                "{} diverges from the pre-refactor pipeline", optimizer.name()
            );
        }
    }
}
