//! Differential tests pinning the ancilla analyses to the implementation
//! they replaced, diagnostic for diagnostic.
//!
//! The pre-rewrite `check_ancillas` is kept below verbatim as test-only
//! reference code: it clones and merges whole XOR-sets on every gate and
//! interns every control value, and the Toffoli-level check ran it on a
//! materialized `mcx_to_toffoli` circuit. Four obligations:
//!
//! 1. on random gate streams (X/CX/CCX/MCX up to six controls, H, MCH up
//!    to three controls, T/S/Z, controls that read released ancillae,
//!    gates controlling on their own target, random ancilla specs) both
//!    `check_ancillas` and the streamed
//!    `check_decomposition_ancillas_streamed` return exactly the reference
//!    diagnostics — code, severity, message and gate index;
//! 2. on the same streams, the certified `check_decomposition_ancillas`
//!    equals the reference wherever it falls back to the stream, and where
//!    it certifies the stream, the reference holds no error: certification
//!    drops only warnings;
//! 3. a qubit pushed past the term cap widens to ⊤ in both;
//! 4. `check_compiled` reports serialize byte for byte like the reference
//!    composition, minus its decomposition-ancilla warnings, on the paper
//!    benchmarks and on generated programs.

use proptest::prelude::*;
use qcirc::decompose::mcx_to_toffoli;
use qcirc::{Circuit, Gate, GateKind, Qubit};
use spire::check::scratch_spec;
use spire::{check_compiled, compile_source, CompileOptions, Compiled, OptConfig};
use spire_repro::bench_suite::programs::all_benchmarks;
use spire_repro::difftest::{generate, seed_bytes, GenConfig};
use spire_repro::tower::WordConfig;
use spire_verify::{
    bound_function, bound_violations, check_ancillas, check_circuit, check_decomposition_ancillas,
    check_decomposition_ancillas_streamed, codes, AncillaSpec, ArityScan, Diagnostic,
    FunctionBounds, Report, Severity,
};

// ---------------------------------------------------------------------
// Reference implementation (pre-rewrite `spire-verify`, kept test-only).
// ---------------------------------------------------------------------

mod reference {
    use std::collections::HashMap;

    use qcirc::{Circuit, GateKind, Qubit};

    use spire_verify::{codes, AncillaSpec, Diagnostic};

    /// Cap on the number of XOR-terms a single qubit may accumulate before the
    /// analysis gives up on it and widens to ⊤. Compiled circuits stay far
    /// below this; only adversarial streams hit it.
    const TERM_CAP: usize = 1 << 14;

    /// Identifier of an interned term.
    type TermId = u32;
    /// Identifier of an interned value (a sorted XOR-set of terms).
    type ValueId = u32;

    /// A hash-consed term: structural equality is id equality.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Term {
        /// The constant 1 (introduced by uncontrolled X gates).
        One,
        /// The initial value of a (non-ancilla) qubit.
        Leaf(Qubit),
        /// A product of control values, by interned value id (sorted, deduped).
        Product(Vec<ValueId>),
    }

    #[derive(Debug, Default)]
    struct Interner {
        terms: Vec<Term>,
        term_ids: HashMap<Term, TermId>,
        value_ids: HashMap<Vec<TermId>, ValueId>,
        next_value: ValueId,
    }

    impl Interner {
        fn term(&mut self, t: Term) -> TermId {
            if let Some(&id) = self.term_ids.get(&t) {
                return id;
            }
            let id = self.terms.len() as TermId;
            self.terms.push(t.clone());
            self.term_ids.insert(t, id);
            id
        }

        /// Intern an XOR-set (must be sorted and duplicate-free).
        fn value(&mut self, set: &[TermId]) -> ValueId {
            if let Some(&id) = self.value_ids.get(set) {
                return id;
            }
            let id = self.next_value;
            self.next_value += 1;
            self.value_ids.insert(set.to_vec(), id);
            id
        }
    }

    /// Abstract value of one qubit: a sorted XOR-set of term ids, or ⊤.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum AbsVal {
        /// XOR of the listed terms; the empty set is the constant 0.
        Set(Vec<TermId>),
        /// Unknown (behind a Hadamard frontier or past the term cap).
        Top,
    }

    impl AbsVal {
        fn is_zero(&self) -> bool {
            matches!(self, AbsVal::Set(s) if s.is_empty())
        }
    }

    /// XOR two sorted term sets (symmetric difference, stays sorted).
    fn xor_sets(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    /// Lifecycle of an ancilla, for use-after-uncompute detection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Phase {
        /// Never held a nonzero value.
        Fresh,
        /// Currently possibly nonzero.
        Active,
        /// Was active, then provably uncomputed back to |0⟩.
        Released,
    }

    /// Run the ancilla-discipline analysis over a gate stream.
    ///
    /// Every qubit listed in `spec` starts as the constant-0 value; every other
    /// qubit starts as an opaque initial-value term. Works at any gate level
    /// (MCX streams and Toffoli/Clifford+T streams alike) and at any width —
    /// the term domain has no 64-qubit limit, unlike the simulators.
    pub fn check_ancillas(circuit: &Circuit, spec: &AncillaSpec) -> Vec<Diagnostic> {
        // A corrupted operand arena makes the gate views themselves
        // unreadable; the well-formedness audit owns that finding, and this
        // analysis must not iterate a stream it cannot trust.
        if !circuit.audit_raw().is_empty() {
            return Vec::new();
        }
        let n = circuit.num_qubits() as usize;

        // Last gate index that writes each qubit. A read of a released ancilla
        // that a *later* gate recomputes is the degenerate arm of a conjugation
        // template — provably dead but benign (compilers legitimately emit
        // these at small word widths, where an operand collapses to a constant).
        // A read after the ancilla's final write can never fire for the rest of
        // the circuit: that is the classic stale-read bug, reported as an error.
        let mut last_write: Vec<usize> = vec![0; n];
        for (index, view) in circuit.iter().enumerate() {
            if !view.kind.is_phase() && (view.target as usize) < n {
                last_write[view.target as usize] = index;
            }
        }

        let mut diags = Vec::new();
        let mut label_of: Vec<Option<&str>> = vec![None; n];
        for (q, label) in &spec.ancillas {
            if (*q as usize) < n {
                label_of[*q as usize] = Some(label.as_str());
            }
            // Ancillae past the circuit's width are untouched, hence still |0⟩.
        }

        let mut interner = Interner::default();
        let one = interner.term(Term::One);
        let mut values: Vec<AbsVal> = (0..n as u32)
            .map(|q| {
                if label_of[q as usize].is_some() {
                    AbsVal::Set(Vec::new())
                } else {
                    let leaf = interner.term(Term::Leaf(q));
                    AbsVal::Set(vec![leaf])
                }
            })
            .collect();
        let mut phases: Vec<Phase> = vec![Phase::Fresh; n];

        for (index, view) in circuit.iter().enumerate() {
            // Phase gates are diagonal: they never change basis values, so the
            // abstraction ignores them entirely.
            if view.kind.is_phase() {
                continue;
            }

            // Pass 1 over the controls: flag dead reads of released ancillae and
            // detect provable no-ops (any identically-zero control kills the
            // gate, even when other controls are ⊤).
            let mut dead = false;
            let mut any_top = false;
            for &c in view.controls {
                if let Some(label) = label_of.get(c as usize).copied().flatten() {
                    if phases[c as usize] == Phase::Released {
                        let diag = if last_write[c as usize] > index {
                            Diagnostic::warning(
                                codes::USE_AFTER_UNCOMPUTE,
                                format!(
                                    "gate {index} reads {label} as a control while it \
                                     is uncomputed to |0⟩ (the gate is provably dead; \
                                     the ancilla is recomputed later)"
                                ),
                            )
                        } else {
                            Diagnostic::error(
                                codes::USE_AFTER_UNCOMPUTE,
                                format!(
                                    "gate {index} reads {label} as a control after its \
                                     final uncompute to |0⟩ (stale read: the gate can \
                                     never fire)"
                                ),
                            )
                        };
                        diags.push(diag.at_gate(index));
                    }
                }
                match values.get(c as usize) {
                    Some(AbsVal::Set(s)) if s.is_empty() => dead = true,
                    Some(AbsVal::Set(_)) => {}
                    Some(AbsVal::Top) | None => any_top = true,
                }
            }
            if dead {
                continue;
            }

            let t = view.target as usize;
            if t >= n {
                continue; // out-of-range target: wellformedness reports it
            }

            let update_phase = |phases: &mut Vec<Phase>, values: &[AbsVal], t: usize| {
                phases[t] = if values[t].is_zero() {
                    match phases[t] {
                        Phase::Fresh => Phase::Fresh,
                        Phase::Active | Phase::Released => Phase::Released,
                    }
                } else {
                    Phase::Active
                };
            };

            if view.kind == GateKind::Mch || any_top {
                values[t] = AbsVal::Top;
                if label_of[t].is_some() {
                    update_phase(&mut phases, &values, t);
                }
                continue;
            }

            // All controls are concrete sets. Fold them into the XOR-set to add
            // to the target: drop constant-1 controls, treat a single remaining
            // control linearly, intern a product term for two or more.
            let mut factor_ids: Vec<ValueId> = Vec::with_capacity(view.controls.len());
            let mut linear: Option<Vec<TermId>> = None;
            for &c in view.controls {
                let AbsVal::Set(s) = &values[c as usize] else {
                    unreachable!("⊤ controls handled above")
                };
                if s.as_slice() == [one] {
                    continue; // multiplying by the constant 1
                }
                linear = Some(s.clone());
                factor_ids.push(interner.value(s));
            }
            factor_ids.sort_unstable();
            factor_ids.dedup();
            let addend: Vec<TermId> = match factor_ids.len() {
                0 => vec![one],
                1 => linear.expect("one non-trivial control"),
                _ => vec![interner.term(Term::Product(factor_ids))],
            };

            let AbsVal::Set(old) = &values[t] else {
                // A ⊤ target stays ⊤ under XOR updates.
                continue;
            };
            let next = xor_sets(old, &addend);
            values[t] = if next.len() > TERM_CAP {
                AbsVal::Top
            } else {
                AbsVal::Set(next)
            };
            if label_of[t].is_some() {
                update_phase(&mut phases, &values, t);
            }
        }

        for (q, label) in &spec.ancillas {
            let Some(value) = values.get(*q as usize) else {
                continue;
            };
            match value {
                AbsVal::Set(s) if s.is_empty() => {}
                AbsVal::Set(s) => {
                    diags.push(Diagnostic::error(
                        codes::LEAKED_ANCILLA,
                        format!(
                            "{label} is not returned to |0⟩ ({} residual symbolic \
                             term{})",
                            s.len(),
                            if s.len() == 1 { "" } else { "s" }
                        ),
                    ));
                }
                AbsVal::Top => {
                    diags.push(Diagnostic::warning(
                        codes::ANCILLA_INDETERMINATE,
                        format!(
                            "{label} crossed a Hadamard or precision frontier; the \
                             analysis cannot prove it returns to |0⟩"
                        ),
                    ));
                }
            }
        }
        diags
    }
}

/// The pre-rewrite Toffoli-level check as `check_compiled` composed it:
/// materialize the decomposition, label the qubits it added. Circuits that
/// fail the packed-representation audit are skipped, as both ancilla
/// checks now skip them.
fn reference_decomposition(circuit: &Circuit) -> Vec<Diagnostic> {
    if !circuit.audit_raw().is_empty() {
        return Vec::new();
    }
    let toffoli = mcx_to_toffoli(circuit);
    if toffoli.num_qubits() <= circuit.num_qubits() {
        return Vec::new();
    }
    let mut spec = AncillaSpec::default();
    for q in circuit.num_qubits()..toffoli.num_qubits() {
        spec.push(q, format!("decomposition ancilla {q}"));
    }
    reference::check_ancillas(&toffoli, &spec)
}

// ---------------------------------------------------------------------
// Random gate streams.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn qubit(&mut self, width: u32) -> Qubit {
        self.below(u64::from(width)) as Qubit
    }

    /// `count` distinct qubits other than `target`, biased towards the
    /// ancillae so that released ones get read.
    fn controls(
        &mut self,
        count: usize,
        target: Qubit,
        width: u32,
        ancillas: &[Qubit],
    ) -> Vec<Qubit> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let q = if !ancillas.is_empty() && self.below(2) == 0 {
                ancillas[self.below(ancillas.len() as u64) as usize]
            } else {
                self.qubit(width)
            };
            if q != target && !out.contains(&q) {
                out.push(q);
            }
        }
        out
    }
}

/// A random gate stream and ancilla spec. Besides fresh random gates, the
/// stream repeats earlier gates (uncomputing their effect when the
/// controls still hold the same values) and mirrors recent runs, which is
/// what releases ancillae and makes later reads of them provably dead.
fn random_stream(seed: u64) -> (Circuit, AncillaSpec) {
    let mut rng = Rng(seed);
    let width = [4, 7, 10, 70][rng.below(4) as usize];
    let mut spec = AncillaSpec::default();
    let mut ancillas = Vec::new();
    for q in 0..width {
        if rng.below(5) < 2 {
            spec.push(q, format!("ancilla {q}"));
            ancillas.push(q);
        }
    }
    if rng.below(4) == 0 {
        spec.push(width + 2, "ancilla past the width");
    }
    if let Some(&q) = ancillas.first() {
        if rng.below(4) == 0 {
            spec.push(q, format!("relabelled ancilla {q}"));
        }
    }

    let mut gates: Vec<Gate> = Vec::new();
    let len = 8 + rng.below(72) as usize;
    while gates.len() < len {
        let target = if !ancillas.is_empty() && rng.below(3) > 0 {
            ancillas[rng.below(ancillas.len() as u64) as usize]
        } else {
            rng.qubit(width)
        };
        let max_controls = (width - 1) as u64;
        let gate = match rng.below(16) {
            0 => Gate::x(target),
            1 | 2 => Gate::cnot(rng.controls(1, target, width, &ancillas)[0], target),
            3..=5 => Gate::mcx(rng.controls(2, target, width, &ancillas), target),
            6 | 7 => {
                let n = (3 + rng.below(4)).min(max_controls) as usize;
                Gate::mcx(rng.controls(n, target, width, &ancillas), target)
            }
            8 => {
                let n = rng.below(4).min(max_controls) as usize;
                Gate::mch(rng.controls(n, target, width, &ancillas), target)
            }
            9 => [Gate::T(target), Gate::S(target), Gate::Z(target)][rng.below(3) as usize].clone(),
            10..=12 if !gates.is_empty() => gates[rng.below(gates.len() as u64) as usize].clone(),
            13 if !gates.is_empty() => {
                let run = 1 + rng.below(gates.len().min(6) as u64) as usize;
                let mirrored: Vec<Gate> =
                    gates[gates.len() - run..].iter().rev().cloned().collect();
                gates.extend(mirrored);
                continue;
            }
            _ => Gate::mcx(rng.controls(2, target, width, &ancillas), target),
        };
        gates.push(gate);
    }

    // One case in five also has a gate controlling on its own target.
    let overlap_at = (rng.below(5) == 0).then(|| rng.below(gates.len() as u64) as usize);
    let mut circuit = Circuit::new(width);
    for (index, gate) in gates.into_iter().enumerate() {
        if overlap_at == Some(index) {
            let target = rng.qubit(width);
            let count = 1 + rng.below(3).min(u64::from(width) - 2) as usize;
            let mut controls = rng.controls(count, target, width, &[]);
            controls.push(target);
            controls.sort_unstable();
            circuit.push_raw_for_test(GateKind::Mcx, &controls, target);
        }
        circuit.push(gate);
    }
    (circuit, spec)
}

// ---------------------------------------------------------------------
// Gate-stream equivalence.
// ---------------------------------------------------------------------

/// Both exact analyses against the reference on one stream, and the
/// certified check against the reference as far as it must agree; the
/// exact diagnostics are returned for coverage accounting.
fn assert_matches_reference(circuit: &Circuit, spec: &AncillaSpec) -> Vec<Diagnostic> {
    let mcx = check_ancillas(circuit, spec);
    assert_eq!(
        mcx,
        reference::check_ancillas(circuit, spec),
        "MCX level, {circuit}"
    );
    let reference = reference_decomposition(circuit);
    let toffoli = check_decomposition_ancillas_streamed(circuit);
    assert_eq!(toffoli, reference, "Toffoli level, {circuit}");
    let certified = check_decomposition_ancillas(circuit);
    if ArityScan::of(circuit).certified() {
        assert_eq!(certified, [], "certified, {circuit}");
        assert!(
            reference.iter().all(|d| d.severity == Severity::Warning),
            "a certified stream with a decomposition error: {circuit}"
        );
    } else {
        assert_eq!(certified, reference, "fallback, {circuit}");
    }
    mcx.into_iter().chain(toffoli).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_streams_match_reference(seed in any::<u64>()) {
        let (circuit, spec) = random_stream(seed);
        assert_matches_reference(&circuit, &spec);
    }
}

/// The generator reaches every verdict the analysis can give, so the
/// property above compares more than empty lists.
#[test]
fn random_streams_reach_every_verdict() {
    let mut seen: Vec<(&str, Severity)> = Vec::new();
    let mut decomposition = 0;
    let mut malformed = 0;
    for seed in 0..400 {
        let (circuit, spec) = random_stream(seed);
        malformed += usize::from(!circuit.audit_raw().is_empty());
        for diag in assert_matches_reference(&circuit, &spec) {
            decomposition += usize::from(diag.message.starts_with("decomposition ancilla"));
            if !seen.contains(&(diag.code, diag.severity)) {
                seen.push((diag.code, diag.severity));
            }
        }
    }
    for verdict in [
        (codes::LEAKED_ANCILLA, Severity::Error),
        (codes::ANCILLA_INDETERMINATE, Severity::Warning),
        (codes::USE_AFTER_UNCOMPUTE, Severity::Error),
        (codes::USE_AFTER_UNCOMPUTE, Severity::Warning),
    ] {
        assert!(seen.contains(&verdict), "no {verdict:?} in {seen:?}");
    }
    assert!(decomposition > 0, "no decomposition-ancilla diagnostic");
    assert!(malformed > 0, "no stream with a control on its own target");
}

/// Past 2^14 XOR-set terms a qubit widens to ⊤, through either update
/// path: a CNOT merge or a single product term. Exactly 2^14 terms is
/// still a concrete (leaked) value.
#[test]
fn term_cap_widens_to_top_in_both() {
    const CAP: u32 = 1 << 14;
    let (at_cap, by_term, by_merge, scratch) = (CAP, CAP + 1, CAP + 2, CAP + 3);
    let mut circuit = Circuit::new(CAP + 4);
    // A CNOT tree folds the 2^14 leaves into qubit 0.
    let mut stride = 1;
    while stride < CAP {
        for q in (0..CAP).step_by(2 * stride as usize) {
            circuit.push(Gate::cnot(q + stride, q));
        }
        stride *= 2;
    }
    for ancilla in [at_cap, by_term, by_merge] {
        circuit.push(Gate::cnot(0, ancilla));
    }
    // Qubits 1 and 3 are never targets: a fresh product term.
    circuit.push(Gate::toffoli(1, 3, by_term));
    circuit.push(Gate::toffoli(1, 3, scratch));
    circuit.push(Gate::cnot(scratch, by_merge));

    let mut spec = AncillaSpec::default();
    for q in [at_cap, by_term, by_merge] {
        spec.push(q, format!("ancilla {q}"));
    }
    let diags = assert_matches_reference(&circuit, &spec);
    let verdicts: Vec<_> = diags.iter().map(|d| (d.code, d.severity)).collect();
    assert_eq!(
        verdicts,
        [
            (codes::LEAKED_ANCILLA, Severity::Error),
            (codes::ANCILLA_INDETERMINATE, Severity::Warning),
            (codes::ANCILLA_INDETERMINATE, Severity::Warning),
        ]
    );
    assert!(diags[0].message.contains("(16384 residual symbolic terms)"));
}

// ---------------------------------------------------------------------
// Report equivalence.
// ---------------------------------------------------------------------

/// `check_compiled` as it was composed before the rewrite: the reference
/// analysis on the MCX stream and on the materialized Toffoli stream.
fn reference_report(compiled: &Compiled, function: &str) -> Report {
    let circuit = compiled.emit();
    let mut report = Report::default();
    report
        .diagnostics
        .extend(check_circuit(&circuit, Some(compiled.layout.total_qubits)));
    report.diagnostics.extend(reference::check_ancillas(
        &circuit,
        &scratch_spec(&compiled.layout),
    ));
    report.diagnostics.extend(reference_decomposition(&circuit));
    let (min, max) = match bound_function(&compiled.ir, &compiled.types, &compiled.table) {
        Ok(bound) => (bound.min, bound.max),
        Err(_) => (0, u64::MAX),
    };
    report.functions.push(FunctionBounds {
        name: function.to_string(),
        min,
        max,
        actual: compiled.t_complexity(),
    });
    let violations = bound_violations(&report.functions);
    report.diagnostics.extend(violations);
    report
}

/// Whether a diagnostic is about a Barenco decomposition ancilla.
fn is_decomposition(diag: &Diagnostic) -> bool {
    diag.message.contains("decomposition ancilla")
}

/// Compares one report with the reference composition minus its
/// decomposition-ancilla diagnostics, which must all be warnings; returns
/// the removed ones.
fn assert_report_matches(compiled: &Compiled, function: &str, what: &str) -> Vec<Diagnostic> {
    let report = check_compiled(compiled, function);
    let mut reference = reference_report(compiled, function);
    let removed: Vec<Diagnostic> = reference
        .diagnostics
        .iter()
        .filter(|d| is_decomposition(d))
        .cloned()
        .collect();
    assert!(
        removed.iter().all(|d| d.severity == Severity::Warning),
        "{what}: a decomposition-ancilla error in {removed:?}"
    );
    reference.diagnostics.retain(|d| !is_decomposition(d));
    assert_eq!(
        report.to_json().to_string(),
        reference.to_json().to_string(),
        "{what}"
    );
    removed
}

#[test]
fn reports_match_reference_composition() {
    for options in [CompileOptions::baseline(), CompileOptions::spire()] {
        for bench in all_benchmarks() {
            let depth = if bench.constant { 0 } else { 2 };
            let compiled = compile_source(
                &bench.source,
                bench.entry,
                depth,
                WordConfig::paper_default(),
                &options,
            )
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", bench.name));
            let removed = assert_report_matches(&compiled, bench.entry, bench.name);
            assert_eq!(removed, [], "{}", bench.name);
        }
    }

    let mut removed = Vec::new();
    for (shape, config) in [
        ("small", GenConfig::small()),
        ("wide_quantum", GenConfig::wide_quantum()),
        ("huge_quantum", GenConfig::huge_quantum()),
    ] {
        for seed in 0..24 {
            let program = generate(&seed_bytes(seed, 96), &config);
            for opt in [OptConfig::none(), OptConfig::spire()] {
                let what = format!("{shape} seed {seed} under {}", opt.label());
                removed.extend(assert_report_matches(
                    &program.compile(opt),
                    "generated",
                    &what,
                ));
            }
        }
    }
    let count = |code: &str| removed.iter().filter(|d| d.code == code).count();
    println!(
        "certification removed {} decomposition-ancilla warning(s): {} {}, {} {}",
        removed.len(),
        count(codes::ANCILLA_INDETERMINATE),
        codes::ANCILLA_INDETERMINATE,
        count(codes::USE_AFTER_UNCOMPUTE),
        codes::USE_AFTER_UNCOMPUTE,
    );
    assert!(
        !removed.is_empty(),
        "no compared report exercises a decomposition-ancilla warning"
    );
}
