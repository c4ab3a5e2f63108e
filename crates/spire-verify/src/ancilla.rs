//! Ancilla-discipline checking: symbolic dataflow over the permutation
//! fragment.
//!
//! The paper's Bennett-style uncomputation discipline requires every ancilla
//! to be returned to |0⟩ before release. This analysis proves it statically
//! with an abstract interpretation of the X/CX/CCX/MCX fragment in a
//! *term-graph* domain: each qubit's value is an XOR-set of hash-consed
//! terms, where a term is either an initial qubit value, the constant 1, or
//! an interned product of control values. Products are never expanded into
//! algebraic normal form — a multiply-controlled NOT XORs a single product
//! term into its target, and the *uncompute* of that gate (same controls,
//! restored to the same symbolic values) XORs the syntactically identical
//! term back out. That is precisely the discipline Bennett-style circuits
//! follow, so the domain is exact on everything the Tower pipeline emits
//! while staying linear in circuit size.
//!
//! CNOT is handled linearly (the target absorbs the source's whole XOR-set),
//! so Cuccaro carry chains, register copies, and swap conjugations cancel
//! exactly. Phase gates (T/S/Z and adjoints) are diagonal and never move
//! basis-state mass: they are identities here. Hadamard creates
//! superposition and havocs its target to ⊤; anything ⊤ feeds becomes ⊤. The
//! abstraction is therefore sound on arbitrary Clifford+T streams and exact
//! on the measurement-free permutation circuits of the benchmarks.
//!
//! Verdicts per ancilla at the end of the stream:
//!
//! * empty XOR-set — clean (provably |0⟩ on every input);
//! * nonempty XOR-set — `verify/leaked-ancilla` (not returned to |0⟩; exact
//!   up to XOR-cancellation, which the pipeline's circuits always exhibit);
//! * ⊤ — `verify/ancilla-indeterminate` (a warning: precision was lost, the
//!   property is unproven but not refuted).
//!
//! Along the way, reading an ancilla as a control *after* it was uncomputed
//! back to |0⟩ (and before any recompute) is flagged as
//! `verify/use-after-uncompute`: such a control provably reads |0⟩, so the
//! gate is dead — always a compiler bug in this pipeline.
//!
//! The analysis is a [`GateSink`], so it runs over any gate stream without
//! materializing it: [`check_ancillas`] replays a circuit, and
//! [`check_decomposition_ancillas_streamed`] replays the Toffoli level the
//! Barenco decomposition would produce, gate by gate.
//!
//! The Toffoli level needs no replay when every gate is a well-formed
//! argument of its Barenco template: each template restores its ancillae
//! for every basis state of its controls, hence for every state, so the
//! stream stays clean by induction. [`check_decomposition_ancillas`]
//! therefore certifies each `(kind, arity)` template once per process,
//! with the analysis below on fresh symbolic controls, and only scans the
//! circuit's gate arities ([`ArityScan`]); a circuit with a template that
//! fails certification falls back to the exact replay. Each qubit's
//! XOR-set is kept
//! sorted together with a 64-bit XOR of its terms' hashes, so an update
//! costs a merge proportional to the sets involved (a single product term
//! is a binary-search insert or remove in place) plus an O(1) hash update.
//! A value is interned only when it becomes a factor of a product term,
//! looked up by that hash and confirmed against the stored set, so a hash
//! collision can never identify two different values.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use qcirc::decompose::{ancillas_needed, emit_toffoli_level_view};
use qcirc::{Circuit, Gate, GateHistogram, GateKind, GateSink, GateView, Qubit, RawDefect};

use crate::codes;
use crate::diag::Diagnostic;

/// Cap on the number of XOR-terms a single qubit may accumulate before the
/// analysis gives up on it and widens to ⊤. Compiled circuits stay far
/// below this; only adversarial streams hit it.
const TERM_CAP: usize = 1 << 14;

/// Identifier of an interned term: the constant 1, then one leaf per
/// qubit, then products in order of first appearance.
type TermId = u32;
/// Identifier of an interned value (a sorted XOR-set of terms).
type ValueId = u32;

/// The constant-1 term (introduced by uncontrolled X gates).
const ONE: TermId = 0;
/// Marks a qubit whose current value has not been interned.
const NO_VALUE: ValueId = ValueId::MAX;

/// The splitmix64 finalizer: a cheap bijective mix of 64-bit words.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one term; a set's hash is the XOR of its terms' hashes, so
/// toggling a term or merging a set updates it in O(1).
fn term_hash(term: TermId) -> u64 {
    mix(u64::from(term).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Hasher for keys that are already well-mixed 64-bit hashes.
#[derive(Debug, Default)]
struct PremixedHasher(u64);

impl Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

const NO_ENTRY: u32 = u32::MAX;

/// Hash-consing of sorted `u32` slices: equal slices get equal ids. Keys
/// live back to back in one buffer; entries with the same hash are chained
/// and compared exactly.
#[derive(Debug, Default)]
struct SliceInterner {
    items: Vec<u32>,
    /// End offset in `items` of each entry.
    ends: Vec<usize>,
    /// Previous entry with the same hash, or `NO_ENTRY`.
    chain: Vec<u32>,
    heads: HashMap<u64, u32, BuildHasherDefault<PremixedHasher>>,
}

impl SliceInterner {
    fn get(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.items[start..self.ends[id]]
    }

    fn intern(&mut self, hash: u64, key: &[u32]) -> u32 {
        let head = self.heads.get(&hash).copied().unwrap_or(NO_ENTRY);
        let mut id = head;
        while id != NO_ENTRY {
            if self.get(id) == key {
                return id;
            }
            id = self.chain[id as usize];
        }
        let id = self.ends.len() as u32;
        self.items.extend_from_slice(key);
        self.ends.push(self.items.len());
        self.chain.push(head);
        self.heads.insert(hash, id);
        id
    }
}

/// Abstract value of one qubit: a sorted XOR-set of term ids, or ⊤.
#[derive(Debug, Clone)]
struct QubitValue {
    /// XOR of the listed terms; the empty set is the constant 0. Empty
    /// while `top`.
    terms: Vec<TermId>,
    /// XOR of `term_hash` over `terms`.
    hash: u64,
    /// Unknown (behind a Hadamard frontier or past the term cap).
    top: bool,
    /// Interned id of `terms`, or `NO_VALUE`; every write clears it.
    value: ValueId,
}

impl QubitValue {
    fn set(terms: Vec<TermId>) -> QubitValue {
        let hash = terms.iter().fold(0, |h, &t| h ^ term_hash(t));
        QubitValue {
            terms,
            hash,
            top: false,
            value: NO_VALUE,
        }
    }

    /// Give up on this qubit: ⊤.
    fn widen(&mut self) {
        self.top = true;
        self.terms.clear();
        self.hash = 0;
        self.value = NO_VALUE;
    }

    fn is_zero(&self) -> bool {
        !self.top && self.terms.is_empty()
    }

    fn is_one(&self) -> bool {
        !self.top && self.terms == [ONE]
    }
}

/// XOR two sorted term sets (symmetric difference, stays sorted) into `out`.
fn xor_sets_into(a: &[TermId], b: &[TermId], out: &mut Vec<TermId>) {
    out.clear();
    out.reserve(a.len() + b.len());
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
}

/// Which qubits of a circuit are ancillae, and what to call them in
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct AncillaSpec {
    /// `(qubit, label)` pairs; each listed qubit starts in |0⟩ and must be
    /// provably back in |0⟩ when the stream ends.
    pub ancillas: Vec<(Qubit, String)>,
}

impl AncillaSpec {
    /// Spec over a contiguous range `lo..hi`, labelled `"{label} qubit {q}"`.
    pub fn range(lo: Qubit, hi: Qubit, label: &str) -> AncillaSpec {
        AncillaSpec {
            ancillas: (lo..hi)
                .map(|q| (q, format!("{label} qubit {q}")))
                .collect(),
        }
    }

    /// Add one labelled ancilla.
    pub fn push(&mut self, qubit: Qubit, label: impl Into<String>) {
        self.ancillas.push((qubit, label.into()));
    }

    /// Merge another spec's ancillae into this one.
    pub fn extend(&mut self, other: AncillaSpec) {
        self.ancillas.extend(other.ancillas);
    }
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

/// Which replay of the stream the analysis is consuming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Record the last gate index that writes each qubit.
    LastWrite,
    /// The dataflow itself.
    Main,
}

/// What a gate's controls XOR into its target.
#[derive(Debug, Clone, Copy)]
enum Addend {
    /// A single term.
    Term(TermId),
    /// The whole XOR-set of this control qubit.
    Linear(usize),
}

/// The analysis state, fed one gate at a time through [`GateSink`].
#[derive(Debug)]
struct Analysis<'a> {
    pass: Pass,
    /// Index of the next gate in the stream.
    index: usize,
    labels: Vec<Option<&'a str>>,
    last_write: Vec<usize>,
    qubits: Vec<QubitValue>,
    phases: Vec<Phase>,
    values: SliceInterner,
    /// Products by sorted, deduplicated factor value ids; product `i` is
    /// term `first_product + i`.
    products: SliceInterner,
    first_product: TermId,
    /// Reused buffers: the merged set being built, and a gate's factors.
    scratch: Vec<TermId>,
    factors: Vec<ValueId>,
    diags: Vec<Diagnostic>,
}

impl<'a> Analysis<'a> {
    /// Every qubit listed in `spec` starts as the constant 0; every other
    /// qubit `q < width` starts as its own leaf term `1 + q`.
    fn new(width: usize, spec: &'a AncillaSpec) -> Analysis<'a> {
        let mut labels: Vec<Option<&str>> = vec![None; width];
        for (q, label) in &spec.ancillas {
            if (*q as usize) < width {
                labels[*q as usize] = Some(label.as_str());
            }
            // Ancillae past the stream's width are untouched, hence still |0⟩.
        }
        let qubits = (0..width)
            .map(|q| {
                if labels[q].is_some() {
                    QubitValue::set(Vec::new())
                } else {
                    QubitValue::set(vec![1 + q as TermId])
                }
            })
            .collect();
        Analysis {
            pass: Pass::LastWrite,
            index: 0,
            labels,
            last_write: vec![0; width],
            qubits,
            phases: vec![Phase::Fresh; width],
            values: SliceInterner::default(),
            products: SliceInterner::default(),
            first_product: 1 + width as TermId,
            scratch: Vec::new(),
            factors: Vec::new(),
            diags: Vec::new(),
        }
    }

    /// Run the analysis over a stream that `replay` pushes into the sink:
    /// once to learn each qubit's last write, once for the dataflow.
    fn run(
        width: usize,
        spec: &AncillaSpec,
        replay: impl Fn(&mut Analysis<'_>),
    ) -> Vec<Diagnostic> {
        let mut analysis = Analysis::new(width, spec);
        replay(&mut analysis);
        analysis.pass = Pass::Main;
        analysis.index = 0;
        replay(&mut analysis);
        analysis.verdicts(spec)
    }

    fn record_last_write(&mut self, view: GateView<'_>) {
        // A read of a released ancilla that a *later* gate recomputes is
        // the degenerate arm of a conjugation template — provably dead but
        // benign (compilers legitimately emit these at small word widths,
        // where an operand collapses to a constant). A read after the
        // ancilla's final write can never fire for the rest of the
        // circuit: that is the classic stale-read bug, reported as an
        // error.
        if !view.kind.is_phase() && (view.target as usize) < self.last_write.len() {
            self.last_write[view.target as usize] = self.index;
        }
    }

    fn step(&mut self, view: GateView<'_>) {
        // Phase gates are diagonal: they never change basis values, so the
        // abstraction ignores them entirely.
        if view.kind.is_phase() {
            return;
        }
        let index = self.index;

        // Pass 1 over the controls: flag dead reads of released ancillae and
        // detect provable no-ops (any identically-zero control kills the
        // gate, even when other controls are ⊤).
        let mut dead = false;
        let mut any_top = false;
        for &c in view.controls {
            let c = c as usize;
            if let Some(label) = self.labels[c] {
                if self.phases[c] == Phase::Released {
                    let diag = if self.last_write[c] > index {
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
                    self.diags.push(diag.at_gate(index));
                }
            }
            let value = &self.qubits[c];
            if value.top {
                any_top = true;
            } else if value.terms.is_empty() {
                dead = true;
            }
        }
        if dead {
            return;
        }

        let t = view.target as usize;
        if view.kind == GateKind::Mch || any_top {
            self.qubits[t].widen();
            self.update_phase(t);
            return;
        }
        if self.qubits[t].top {
            // A ⊤ target stays ⊤ under XOR updates.
            return;
        }

        match self.addend(view.controls) {
            Addend::Term(term) => {
                let value = &mut self.qubits[t];
                match value.terms.binary_search(&term) {
                    Ok(at) => {
                        value.terms.remove(at);
                    }
                    Err(at) => value.terms.insert(at, term),
                }
                value.hash ^= term_hash(term);
            }
            Addend::Linear(c) => {
                xor_sets_into(
                    &self.qubits[t].terms,
                    &self.qubits[c].terms,
                    &mut self.scratch,
                );
                let hash = self.qubits[c].hash;
                let value = &mut self.qubits[t];
                std::mem::swap(&mut value.terms, &mut self.scratch);
                value.hash ^= hash;
            }
        }
        let value = &mut self.qubits[t];
        value.value = NO_VALUE;
        if value.terms.len() > TERM_CAP {
            value.widen();
        }
        self.update_phase(t);
    }

    /// Fold concrete controls into the XOR-set to add to the target: drop
    /// constant-1 controls, treat a single remaining value linearly, intern
    /// a product term for two or more distinct values.
    fn addend(&mut self, controls: &[Qubit]) -> Addend {
        let mut nontrivial = controls
            .iter()
            .filter(|&&c| !self.qubits[c as usize].is_one());
        let Some(&first) = nontrivial.next() else {
            return Addend::Term(ONE); // multiplying by the constant 1
        };
        if nontrivial.next().is_none() {
            return Addend::Linear(first as usize);
        }
        self.factors.clear();
        for &c in controls {
            let value = &mut self.qubits[c as usize];
            if value.is_one() {
                continue;
            }
            if value.value == NO_VALUE {
                value.value = self.values.intern(value.hash, &value.terms);
            }
            self.factors.push(value.value);
        }
        self.factors.sort_unstable();
        self.factors.dedup();
        if self.factors.len() == 1 {
            return Addend::Linear(first as usize);
        }
        let hash = self
            .factors
            .iter()
            .fold(mix(self.factors.len() as u64), |h, &f| {
                mix(h ^ u64::from(f))
            });
        Addend::Term(self.first_product + self.products.intern(hash, &self.factors))
    }

    fn update_phase(&mut self, t: usize) {
        if self.labels[t].is_none() {
            return;
        }
        self.phases[t] = if self.qubits[t].is_zero() {
            match self.phases[t] {
                Phase::Fresh => Phase::Fresh,
                Phase::Active | Phase::Released => Phase::Released,
            }
        } else {
            Phase::Active
        };
    }

    fn verdicts(mut self, spec: &AncillaSpec) -> Vec<Diagnostic> {
        for (q, label) in &spec.ancillas {
            let Some(value) = self.qubits.get(*q as usize) else {
                continue;
            };
            if value.top {
                self.diags.push(Diagnostic::warning(
                    codes::ANCILLA_INDETERMINATE,
                    format!(
                        "{label} crossed a Hadamard or precision frontier; the \
                         analysis cannot prove it returns to |0⟩"
                    ),
                ));
            } else if !value.terms.is_empty() {
                let n = value.terms.len();
                self.diags.push(Diagnostic::error(
                    codes::LEAKED_ANCILLA,
                    format!(
                        "{label} is not returned to |0⟩ ({n} residual symbolic \
                         term{})",
                        if n == 1 { "" } else { "s" }
                    ),
                ));
            }
        }
        self.diags
    }
}

impl GateSink for Analysis<'_> {
    fn push_gate(&mut self, gate: Gate) {
        self.push_view(gate.as_view());
    }

    fn push_view(&mut self, view: GateView<'_>) {
        match self.pass {
            Pass::LastWrite => self.record_last_write(view),
            Pass::Main => self.step(view),
        }
        self.index += 1;
    }
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
    scratch_ancillas(circuit, spec)
}

/// [`check_ancillas`] on a circuit that passed [`Circuit::audit_raw`].
fn scratch_ancillas(circuit: &Circuit, spec: &AncillaSpec) -> Vec<Diagnostic> {
    Analysis::run(circuit.num_qubits() as usize, spec, |sink| {
        for view in circuit {
            sink.push_view(view);
        }
    })
}

/// Run the ancilla-discipline analysis over the Toffoli level of an MCX
/// circuit, on the ancillae the Barenco decomposition adds.
///
/// When every template arity in the circuit certifies, the decomposition
/// provably returns every ancilla to |0⟩ (see [`ArityScan`] for the
/// argument) and this returns nothing without replaying the stream.
/// Otherwise it returns exactly what
/// [`check_decomposition_ancillas_streamed`] returns. Like
/// [`check_ancillas`], returns nothing for a circuit whose packed
/// representation fails [`Circuit::audit_raw`].
pub fn check_decomposition_ancillas(circuit: &Circuit) -> Vec<Diagnostic> {
    ArityScan::of(circuit).decomposition_ancillas()
}

/// The exact streamed check of the decomposition ancillae: the fallback of
/// [`check_decomposition_ancillas`].
///
/// The Toffoli stream of [`qcirc::decompose::mcx_to_toffoli`] is replayed
/// gate by gate and never materialized. Its width is the circuit's width
/// plus [`ancillas_needed`], and each added qubit `q` is labelled
/// `"decomposition ancilla {q}"`; the circuit's own qubits are opaque
/// inputs here (check its scratch region with [`check_ancillas`]). Gate
/// indices in diagnostics count Toffoli-level gates. Returns nothing for a
/// circuit whose packed representation fails [`Circuit::audit_raw`].
pub fn check_decomposition_ancillas_streamed(circuit: &Circuit) -> Vec<Diagnostic> {
    if !circuit.audit_raw().is_empty() {
        return Vec::new();
    }
    stream_templates(circuit, barenco)
}

/// The Barenco decomposition of one gate, as the checks replay it.
fn barenco(view: GateView<'_>, ancilla_base: Qubit, sink: &mut Analysis<'_>) {
    emit_toffoli_level_view(view, ancilla_base, sink);
}

/// Replay `circuit` through `emit` (one gate at a time, ancillae from the
/// circuit's width) into the analysis, over the decomposition ancillae.
fn stream_templates<E>(circuit: &Circuit, emit: E) -> Vec<Diagnostic>
where
    E: Fn(GateView<'_>, Qubit, &mut Analysis<'_>),
{
    let extra = ancillas_needed(circuit);
    if extra == 0 {
        return Vec::new();
    }
    let base = circuit.num_qubits();
    let mut spec = AncillaSpec::default();
    for q in base..base + extra {
        spec.push(q, format!("decomposition ancilla {q}"));
    }
    Analysis::run((base + extra) as usize, &spec, |sink| {
        for view in circuit {
            emit(view, base, sink);
        }
    })
}

/// The number of ancillae the template of a `kind` gate with `arity`
/// controls computes into; zero for a gate that is its own decomposition.
fn template_ancillas(kind: GateKind, arity: usize) -> usize {
    match kind {
        GateKind::Mcx => arity.saturating_sub(2),
        GateKind::Mch => arity.saturating_sub(1),
        _ => 0,
    }
}

/// Whether `emit`'s template for a `kind` gate with `arity` controls
/// returns its ancillae to |0⟩.
///
/// The template is analysed once, with controls `0..arity` and target
/// `arity` as fresh symbolic inputs and its ancillae right after them: it
/// certifies when the analysis reports nothing. Any gate the scan admits
/// is this template up to a renaming of distinct qubits, so the verdict
/// holds for it on every basis state of its controls.
fn certify_template<E>(kind: GateKind, arity: usize, emit: E) -> bool
where
    E: Fn(GateView<'_>, Qubit, &mut Analysis<'_>),
{
    let controls: Vec<Qubit> = (0..arity as Qubit).collect();
    let target = arity as Qubit;
    let base = target + 1;
    let width = base as usize + template_ancillas(kind, arity);
    let spec = AncillaSpec::range(base, width as Qubit, "template ancilla");
    let view = GateView {
        kind,
        controls: &controls,
        target,
    };
    Analysis::run(width, &spec, |sink| emit(view, base, sink)).is_empty()
}

/// Certification verdicts of the Barenco templates by `(is MCH, arity)`,
/// filled on first use: each template is analysed once per process.
static CERTIFIED: Mutex<BTreeMap<(bool, usize), bool>> = Mutex::new(BTreeMap::new());

/// [`certify_template`] for the Barenco decomposition, memoized.
fn barenco_certified(kind: GateKind, arity: usize) -> bool {
    let key = (kind == GateKind::Mch, arity);
    let mut table = CERTIFIED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *table
        .entry(key)
        .or_insert_with(|| certify_template(kind, arity, barenco))
}

/// One pass over an MCX-level circuit's gates: their arity histogram.
///
/// A gate is an argument the Barenco template is certified for when its
/// controls are strictly increasing, its target is not a control, and
/// every operand is below the circuit's width (where the decomposition
/// ancillae start). These are per-gate invariants of the packed
/// representation, and the scan reads a circuit only after
/// [`Circuit::audit_raw`] has checked them on every gate. So on a circuit
/// it reads, each gate's Toffoli-level expansion touches the decomposition
/// ancillae only through its own template, which finds them at |0⟩ and,
/// once certified, leaves them at |0⟩. A circuit that fails the audit is
/// not read: every check on it reports nothing, as the streamed check
/// does, and the well-formedness audit reports the defect.
#[derive(Debug, Clone)]
pub struct ArityScan<'c> {
    circuit: &'c Circuit,
    /// Whether the circuit passed [`Circuit::audit_raw`].
    readable: bool,
    histogram: GateHistogram,
    phase_gates: u64,
}

impl<'c> ArityScan<'c> {
    /// Audit `circuit`, then scan it once if it passes.
    pub fn of(circuit: &'c Circuit) -> ArityScan<'c> {
        ArityScan::audited(circuit, &circuit.audit_raw())
    }

    /// Scan `circuit` once if it passes the audit whose findings are
    /// `defects`, which must be `circuit.audit_raw()`: for a caller that
    /// audits once for several checks.
    pub fn audited(circuit: &'c Circuit, defects: &[RawDefect]) -> ArityScan<'c> {
        let mut scan = ArityScan {
            circuit,
            readable: defects.is_empty(),
            histogram: GateHistogram::new(),
            phase_gates: 0,
        };
        if scan.readable {
            for view in circuit {
                match view.kind {
                    GateKind::Mcx => scan.histogram.add_mcx(view.controls.len(), 1),
                    GateKind::Mch => scan.histogram.add_mch(view.controls.len(), 1),
                    _ => scan.phase_gates += 1,
                }
            }
        }
        scan
    }

    /// The `verify/cost-model-mismatch` check of
    /// [`check_cost_model`](crate::cost::check_cost_model) on this scan:
    /// `model` must equal the scanned histogram, and the stream must hold
    /// no phase gate. Returns nothing for a circuit that fails
    /// [`Circuit::audit_raw`].
    pub fn cost_model(&self, model: &GateHistogram) -> Vec<Diagnostic> {
        if !self.readable {
            return Vec::new();
        }
        crate::cost::compare(model, &self.histogram, self.phase_gates)
    }

    /// Whether [`ArityScan::decomposition_ancillas`] answers without a
    /// replay: the circuit passed the audit and every template arity in it
    /// certifies.
    pub fn certified(&self) -> bool {
        self.certified_by(barenco_certified)
    }

    /// The diagnostics of [`check_ancillas`] on the scanned circuit,
    /// without auditing it again.
    pub fn ancillas(&self, spec: &AncillaSpec) -> Vec<Diagnostic> {
        if !self.readable {
            return Vec::new();
        }
        scratch_ancillas(self.circuit, spec)
    }

    /// The decomposition-ancilla diagnostics of [`check_decomposition_ancillas`].
    pub fn decomposition_ancillas(&self) -> Vec<Diagnostic> {
        self.decomposition_ancillas_by(barenco, barenco_certified)
    }

    fn certified_by(&self, certified: impl Fn(GateKind, usize) -> bool) -> bool {
        let mcx = self
            .histogram
            .mcx_counts()
            .map(|(arity, _)| (GateKind::Mcx, arity));
        let mch = self
            .histogram
            .mch_counts()
            .map(|(arity, _)| (GateKind::Mch, arity));
        self.readable
            && mcx
                .chain(mch)
                .filter(|&(kind, arity)| template_ancillas(kind, arity) > 0)
                .all(|(kind, arity)| certified(kind, arity))
    }

    fn decomposition_ancillas_by<E>(
        &self,
        emit: E,
        certified: impl Fn(GateKind, usize) -> bool,
    ) -> Vec<Diagnostic>
    where
        E: Fn(GateView<'_>, Qubit, &mut Analysis<'_>),
    {
        if !self.readable || self.certified_by(certified) {
            return Vec::new();
        }
        stream_templates(self.circuit, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Gate;

    fn spec(qs: &[Qubit]) -> AncillaSpec {
        let mut s = AncillaSpec::default();
        for &q in qs {
            s.push(q, format!("ancilla {q}"));
        }
        s
    }

    #[test]
    fn compute_uncompute_pair_is_clean() {
        // Bennett pattern: compute a AND b into ancilla 2, use it, uncompute.
        let mut c = Circuit::new(4);
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::cnot(2, 3));
        c.push(Gate::toffoli(0, 1, 2));
        assert!(check_ancillas(&c, &spec(&[2])).is_empty());
    }

    #[test]
    fn leaked_ancilla_is_an_error() {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(0, 1, 2)); // never uncomputed
        let diags = check_ancillas(&c, &spec(&[2]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::LEAKED_ANCILLA);
    }

    #[test]
    fn leak_by_cancellation_is_still_clean() {
        // a⊕b computed twice cancels even though no gate pair is adjacent.
        let mut c = Circuit::new(3);
        c.push(Gate::cnot(0, 2));
        c.push(Gate::cnot(1, 2));
        c.push(Gate::cnot(0, 2));
        c.push(Gate::cnot(1, 2));
        assert!(check_ancillas(&c, &spec(&[2])).is_empty());
    }

    #[test]
    fn x_conjugation_cancels() {
        // X flips around a Toffoli pair: constant-1 terms cancel, and both
        // product terms see the same flipped control value.
        let mut c = Circuit::new(4);
        c.push(Gate::x(0));
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::cnot(2, 3));
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::x(0));
        assert!(check_ancillas(&c, &spec(&[2])).is_empty());
    }

    #[test]
    fn use_after_uncompute_is_flagged() {
        let mut c = Circuit::new(4);
        c.push(Gate::toffoli(0, 1, 2)); // compute
        c.push(Gate::toffoli(0, 1, 2)); // uncompute
        c.push(Gate::cnot(2, 3)); // dead read of released ancilla
        let diags = check_ancillas(&c, &spec(&[2]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::USE_AFTER_UNCOMPUTE);
        assert_eq!(diags[0].severity, crate::Severity::Error);
        assert_eq!(diags[0].gate, Some(2));
    }

    #[test]
    fn transient_zero_read_is_a_warning() {
        // The read is dead, but the ancilla is recomputed afterwards: the
        // degenerate arm of a conjugation template, not a stale-read bug.
        let mut c = Circuit::new(4);
        c.push(Gate::toffoli(0, 1, 2)); // compute
        c.push(Gate::toffoli(0, 1, 2)); // uncompute
        c.push(Gate::cnot(2, 3)); // dead read of the released ancilla
        c.push(Gate::toffoli(0, 1, 2)); // recompute
        c.push(Gate::toffoli(0, 1, 2)); // release again
        let diags = check_ancillas(&c, &spec(&[2]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::USE_AFTER_UNCOMPUTE);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
        assert_eq!(diags[0].gate, Some(2));
    }

    #[test]
    fn zero_controls_make_gates_dead_not_leaky() {
        // Ancilla 2 stays identically 0, so CNOT(2→3) never fires and
        // ancilla 3 stays clean; reading a *fresh* (never-computed) ancilla
        // is not use-after-uncompute.
        let mut c = Circuit::new(4);
        c.push(Gate::cnot(2, 3));
        assert!(check_ancillas(&c, &spec(&[2, 3])).is_empty());
    }

    #[test]
    fn hadamard_frontier_degrades_to_warning() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(1));
        let diags = check_ancillas(&c, &spec(&[1]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::ANCILLA_INDETERMINATE);
        assert_eq!(diags[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn top_control_taints_targets_but_zero_control_still_kills() {
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        // Controls {0 (⊤), 2 (zero ancilla)}: provably dead despite ⊤.
        c.push(Gate::mcx(vec![0, 2], 3));
        assert!(check_ancillas(&c, &spec(&[2, 3])).is_empty());
        // Without the zero control, ⊤ taints the target.
        let mut c2 = Circuit::new(3);
        c2.push(Gate::h(0));
        c2.push(Gate::cnot(0, 2));
        let diags = check_ancillas(&c2, &spec(&[2]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::ANCILLA_INDETERMINATE);
    }

    #[test]
    fn phase_gates_are_transparent() {
        let mut c = Circuit::new(3);
        c.push(Gate::toffoli(0, 1, 2));
        c.push(Gate::T(2));
        c.push(Gate::Tdg(2));
        c.push(Gate::toffoli(0, 1, 2));
        assert!(check_ancillas(&c, &spec(&[2])).is_empty());
    }

    #[test]
    fn recompute_after_release_is_allowed() {
        // V-chain style reuse: compute, uncompute, recompute, uncompute.
        let mut c = Circuit::new(3);
        for _ in 0..2 {
            c.push(Gate::toffoli(0, 1, 2));
            c.push(Gate::toffoli(0, 1, 2));
        }
        assert!(check_ancillas(&c, &spec(&[2])).is_empty());
    }

    #[test]
    fn barenco_vchain_is_clean() {
        // The Figure-5 shape: chain products into fresh ancillae, use the
        // top, then unwind. Nested product terms must cancel exactly.
        let mut c = Circuit::new(7);
        c.push(Gate::toffoli(0, 1, 4));
        c.push(Gate::toffoli(2, 4, 5));
        c.push(Gate::toffoli(3, 5, 6));
        c.push(Gate::toffoli(3, 5, 6)); // stand-in for the final use
        c.push(Gate::toffoli(2, 4, 5));
        c.push(Gate::toffoli(0, 1, 4));
        assert!(check_ancillas(&c, &spec(&[4, 5, 6])).is_empty());
    }

    #[test]
    fn carry_chain_cancels_linearly() {
        // Cuccaro-style MAJ/UMA pairs: CNOT-heavy compute/uncompute with the
        // carry rippling through; everything must cancel.
        let mut c = Circuit::new(9);
        let (a, b, carry) = ([0, 1, 2], [3, 4, 5], [6, 7, 8]);
        for i in 0..3 {
            c.push(Gate::cnot(a[i], b[i]));
            if i > 0 {
                c.push(Gate::cnot(carry[i - 1], carry[i]));
            }
            c.push(Gate::toffoli(a[i], b[i], carry[i]));
        }
        for i in (0..3).rev() {
            c.push(Gate::toffoli(a[i], b[i], carry[i]));
            if i > 0 {
                c.push(Gate::cnot(carry[i - 1], carry[i]));
            }
            c.push(Gate::cnot(a[i], b[i]));
        }
        assert!(check_ancillas(&c, &spec(&[6, 7, 8])).is_empty());
    }

    #[test]
    fn analysis_scales_past_sixty_four_qubits() {
        // Footprints fold at 64 qubits and the dense simulators stop far
        // earlier; the term domain does not care.
        let mut c = Circuit::new(130);
        c.push(Gate::toffoli(0, 100, 129));
        c.push(Gate::toffoli(0, 100, 129));
        assert!(check_ancillas(&c, &spec(&[129])).is_empty());
    }

    #[test]
    fn decomposition_ancillas_are_certified_per_template() {
        // Clean: the V-chain restores its ancilla. No chain, no check.
        let mut c = Circuit::new(5);
        c.push(Gate::mcx(vec![0, 1, 2], 3));
        assert!(check_decomposition_ancillas(&c).is_empty());
        let mut small = Circuit::new(3);
        small.push(Gate::toffoli(0, 1, 2));
        assert!(check_decomposition_ancillas(&small).is_empty());

        // A ⊤ control makes the replayed chain ancilla (qubit 4 = width) ⊤
        // as well, but the certified template restores it on every basis
        // state, hence on every state: no warning.
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        c.push(Gate::mcx(vec![0, 1, 2], 3));
        assert!(ArityScan::of(&c).certified());
        assert!(check_decomposition_ancillas(&c).is_empty());
        let streamed = check_decomposition_ancillas_streamed(&c);
        assert_eq!(streamed.len(), 1);
        assert_eq!(streamed[0].code, codes::ANCILLA_INDETERMINATE);
        assert!(streamed[0].message.starts_with("decomposition ancilla 4 "));
    }

    #[test]
    fn barenco_templates_certify() {
        for arity in 3..=32 {
            assert!(barenco_certified(GateKind::Mcx, arity), "MCX with {arity}");
        }
        for arity in 2..=32 {
            assert!(barenco_certified(GateKind::Mch, arity), "MCH with {arity}");
        }
    }

    /// The Barenco decomposition with the last uncompute Toffoli of every
    /// MCX template dropped: the template leaks its first chain ancilla.
    fn leaky(view: GateView<'_>, ancilla_base: Qubit, sink: &mut Analysis<'_>) {
        let mut gates: Vec<Gate> = Vec::new();
        emit_toffoli_level_view(view, ancilla_base, &mut gates);
        if view.kind == GateKind::Mcx && view.controls.len() >= 3 {
            gates.pop();
        }
        for gate in gates {
            sink.push_gate(gate);
        }
    }

    #[test]
    fn leaky_template_fails_certification_and_falls_back() {
        assert!(!certify_template(GateKind::Mcx, 3, leaky));
        assert!(certify_template(GateKind::Mch, 3, leaky));

        let mut c = Circuit::new(5);
        c.push(Gate::mcx(vec![0, 1, 2], 3));
        let scan = ArityScan::of(&c);
        assert!(scan.certified(), "the real template certifies");
        let diags = scan
            .decomposition_ancillas_by(leaky, |kind, arity| certify_template(kind, arity, leaky));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::LEAKED_ANCILLA);
        assert!(diags[0].message.starts_with("decomposition ancilla 5 "));
    }

    #[test]
    fn malformed_gates_are_not_certified() {
        // A gate whose target is among its controls, and one with unsorted
        // controls: neither is a template argument, so neither circuit
        // certifies, and both answer exactly as the streamed check does
        // (nothing: the packed-representation audit owns these defects).
        let mut overlap = Circuit::new(5);
        overlap.push(Gate::h(0));
        overlap.push_raw_for_test(GateKind::Mcx, &[0, 1, 2, 3], 3);
        let mut unsorted = Circuit::new(5);
        unsorted.push(Gate::h(0));
        unsorted.push_raw_for_test(GateKind::Mcx, &[2, 0, 1], 3);
        for c in [&overlap, &unsorted] {
            let scan = ArityScan::of(c);
            assert!(!scan.certified());
            assert_eq!(
                scan.decomposition_ancillas(),
                check_decomposition_ancillas_streamed(c)
            );
        }
    }
}
