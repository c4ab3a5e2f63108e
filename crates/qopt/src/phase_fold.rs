//! Phase folding (rotation merging).
//!
//! This is the optimization of Nam et al. / Amy's Feynman that the paper
//! credits for the intermediate results of VOQC, Pytket ZX, and Feynman
//! `-toCliffordT` (Section 8.5): inside a region of {X, CNOT, phase}
//! gates, every qubit's state is an affine function (a *parity*) of the
//! region's inputs, phase gates commute freely to any point where their
//! parity is exposed, and rotations on the same parity merge mod 2π.
//! Hadamards and undecomposed Toffoli-or-larger gates cut the region by
//! assigning fresh parity labels.
//!
//! Merging is "an appropriate implementation of rotation merging … over an
//! unbounded number of gates" (paper Section 8.5) — but because the
//! Clifford+T decomposition of a Toffoli interleaves Hadamards, it cannot
//! recover Toffoli-level structure, which is exactly why the
//! `-toCliffordT`-style pipeline stays asymptotically quadratic on the
//! paper's benchmarks.
//!
//! The pass runs on the packed gate stream and allocates nothing per
//! gate once its buffers are warm:
//!
//! * the parity table is dense, indexed by qubit: each qubit keeps its
//!   sorted label vector, its constant, and a 64-bit Zobrist hash of the
//!   label set (the XOR of one mixed value per label). A CNOT merges the
//!   control's labels into the target's through one reused scratch buffer
//!   swapped in place, and XORs the hashes; a Hadamard or Toffoli cut
//!   rewrites the target's vector in place with one fresh label;
//! * rotation terms are found through `TermIndex`: a map from a
//!   parity's hash to its term, confirmed by comparing the exact labels
//!   against a flat arena holding every term's key. Two different label
//!   sets that share a hash fall back to an exact map keyed by the labels,
//!   so no result ever depends on hash equality alone;
//! * non-phase gates are carried through as slot *indices* into the input
//!   circuit rather than cloned `Gate`s, and the output is rebuilt by
//!   pushing views.
//!
//! The pass is idempotent gate for gate: refolding its output meets the
//! same non-phase gates, hence the same parities, and each merged term's
//! emitted rotation (one or two gates at its anchor) refolds to itself.
//! The fold/cancel fixpoints in `passes.rs` rely on this.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use qcirc::{Circuit, Gate, GateKind, Qubit};

/// The Zobrist value of one parity label: a SplitMix64 finalizer, so the
/// XOR over a label set is uniformly spread even for consecutive labels.
fn mix(label: u32) -> u64 {
    let mut z = u64::from(label).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every qubit's parity: an affine function of region inputs, the XOR of
/// a label set plus a constant.
struct ParityTable {
    /// Per qubit: sorted, duplicate-free labels.
    labels: Vec<Vec<u32>>,
    /// Per qubit: XOR of `mix` over `labels`.
    hashes: Vec<u64>,
    /// Per qubit: the affine constant.
    constants: Vec<bool>,
    /// Merge buffer, swapped with a target's labels on every CNOT.
    scratch: Vec<u32>,
    next_label: u32,
}

impl ParityTable {
    /// One fresh label per qubit.
    fn new(n_qubits: usize) -> Self {
        let mut table = ParityTable {
            labels: vec![Vec::new(); n_qubits],
            hashes: vec![0; n_qubits],
            constants: vec![false; n_qubits],
            scratch: Vec::new(),
            next_label: 0,
        };
        for q in 0..n_qubits {
            table.cut(q);
        }
        table
    }

    /// Region split: `q` leaves the linear domain and gets a fresh label.
    fn cut(&mut self, q: usize) {
        let label = self.next_label;
        self.next_label += 1;
        self.labels[q].clear();
        self.labels[q].push(label);
        self.hashes[q] = mix(label);
        self.constants[q] = false;
    }

    /// CNOT: the target's parity becomes target ⊕ control. A degenerate
    /// control == target (constructible through the public `Gate::Mcx`
    /// variant, though rejected by the gate constructors and the `.qc`
    /// parser) xors the parity with itself, like the pre-refactor
    /// table-based code did.
    fn xor_into(&mut self, control: usize, target: usize) {
        let merged = &mut self.scratch;
        merged.clear();
        let (a, b) = (&self.labels[target], &self.labels[control]);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        std::mem::swap(&mut self.labels[target], &mut self.scratch);
        self.hashes[target] ^= self.hashes[control];
        self.constants[target] ^= self.constants[control];
    }
}

/// A [`Hasher`] for keys that are already uniformly mixed `u64`s: the
/// parity hashes built from `mix`. A collision costs a lookup in the exact
/// fallback map, never a wrong term.
#[derive(Default)]
struct PremixedHasher(u64);

impl Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PremixedHasher only hashes u64 keys")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Interns parity label sets as term ids `0, 1, 2, …` in first-seen order.
///
/// Lookup goes by the caller's hash of the labels and is confirmed against
/// the exact labels stored in `keys`; a set whose hash already belongs to a
/// different set lives in the exact `collided` map instead.
#[derive(Default)]
struct TermIndex {
    /// Hash → the first term interned under it.
    by_hash: HashMap<u64, u32, BuildHasherDefault<PremixedHasher>>,
    /// Every term's labels, back to back.
    keys: Vec<u32>,
    /// Term id → its `start..end` range in `keys`.
    spans: Vec<(usize, usize)>,
    /// Label sets whose hash collided with an earlier, different set.
    collided: HashMap<Vec<u32>, u32>,
}

impl TermIndex {
    /// The id of the term keyed by `labels`, and whether it was just
    /// created. `hash` must be a function of `labels` alone.
    fn intern(&mut self, hash: u64, labels: &[u32]) -> (u32, bool) {
        let fresh = self.spans.len() as u32;
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
            }
            Entry::Occupied(slot) => {
                let (start, end) = self.spans[*slot.get() as usize];
                if self.keys[start..end] == *labels {
                    return (*slot.get(), false);
                }
                if let Some(&t) = self.collided.get(labels) {
                    return (t, false);
                }
                self.collided.insert(labels.to_vec(), fresh);
            }
        }
        let start = self.keys.len();
        self.keys.extend_from_slice(labels);
        self.spans.push((start, self.keys.len()));
        (fresh, true)
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Index of a carried-through gate in the *input* circuit.
    Gate(u32),
    /// Placeholder where the merged rotation of term `terms[i]` will be
    /// emitted.
    Anchor(u32),
}

#[derive(Debug)]
struct Term {
    /// Net rotation amount in units of π/4, mod 8, as a coefficient of the
    /// parity's label part.
    amount: i32,
    /// Qubit at the anchor point.
    qubit: Qubit,
    /// The parity constant at the anchor point (rotations are emitted
    /// relative to it).
    anchor_constant: bool,
}

/// Fold phase rotations across {X, CNOT, phase} regions of a circuit,
/// merging rotations on equal parities. Preserves the unitary up to global
/// phase.
pub fn phase_fold(circuit: &Circuit) -> Circuit {
    let mut parities = ParityTable::new(circuit.num_qubits() as usize);
    let mut slots: Vec<Slot> = Vec::with_capacity(circuit.len());
    let mut terms: Vec<Term> = Vec::new();
    let mut index = TermIndex::default();

    for (i, view) in circuit.iter().enumerate() {
        let target = view.target as usize;
        match view.kind {
            GateKind::Mcx if view.controls.is_empty() => {
                parities.constants[target] ^= true;
                slots.push(Slot::Gate(i as u32));
            }
            GateKind::Mcx if view.controls.len() == 1 => {
                parities.xor_into(view.controls[0] as usize, target);
                slots.push(Slot::Gate(i as u32));
            }
            GateKind::Mcx | GateKind::Mch => {
                parities.cut(target);
                slots.push(Slot::Gate(i as u32));
            }
            phase => {
                let amount: i32 = match phase {
                    GateKind::T => 1,
                    GateKind::S => 2,
                    GateKind::Z => 4,
                    GateKind::Sdg => 6,
                    GateKind::Tdg => 7,
                    _ => unreachable!("Mcx/Mch handled above"),
                };
                let constant = parities.constants[target];
                // Rotation on (c ⊕ x_L) contributes ±amount to the x_L
                // coefficient (the sign flip absorbs a global phase).
                let signed = if constant { -amount } else { amount };
                let (t, fresh) = index.intern(parities.hashes[target], &parities.labels[target]);
                if fresh {
                    slots.push(Slot::Anchor(t));
                    terms.push(Term {
                        amount: signed.rem_euclid(8),
                        qubit: view.target,
                        anchor_constant: constant,
                    });
                } else {
                    let term = &mut terms[t as usize];
                    term.amount = (term.amount + signed).rem_euclid(8);
                }
            }
        }
    }

    let mut out = Circuit::with_capacity(circuit.num_qubits(), slots.len());
    for slot in slots {
        match slot {
            Slot::Gate(i) => out.push_view(circuit.view(i as usize)),
            Slot::Anchor(t) => {
                let term = &terms[t as usize];
                let physical = if term.anchor_constant {
                    (-term.amount).rem_euclid(8)
                } else {
                    term.amount.rem_euclid(8)
                };
                emit_rotation(physical as u8, term.qubit, &mut out);
            }
        }
    }
    out.ensure_qubits(circuit.num_qubits());
    out
}

/// Emit a π/4-unit rotation of the given amount (mod 8) as Clifford+T
/// gates; amounts 0..=7 use at most one T gate.
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

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::sim::StateVec;

    fn t_count(c: &Circuit) -> u64 {
        c.clifford_t_counts().t_count()
    }

    fn assert_equiv_up_to_global_phase(a: &Circuit, b: &Circuit, qubits: u32) {
        for basis in 0..(1u64 << qubits) {
            let mut s1 = StateVec::basis(qubits, basis).unwrap();
            s1.run(a).unwrap();
            let mut s2 = StateVec::basis(qubits, basis).unwrap();
            s2.run(b).unwrap();
            // Basis states are eigenvectors of diagonal rewrites only up to
            // global phase; compare fidelity.
            assert!(
                (s1.fidelity(&s2) - 1.0).abs() < 1e-9,
                "fidelity {} on basis {basis:#b}",
                s1.fidelity(&s2)
            );
        }
    }

    #[test]
    fn term_index_resolves_hash_collisions_exactly() {
        // One forced hash for every set: only the exact label comparison
        // and the collision map can tell them apart.
        let mut index = TermIndex::default();
        let (a, b, c) = (&[1, 2][..], &[3][..], &[1, 2, 3][..]);
        assert_eq!(index.intern(7, a), (0, true));
        assert_eq!(index.intern(7, b), (1, true));
        assert_eq!(index.intern(7, a), (0, false));
        assert_eq!(index.intern(7, b), (1, false));
        assert_eq!(index.intern(7, c), (2, true));
        assert_eq!(index.intern(7, c), (2, false));
        assert_eq!(index.intern(9, &[]), (3, true));
        assert_eq!(index.intern(9, &[]), (3, false));
        assert_eq!(index.keys, [1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn parity_hash_tracks_label_set() {
        let mut table = ParityTable::new(3);
        table.xor_into(0, 1);
        table.xor_into(2, 1);
        table.xor_into(0, 1);
        assert_eq!(table.labels[1], [1, 2]);
        assert_eq!(table.hashes[1], mix(1) ^ mix(2));
        table.cut(1);
        assert_eq!(table.labels[1], [3]);
        assert_eq!(table.hashes[1], mix(3));
        table.xor_into(1, 1);
        assert!(table.labels[1].is_empty());
        assert_eq!(table.hashes[1], 0);
    }

    #[test]
    fn two_ts_merge_into_s() {
        let c = Circuit::from_gates(vec![Gate::T(0), Gate::T(0)]);
        let folded = phase_fold(&c);
        assert_eq!(t_count(&folded), 0);
        assert_eq!(folded.to_gates(), vec![Gate::S(0)]);
    }

    #[test]
    fn t_tdg_annihilate() {
        let c = Circuit::from_gates(vec![Gate::T(0), Gate::x(1), Gate::Tdg(0)]);
        let folded = phase_fold(&c);
        assert_eq!(t_count(&folded), 0);
    }

    #[test]
    fn merge_across_cnot_conjugation() {
        // T(1); CNOT(0,1); ...; CNOT(0,1); T(1): the parities at the two
        // T's are equal, so they merge to S even though gates intervene.
        let c = Circuit::from_gates(vec![
            Gate::T(1),
            Gate::cnot(0, 1),
            Gate::T(0),
            Gate::cnot(0, 1),
            Gate::T(1),
        ]);
        let folded = phase_fold(&c);
        assert_eq!(t_count(&folded), 1, "{folded}");
        assert_equiv_up_to_global_phase(&c, &folded, 2);
    }

    #[test]
    fn x_conjugation_flips_sign() {
        // X T X ≡ (global phase) T†, so X T X T folds to ... X X global.
        let c = Circuit::from_gates(vec![Gate::x(0), Gate::T(0), Gate::x(0), Gate::T(0)]);
        let folded = phase_fold(&c);
        assert_eq!(t_count(&folded), 0, "{folded}");
        assert_equiv_up_to_global_phase(&c, &folded, 1);
    }

    #[test]
    fn hadamard_blocks_merging() {
        let c = Circuit::from_gates(vec![Gate::T(0), Gate::h(0), Gate::T(0)]);
        let folded = phase_fold(&c);
        assert_eq!(t_count(&folded), 2);
        assert_equiv_up_to_global_phase(&c, &folded, 1);
    }

    #[test]
    fn preserves_semantics_on_mixed_circuit() {
        let c = Circuit::from_gates(vec![
            Gate::h(0),
            Gate::T(0),
            Gate::cnot(0, 1),
            Gate::T(1),
            Gate::cnot(0, 1),
            Gate::Tdg(1),
            Gate::toffoli(0, 1, 2),
            Gate::T(2),
            Gate::cnot(1, 2),
            Gate::S(2),
            Gate::h(2),
            Gate::T(2),
        ]);
        let folded = phase_fold(&c);
        assert_equiv_up_to_global_phase(&c, &folded, 3);
        assert!(t_count(&folded) <= t_count(&c));
    }

    #[test]
    fn degenerate_self_controlled_cnot_does_not_panic() {
        // `Gate::Mcx` is a public variant, so a control equal to the
        // target can reach the pass without going through the validating
        // constructors (the `.qc` parser now rejects it). The parity xors
        // with itself — labels cancel — exactly as the pre-refactor
        // table-based implementation behaved.
        let degenerate = Gate::Mcx {
            controls: vec![0],
            target: 0,
        };
        let c = Circuit::from_gates(vec![Gate::T(0), degenerate.clone(), Gate::T(0)]);
        let folded = phase_fold(&c);
        assert!(folded.to_gates().contains(&degenerate));
    }

    #[test]
    fn folds_decomposed_toffoli_pair_partially() {
        // Figure 17: two adjacent decomposed Toffolis. Phase folding alone
        // cannot fully reduce them (Hadamards intervene), mirroring the
        // paper's observation about Clifford+T-level optimizers.
        let mut c = Circuit::new(3);
        qcirc::decompose::emit_toffoli_7t(0, 1, 2, &mut c);
        qcirc::decompose::emit_toffoli_7t(0, 1, 2, &mut c);
        let folded = phase_fold(&c);
        assert!(t_count(&folded) > 0, "H-separated structure survives");
        assert_equiv_up_to_global_phase(&c, &folded, 3);
    }
}
