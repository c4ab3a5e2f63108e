//! Differential properties for the wide-key sparse simulator.
//!
//! Three independent cross-checks pin the generalized engine to trusted
//! references:
//!
//! 1. **Key-width transparency**: on ≤ 64-qubit circuits, a 128-bit-keyed
//!    state must be indistinguishable from the historical `u64`-keyed one.
//!    With branching fusion disabled every amplitude is a sum of at most
//!    two terms accumulated in the same order, so the comparison is
//!    *bit-for-bit*; under the default config (where multi-branch batches
//!    may reassociate floating-point sums) the key sets must still match
//!    exactly and amplitudes to 1e-12.
//! 2. **Wide permutation ground truth**: Hadamard-free programs compile to
//!    basis-state permutations, so [`BasisState`] is an oracle at *any*
//!    width. Generated programs with ≥ 100-qubit layouts must compute the
//!    same live variables on [`SparseState256`].
//! 3. **Parallel/sequential equivalence**: the sharded multi-threaded
//!    batch path must prepare the same state as the single-threaded one,
//!    on both generated quantum programs and a crafted H-heavy circuit
//!    whose support is guaranteed to cross the parallel threshold.

use proptest::prelude::*;
use qcirc::sim::{BasisKey, BasisState, ExecConfig, SparseState, SparseState128, SparseState256};
use qcirc::{Circuit, Gate};
use spire::OptConfig;
use spire_repro::difftest::{generate, seed_bytes, GenConfig, TestProgram};

/// An exec config with branching fusion disabled: every interference sum
/// has at most two terms, added commutatively, so narrow- and wide-key
/// runs are bitwise identical.
fn no_fusion() -> ExecConfig {
    ExecConfig {
        max_branching: 1,
        ..ExecConfig::default()
    }
}

/// Collect a state's amplitude map keyed by the low key word, as raw f64
/// bit patterns (the keys here are all ≤ 64 bits wide).
fn bit_snapshot<K: BasisKey>(
    state: &qcirc::sim::KeyedSparseState<K>,
) -> std::collections::BTreeMap<u64, (u64, u64)> {
    state
        .iter()
        .map(|(k, a)| (k.low_u64(), (a.re.to_bits(), a.im.to_bits())))
        .collect()
}

/// A quantum circuit from the generated corpus whose compiled layout fits
/// the given window, or `None` if the seed's program lands elsewhere.
fn quantum_circuit_in_window(seed: u64, lo: u32, hi: u32) -> Option<(Circuit, u64)> {
    let program = generate(&seed_bytes(seed, 96), &GenConfig::wide_quantum());
    let compiled = program.compile(OptConfig::spire());
    let circuit = compiled.emit();
    let width = circuit.num_qubits();
    if !(lo..=hi).contains(&width) {
        return None;
    }
    if !circuit.iter().any(|v| v.kind == qcirc::GateKind::Mch) {
        return None;
    }
    // A fixed nonzero pattern across the input registers so conditionals
    // actually fire.
    let mut index = 0u64;
    let mut pattern = 0xB5F3_9D17_2C6A_E481u64;
    for (var, _) in &program.inputs {
        let reg = compiled.layout.reg(var).expect("input register exists");
        let value = pattern & ((1u64 << reg.width) - 1);
        pattern = pattern.rotate_right(reg.width);
        index |= value << reg.offset;
    }
    Some((circuit, index))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wide keys are invisible at ≤ 64 qubits: the `Key128` engine
    /// reproduces the `u64` engine bit-for-bit when fusion cannot
    /// reassociate sums, and to exact key sets + 1e-12 amplitudes under
    /// the default config.
    #[test]
    fn key128_matches_u64_below_64_qubits(seed in any::<u64>()) {
        let Some((circuit, initial)) = quantum_circuit_in_window(seed % 400, 8, 64) else {
            return;
        };
        let width = circuit.num_qubits();

        // Bitwise comparison under the reassociation-free config.
        let mut narrow = SparseState::basis(width, initial)
            .expect("fits u64 keys")
            .with_exec(no_fusion());
        let mut wide = SparseState128::basis(width, initial)
            .expect("fits 128-bit keys")
            .with_exec(no_fusion());
        narrow.run(&circuit).expect("narrow run");
        wide.run(&circuit).expect("wide run");
        prop_assert_eq!(
            bit_snapshot(&narrow),
            bit_snapshot(&wide),
            "key width changed bits at {} qubits (seed {})", width, seed
        );

        // Default config: fused multi-branch batches may reassociate
        // floating-point sums, so allow 1e-12 on amplitudes — but the
        // support (which keys exist) must still agree exactly.
        let mut narrow = SparseState::basis(width, initial).expect("fits u64 keys");
        let mut wide = SparseState128::basis(width, initial).expect("fits 128-bit keys");
        narrow.run(&circuit).expect("narrow run");
        wide.run(&circuit).expect("wide run");
        let narrow_keys: std::collections::BTreeSet<u64> =
            narrow.iter().map(|(k, _)| k).collect();
        let wide_keys: std::collections::BTreeSet<u64> =
            wide.iter().map(|(k, _)| k.low_u64()).collect();
        prop_assert_eq!(narrow_keys, wide_keys, "support differs (seed {})", seed);
        for (k, a) in narrow.iter() {
            let b = wide.amplitude_key(qcirc::sim::Key128::from_index(k));
            prop_assert!(
                a.approx_eq(b, 1e-12),
                "amplitude at key {:#x} differs (seed {})", k, seed
            );
        }
    }
}

/// Hadamard-free generated programs at ≥ 100 qubits: [`BasisState`] (an
/// oracle at any width) and [`SparseState256`] must agree on every live
/// variable. This is `sparse_reaches_sizes_dense_cannot` lifted past the
/// 64-bit key space.
#[test]
fn wide_sparse_matches_classical_oracle_at_100_plus_qubits() {
    let mut tested = 0;
    let mut widths = Vec::new();
    for seed in 0..400u64 {
        if tested == 4 {
            break;
        }
        let program = generate(&seed_bytes(seed, 96), &GenConfig::huge());
        let compiled = program.compile(OptConfig::spire());
        let total = compiled.layout.total_qubits;
        if !(100..=256).contains(&total) {
            continue;
        }
        tested += 1;
        widths.push(total);
        for bits in [0u64, 0xACE1_1234_5678_9ABC] {
            let classical = program.run::<BasisState>(&compiled, bits);
            let sparse = program.run::<SparseState256>(&compiled, bits);
            for name in TestProgram::live_vars(&compiled) {
                assert_eq!(
                    classical.var(&name).unwrap(),
                    sparse.var(&name).unwrap(),
                    "variable {name} differs between backends (seed {seed}, \
                     {total} qubits, inputs {bits:#x})"
                );
            }
        }
    }
    assert_eq!(
        tested, 4,
        "seed budget found only {tested}/4 programs with 100–256-qubit \
         layouts (widths seen: {widths:?})"
    );
    assert!(
        widths.iter().any(|&w| w > 64),
        "window check is vacuous: {widths:?}"
    );
}

/// The sharded parallel batch path prepares the same state as the
/// single-threaded path, on generated quantum programs forced through it
/// with a tiny threshold.
#[test]
fn parallel_run_matches_sequential_on_generated_programs() {
    let parallel = ExecConfig {
        threads: 4,
        parallel_threshold: 2,
        ..ExecConfig::default()
    };
    let sequential = ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    };
    let mut tested = 0;
    for seed in 0..400u64 {
        if tested == 3 {
            break;
        }
        let Some((circuit, initial)) = quantum_circuit_in_window(seed, 24, 64) else {
            continue;
        };
        let width = circuit.num_qubits();
        let mut par = SparseState::basis(width, initial)
            .expect("fits")
            .with_exec(parallel);
        let mut seq = SparseState::basis(width, initial)
            .expect("fits")
            .with_exec(sequential);
        par.run(&circuit).expect("parallel run");
        seq.run(&circuit).expect("sequential run");
        if seq.support() < 2 {
            continue; // the Hadamards cancelled; nothing parallel to check
        }
        tested += 1;
        assert!(
            par.approx_eq(&seq, 1e-7),
            "parallel and sequential runs diverge (seed {seed}, support {} vs {})",
            par.support(),
            seq.support(),
        );
    }
    assert_eq!(
        tested, 3,
        "seed budget found only {tested}/3 quantum programs"
    );
}

/// A crafted H-heavy wide circuit whose support is guaranteed to cross
/// the parallel threshold: 14 Hadamards spread across a 200-qubit
/// register, entangled by CNOTs, then a second Hadamard on 7 of them.
/// Each of those 7 is entangled with its CNOT target, so the second
/// Hadamard doubles the support instead of interfering: the final state
/// has 2²¹ = 2,097,152 amplitudes. Parallel and sequential runs must
/// agree and the norm must survive the shard merge.
#[test]
fn parallel_run_matches_sequential_on_wide_support_heavy_circuit() {
    let width = 200u32;
    let mut circuit = Circuit::new(width);
    for i in 0..14u32 {
        circuit.push(Gate::h(i * 14)); // qubits 0, 14, …, 182
    }
    for i in 0..13u32 {
        circuit.push(Gate::cnot(i * 14, i * 14 + 7));
    }
    for i in 0..7u32 {
        circuit.push(Gate::T(i * 14));
        circuit.push(Gate::h(i * 14)); // interfere half the branches
    }
    let parallel = ExecConfig {
        threads: 3,
        parallel_threshold: 64,
        ..ExecConfig::default()
    };
    let sequential = ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    };
    let mut par = SparseState256::basis(width, 0)
        .expect("fits 256-bit keys")
        .with_exec(parallel);
    let mut seq = SparseState256::basis(width, 0)
        .expect("fits 256-bit keys")
        .with_exec(sequential);
    par.run(&circuit).expect("parallel run");
    seq.run(&circuit).expect("sequential run");
    assert!(
        par.support() >= 64,
        "support {} too small to shard",
        par.support()
    );
    assert!(
        (par.norm() - 1.0).abs() < 1e-9,
        "norm drifted: {}",
        par.norm()
    );
    assert!(
        par.approx_eq_exact(&seq, 1e-10),
        "parallel and sequential runs diverge at width {width} \
         (support {} vs {})",
        par.support(),
        seq.support(),
    );
}

/// The generator's `huge` configs actually reach the advertised window —
/// guards the corpus the two tests above depend on.
#[test]
fn huge_config_reaches_wide_layouts() {
    let mut max_seen = 0;
    for seed in 0..60u64 {
        let program = generate(&seed_bytes(seed, 96), &GenConfig::huge());
        let compiled = program.compile(OptConfig::none());
        max_seen = max_seen.max(compiled.layout.total_qubits);
    }
    assert!(
        max_seen > 100,
        "GenConfig::huge never exceeded 100 qubits (max {max_seen})"
    );
}
