//! The `spire check` driver: run every static analysis on a compiled
//! program and aggregate the findings into a [`Report`].
//!
//! This module is the glue between the compiler pipeline and the
//! [`spire_verify`] analyses: it knows which qubits the layout allocated as
//! scratch, which qubits the Barenco decomposition adds, and which typing
//! tables the T-bound interval walk needs — none of which `spire-verify`
//! (deliberately independent of the backend) can see on its own.

use spire_verify::{
    bound_function, bound_violations, check_audited_circuit, codes, AncillaSpec, ArityScan,
    FunctionBounds, Report,
};
use tower::{parse, WordConfig};

use crate::error::SpireError;
use crate::layout::Layout;
use crate::pipeline::{compile_source, CompileOptions, Compiled};

/// The ancillae the layout allocates at the MCX level: the arithmetic and
/// qRAM scratch region, labelled by sub-region.
pub fn scratch_spec(layout: &Layout) -> AncillaSpec {
    let mut spec = AncillaSpec::default();
    let carries = layout.scratch_carries();
    for i in 0..carries.width {
        spec.push(carries.bit(i), format!("carry scratch bit {i}"));
    }
    spec.push(
        layout.scratch_cuccaro(),
        "Cuccaro adder ancilla".to_string(),
    );
    let product = layout.scratch_product();
    for i in 0..product.width {
        spec.push(product.bit(i), format!("product scratch bit {i}"));
    }
    let dup = layout.scratch_dup();
    for i in 0..dup.width {
        spec.push(dup.bit(i), format!("operand-duplication scratch bit {i}"));
    }
    spec.push(layout.scratch_qram_match(), "qRAM match bit".to_string());
    spec
}

/// Run every circuit-level and IR-level analysis on one compiled function.
///
/// `function` is the name used in the per-function T-bound row. The checks:
///
/// * structural well-formedness of the emitted MCX stream against the
///   layout's qubit budget (footprint audit included);
/// * ancilla discipline of the layout's scratch region, by the exact
///   analysis on the MCX stream;
/// * ancilla discipline of the Barenco decomposition ancillae, from one
///   [`ArityScan`] of the stream: each template arity is certified once
///   per process, and only a circuit with an uncertified template is
///   replayed at the Toffoli level;
/// * Theorem 5.1: the same scan's histogram must equal the cost model's
///   [`Compiled::histogram`] (`verify/cost-model-mismatch`);
/// * the static T-count interval against the compiled count.
///
/// The ancilla and cost-model checks are skipped when the emitted circuit
/// fails [`qcirc::Circuit::audit_raw`]; the well-formedness diagnostics
/// report the defect instead. The circuit is audited once, and the cost
/// model's histogram computed once, for all of the checks.
pub fn check_compiled(compiled: &Compiled, function: &str) -> Report {
    let mut verify_span = spire_trace::span("verify");
    let mut report = Report::default();
    let circuit = compiled.emit();

    let defects = {
        let _span = spire_trace::span("check_circuit");
        let defects = circuit.audit_raw();
        report.diagnostics.extend(check_audited_circuit(
            &circuit,
            &defects,
            Some(compiled.layout.total_qubits),
        ));
        defects
    };

    let histogram = {
        let _span = spire_trace::span("check_ancillas");
        let scan = ArityScan::audited(&circuit, &defects);
        report
            .diagnostics
            .extend(scan.ancillas(&scratch_spec(&compiled.layout)));

        // At the Toffoli level only the decomposition ancillae are new; the
        // scratch region was already checked exactly on the MCX stream.
        report.diagnostics.extend(scan.decomposition_ancillas());
        let histogram = compiled.histogram();
        report.diagnostics.extend(scan.cost_model(&histogram));
        histogram
    };

    {
        let _span = spire_trace::span("t_bounds");
        report
            .functions
            .push(bounds_row(compiled, histogram.t_complexity(), function));
        push_bound_violations(&mut report);
    }
    verify_span.attr("diagnostics", report.diagnostics.len() as u64);
    report
}

/// The T-bound row of `compiled`, whose T-complexity is `actual`.
fn bounds_row(compiled: &Compiled, actual: u64, function: &str) -> FunctionBounds {
    match bound_function(&compiled.ir, &compiled.types, &compiled.table) {
        Ok(bound) => FunctionBounds {
            name: function.to_string(),
            min: bound.min,
            max: bound.max,
            actual,
        },
        // A typechecked program cannot fail the walk; degrade to the
        // trivially-true interval rather than inventing an error channel.
        Err(_) => FunctionBounds {
            name: function.to_string(),
            min: 0,
            max: u64::MAX,
            actual,
        },
    }
}

fn push_bound_violations(report: &mut Report) {
    let violations = bound_violations(&report.functions);
    report.diagnostics.extend(violations);
}

/// Compile `source` and run the full analysis suite.
///
/// The entry function gets the complete circuit-level treatment via
/// [`check_compiled`]; every *other* function in the source that compiles
/// at the same recursion depth contributes an additional per-function
/// T-bound row (and a `verify/t-bound-violation` diagnostic if its interval
/// fails). Functions that do not compile standalone at this depth are
/// skipped — that is a property of the request, not a defect in the program.
///
/// # Errors
///
/// Propagates compile errors for the entry function only.
pub fn check_source(
    source: &str,
    entry: &str,
    depth: i64,
    config: WordConfig,
    options: &CompileOptions,
) -> Result<Report, SpireError> {
    let compiled = compile_source(source, entry, depth, config, options)?;
    let mut report = check_compiled(&compiled, entry);

    if let Ok(program) = parse(source) {
        for fun in &program.funs {
            let name = fun.name.to_string();
            if name == entry {
                continue;
            }
            if let Ok(sibling) = compile_source(source, &name, depth, config, options) {
                report
                    .functions
                    .push(bounds_row(&sibling, sibling.t_complexity(), &name));
            }
        }
        // Re-scan: sibling rows may add violations of their own.
        report
            .diagnostics
            .retain(|d| d.code != codes::T_BOUND_VIOLATION);
        push_bound_violations(&mut report);

        // Anchor each violation at its function's name in the source. The
        // violations were just appended in row order, so the two filtered
        // iterations line up.
        let spans: Vec<_> = report
            .functions
            .iter()
            .filter(|row| !row.holds())
            .map(|row| tower::locate_ident(source, &row.name, 0))
            .collect();
        let mut spans = spans.into_iter();
        for diag in &mut report.diagnostics {
            if diag.code == codes::T_BOUND_VIOLATION {
                if let Some(Some(span)) = spans.next() {
                    diag.span = Some((span.start, span.end));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INC_SRC: &str = r#"
        fun inc(x: uint) -> uint {
            let out <- x + 1;
            return out;
        }
        fun twice(x: uint) -> uint {
            let a <- x + x;
            return a;
        }
    "#;

    #[test]
    fn simple_program_checks_clean() {
        let report = check_source(
            INC_SRC,
            "inc",
            0,
            WordConfig::paper_default(),
            &CompileOptions::spire(),
        )
        .expect("compiles");
        assert!(
            report.diagnostics.is_empty(),
            "unexpected diagnostics: {:?}",
            report.diagnostics
        );
        // Both functions get a T-bound row; both hold.
        assert_eq!(report.functions.len(), 2);
        assert!(report.functions.iter().all(FunctionBounds::holds));
        assert!(report.functions[0].actual > 0);
    }

    #[test]
    fn check_compiled_matches_cost_model() {
        let compiled = compile_source(
            INC_SRC,
            "inc",
            0,
            WordConfig::paper_default(),
            &CompileOptions::baseline(),
        )
        .unwrap();
        let report = check_compiled(&compiled, "inc");
        let row = &report.functions[0];
        assert_eq!(row.actual, compiled.t_complexity());
        assert!(row.min <= row.actual && row.actual <= row.max);
    }
}
