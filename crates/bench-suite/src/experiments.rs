//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each function reproduces one artifact (see `DESIGN.md`'s experiment
//! index). Absolute gate counts differ from the paper's — the reversible
//! arithmetic, qRAM scan, and controlled-Hadamard implementations are this
//! repository's own — but the *shape* results (asymptotic degrees, which
//! optimizers recover linearity, who is faster) are the reproduction
//! targets and are asserted by the integration tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qcirc::Circuit;
use qopt::{
    AdjacentCancel, CircuitOptimizer, CliffordTResynth, GlobalResynth, Peephole, PhaseFoldLight,
    SearchConfig, SearchOpt, ToffoliCancel, ZxGraphLike,
};
use spire::cost::{flattening_uncomputation_t, CostEnv};
use spire::{compile_source, compile_source_cached, CompileOptions, Compiled, OptConfig};
use tower::WordConfig;

use crate::programs::{all_benchmarks, Benchmark, LENGTH, LENGTH_SIMPLE};
use crate::report::{FigureReport, Series, TableReport};

/// Compile a benchmark through the process-wide compile cache.
///
/// Every regenerator except the *timing* experiments goes through here:
/// the figures and tables sweep overlapping `(program, depth, config)`
/// matrices, so a full pipeline run (`bench-suite::runner`) compiles each
/// configuration exactly once no matter how many artifacts consume it.
fn compile(bench: &Benchmark, depth: i64, options: &CompileOptions) -> Arc<Compiled> {
    compile_source_cached(
        &bench.source,
        bench.entry,
        depth,
        WordConfig::paper_default(),
        options,
    )
    .unwrap_or_else(|e| panic!("compiling {} at depth {depth}: {e}", bench.name))
}

/// Cached compilation of an arbitrary source (see [`compile`]).
fn compile_src(source: &str, entry: &str, depth: i64, options: &CompileOptions) -> Arc<Compiled> {
    compile_source_cached(source, entry, depth, WordConfig::paper_default(), options)
        .unwrap_or_else(|e| panic!("compiling {entry} at depth {depth}: {e}"))
}

/// Uncached compilation, for experiments whose *artifact* is the compile
/// time itself (Table 2): a cache hit would report lookup time, not
/// compilation time.
fn compile_src_fresh(source: &str, entry: &str, depth: i64, options: &CompileOptions) -> Compiled {
    compile_source(source, entry, depth, WordConfig::paper_default(), options)
        .unwrap_or_else(|e| panic!("compiling {entry} at depth {depth}: {e}"))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// T-count after a circuit optimizer, memoized process-wide.
///
/// The figure regenerators apply the same optimizers to the same emitted
/// circuits across overlapping sweeps (Figures 12, 15a/b, and 24 all
/// optimize `length`/`length-simplified` circuits over the same depth
/// range), and optimizer passes — not compilation — dominate the artifact
/// phase once the compile cache is warm. The memo key is the circuit's
/// [`Circuit::content_hash`] plus the optimizer name, so a repeated
/// `(circuit, optimizer)` pair costs a map lookup. The *timing*
/// experiments (Tables 2 and 5) never consult this memo: they time the
/// optimizer itself, so their passes must run fresh.
fn t_after(optimizer: &dyn CircuitOptimizer, circuit: &Circuit) -> u64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static MEMO: OnceLock<Mutex<HashMap<(u128, &'static str), u64>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (circuit.content_hash(), optimizer.name());
    if let Some(&t) = memo.lock().expect("t_after memo poisoned").get(&key) {
        return t;
    }
    let t = qopt::run_traced(optimizer, circuit)
        .clifford_t_counts()
        .t_count();
    memo.lock().expect("t_after memo poisoned").insert(key, t);
    t
}

/// Figure 2: T-complexity vs MCX-complexity of unoptimized `length`.
pub fn fig2(depths: impl Iterator<Item = i64>) -> FigureReport {
    let mut t = Vec::new();
    let mut mcx = Vec::new();
    for n in depths {
        let compiled = compile_src(LENGTH, "length", n, &CompileOptions::baseline());
        let hist = compiled.histogram();
        t.push((n, hist.t_complexity()));
        mcx.push((n, hist.mcx_complexity()));
    }
    FigureReport {
        id: "fig2",
        title: "gates in the circuit of length (unoptimized)".into(),
        var: "n",
        series: vec![
            Series::fitted("T-complexity", t, "n"),
            Series::fitted("MCX-complexity", mcx, "n"),
        ],
    }
}

/// Figures 12a and 12b: `length` after Spire, after circuit optimizers,
/// and after both, plus the ideal MCX-complexity.
pub fn fig12(depths: impl Iterator<Item = i64>) -> FigureReport {
    let mut original = Vec::new();
    let mut spire_only = Vec::new();
    let mut mct = Vec::new();
    let mut qiskit_like = Vec::new();
    let mut tocliffordt = Vec::new();
    let mut spire_mct = Vec::new();
    let mut ideal = Vec::new();
    for n in depths {
        let baseline = compile_src(LENGTH, "length", n, &CompileOptions::baseline());
        let optimized = compile_src(LENGTH, "length", n, &CompileOptions::spire());
        let baseline_circuit = baseline.emit();
        let optimized_circuit = optimized.emit();
        original.push((n, baseline.t_complexity()));
        spire_only.push((n, optimized.t_complexity()));
        mct.push((n, t_after(&ToffoliCancel, &baseline_circuit)));
        qiskit_like.push((n, t_after(&AdjacentCancel, &baseline_circuit)));
        tocliffordt.push((n, t_after(&CliffordTResynth, &baseline_circuit)));
        spire_mct.push((n, t_after(&ToffoliCancel, &optimized_circuit)));
        ideal.push((n, baseline.mcx_complexity()));
    }
    FigureReport {
        id: "fig12",
        title: "T-complexity of length: program-level vs circuit optimizers".into(),
        var: "n",
        series: vec![
            Series::fitted("original", original, "n"),
            Series::fitted("qiskit-like", qiskit_like, "n"),
            Series::fitted("feynman-tocliffordt", tocliffordt, "n"),
            Series::fitted("feynman-mctexpand", mct, "n"),
            Series::fitted("spire", spire_only, "n"),
            Series::fitted("spire+mctexpand", spire_mct, "n"),
            Series::fitted("ideal-mcx", ideal, "n"),
        ],
    }
}

/// Figure 15a: program-level optimizations on `length-simplified`,
/// individually and combined, with and without Feynman/QuiZX analogues.
pub fn fig15a(depths: impl Iterator<Item = i64>) -> FigureReport {
    let configs = [
        ("original", OptConfig::none()),
        ("cn-alone", OptConfig::narrowing_only()),
        ("cf-alone", OptConfig::flattening_only()),
        ("spire", OptConfig::spire()),
    ];
    let mut series: Vec<(String, Vec<(i64, u64)>)> = configs
        .iter()
        .map(|(label, _)| (label.to_string(), Vec::new()))
        .collect();
    series.push(("feynman-mctexpand".into(), Vec::new()));
    series.push(("quizx-like".into(), Vec::new()));
    series.push(("spire+mctexpand".into(), Vec::new()));
    for n in depths {
        for (i, (_, opt)) in configs.iter().enumerate() {
            let compiled = compile_src(
                LENGTH_SIMPLE,
                "length_simple",
                n,
                &CompileOptions::with_opt(*opt),
            );
            series[i].1.push((n, compiled.t_complexity()));
        }
        let baseline = compile_src(
            LENGTH_SIMPLE,
            "length_simple",
            n,
            &CompileOptions::baseline(),
        )
        .emit();
        let spire_circ =
            compile_src(LENGTH_SIMPLE, "length_simple", n, &CompileOptions::spire()).emit();
        series[4].1.push((n, t_after(&ToffoliCancel, &baseline)));
        series[5].1.push((n, t_after(&GlobalResynth, &baseline)));
        series[6].1.push((n, t_after(&ToffoliCancel, &spire_circ)));
    }
    FigureReport {
        id: "fig15a",
        title: "length-simplified: program-level optimizations".into(),
        var: "n",
        series: series
            .into_iter()
            .map(|(label, points)| Series::fitted(label, points, "n"))
            .collect(),
    }
}

/// Figure 15b: `length-simplified` under all fixed-strategy circuit
/// optimizer analogues.
pub fn fig15b(depths: impl Iterator<Item = i64>) -> FigureReport {
    let optimizers: Vec<Box<dyn CircuitOptimizer>> = vec![
        Box::new(AdjacentCancel),
        Box::new(Peephole),
        Box::new(PhaseFoldLight),
        Box::new(ZxGraphLike),
        Box::new(CliffordTResynth),
        Box::new(ToffoliCancel),
        Box::new(GlobalResynth),
    ];
    let mut original = Vec::new();
    let mut per_opt: Vec<(String, Vec<(i64, u64)>)> = optimizers
        .iter()
        .map(|o| (o.name().to_string(), Vec::new()))
        .collect();
    for n in depths {
        let baseline = compile_src(
            LENGTH_SIMPLE,
            "length_simple",
            n,
            &CompileOptions::baseline(),
        );
        original.push((n, baseline.t_complexity()));
        let circuit = baseline.emit();
        for (i, optimizer) in optimizers.iter().enumerate() {
            per_opt[i]
                .1
                .push((n, t_after(optimizer.as_ref(), &circuit)));
        }
    }
    let mut series = vec![Series::fitted("original", original, "n")];
    series.extend(
        per_opt
            .into_iter()
            .map(|(label, points)| Series::fitted(label, points, "n")),
    );
    FigureReport {
        id: "fig15b",
        title: "length-simplified: existing circuit optimizer analogues".into(),
        var: "n",
        series,
    }
}

/// Table 1 / Table 3: predicted and empirical MCX- and T-complexities of
/// every benchmark, before and after Spire's optimizations, as exactly
/// fitted polynomials.
pub fn table1(max_depth: i64) -> TableReport {
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        let var = if bench.group == "Set" { "d" } else { "n" };
        let depths: Vec<i64> = if bench.constant {
            (2..=max_depth.min(5)).collect()
        } else {
            (2..=max_depth).collect()
        };
        let mut mcx_pred = Vec::new();
        let mut mcx_emp = Vec::new();
        let mut t_pred_before = Vec::new();
        let mut t_emp_before = Vec::new();
        let mut t_pred_after = Vec::new();
        let mut t_emp_after = Vec::new();
        for &n in &depths {
            let depth = if bench.constant { 0 } else { n };
            let baseline = compile(&bench, depth, &CompileOptions::baseline());
            let optimized = compile(&bench, depth, &CompileOptions::spire());
            // "Predicted": the syntax-level cost model (no gates built).
            let predicted_before = baseline.histogram();
            let predicted_after = optimized.histogram();
            // "Empirical": stream-count the emitted circuit's gates.
            let counted_before = baseline.counted_histogram();
            let counted_after = optimized.counted_histogram();
            mcx_pred.push((n, predicted_before.mcx_complexity()));
            mcx_emp.push((n, counted_before.mcx_complexity()));
            t_pred_before.push((n, predicted_before.t_complexity()));
            t_emp_before.push((n, counted_before.t_complexity()));
            t_pred_after.push((n, predicted_after.t_complexity()));
            t_emp_after.push((n, counted_after.t_complexity()));
        }
        let fit = |points: Vec<(i64, u64)>| {
            let s = Series::fitted("", points, var);
            match (s.asymptotic, s.fit) {
                (Some(a), Some(f)) => format!("{a} = {f}"),
                _ => "(non-polynomial)".into(),
            }
        };
        rows.push(vec![
            format!("{}/{}", bench.group, bench.name),
            fit(mcx_pred),
            fit(mcx_emp),
            fit(t_pred_before),
            fit(t_emp_before),
            fit(t_pred_after),
            fit(t_emp_after),
        ]);
    }
    TableReport {
        id: "table1",
        title: "MCX- and T-complexities, predicted (cost model) vs empirical (compiled)".into(),
        header: vec![
            "benchmark".into(),
            "MCX predicted".into(),
            "MCX empirical".into(),
            "T before (predicted)".into(),
            "T before (empirical)".into(),
            "T after (predicted)".into(),
            "T after (empirical)".into(),
        ],
        rows,
    }
}

/// Table 2: T reduction and compile time for Spire, the Feynman/QuiZX
/// analogues, and their combinations, on `length` and `length-simplified`
/// at depth 10.
pub fn table2(depth: i64) -> TableReport {
    let mut rows = Vec::new();
    for (name, source, entry) in [
        ("length-simplified", LENGTH_SIMPLE, "length_simple"),
        ("length", LENGTH, "length"),
    ] {
        let (baseline, base_time) =
            timed(|| compile_src_fresh(source, entry, depth, &CompileOptions::baseline()));
        let base_t = baseline.t_complexity();
        let base_circuit = baseline.emit();

        let (spire_compiled, spire_time) =
            timed(|| compile_src_fresh(source, entry, depth, &CompileOptions::spire()));
        let spire_t = spire_compiled.t_complexity();
        let spire_circuit = spire_compiled.emit();

        let mut push = |row_name: &str, t: u64, time: Duration| {
            let reduction = 100.0 * (base_t.saturating_sub(t)) as f64 / base_t as f64;
            rows.push(vec![
                name.to_string(),
                row_name.to_string(),
                format!("{t}"),
                format!("{reduction:.1}%"),
                format!("{:.3} s", time.as_secs_f64()),
            ]);
        };
        push("original (no opt)", base_t, base_time);
        let (mct, mct_time) = timed(|| ToffoliCancel.optimize(&base_circuit));
        push(
            "feynman-mctexpand",
            mct.clifford_t_counts().t_count(),
            mct_time,
        );
        let (zx, zx_time) = timed(|| GlobalResynth.optimize(&base_circuit));
        push("quizx-like", zx.clifford_t_counts().t_count(), zx_time);
        push("spire", spire_t, spire_time);
        let (smct, smct_time) = timed(|| ToffoliCancel.optimize(&spire_circuit));
        push(
            "spire+mctexpand",
            smct.clifford_t_counts().t_count(),
            spire_time + smct_time,
        );
        let (szx, szx_time) = timed(|| GlobalResynth.optimize(&spire_circuit));
        push(
            "spire+quizx-like",
            szx.clifford_t_counts().t_count(),
            spire_time + szx_time,
        );
    }
    TableReport {
        id: "table2",
        title: format!("T reduction and compile time at depth {depth}"),
        header: vec![
            "program".into(),
            "pipeline".into(),
            "T".into(),
            "T reduction".into(),
            "time".into(),
        ],
        rows,
    }
}

/// Table 4 (Appendix F): T gates attributable to conditional flattening's
/// uncomputation, and qubit counts with/without Spire.
pub fn table4(depths: &[i64]) -> TableReport {
    let mut rows = Vec::new();
    for &depth in depths {
        for bench in all_benchmarks() {
            let d = if bench.constant { 0 } else { depth };
            let baseline = compile(&bench, d, &CompileOptions::baseline());
            let optimized = compile(&bench, d, &CompileOptions::spire());
            let total_t = optimized.t_complexity();
            let env = CostEnv {
                layout: &optimized.layout,
                types: &optimized.types,
                table: &optimized.table,
            };
            let uncomp = flattening_uncomputation_t(&optimized.ir, &env)
                .expect("cost analysis succeeds on compiled IR");
            let percent = if total_t > 0 {
                100.0 * uncomp as f64 / total_t as f64
            } else {
                0.0
            };
            let q_without = baseline.qubits_after_decomposition();
            let q_with = optimized.qubits_after_decomposition();
            rows.push(vec![
                format!("{depth}"),
                bench.name.to_string(),
                format!("{total_t}"),
                format!("{uncomp}"),
                format!("{percent:.2}%"),
                format!("{q_without}"),
                format!("{q_with}"),
                format!("{:+}", q_with as i64 - q_without as i64),
            ]);
        }
    }
    TableReport {
        id: "table4",
        title: "flattening uncomputation cost and qubit usage".into(),
        header: vec![
            "depth".into(),
            "benchmark".into(),
            "T total (opt)".into(),
            "T uncomputation".into(),
            "% uncomputation".into(),
            "qubits w/o spire".into(),
            "qubits w/ spire".into(),
            "diff".into(),
        ],
        rows,
    }
}

/// Tables 5 and 6 (Appendix G): the search-based optimizer analogue on
/// `length-simplified` at depths 1..=5, in the paper's configurations.
pub fn table5(max_depth: i64) -> TableReport {
    let configs: Vec<(&str, SearchConfig)> = vec![
        ("quartz rm-only", SearchConfig::quartz_rm_only()),
        ("quartz rm+search", SearchConfig::quartz_rm_search()),
        ("quartz rm+cd+search", SearchConfig::quartz()),
        ("queso", SearchConfig::queso()),
    ];
    let mut rows = Vec::new();
    for n in 1..=max_depth {
        let baseline = compile_src(
            LENGTH_SIMPLE,
            "length_simple",
            n,
            &CompileOptions::baseline(),
        );
        let circuit =
            qcirc::decompose::to_clifford_t(&baseline.emit()).expect("decomposition succeeds");
        let counts = circuit.clifford_t_counts();
        rows.push(vec![
            format!("{n}"),
            "original".into(),
            format!("{}", counts.t_count()),
            format!("{}", counts.h),
            format!("{}", counts.cnot),
            "-".into(),
        ]);
        for (label, config) in &configs {
            let optimizer = SearchOpt::with_config("search", config.clone());
            let (optimized, time) = timed(|| optimizer.optimize(&baseline.emit()));
            let counts = optimized.clifford_t_counts();
            rows.push(vec![
                format!("{n}"),
                label.to_string(),
                format!("{}", counts.t_count()),
                format!("{}", counts.h),
                format!("{}", counts.cnot),
                format!("{:.3} s", time.as_secs_f64()),
            ]);
        }
    }
    TableReport {
        id: "table5",
        title: "search-based optimizers on length-simplified".into(),
        header: vec![
            "n".into(),
            "configuration".into(),
            "T".into(),
            "H".into(),
            "CNOT".into(),
            "time".into(),
        ],
        rows,
    }
}

/// Figure 24 (Appendix H): synergy of the individual program-level
/// optimizations with the Feynman/QuiZX analogues.
pub fn fig24(depths: impl Iterator<Item = i64>) -> FigureReport {
    let program_configs = [
        ("original", OptConfig::none()),
        ("cn-alone", OptConfig::narrowing_only()),
        ("cf-alone", OptConfig::flattening_only()),
        ("cf+cn", OptConfig::spire()),
    ];
    let mut series: Vec<(String, Vec<(i64, u64)>)> = Vec::new();
    for (label, _) in &program_configs {
        series.push((label.to_string(), Vec::new()));
        series.push((format!("{label}+mctexpand"), Vec::new()));
        series.push((format!("{label}+quizx"), Vec::new()));
    }
    for n in depths {
        for (i, (_, opt)) in program_configs.iter().enumerate() {
            let compiled = compile_src(
                LENGTH_SIMPLE,
                "length_simple",
                n,
                &CompileOptions::with_opt(*opt),
            );
            let circuit = compiled.emit();
            series[3 * i].1.push((n, compiled.t_complexity()));
            series[3 * i + 1]
                .1
                .push((n, t_after(&ToffoliCancel, &circuit)));
            series[3 * i + 2]
                .1
                .push((n, t_after(&GlobalResynth, &circuit)));
        }
    }
    FigureReport {
        id: "fig24",
        title: "synergy of program-level optimizations with circuit optimizers".into(),
        var: "n",
        series: series
            .into_iter()
            .map(|(label, points)| Series::fitted(label, points, "n"))
            .collect(),
    }
}

/// Appendix A: effect of the register bit width on T-complexity — width
/// and control flow contribute orthogonal, multiplicative costs.
pub fn appendix_a(depth: i64, widths: &[u32]) -> TableReport {
    let mut rows = Vec::new();
    for &w in widths {
        let config = WordConfig {
            uint_bits: w,
            ptr_bits: 4,
        };
        let baseline =
            compile_source_cached(LENGTH, "length", depth, config, &CompileOptions::baseline())
                .expect("length compiles at any width");
        let optimized =
            compile_source_cached(LENGTH, "length", depth, config, &CompileOptions::spire())
                .expect("length compiles at any width");
        rows.push(vec![
            format!("{w}"),
            format!("{}", baseline.mcx_complexity()),
            format!("{}", baseline.t_complexity()),
            format!("{}", optimized.t_complexity()),
        ]);
    }
    TableReport {
        id: "appendix-a",
        title: format!("bit-width sweep for length at depth {depth}"),
        header: vec![
            "uint bits".into(),
            "MCX".into(),
            "T before".into(),
            "T after".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degree_of(series: &Series) -> Option<usize> {
        series.asymptotic.as_deref().map(|a| match a {
            "O(1)" => 0,
            s if s.ends_with(&format!("({})", "n")) || s.ends_with("(d)") => 1,
            s => s
                .trim_end_matches(')')
                .rsplit('^')
                .next()
                .and_then(|d| d.parse().ok())
                .unwrap_or(99),
        })
    }

    #[test]
    fn fig2_shapes_match_paper() {
        let report = fig2(2..=6);
        let t = &report.series[0];
        let mcx = &report.series[1];
        assert_eq!(degree_of(t), Some(2), "T must be quadratic: {:?}", t.fit);
        assert_eq!(degree_of(mcx), Some(1), "MCX must be linear: {:?}", mcx.fit);
    }

    #[test]
    fn fig15a_shapes_match_paper() {
        let report = fig15a(2..=6);
        let by_label = |label: &str| {
            report
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"))
                .clone()
        };
        assert_eq!(degree_of(&by_label("original")), Some(2));
        assert_eq!(
            degree_of(&by_label("cn-alone")),
            Some(2),
            "CN alone is a constant-factor win"
        );
        assert_eq!(
            degree_of(&by_label("cf-alone")),
            Some(1),
            "CF alone is the asymptotic win"
        );
        assert_eq!(degree_of(&by_label("spire")), Some(1));
        // CN on top of CF improves the constant.
        let cf = by_label("cf-alone").points.last().unwrap().1;
        let spire = by_label("spire").points.last().unwrap().1;
        assert!(spire < cf, "spire {spire} should beat cf-alone {cf}");
    }

    #[test]
    fn table2_reports_all_pipelines() {
        let report = table2(4);
        assert_eq!(report.rows.len(), 12);
        assert!(report.to_markdown().contains("spire"));
    }
}
