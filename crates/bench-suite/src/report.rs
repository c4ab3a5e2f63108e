//! Rendering and serialization of experiment results (series tables and
//! row tables) as Markdown and JSON, and the `reports/` snapshot they
//! make up.
//!
//! Each [`Artifact`] has one text form, [`Artifact::to_markdown`]:
//! `spire-cli experiments <id>` prints it, and the artifact pipeline
//! (`spire-cli report`) writes it under `reports/` with a generated-by
//! header ([`artifact_markdown`]) beside the JSON for downstream tooling
//! ([`write_reports`]). The Markdown is the committed snapshot that
//! [`check_reports`] compares a fresh run with, timing cells normalized;
//! `spire-cli report --check` and the tier-1 `report_paper` test both
//! call it. See `docs/EXPERIMENTS.md` for the artifact ↔ paper index.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use qcirc::json::{quoted, Json};
use spire::CompileOptions;
use tower::WordConfig;

use crate::runner::{ArtifactResult, RunSummary};

/// One curve of a figure: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points, in increasing `x`.
    pub points: Vec<(i64, u64)>,
    /// Fitted closed form (when the points fit a polynomial exactly).
    pub fit: Option<String>,
    /// Asymptotic class of the fit, e.g. `O(n^2)`.
    pub asymptotic: Option<String>,
}

impl Series {
    /// Build a series and fit it exactly. Small recursion depths can sit
    /// off the asymptotic polynomial (base-case boundary effects); when the
    /// full fit fails, up to two leading points are dropped and the fit is
    /// annotated with the range it holds on — the paper's own fits run from
    /// depth 2 upward for the same reason.
    pub fn fitted(label: impl Into<String>, points: Vec<(i64, u64)>, var: &str) -> Self {
        let mut fit = None;
        let mut asymptotic = None;
        for skip in 0..=2usize.min(points.len().saturating_sub(3)) {
            let tail = &points[skip..];
            let xs: Vec<i128> = tail.iter().map(|&(x, _)| x as i128).collect();
            let ys: Vec<u64> = tail.iter().map(|&(_, y)| y).collect();
            if let Some(poly) = crate::polyfit::fit_exact(&xs, &ys) {
                let range = if skip == 0 {
                    String::new()
                } else {
                    format!(" [{var} >= {}]", tail[0].0)
                };
                fit = Some(format!("{}{range}", poly.closed_form(var)));
                asymptotic = Some(poly.big_o(var));
                break;
            }
        }
        Series {
            label: label.into(),
            points,
            fit,
            asymptotic,
        }
    }
}

/// A figure-style report: several series over a common x-axis.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier, e.g. `fig12a`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Name of the x variable (`n` or `d`).
    pub var: &'static str,
    /// The curves.
    pub series: Vec<Series>,
}

/// A table-style report: free-form rows under a header.
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Identifier, e.g. `table1`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl FigureReport {
    /// Render as a Markdown section: one pipe table with a row per series
    /// and a trailing `fit` column.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## `{}` — {}\n", self.id, self.title);
        let xs: Vec<i64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        let _ = write!(out, "| {} |", self.var);
        for x in &xs {
            let _ = write!(out, " {x} |");
        }
        let _ = writeln!(out, " fit |");
        let _ = write!(out, "|---|");
        for _ in &xs {
            let _ = write!(out, "---:|");
        }
        let _ = writeln!(out, "---|");
        for series in &self.series {
            let _ = write!(out, "| {} |", series.label);
            for &(_, y) in &series.points {
                let _ = write!(out, " {y} |");
            }
            let _ = writeln!(out, " {} |", fit_cell(series));
        }
        out
    }

    /// Serialize as a JSON object (`kind`, `id`, `title`, `var`, and a
    /// `series` array of labeled point lists with their exact fits).
    pub fn to_json_value(&self) -> Json {
        let series: Json = self
            .series
            .iter()
            .map(|s| {
                let points: Json = s
                    .points
                    .iter()
                    .map(|&(x, y)| Json::array([Json::from(x), Json::from(y)]))
                    .collect();
                Json::obj()
                    .field("label", s.label.as_str())
                    .field("points", points)
                    .field("fit", s.fit.as_deref().map(Json::from))
                    .field("asymptotic", s.asymptotic.as_deref().map(Json::from))
                    .build()
            })
            .collect();
        Json::obj()
            .field("kind", "figure")
            .field("id", self.id)
            .field("title", self.title.as_str())
            .field("var", self.var)
            .field("series", series)
            .build()
    }
}

fn fit_cell(series: &Series) -> String {
    series.fit.as_deref().map_or_else(
        || "(no exact polynomial fit)".to_string(),
        |f| format!("{} = {f}", series.asymptotic.as_deref().unwrap_or("")),
    )
}

impl TableReport {
    /// Render as a Markdown section with one pipe table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## `{}` — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(self.header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Serialize as a JSON object (`kind`, `id`, `title`, `header`, and
    /// `rows` as arrays of strings).
    pub fn to_json_value(&self) -> Json {
        let strings = |cells: &[String]| Json::array(cells.iter().map(String::as_str));
        Json::obj()
            .field("kind", "table")
            .field("id", self.id)
            .field("title", self.title.as_str())
            .field("header", strings(&self.header))
            .field(
                "rows",
                self.rows.iter().map(|row| strings(row)).collect::<Json>(),
            )
            .build()
    }
}

/// One generated artifact of the evaluation: a figure or a table.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A figure-style report (series over a depth sweep).
    Figure(FigureReport),
    /// A table-style report.
    Table(TableReport),
}

impl Artifact {
    /// The artifact identifier (`fig2`, `table1`, …).
    pub fn id(&self) -> &'static str {
        match self {
            Artifact::Figure(f) => f.id,
            Artifact::Table(t) => t.id,
        }
    }

    /// The artifact's human title.
    pub fn title(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.title,
            Artifact::Table(t) => &t.title,
        }
    }

    /// Render as a Markdown section.
    pub fn to_markdown(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_markdown(),
            Artifact::Table(t) => t.to_markdown(),
        }
    }

    /// Serialize as a JSON object (the `reports/<id>.json` document).
    pub fn to_json(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_json_value().to_string(),
            Artifact::Table(t) => t.to_json_value().to_string(),
        }
    }
}

/// The generated-by header of every file `spire-cli report` writes.
const GENERATED: &str =
    "<!-- generated by `spire-cli report`; do not edit (see docs/EXPERIMENTS.md) -->\n\n";

/// Write every artifact as `<id>.md` and `<id>.json`, plus the index
/// (`README.md`) and the machine-readable run metadata (`summary.json`).
pub fn write_reports(dir: &Path, summary: &RunSummary) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: String, content: String| -> Result<(), String> {
        let path = dir.join(name);
        fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    for result in &summary.artifacts {
        write(format!("{}.md", result.spec.id), artifact_markdown(result))?;
        write(
            format!("{}.json", result.spec.id),
            format!("{}\n", result.artifact.to_json()),
        )?;
    }
    write("README.md".into(), index_markdown(summary))?;
    write("summary.json".into(), summary_json(summary))?;
    Ok(())
}

/// Compare a run's Markdown with the snapshot in `snapshot_dir`,
/// normalizing wall-clock timing cells on both sides, and the index
/// exactly. The error lists every drifted file.
pub fn check_reports(snapshot_dir: &Path, summary: &RunSummary) -> Result<(), String> {
    let mut drifted = Vec::new();
    for result in &summary.artifacts {
        let name = format!("{}.md", result.spec.id);
        match fs::read_to_string(snapshot_dir.join(&name)) {
            Ok(committed)
                if normalize_timings(&committed)
                    == normalize_timings(&artifact_markdown(result)) => {}
            Ok(_) => drifted.push(format!("{name}: content differs")),
            Err(e) => drifted.push(format!("{name}: unreadable ({e})")),
        }
    }
    match fs::read_to_string(snapshot_dir.join("README.md")) {
        Ok(committed) if committed == index_markdown(summary) => {}
        Ok(_) => drifted.push("README.md: content differs".into()),
        Err(e) => drifted.push(format!("README.md: unreadable ({e})")),
    }
    if drifted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "report drift against {} in {} file(s):\n  {}\n\
             regenerate with `cargo run --release -p spire-cli -- report` and commit the result",
            snapshot_dir.display(),
            drifted.len(),
            drifted.join("\n  ")
        ))
    }
}

/// The `reports/<id>.md` document for one artifact: the generated-by
/// header, then [`Artifact::to_markdown`].
pub fn artifact_markdown(result: &ArtifactResult) -> String {
    format!("{GENERATED}{}", result.artifact.to_markdown())
}

/// The `reports/README.md` index: one row per artifact. Deliberately free
/// of timings and machine details so it is as stable as the artifacts.
pub fn index_markdown(summary: &RunSummary) -> String {
    let mut out = format!(
        "{GENERATED}# Paper artifacts\n\n\
         Every table and figure of the evaluation, regenerated by\n\
         `cargo run --release -p spire-cli -- report`. The experiment index in\n\
         [docs/EXPERIMENTS.md](../docs/EXPERIMENTS.md) maps each artifact to the paper and to\n\
         the code that produces it.\n\n\
         | artifact | reproduces | generator | files |\n|---|---|---|---|\n",
    );
    for result in &summary.artifacts {
        let id = result.spec.id;
        let _ = writeln!(
            out,
            "| {} | {} | `{}` | [{id}.md]({id}.md), [{id}.json]({id}.json) |",
            result.artifact.title(),
            result.spec.paper_ref,
            result.spec.function,
        );
    }
    out
}

/// Machine-readable run metadata: timings, cache statistics, and the gate
/// histograms of every benchmark at a reference depth (the `qcirc`
/// histogram serialization). Not drift-checked — it contains timings.
pub fn summary_json(summary: &RunSummary) -> String {
    let artifacts: Vec<String> = summary
        .artifacts
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":{},\"paper_ref\":{},\"function\":{},\"seconds\":{:.6}}}",
                quoted(r.spec.id),
                quoted(r.spec.paper_ref),
                quoted(r.spec.function),
                r.wall.as_secs_f64(),
            )
        })
        .collect();
    let reference_depth = 4;
    let histograms: Vec<String> = crate::programs::all_benchmarks()
        .iter()
        .map(|bench| {
            let depth = if bench.constant { 0 } else { reference_depth };
            let compiled = |options: &CompileOptions| {
                spire::compile_source_cached(
                    &bench.source,
                    bench.entry,
                    depth,
                    WordConfig::paper_default(),
                    options,
                )
            };
            let hist = |options: &CompileOptions| {
                compiled(options).map_or_else(|_| "null".into(), |c| c.histogram().to_json())
            };
            // The fully decomposed Clifford+T gate counts of the
            // Spire-optimized circuit (Tables 5/6 currency).
            let clifford_t = compiled(&CompileOptions::spire())
                .ok()
                .and_then(|c| qcirc::decompose::to_clifford_t(&c.emit()).ok())
                .map_or_else(|| "null".into(), |circuit| circuit.clifford_t_counts().to_json());
            format!(
                "{{\"name\":{},\"group\":{},\"entry\":{},\"depth\":{depth},\"baseline\":{},\"spire\":{},\"spire_clifford_t\":{}}}",
                quoted(bench.name),
                quoted(bench.group),
                quoted(bench.entry),
                hist(&CompileOptions::baseline()),
                hist(&CompileOptions::spire()),
                clifford_t,
            )
        })
        .collect();
    format!(
        "{{\"threads\":{},\"warm_jobs\":{},\"warm_seconds\":{:.6},\"wall_seconds\":{:.6},\
         \"peak_parallelism\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\
         \"artifacts\":[{}],\"benchmark_histograms\":[{}]}}\n",
        summary.threads,
        summary.warm_jobs,
        summary.warm_wall.as_secs_f64(),
        summary.wall.as_secs_f64(),
        summary.parallelism.peak,
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.entries,
        artifacts.join(","),
        histograms.join(","),
    )
}

/// Replace wall-clock timing cells (the `1.234 s` format every timed
/// experiment uses) with a stable `<time>` placeholder.
///
/// Timings are the only nondeterministic content in the generated
/// Markdown; the report drift check (`spire-cli report --check`)
/// normalizes both sides with this function so an artifact diff means the
/// *results* changed, not the machine's speed.
pub fn normalize_timings(text: &str) -> String {
    let mut out: Vec<u8> = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        // Candidate: digits '.' digits, then " s" followed by a
        // non-alphanumeric boundary.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j > start && j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
            let mut k = j + 1;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            let unit_follows = bytes.get(k) == Some(&b' ')
                && bytes.get(k + 1) == Some(&b's')
                && !bytes.get(k + 2).is_some_and(u8::is_ascii_alphanumeric);
            if unit_follows {
                out.extend_from_slice(b"<time>");
                i = k + 2;
                continue;
            }
        }
        out.push(bytes[start]);
        i = start + 1;
    }
    // Replacements are pure ASCII and multi-byte sequences are copied
    // verbatim (a digit byte never starts inside one), so this is valid.
    String::from_utf8(out).expect("normalization preserves UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_report_renders_fits() {
        let series = Series::fitted("T", vec![(2, 7), (3, 9), (4, 11)], "n");
        assert_eq!(series.fit.as_deref(), Some("2n+3"));
        let report = FigureReport {
            id: "figX",
            title: "demo".into(),
            var: "n",
            series: vec![series],
        };
        let text = report.to_markdown();
        assert!(text.contains("figX"));
        assert!(text.contains("O(n) = 2n+3"));
    }

    #[test]
    fn markdown_and_json_serialize_figures() {
        let report = FigureReport {
            id: "figX",
            title: "demo".into(),
            var: "n",
            series: vec![Series::fitted("T", vec![(2, 7), (3, 9), (4, 11)], "n")],
        };
        let md = report.to_markdown();
        assert!(md.starts_with("## `figX`"));
        assert!(md.contains("| T | 7 | 9 | 11 |"));
        let json = report.to_json_value().to_string();
        assert!(json.contains("\"kind\":\"figure\""));
        assert!(json.contains("\"points\":[[2,7],[3,9],[4,11]]"));
        assert!(json.contains("\"fit\":\"2n+3\""));
    }

    #[test]
    fn markdown_and_json_serialize_tables() {
        let table = TableReport {
            id: "tabX",
            title: "demo \"quoted\"".into(),
            header: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "x\ny".into()]],
        };
        let artifact = Artifact::Table(table);
        assert_eq!(artifact.id(), "tabX");
        assert!(artifact.to_markdown().contains("| a | b |"));
        let json = artifact.to_json();
        assert!(json.contains("\"title\":\"demo \\\"quoted\\\"\""));
        assert!(json.contains("\"x\\ny\""));
    }

    #[test]
    fn timing_normalization_is_targeted() {
        let text = "spire  0.123 s done; 12.000 s; v1.2 set; 3.4 sx; naïve 1.0 s";
        assert_eq!(
            normalize_timings(text),
            "spire  <time> done; <time>; v1.2 set; 3.4 sx; naïve <time>"
        );
    }
}
