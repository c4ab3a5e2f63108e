//! Output oracles built from committed references, not from the compiler
//! under test.
//!
//! `reports/table1.json` holds the exact closed forms of every paper
//! benchmark's MCX- and T-complexity (fitted on depths 2..=10). A
//! `/compile` answer must equal them at the requested depth: "T before"
//! for `opt: none`, "T after" for `opt: spire`, and the MCX column (the
//! unoptimized circuit's) for `opt: none`. A `/check` answer must be clean
//! with a holding T-bound row whose actual count is the same closed form.

use std::collections::BTreeMap;
use std::path::Path;

use qcirc::json::Json;

/// A polynomial closed form as `reports/` prints it, e.g.
/// `3094n^2+7448n+280`, `5376n-28`, `(1/2)n^2+n`, optionally followed by a
/// validity range such as ` [n >= 3]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedForm {
    /// `(numerator, denominator, exponent)` per term.
    terms: Vec<(i128, i128, u32)>,
    min_x: Option<i64>,
}

impl ClosedForm {
    pub fn parse(text: &str) -> Result<ClosedForm, String> {
        let bad = || format!("unparseable closed form `{text}`");
        // "O(n^2) = 3094n^2+…" cells carry the asymptotic class first.
        let text = text.rsplit(" = ").next().unwrap_or(text).trim();
        let (body, min_x) = match text.split_once(" [") {
            Some((body, range)) => {
                let bound = range
                    .trim_end_matches(']')
                    .split(">=")
                    .nth(1)
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(bad)?;
                (body.trim(), Some(bound))
            }
            None => (text, None),
        };
        let chars: Vec<char> = body.chars().collect();
        let mut terms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let mut sign = 1i128;
            if chars[i] == '+' || chars[i] == '-' {
                if chars[i] == '-' {
                    sign = -1;
                }
                i += 1;
            }
            let (num, den) = if chars.get(i) == Some(&'(') {
                let close = chars[i..].iter().position(|&c| c == ')').ok_or_else(bad)? + i;
                let inner: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                let (n, d) = inner.split_once('/').unwrap_or((inner.as_str(), "1"));
                (
                    n.trim().parse::<i128>().map_err(|_| bad())?,
                    d.trim().parse::<i128>().map_err(|_| bad())?,
                )
            } else {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                if start == i {
                    (1, 1)
                } else {
                    let digits: String = chars[start..i].iter().collect();
                    (digits.parse::<i128>().map_err(|_| bad())?, 1)
                }
            };
            let mut exponent = 0u32;
            if i < chars.len() && chars[i].is_ascii_alphabetic() {
                i += 1;
                exponent = 1;
                if chars.get(i) == Some(&'^') {
                    let start = i + 1;
                    i = start;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    let digits: String = chars[start..i].iter().collect();
                    exponent = digits.parse().map_err(|_| bad())?;
                }
            }
            if den == 0 {
                return Err(bad());
            }
            terms.push((sign * num, den, exponent));
            if i < chars.len() && chars[i] != '+' && chars[i] != '-' {
                return Err(bad());
            }
        }
        if terms.is_empty() {
            return Err(bad());
        }
        Ok(ClosedForm { terms, min_x })
    }

    /// The value at `x`, or `None` outside the form's validity range or
    /// when it is not a whole number.
    pub fn eval(&self, x: i64) -> Option<i128> {
        if self.min_x.is_some_and(|m| x < m) {
            return None;
        }
        let lcm = self
            .terms
            .iter()
            .fold(1i128, |acc, &(_, den, _)| acc / gcd(acc, den) * den.abs());
        let total: i128 = self
            .terms
            .iter()
            .map(|&(num, den, k)| num * (lcm / den) * i128::from(x).pow(k))
            .sum();
        (total % lcm == 0).then_some(total / lcm)
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// One benchmark's row of `reports/table1.json` (empirical columns).
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub mcx: ClosedForm,
    pub t_before: ClosedForm,
    pub t_after: ClosedForm,
}

/// What a correct answer for one compile request holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub t: u64,
    /// The MCX-complexity, where table1 pins it (unoptimized builds).
    pub mcx: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct Oracle {
    rows: BTreeMap<String, Table1Row>,
}

impl Oracle {
    /// Load `reports/table1.json` under `root`.
    pub fn load(root: &Path) -> Result<Oracle, String> {
        let path = root.join("reports").join("table1.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Oracle::from_table1(&text)
    }

    pub fn from_table1(text: &str) -> Result<Oracle, String> {
        let doc = qcirc::json::parse(text).map_err(|e| format!("table1.json: {e}"))?;
        let header: Vec<&str> = doc
            .get("header")
            .and_then(Json::as_array)
            .ok_or("table1.json: no header")?
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let column = |name: &str| {
            header
                .iter()
                .position(|h| *h == name)
                .ok_or(format!("table1.json: no `{name}` column"))
        };
        let (mcx, before, after) = (
            column("MCX empirical")?,
            column("T before (empirical)")?,
            column("T after (empirical)")?,
        );
        let mut rows = BTreeMap::new();
        for row in doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("table1.json: no rows")?
        {
            let cells: Vec<&str> = row
                .as_array()
                .ok_or("table1.json: row is not an array")?
                .iter()
                .filter_map(Json::as_str)
                .collect();
            let cell = |i: usize| cells.get(i).copied().ok_or("table1.json: short row");
            rows.insert(
                cell(0)?.to_string(),
                Table1Row {
                    mcx: ClosedForm::parse(cell(mcx)?)?,
                    t_before: ClosedForm::parse(cell(before)?)?,
                    t_after: ClosedForm::parse(cell(after)?)?,
                },
            );
        }
        Ok(Oracle { rows })
    }

    /// The expected counts of benchmark `group/name` at `depth`. Constant
    /// benchmarks (compiled at depth 0) take their constant closed form.
    pub fn expected(&self, label: &str, depth: i64, spire: bool) -> Result<Expected, String> {
        let row = self
            .rows
            .get(label)
            .ok_or_else(|| format!("table1.json has no row `{label}`"))?;
        // table1 fits constant benchmarks over x = 2..=5 at depth 0.
        let x = if depth == 0 { 2 } else { depth };
        let value = |form: &ClosedForm| {
            form.eval(x)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("{label}: no closed-form value at depth {depth}"))
        };
        Ok(if spire {
            Expected {
                t: value(&row.t_after)?,
                mcx: None,
            }
        } else {
            Expected {
                t: value(&row.t_before)?,
                mcx: Some(value(&row.mcx)?),
            }
        })
    }
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response has no integer `{key}`"))
}

/// A `/compile` response body against its expected counts.
pub fn check_compile(body: &[u8], expected: Expected, want_qc: bool) -> Result<(), String> {
    let doc = parse(body)?;
    let t = field_u64(&doc, "t_complexity")?;
    if t != expected.t {
        return Err(format!("t_complexity {t}, table1 says {}", expected.t));
    }
    if let Some(mcx) = expected.mcx {
        let got = field_u64(&doc, "mcx_complexity")?;
        if got != mcx {
            return Err(format!("mcx_complexity {got}, table1 says {mcx}"));
        }
    }
    if want_qc && doc.get("qc").and_then(Json::as_str).is_none() {
        return Err("include_qc response carries no `qc` text".into());
    }
    Ok(())
}

/// A `/check` response body: a clean report whose entry row holds and
/// counts the expected T-complexity.
pub fn check_check(body: &[u8], expected: Expected) -> Result<(), String> {
    let doc = parse(body)?;
    let report = doc.get("report").ok_or("response has no `report`")?;
    if report.get("clean") != Some(&Json::Bool(true)) {
        return Err("report is not clean".into());
    }
    let row = report
        .get("functions")
        .and_then(Json::as_array)
        .and_then(|rows| rows.first())
        .ok_or("report has no T-bound row")?;
    if row.get("holds") != Some(&Json::Bool(true)) {
        return Err("T-bound row does not hold".into());
    }
    let actual = field_u64(row, "t_actual")?;
    if actual != expected.t {
        return Err(format!(
            "T-bound row counts {actual}, table1 says {}",
            expected.t
        ));
    }
    Ok(())
}

/// A batched `/simulate` response: one row per shot, each with support
/// exactly `2^depth` (one basis state per coin history).
pub fn check_simulate(body: &[u8], shots: usize, depth: i64) -> Result<(), String> {
    let doc = parse(body)?;
    let rows = doc
        .get("shots")
        .and_then(Json::as_array)
        .ok_or("response has no `shots`")?;
    if rows.len() != shots {
        return Err(format!("{} shot rows for {shots} shots", rows.len()));
    }
    let want = 1u64 << depth;
    for row in rows {
        let support = field_u64(row, "support")?;
        if support != want {
            return Err(format!("shot support {support}, expected {want}"));
        }
    }
    Ok(())
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    qcirc::json::parse(text).map_err(|e| format!("response is not JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../reports")
    }

    #[test]
    fn closed_forms_parse_and_evaluate() {
        let f = ClosedForm::parse("O(n^2) = 3094n^2+7448n+280").unwrap();
        assert_eq!(f.eval(2), Some(27552));
        assert_eq!(ClosedForm::parse("5376n-28").unwrap().eval(3), Some(16100));
        assert_eq!(ClosedForm::parse("O(1) = 970").unwrap().eval(7), Some(970));
        let half = ClosedForm::parse("(1/2)n^2+(1/2)n [n >= 3]").unwrap();
        assert_eq!(half.eval(4), Some(10));
        assert_eq!(half.eval(2), None);
        assert!(ClosedForm::parse("3n*2").is_err());
    }

    /// The evaluator reproduces every committed point of Figure 2 from the
    /// figure's own fits, and table1's `length` row agrees with them.
    #[test]
    fn evaluator_reproduces_fig2() {
        let text = std::fs::read_to_string(reports().join("fig2.json")).unwrap();
        let doc = qcirc::json::parse(&text).unwrap();
        let series = doc.get("series").and_then(Json::as_array).unwrap();
        let mut checked = 0;
        for s in series {
            let form = ClosedForm::parse(s.get("fit").and_then(Json::as_str).unwrap()).unwrap();
            for point in s.get("points").and_then(Json::as_array).unwrap() {
                let xy = point.as_array().unwrap();
                let (x, y) = (xy[0].as_i64().unwrap(), xy[1].as_u64().unwrap());
                assert_eq!(form.eval(x), Some(i128::from(y)), "fig2 at n={x}");
                checked += 1;
            }
        }
        assert_eq!(checked, 18);
        let oracle = Oracle::load(&reports().join("..")).unwrap();
        let length = oracle.expected("List/length", 10, false).unwrap();
        assert_eq!(length.t, 384160);
        assert_eq!(length.mcx, Some(14420));
    }
}
