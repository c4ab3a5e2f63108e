//! Seeded request generators. The server sees only the requests built
//! here; the seed fixes every byte of them.

use bench_suite::programs::all_benchmarks;
#[cfg(test)]
use spire::{CacheKey, CompileOptions};
#[cfg(test)]
use tower::WordConfig;

use crate::rng::Rng;

/// Depth of the warm workload's compile and check requests.
pub const WARM_DEPTH: i64 = 5;
/// Levels of the simulated coin walk: support 2^8 per shot.
pub const WALK_DEPTH: i64 = 8;
/// Inputs per `/simulate` batch.
pub const WALK_SHOTS: usize = 4;
/// Distinct `/simulate` bodies in the warm mix.
const WALK_BODIES: usize = 16;

/// A coin walk: every level prepares a fresh coin with `had` and branches
/// on it with a quantum `if`. The coins stay live, so after `n` levels the
/// state holds exactly 2^n basis states.
pub const WALK_SOURCE: &str = "\
fun walk[n](v: uint) -> uint {
    let c <- default<bool>;
    had c;
    if c {
        let r <- v + 1;
    } else {
        let r <- v;
    }
    let out <- walk[n-1](r);
    return out;
}
";

/// One of the paper's 12 benchmark programs.
#[derive(Debug, Clone)]
pub struct Program {
    /// `Group/name`, the row label of `reports/table1.json`.
    pub label: String,
    pub entry: &'static str,
    pub source: String,
    /// Depths a session may draw: 0 for constant-size programs, 2..=5 for
    /// the radix-tree set (whose cost grows with depth squared), 2..=10
    /// otherwise.
    pub depths: Vec<i64>,
}

pub fn programs() -> Vec<Program> {
    all_benchmarks()
        .into_iter()
        .map(|b| Program {
            label: format!("{}/{}", b.group, b.name),
            entry: b.entry,
            depths: if b.constant {
                vec![0]
            } else if b.group == "Set" {
                (2..=5).collect()
            } else {
                (2..=10).collect()
            },
            source: b.source,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Compile,
    Check,
    Simulate,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Compile => "/compile",
            Endpoint::Check => "/check",
            Endpoint::Simulate => "/simulate",
        }
    }
}

/// A JSON string literal.
pub fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `/compile` or `/check` body (the two share one schema).
pub fn compile_body(
    source: &str,
    entry: &str,
    depth: i64,
    spire: bool,
    include_qc: bool,
) -> String {
    format!(
        "{{\"source\":{},\"entry\":{},\"depth\":{depth},\"opt\":\"{}\"{}}}",
        quoted(source),
        quoted(entry),
        if spire { "spire" } else { "none" },
        if include_qc {
            ",\"include_qc\":true"
        } else {
            ""
        },
    )
}

/// A batched `/simulate` body for the coin walk.
pub fn walk_body(inputs: &[u64]) -> String {
    let shots: Vec<String> = inputs.iter().map(|v| format!("{{\"v\":{v}}}")).collect();
    format!(
        "{{\"source\":{},\"entry\":\"walk\",\"depth\":{WALK_DEPTH},\"opt\":\"spire\",\"shots\":[{}]}}",
        quoted(WALK_SOURCE),
        shots.join(",")
    )
}

/// Seeded shot inputs for the coin walk (start positions 0..=15).
pub fn walk_inputs(rng: &mut Rng) -> Vec<u64> {
    (0..WALK_SHOTS).map(|_| rng.below(16)).collect()
}

/// One distinct request body of the warm mix.
#[derive(Debug, Clone)]
pub struct WarmBody {
    pub endpoint: Endpoint,
    /// Index into [`programs`] (compile and check bodies).
    pub program: Option<usize>,
    pub body: String,
}

/// The warm mix: a small set of distinct bodies and a seeded sequence of
/// indices into it (85% `/compile`, 10% `/check`, 5% `/simulate`).
#[derive(Debug, Clone)]
pub struct WarmMix {
    pub bodies: Vec<WarmBody>,
    pub sequence: Vec<u16>,
}

pub fn warm_mix(seed: u64, programs: &[Program], len: usize) -> WarmMix {
    let mut rng = Rng::new(seed);
    let mut bodies = Vec::new();
    for endpoint in [Endpoint::Compile, Endpoint::Check] {
        for (i, p) in programs.iter().enumerate() {
            let depth = if p.depths == [0] { 0 } else { WARM_DEPTH };
            bodies.push(WarmBody {
                endpoint,
                program: Some(i),
                body: compile_body(&p.source, p.entry, depth, true, false),
            });
        }
    }
    for _ in 0..WALK_BODIES {
        bodies.push(WarmBody {
            endpoint: Endpoint::Simulate,
            program: None,
            body: walk_body(&walk_inputs(&mut rng)),
        });
    }
    let n = programs.len() as u64;
    let sequence = (0..len)
        .map(|_| {
            let roll = rng.below(100);
            let index = if roll < 85 {
                rng.below(n)
            } else if roll < 95 {
                n + rng.below(n)
            } else {
                2 * n + rng.below(WALK_BODIES as u64)
            };
            index as u16
        })
        .collect();
    WarmMix { bodies, sequence }
}

/// One editor session of the cold workload: `/compile` (with `.qc`) then
/// `/check` of the same body.
#[derive(Debug, Clone)]
pub struct Session {
    pub program: usize,
    pub depth: i64,
    pub spire: bool,
    /// The renamed entry function, unique per session and seed.
    pub entry: String,
    pub source: String,
}

impl Session {
    pub fn compile_body(&self) -> String {
        compile_body(&self.source, &self.entry, self.depth, self.spire, true)
    }

    pub fn check_body(&self) -> String {
        compile_body(&self.source, &self.entry, self.depth, self.spire, false)
    }

    #[cfg(test)]
    pub fn cache_key(&self) -> CacheKey {
        let options = if self.spire {
            CompileOptions::spire()
        } else {
            CompileOptions::baseline()
        };
        CacheKey::new(
            &self.source,
            &self.entry,
            self.depth,
            WordConfig::paper_default(),
            &options,
        )
    }
}

/// Sessions per cold round: every program under both optimization
/// settings.
pub fn round_len(programs: &[Program]) -> usize {
    programs.len() * 2
}

/// The depths of `range` alternating from both ends (`2, 10, 3, 9, …`),
/// or from the top end first: every prefix of the cycle is close to the
/// range's mean, so a run that stops mid-cycle still sees a balanced mix.
fn interleaved(range: &[i64], top_first: bool) -> Vec<i64> {
    let (mut lo, mut hi) = (0, range.len());
    let mut order = Vec::with_capacity(range.len());
    while lo < hi {
        if top_first == (order.len() % 2 == 0) {
            hi -= 1;
            order.push(range[hi]);
        } else {
            order.push(range[lo]);
            lo += 1;
        }
    }
    order
}

/// Round `k` of the cold workload. Each round holds every program under
/// `spire` and `none` once, in seeded order; each (program, opt) pair walks
/// its program's depth range across rounds in a balanced order whose
/// direction the seed picks. Program, depth and opt are uniform, and the
/// mix of a run barely depends on the seed. The entry function is renamed
/// so that no cache tier can answer any session.
pub fn cold_round(seed: u64, k: usize, programs: &[Program]) -> Vec<Session> {
    let mut sessions = Vec::with_capacity(round_len(programs));
    for (p, program) in programs.iter().enumerate() {
        for (o, spire) in [true, false].into_iter().enumerate() {
            let top_first = Rng::new(seed ^ ((p as u64) << 32) ^ o as u64).below(2) == 1;
            let order = interleaved(&program.depths, top_first);
            let depth = order[k % order.len()];
            let entry = format!("{}_s{seed:x}_{k}_{o}", program.entry);
            sessions.push(Session {
                program: p,
                depth,
                spire,
                source: rename_ident(&program.source, program.entry, &entry),
                entry,
            });
        }
    }
    Rng::new(seed.wrapping_add(k as u64).rotate_left(17)).shuffle(&mut sessions);
    sessions
}

/// Replace every whole-identifier occurrence of `from` with `to`.
pub fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(source.len() + 64);
    let mut rest = source;
    while let Some(at) = rest.find(from) {
        let before = rest[..at].chars().next_back();
        let after = rest[at + from.len()..].chars().next();
        out.push_str(&rest[..at]);
        if before.is_some_and(is_ident) || after.is_some_and(is_ident) {
            out.push_str(from);
        } else {
            out.push_str(to);
        }
        rest = &rest[at + from.len()..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cold_bytes(seed: u64, rounds: usize, programs: &[Program]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for k in 0..rounds {
            for s in cold_round(seed, k, programs) {
                bytes.extend(s.compile_body().bytes());
                bytes.extend(s.check_body().bytes());
            }
        }
        bytes
    }

    fn warm_bytes(seed: u64, programs: &[Program]) -> Vec<u8> {
        let mix = warm_mix(seed, programs, 2000);
        mix.sequence
            .iter()
            .flat_map(|&i| mix.bodies[i as usize].body.bytes().collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let programs = programs();
        assert_eq!(cold_bytes(7, 3, &programs), cold_bytes(7, 3, &programs));
        assert_ne!(cold_bytes(7, 3, &programs), cold_bytes(8, 3, &programs));
        assert_eq!(warm_bytes(7, &programs), warm_bytes(7, &programs));
        assert_ne!(warm_bytes(7, &programs), warm_bytes(8, &programs));
    }

    #[test]
    fn cold_sessions_have_distinct_cache_keys() {
        let programs = programs();
        let mut keys = HashSet::new();
        let rounds = 36; // every depth of every (program, opt) pair
        for k in 0..rounds {
            for s in cold_round(3, k, &programs) {
                assert!(keys.insert(s.cache_key()), "duplicate key at round {k}");
            }
        }
        assert_eq!(keys.len(), rounds * round_len(&programs));
    }

    #[test]
    fn cold_rounds_cover_every_depth_uniformly() {
        let programs = programs();
        let mut seen = std::collections::BTreeMap::new();
        for k in 0..36 {
            for s in cold_round(11, k, &programs) {
                *seen.entry((s.program, s.spire, s.depth)).or_insert(0) += 1;
            }
        }
        for (p, program) in programs.iter().enumerate() {
            for spire in [true, false] {
                for &d in &program.depths {
                    assert_eq!(seen[&(p, spire, d)], 36 / program.depths.len());
                }
            }
        }
    }

    #[test]
    fn warm_mix_proportions() {
        let programs = programs();
        let mix = warm_mix(5, &programs, 100_000);
        let count = |e: Endpoint| {
            mix.sequence
                .iter()
                .filter(|&&i| mix.bodies[i as usize].endpoint == e)
                .count() as f64
                / 1000.0
        };
        assert!((count(Endpoint::Compile) - 85.0).abs() < 1.0);
        assert!((count(Endpoint::Check) - 10.0).abs() < 1.0);
        assert!((count(Endpoint::Simulate) - 5.0).abs() < 1.0);
    }

    #[test]
    fn rename_touches_whole_identifiers_only() {
        let src = "fun insert[d](t: x) { let y <- insert[d-1](t); let inserted <- y; }";
        assert_eq!(
            rename_ident(src, "insert", "insert_s1"),
            "fun insert_s1[d](t: x) { let y <- insert_s1[d-1](t); let inserted <- y; }"
        );
    }
}
