//! The workspace source lint: robustness rules over library code.
//!
//! A dependency-free scanner (no proc macros, no syn) over every library
//! source file in `crates/*/src`, enforcing the repo's hardening rules:
//!
//! * **no-unwrap / no-expect / no-panic** — library code returns typed
//!   errors; panicking calls belong in tests and binaries.
//! * **float-eq** — ad-hoc `== 0.0`-style comparisons and hand-rolled
//!   epsilon checks belong in the conformance ULP helpers, not scattered
//!   through kernels.
//! * **event-mutation** — [`simkit::EventCounts`] fields are written only
//!   by the accounting layers (engines, drivers, baselines), never ad hoc.
//! * **hash-iteration / wall-clock / interior-mutability /
//!   float-fold-order** — the determinism lints: no hash-ordered
//!   collections whose iteration order could leak into a report, no
//!   wall-clock reads in folded counter paths, no `static mut` / cells /
//!   locks / atomics outside the pool and the service layer, and no
//!   order-sensitive float accumulation (sum integer counters, recompute
//!   floats once from the merged result).
//!
//! Test modules (everything from the first `#[cfg(test)]` line on), doc /
//! line comments, binaries, benches and integration tests are out of
//! scope. Each rule carries an explicit per-file allowlist: the grandfathered
//! sites are named here, in review, rather than silently tolerated.
//!
//! Run as `cargo run -p analysis --bin lint` (CI fails on any finding) or
//! via the `workspace_is_lint_clean` test.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// Pattern fragments are assembled at compile time so this file does not
// match its own rules when it scans itself.
const P_UNWRAP: &str = concat!(".unw", "rap()");
const P_EXPECT: &str = concat!(".exp", "ect(");
const P_PANIC: &str = concat!("pan", "ic!(");
const P_UNREACHABLE: &str = concat!("unreach", "able!(");
const P_TODO: &str = concat!("to", "do!(");
const P_UNIMPLEMENTED: &str = concat!("unimpl", "emented!(");
const P_ABS_CMP: &str = concat!(".ab", "s() <");
const P_EVENTS: &str = concat!("eve", "nts.");
const P_CFG_TEST: &str = concat!("#[cfg(te", "st)]");
const P_HASHMAP: &str = concat!("Hash", "Map");
const P_HASHSET: &str = concat!("Hash", "Set");
const P_INSTANT_NOW: &str = concat!("Instant", "::now");
const P_SYSTEMTIME_NOW: &str = concat!("SystemTime", "::now");
const P_STATIC_MUT: &str = concat!("static ", "mut ");
const P_CELL: &str = concat!("Ce", "ll<");
const P_ONCE_LOCK: &str = concat!("Once", "Lock");
const P_ONCE_CELL: &str = concat!("Once", "Cell");
const P_MUTEX: &str = concat!("Mut", "ex<");
const P_RWLOCK: &str = concat!("RwL", "ock<");
const P_ATOMIC: &str = concat!("Ato", "mic");
const P_SUM_F32: &str = concat!(".sum::<f", "32>()");
const P_SUM_F64: &str = concat!(".sum::<f", "64>()");
const P_FOLD_F0: &str = concat!(".fold(0", ".0");
const P_FOLD_F0F: &str = concat!(".fold(0", "f");

/// The [`EventCounts`](simkit::EventCounts) fields the event-mutation rule
/// guards.
const EVENT_FIELDS: &[&str] = &[
    "a_elems",
    "b_elems",
    "partial_updates",
    "c_writes",
    "meta_words",
    "sched_ops",
    "unit_cycles",
    "mac_issued",
    "c_ports_cycles",
    "faults_injected",
    "faults_detected",
    "faults_uncorrected",
];

/// One lint rule: a name, a line predicate and its allowlist of
/// grandfathered files (workspace-relative path substrings).
struct Rule {
    name: &'static str,
    summary: &'static str,
    check: fn(&str) -> bool,
    allow: &'static [&'static str],
}

fn has_unwrap(line: &str) -> bool {
    line.contains(P_UNWRAP)
}

fn has_expect(line: &str) -> bool {
    line.contains(P_EXPECT)
}

fn has_panic_macro(line: &str) -> bool {
    [P_PANIC, P_UNREACHABLE, P_TODO, P_UNIMPLEMENTED].iter().any(|p| line.contains(p))
}

/// `== 1.0` / `!= 0.0`-style literal float comparisons, and hand-rolled
/// `(..).abs() < eps` epsilon checks.
fn has_float_eq(line: &str) -> bool {
    if line.contains(P_ABS_CMP) {
        return true;
    }
    for op in ["==", "!="] {
        let mut rest = line;
        while let Some(pos) = rest.find(op) {
            let after = &rest[pos + op.len()..];
            if starts_with_float_literal(after.trim_start()) {
                return true;
            }
            rest = after;
        }
    }
    false
}

/// Whether `s` begins with a float literal like `0.0`, `-1.5` or `1e-9`.
fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return false;
    }
    let rest = &s[digits..];
    match rest.as_bytes().first() {
        Some(b'.') => rest.as_bytes().get(1).is_some_and(u8::is_ascii_digit),
        Some(b'e') | Some(b'E') => true,
        _ => false,
    }
}

/// Hash-ordered collections: their iteration order is seeded per process,
/// so any report built by walking one is nondeterministic by construction.
fn has_hash_collection(line: &str) -> bool {
    line.contains(P_HASHMAP) || line.contains(P_HASHSET)
}

/// Wall-clock reads. Counters folded into reports must be functions of
/// the input, never of time; timing lives in the pool's watchdog and the
/// metrics wall-span, both allowlisted.
fn has_wall_clock(line: &str) -> bool {
    line.contains(P_INSTANT_NOW) || line.contains(P_SYSTEMTIME_NOW)
}

/// `static mut` and the interior-mutability / shared-state primitives.
/// Outside the pool and the service layer, library code is
/// plain values in, plain values out — that is what makes the fold a
/// monoid.
fn has_interior_mutability(line: &str) -> bool {
    [P_STATIC_MUT, P_CELL, P_ONCE_LOCK, P_ONCE_CELL, P_MUTEX, P_RWLOCK, P_ATOMIC]
        .iter()
        .any(|p| line.contains(p))
}

/// Order-sensitive float accumulation (`.sum::<f64>()`, `.fold(0.0, ..)`):
/// float addition does not associate, so a parallel re-ordering changes
/// the result. Accumulate integers, recompute floats once at the end.
fn has_float_fold(line: &str) -> bool {
    [P_SUM_F32, P_SUM_F64, P_FOLD_F0, P_FOLD_F0F].iter().any(|p| line.contains(p))
}

/// Direct assignment (`=`, `+=`, `-=`) to an `events.<field>` lvalue.
fn has_event_mutation(line: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find(P_EVENTS) {
        let after = &rest[pos + P_EVENTS.len()..];
        for field in EVENT_FIELDS {
            if let Some(tail) = after.strip_prefix(field) {
                let t = tail.trim_start();
                if t.starts_with("+=")
                    || t.starts_with("-=")
                    || (t.starts_with('=') && !t.starts_with("=="))
                {
                    return true;
                }
            }
        }
        rest = after;
    }
    false
}

const RULES: &[Rule] = &[
    Rule {
        name: "no-unwrap",
        summary: "library code must not call unwrap; return a typed error",
        check: has_unwrap,
        allow: &[
            // Emits .unwrap() inside a *generated* reproduction snippet.
            "conformance/src/shrink.rs",
        ],
    },
    Rule {
        name: "no-expect",
        summary: "library code should avoid expect; grandfathered sites are listed",
        check: has_expect,
        allow: &[
            "analysis/src/golden.rs",
            "bench/src/lib.rs",
            "conformance/src/generators.rs",
            "conformance/src/golden.rs",
            "core/src/kernels.rs",
            "core/src/schedule.rs",
            "sparse/src/bbc/build.rs",
            "sparse/src/bbc/mod.rs",
            "sparse/src/bsr.rs",
            "sparse/src/coo.rs",
            "sparse/src/csc.rs",
            "sparse/src/csr.rs",
            "sparse/src/dense.rs",
            "workloads/src/",
        ],
    },
    Rule {
        name: "no-panic",
        summary: "library code must not use panicking macros",
        check: has_panic_macro,
        allow: &[
            // Seed parsing and ULP assertion helpers are deliberate aborts.
            "conformance/src/compare.rs",
            "conformance/src/lib.rs",
        ],
    },
    Rule {
        name: "float-eq",
        summary: "no ad-hoc float equality / epsilon compares outside the ULP helpers",
        check: has_float_eq,
        allow: &[
            "conformance/src/compare.rs",
            "conformance/src/shrink.rs",
            "simkit/src/metrics.rs",
            "sparse/src/bsr.rs",
            "sparse/src/csr.rs",
            "workloads/src/",
        ],
    },
    Rule {
        name: "event-mutation",
        summary: "EventCounts fields are written only by the accounting layers",
        check: has_event_mutation,
        allow: &[
            "baselines/src/",
            "core/src/multi.rs",
            "core/src/pipeline.rs",
            "simkit/src/driver.rs",
            "simkit/src/result.rs",
        ],
    },
    Rule {
        name: "hash-iteration",
        summary: "no hash-ordered collections in library code; their iteration order is \
                  per-process and would leak into reports",
        check: has_hash_collection,
        allow: &[
            // Insert-only duplicate check; iteration order never observed.
            "workloads/src/gen.rs",
        ],
    },
    Rule {
        name: "wall-clock",
        summary: "no wall-clock reads in folded paths; timing belongs to the pool watchdog \
                  and the metrics wall-span",
        check: has_wall_clock,
        allow: &["obs/src/metrics.rs", "runtime/src/pool.rs"],
    },
    Rule {
        name: "interior-mutability",
        summary: "no mutable statics, cells, locks or atomics outside the pool and the \
                  service layer",
        check: has_interior_mutability,
        allow: &[
            "runtime/src/pool.rs",
            // The serving layer is the one place shared mutable state is
            // the point: fingerprint-keyed caches and a live metrics
            // registry behind a dispatcher thread (DESIGN.md §15).
            "service/src/cache.rs",
            "service/src/service.rs",
        ],
    },
    Rule {
        name: "float-fold-order",
        summary: "no order-sensitive float accumulation; fold integer counters, recompute \
                  floats once from the merged result",
        check: has_float_fold,
        allow: &["sparse/src/dense.rs", "workloads/src/"],
    },
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name, e.g. `"no-unwrap"`.
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.text)
    }
}

/// Summary of one lint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Library files scanned.
    pub files_scanned: usize,
    /// All findings, in path order.
    pub findings: Vec<Finding>,
}

/// Whether a library source path is in scope for linting.
fn in_scope(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    if rel.contains("/src/bin/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
    {
        return false;
    }
    !rel.ends_with("tests.rs")
}

fn allowed(rule: &Rule, rel: &str) -> bool {
    rule.allow.iter().any(|a| rel.contains(a))
}

/// Lints one file's contents (already read), given its workspace-relative
/// path.
fn lint_source(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    for (i, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line == P_CFG_TEST {
            return; // the rest of the file is the test module
        }
        if line.starts_with("//") {
            continue; // doc and line comments
        }
        for rule in RULES {
            if (rule.check)(line) && !allowed(rule, rel) {
                findings.push(Finding {
                    rule: rule.name,
                    file: rel.to_owned(),
                    line: i + 1,
                    text: line.to_owned(),
                });
            }
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the lint over every library source under `<root>/crates/*/src`.
///
/// # Errors
///
/// Returns an IO error if the workspace layout cannot be read.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if !in_scope(&rel) {
            continue;
        }
        files_scanned += 1;
        let source = fs::read_to_string(&path)?;
        lint_source(&rel, &source, &mut findings);
    }
    Ok(LintReport { files_scanned, findings })
}

/// The workspace root, derived from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The rule names and summaries, for `--help`-style output.
pub fn rule_table() -> Vec<(&'static str, &'static str)> {
    RULES.iter().map(|r| (r.name, r.summary)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_seeded_lines() {
        assert!(has_unwrap(&format!("let x = y{P_UNWRAP};")));
        assert!(!has_unwrap("let x = y.unwrap_or(0);"));
        assert!(has_expect(&format!("let x = y{P_EXPECT}\"msg\");")));
        assert!(has_panic_macro(&format!("{P_PANIC}\"boom\")")));
        assert!(has_panic_macro(&format!("{P_UNREACHABLE})")));
        assert!(!has_panic_macro("let p = panicky;"));
    }

    #[test]
    fn float_eq_detects_literal_compares() {
        assert!(has_float_eq("if acc[r] == 0.0 {"));
        assert!(has_float_eq("if v != 1.0 {"));
        assert!(has_float_eq("if x == 2e-9 {"));
        assert!(has_float_eq(&format!("if (a - b){P_ABS_CMP} 1e-12 {{")));
        assert!(!has_float_eq("if a == b {"));
        assert!(!has_float_eq("if n == 0 {"));
        assert!(!has_float_eq("let eq = x == y;"));
    }

    #[test]
    fn event_mutation_detects_lvalue_writes() {
        assert!(has_event_mutation(&format!("r.{P_EVENTS}meta_words += 36;")));
        assert!(has_event_mutation(&format!("rep.{P_EVENTS}faults_injected = n;")));
        assert!(!has_event_mutation(&format!("if r.{P_EVENTS}meta_words == 36 {{")));
        assert!(!has_event_mutation(&format!("let m = r.{P_EVENTS}meta_words;")));
    }

    #[test]
    fn determinism_rules_match_seeded_lines() {
        assert!(has_hash_collection(&format!("use std::collections::{P_HASHMAP};")));
        assert!(has_hash_collection(&format!("let seen: {P_HASHSET}<u64> = ...;")));
        assert!(!has_hash_collection("let seen: BTreeMap<u64, u64> = BTreeMap::new();"));
        assert!(has_wall_clock(&format!("let t0 = {P_INSTANT_NOW}();")));
        assert!(has_wall_clock(&format!("let wall = {P_SYSTEMTIME_NOW}();")));
        assert!(!has_wall_clock("let now = self.clock;"));
        assert!(has_interior_mutability(&format!("{P_STATIC_MUT}REGISTRY: u8 = 0;")));
        assert!(has_interior_mutability(&format!("queues: Vec<{P_MUTEX}VecDeque<u64>>>,")));
        assert!(has_interior_mutability(&format!("done: {P_ATOMIC}Bool,")));
        assert!(!has_interior_mutability("let mut acc = 0u64;"));
        assert!(has_float_fold(&format!("let s = xs.iter(){P_SUM_F64};")));
        assert!(has_float_fold(&format!("let m = xs.iter(){P_FOLD_F0}, f64::max);")));
        assert!(!has_float_fold("let n: u64 = xs.iter().sum();"));
    }

    #[test]
    fn scanner_skips_comments_and_test_modules() {
        let src = format!(
            "fn ok() {{}}\n// comment with {P_UNWRAP}\n{P_CFG_TEST}\nfn t() {{ x{P_UNWRAP}; }}\n"
        );
        let mut findings = Vec::new();
        lint_source("crates/demo/src/lib.rs", &src, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn scanner_reports_violations_with_locations() {
        let src = format!("fn bad() {{\n    x{P_UNWRAP};\n}}\n");
        let mut findings = Vec::new();
        lint_source("crates/demo/src/lib.rs", &src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-unwrap");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].to_string().starts_with("crates/demo/src/lib.rs:2:"));
    }

    #[test]
    fn allowlists_are_honoured() {
        let src = format!("fn grandfathered() {{ x{P_UNWRAP}; }}\n");
        let mut findings = Vec::new();
        lint_source("crates/conformance/src/shrink.rs", &src, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn scope_excludes_bins_tests_and_benches() {
        assert!(in_scope("crates/sparse/src/csr.rs"));
        assert!(!in_scope("crates/analysis/src/bin/lint.rs"));
        assert!(!in_scope("crates/conformance/tests/differential.rs"));
        assert!(!in_scope("crates/bench/benches/kernels.rs"));
        assert!(!in_scope("crates/sparse/src/csr_tests.rs"));
        assert!(!in_scope("crates/sparse/src/notes.md"));
    }

    #[test]
    fn workspace_is_lint_clean() {
        let report = run(&workspace_root()).expect("workspace sources are readable");
        assert!(report.files_scanned > 40, "scanned {} files", report.files_scanned);
        let rendered: Vec<String> = report.findings.iter().map(Finding::to_string).collect();
        assert!(report.findings.is_empty(), "lint findings:\n{}", rendered.join("\n"));
    }

    #[test]
    fn rule_table_names_every_rule() {
        let t = rule_table();
        assert_eq!(t.len(), 9);
        assert!(t.iter().any(|(n, _)| *n == "no-unwrap"));
        assert!(t.iter().any(|(n, _)| *n == "event-mutation"));
        assert!(t.iter().any(|(n, _)| *n == "hash-iteration"));
        assert!(t.iter().any(|(n, _)| *n == "wall-clock"));
        assert!(t.iter().any(|(n, _)| *n == "interior-mutability"));
        assert!(t.iter().any(|(n, _)| *n == "float-fold-order"));
    }
}
