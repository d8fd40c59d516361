//! `ale-lint` — a workspace-wide static invariant checker for the
//! elision-safety rules this codebase depends on but `rustc` cannot see.
//!
//! The checker is a small hand-rolled lexer (no external dependencies,
//! works fully offline), four line-local syntactic rules, and an
//! interprocedural layer: a lightweight item [`parser`], a workspace
//! [`callgraph`], per-function lock sets ([`effects`]) propagated to a
//! fixed point, and two whole-program rules (transitive SWOpt purity,
//! lock-order cycles). See [`rules`] for the rule table and DESIGN.md §7
//! for the analysis model. Run it with:
//!
//! ```text
//! cargo run -p ale-lint                        # report findings
//! cargo run -p ale-lint -- --deny              # exit nonzero on any finding
//! cargo run -p ale-lint -- --json              # machine-readable output
//! ```
//!
//! ## Suppression
//!
//! A finding is suppressed by a `// ale-lint: allow(<rule-id>)` comment on
//! the same line or the line directly above it. The marker comment
//! `// ale-lint: swopt` opts a function *into* the two SWOpt purity rules.
//!
//! ## Baseline
//!
//! Pre-existing findings can be grandfathered in `lint-baseline.txt` at the
//! workspace root (override with `--baseline <path>`). Each line is
//! `rule-id<TAB>path<TAB>trimmed source line`; matching is by content, not
//! line number, so the baseline survives unrelated edits. `#`-prefixed
//! lines and blank lines are ignored.

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::RULE_IDS;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// Trimmed source line, used for baseline matching.
    pub line_content: String,
}

impl Finding {
    /// Stable identity used by the baseline file.
    #[must_use]
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.rule, self.file, self.line_content)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One lexed/parsed file inside an [`Analysis`].
pub struct AnalyzedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub model: lexer::FileModel,
    /// True for files under a crate's `src/` (as opposed to `tests/`).
    pub is_src: bool,
    toks: Vec<lexer::Tok>,
    fns: Vec<lexer::FnExtent>,
    test_ranges: Vec<(usize, usize)>,
}

/// A whole-workspace (or single-file) analysis: per-file lex/parse results
/// plus the assembled call graph and its transitive lock sets. Build once,
/// then ask for [`Analysis::findings`].
pub struct Analysis {
    pub files: Vec<AnalyzedFile>,
    pub program: callgraph::Program,
    /// Transitive lock sets, indexed like `program.nodes`.
    pub locks: Vec<BTreeSet<String>>,
}

impl Analysis {
    /// Analyze a set of `(rel_path, source, is_src)` triples.
    #[must_use]
    pub fn of_sources(sources: Vec<(String, String, bool)>) -> Analysis {
        let mut files = Vec::with_capacity(sources.len());
        let mut parsed = Vec::with_capacity(sources.len());
        for (path, src, is_src) in sources {
            let model = lexer::analyze(&src);
            let toks = lexer::tokens(&model);
            let fns = lexer::functions(&toks);
            let test_ranges = lexer::cfg_test_ranges(&toks);
            parsed.push((
                path.clone(),
                parser::parse_file(&model, &toks, &fns, &test_ranges),
            ));
            files.push(AnalyzedFile {
                path,
                model,
                is_src,
                toks,
                fns,
                test_ranges,
            });
        }
        let program = callgraph::Program::build(&parsed);
        let locks = effects::propagate(&program);
        Analysis {
            files,
            program,
            locks,
        }
    }

    /// Run every rule (line-local per file, then whole-program), drop
    /// suppressed findings, and sort deterministically by
    /// `(path, line, rule)`.
    #[must_use]
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for f in &self.files {
            if f.model.raw.is_empty() {
                continue;
            }
            let ctx = rules::FileCtx {
                path: &f.path,
                model: &f.model,
                toks: &f.toks,
                fns: &f.fns,
                test_ranges: &f.test_ranges,
                is_src: f.is_src,
            };
            out.extend(rules::check_all(&ctx));
        }

        let src_files: HashSet<String> = self
            .files
            .iter()
            .filter(|f| f.is_src)
            .map(|f| f.path.clone())
            .collect();
        let pctx = rules::ProgramCtx {
            program: &self.program,
            locks: &self.locks,
            src_files: &src_files,
        };
        let models: HashMap<&str, &lexer::FileModel> = self
            .files
            .iter()
            .map(|f| (f.path.as_str(), &f.model))
            .collect();
        for mut finding in rules::check_program(&pctx) {
            // Program findings come back without line content; fill it in
            // so baseline matching and suppression work uniformly.
            if let Some(model) = models.get(finding.file.as_str()) {
                finding.line_content = model
                    .raw
                    .get(finding.line - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default();
            }
            out.push(finding);
        }

        let mut out: Vec<Finding> = out
            .into_iter()
            .filter(|f| {
                !models
                    .get(f.file.as_str())
                    .is_some_and(|model| is_suppressed(model, f))
            })
            .collect();
        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out.dedup();
        out
    }
}

/// Lint one file's source. `rel_path` should be workspace-relative with
/// forward slashes — rules key off it (src-vs-test scoping, the
/// `counters.rs` allowlist). The whole-program rules run over the
/// single-file program, so intra-file call chains are checked too.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_source_as(rel_path, src, is_src_path(rel_path))
}

/// Is a workspace-relative path under a `src/` directory?
fn is_src_path(rel_path: &str) -> bool {
    rel_path.contains("/src/") || rel_path.starts_with("src/")
}

/// Like [`lint_source`] but with the src-vs-test scoping decided by the
/// caller. The CLI uses `is_src = true` for explicitly-passed paths so the
/// src-only rules apply to spot-checked files (and to the bad-fixture
/// corpus) regardless of where they live.
pub fn lint_source_as(rel_path: &str, src: &str, is_src: bool) -> Vec<Finding> {
    Analysis::of_sources(vec![(rel_path.to_string(), src.to_string(), is_src)]).findings()
}

/// `// ale-lint: allow(<rule>)` on the finding's line, or on a
/// comment-only line directly above it. (A *trailing* allow suppresses only
/// its own line, so one annotation can't silently cover a neighbour.)
fn is_suppressed(model: &lexer::FileModel, f: &Finding) -> bool {
    let needle = format!("ale-lint: allow({})", f.rule);
    let line0 = f.line - 1;
    if model.comments[line0.min(model.comments.len() - 1)].contains(&needle) {
        return true;
    }
    if line0 == 0 {
        return false;
    }
    let prev = line0 - 1;
    let prev_comment_only = model
        .masked
        .get(prev)
        .is_some_and(|code| code.trim().is_empty());
    prev_comment_only && model.comments[prev].contains(&needle)
}

/// Recursively collect `.rs` files under `dir`, in sorted order.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The default lint surface: every `crates/*/src/**/*.rs` plus the
/// workspace-level `tests/` directory. Fixture files under
/// `crates/lint/tests/` are deliberately *not* part of the walk — they
/// contain intentional violations.
#[must_use]
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for krate in dirs {
            collect_rs(&krate.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    files
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Read an explicit list of files as the `(rel_path, source, is_src)`
/// triples [`Analysis::of_sources`] takes, with paths relative to `root`.
/// `force_src` applies every rule (including the src-only ones) to every
/// file, regardless of its path.
pub fn read_sources(
    root: &Path,
    files: &[PathBuf],
    force_src: bool,
) -> std::io::Result<Vec<(String, String, bool)>> {
    files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path)?;
            let rel = rel_path(root, path);
            let is_src = force_src || is_src_path(&rel);
            Ok((rel, src, is_src))
        })
        .collect()
}

/// Lint an explicit list of files, as one whole-program analysis.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    force_src: bool,
) -> std::io::Result<Vec<Finding>> {
    Ok(Analysis::of_sources(read_sources(root, files, force_src)?).findings())
}

/// Lint the whole default surface under `root`, as one whole-program
/// analysis (cross-crate call chains resolve).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_files(root, &workspace_files(root), false)
}

/// Parse a baseline file's content into the set of grandfathered keys.
#[must_use]
pub fn parse_baseline(content: &str) -> HashSet<String> {
    content
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// Load a baseline file; a missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> HashSet<String> {
    std::fs::read_to_string(path)
        .map(|c| parse_baseline(&c))
        .unwrap_or_default()
}

/// Drop findings that are grandfathered by the baseline.
#[must_use]
pub fn apply_baseline(findings: Vec<Finding>, baseline: &HashSet<String>) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| !baseline.contains(&f.baseline_key()))
        .collect()
}

/// Render findings as a JSON document (hand-rolled; no serde available
/// offline).
///
/// Schema (stable; consumed by CI tooling):
///
/// ```json
/// {
///   "count": <number of findings>,
///   "findings": [
///     {"rule": "<rule id>", "file": "<workspace-relative path>",
///      "line": <1-based line>, "message": "<human-readable message>"}
///   ]
/// }
/// ```
///
/// `findings` preserves the caller's order; every producer in this crate
/// sorts by `(file, line, rule)` first, so JSON output is deterministic
/// across runs and platforms.
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                esc(&f.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"count\": {},\n  \"findings\": [\n{}\n  ]\n}}",
        findings.len(),
        items.join(",\n")
    )
}

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/lint` → two levels up).
#[must_use]
pub fn default_workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_on_same_and_previous_line() {
        let src = "
fn f() {
    // ale-lint: allow(safety-comment)
    unsafe { g() }
    unsafe { h() } // ale-lint: allow(safety-comment)
    unsafe { i() }
}
";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn baseline_matches_by_content_not_line() {
        let src = "fn f() { unsafe { g() } }\n";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert_eq!(findings.len(), 1);
        let baseline = parse_baseline(&format!(
            "# a comment line\n\n{}\n",
            findings[0].baseline_key()
        ));
        assert!(apply_baseline(findings.clone(), &baseline).is_empty());
        // Same key still matches if the line moves.
        let moved = format!("\n\n\n{src}");
        let findings2 = lint_source("crates/x/src/a.rs", &moved);
        assert_eq!(findings2.len(), 1);
        assert!(apply_baseline(findings2, &baseline).is_empty());
    }

    #[test]
    fn json_is_escaped() {
        let f = Finding {
            rule: "safety-comment",
            file: "a\"b.rs".into(),
            line: 3,
            message: "quote \" and\nnewline".into(),
            line_content: String::new(),
        };
        let json = to_json(&[f]);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.contains("\"count\": 1"));
    }
}
