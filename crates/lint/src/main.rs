//! CLI for `ale-lint`.
//!
//! ```text
//! ale-lint [--deny] [--json] [--baseline <path>] [PATH ...]
//! ```
//!
//! With no `PATH` arguments the default workspace surface is linted
//! (`crates/*/src` and `tests/`) and the checked-in `lint-baseline.txt`
//! is applied. Explicit paths (files or directories) are linted as-is —
//! used by the fixture tests and for spot checks.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: ale-lint [--deny] [--json] [--baseline <path>] [PATH ...]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            path => paths.push(PathBuf::from(path)),
        }
    }

    let root = ale_lint::default_workspace_root();

    let files: Vec<PathBuf> = if paths.is_empty() {
        ale_lint::workspace_files(&root)
    } else {
        let mut files = Vec::new();
        for p in &paths {
            if p.is_dir() {
                ale_lint::collect_rs(p, &mut files);
            } else {
                files.push(p.clone());
            }
        }
        files
    };

    let findings = match ale_lint::lint_files(&root, &files, !paths.is_empty()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ale-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    // The baseline applies to the default workspace walk automatically and
    // to explicit paths only when requested via --baseline.
    let baseline = match (&baseline_path, paths.is_empty()) {
        (Some(p), _) => ale_lint::load_baseline(p),
        (None, true) => ale_lint::load_baseline(&root.join("lint-baseline.txt")),
        (None, false) => Default::default(),
    };
    let findings = ale_lint::apply_baseline(findings, &baseline);

    if json {
        println!("{}", ale_lint::to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "ale-lint: {} finding(s) in {} file(s)",
            findings.len(),
            files.len()
        );
    }

    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
