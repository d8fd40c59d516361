//! Fixture-based tests: each rule has a good fixture (zero findings) and a
//! bad fixture (a known set of findings). Fixtures live under
//! `tests/fixtures/` and are consumed as text, never compiled.

use std::path::Path;

/// Lint a fixture as if it were src code, returning only `rule`'s findings.
fn lint_fixture(name: &str, rule: &str) -> Vec<ale_lint::Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    ale_lint::lint_source_as(&format!("fixtures/{name}"), &src, true)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn assert_clean(name: &str, rule: &str) {
    let findings = lint_fixture(name, rule);
    assert!(
        findings.is_empty(),
        "{name} should be clean for {rule}, got: {findings:#?}"
    );
}

#[test]
fn safety_comment_good_is_clean() {
    assert_clean("safety_comment_good.rs", "safety-comment");
}

#[test]
fn safety_comment_bad_flags_naked_unsafe_only() {
    let findings = lint_fixture("safety_comment_bad.rs", "safety-comment");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 5);
    assert!(findings[0].line_content.contains("unsafe"));
}

#[test]
fn region_balance_good_is_clean() {
    assert_clean("region_balance_good.rs", "conflicting-region-balance");
}

#[test]
fn region_balance_bad_flags_every_escape() {
    let findings = lint_fixture("region_balance_bad.rs", "conflicting-region-balance");
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(msgs.iter().any(|m| m.contains("`return` escapes")));
    assert!(msgs.iter().any(|m| m.contains("`?` escapes")));
    assert!(msgs.iter().any(|m| m.contains("`break` escapes")));
    assert!(msgs.iter().any(|m| m.contains("no matching")));
}

#[test]
fn swopt_purity_good_is_clean() {
    assert_clean("swopt_purity_good.rs", "swopt-purity");
}

#[test]
fn swopt_purity_bad_flags_each_write_kind() {
    let findings = lint_fixture("swopt_purity_bad.rs", "swopt-purity");
    assert_eq!(findings.len(), 4, "{findings:#?}");
    let tokens: Vec<bool> = ["store", "fetch_add", "get_mut", "lock"]
        .iter()
        .map(|t| {
            findings
                .iter()
                .any(|f| f.message.contains(&format!("(`{t}`)")))
        })
        .collect();
    assert_eq!(tokens, vec![true; 4], "{findings:#?}");
}

#[test]
fn ordering_good_is_clean() {
    assert_clean("ordering_good.rs", "ordering-discipline");
}

#[test]
fn ordering_bad_flags_publication_stores() {
    let findings = lint_fixture("ordering_bad.rs", "ordering-discipline");
    assert_eq!(findings.len(), 4, "{findings:#?}");
    for field in ["lock", "version", "GLOBAL_VCLOCK"] {
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{field}`"))),
            "missing `{field}` finding in {findings:#?}"
        );
    }
}

#[test]
fn ordering_bad_flags_relaxed_read_modify_writes() {
    // The parent's `GLOBAL_VCLOCK.fetch_add(1, Relaxed)` passed a rule that
    // only looked at `.store(..)`: an RMW publishes too.
    let findings = lint_fixture("ordering_bad.rs", "ordering-discipline");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("fetch_add") && f.message.contains("`GLOBAL_VCLOCK`")),
        "missing the fetch_add finding in {findings:#?}"
    );
}

#[test]
fn counters_file_is_exempt_from_ordering_rule() {
    // Same source as the bad fixture, but attributed to the statistics
    // counters module, which is allowlisted wholesale.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ordering_bad.rs");
    let src = std::fs::read_to_string(path).unwrap();
    let findings = ale_lint::lint_source_as("crates/sync/src/counters.rs", &src, true);
    assert!(
        findings.iter().all(|f| f.rule != "ordering-discipline"),
        "{findings:#?}"
    );
}

#[test]
fn swopt_transitive_good_is_clean() {
    assert_clean("swopt_transitive_good.rs", "swopt-purity-transitive");
}

#[test]
fn swopt_transitive_bad_flags_write_lock_and_alloc_chains() {
    let findings = lint_fixture("swopt_transitive_bad.rs", "swopt-purity-transitive");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let by_msg = |needle: &str| {
        findings
            .iter()
            .find(|f| f.message.contains(needle))
            .unwrap_or_else(|| panic!("no finding containing {needle:?}: {findings:#?}"))
    };
    let write = by_msg("write to `stats`");
    assert!(
        write
            .message
            .contains("via lookup → helper_level_one → helper_level_two"),
        "{}",
        write.message
    );
    assert!(write.line_content.contains("fn lookup"), "{write:#?}");
    let lock = by_msg("lock acquisition on `mlock`");
    assert!(lock.message.contains("via lookup_locked → slow_path"));
    let alloc = by_msg("allocation (`vec!`)");
    assert!(alloc.message.contains("via lookup_alloc → sneaky_alloc"));
}

#[test]
fn lock_cycle_good_is_clean() {
    assert_clean("lock_cycle_good.rs", "lock-order-cycle");
}

#[test]
fn lock_cycle_bad_reports_the_exact_acquisition_path() {
    let findings = lint_fixture("lock_cycle_bad.rs", "lock-order-cycle");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let msg = &findings[0].message;
    assert!(
        msg.contains("lock-order cycle `mlock` → `slot` → `mlock`"),
        "{msg}"
    );
    assert!(msg.contains("`mlock` → `slot` at fixtures/lock_cycle_bad.rs:7 (in `Db::put`)"));
    assert!(msg.contains(
        "`slot` → `mlock` at fixtures/lock_cycle_bad.rs:14 (in `Db::rebalance`, via `grab_meta`)"
    ));
}

#[test]
fn src_only_rules_skip_test_surface() {
    // The same impure SWOpt code reported under a tests/ path produces no
    // swopt-purity findings (the rule is src-only).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/swopt_purity_bad.rs");
    let src = std::fs::read_to_string(path).unwrap();
    let findings = ale_lint::lint_source("crates/x/tests/prop.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule != "swopt-purity"),
        "{findings:#?}"
    );
}
