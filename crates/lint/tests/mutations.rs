//! The lint's mutation table: every rule must catch a seeded bug in the
//! real tree, not only in its own fixtures.
//!
//! Each row names a rule, a workspace file and the edits that seed one bug
//! there (an anchor string and its replacement; an inserted item is a
//! replacement that keeps the anchor). The test reads the real tree, applies
//! one row to an in-memory copy, runs the whole-program analysis and
//! asserts that the row's rule reports a new finding in the row's file. An
//! anchor that is missing or ambiguous fails the row, so the table cannot go
//! stale silently. Nothing is written to disk.

use std::collections::HashSet;

use ale_lint::{Analysis, Finding, RULE_IDS};

/// One seeded bug.
struct Row {
    rule: &'static str,
    /// Workspace-relative path of the mutated file.
    file: &'static str,
    /// `(anchor, replacement)` pairs, applied in order; each anchor must
    /// occur exactly once in the file.
    edits: &'static [(&'static str, &'static str)],
    /// What the seeded bug is, in words.
    bug: &'static str,
}

const MUTATIONS: &[Row] = &[
    Row {
        rule: "ordering-discipline",
        file: "crates/htm/src/cell.rs",
        edits: &[(
            "self.meta.store(wv << 1, Ordering::Release);",
            "self.meta.store(wv << 1, Ordering::Relaxed);",
        )],
        bug: "a cell's unlock-and-publish store on `meta` weakened to Relaxed",
    },
    Row {
        rule: "swopt-purity",
        file: "crates/hashmap/src/shard.rs",
        edits: &[(
            "        let ok = || ver.validate(v) && meta_ok();\n",
            "        let _held = self.lock.lock();\n        let ok = || ver.validate(v) && meta_ok();\n",
        )],
        bug: "`Shard::get_swopt` takes the shard lock on the optimistic path",
    },
    Row {
        rule: "swopt-purity",
        file: "crates/hashmap/src/map.rs",
        edits: &[(
            "        let v = ver.read(true);\n        let (prev, id) = self.shard.slab.walk(",
            "        let v = ver.read(true);\n        self.hits.fetch_add(1, Ordering::Relaxed);\n        let (prev, id) = self.shard.slab.walk(",
        )],
        bug: "`AleHashMap::search_swopt` (found by its marker) bumps a shared counter",
    },
    Row {
        rule: "swopt-purity-transitive",
        file: "crates/hashmap/src/shard.rs",
        edits: &[(
            "            return Some(false);\n",
            "            self.buckets.counted(0);\n            return Some(false);\n",
        )],
        bug: "`Shard::get_swopt` reaches the live-key count write in `Resizing::counted`",
    },
    Row {
        rule: "safety-comment",
        file: "crates/sync/src/seqlock.rs",
        edits: &[(
            "// SAFETY: pushed by `begin_conflicting_action` on this thread; per",
            "// Pushed by `begin_conflicting_action` on this thread; per",
        )],
        bug: "the `unsafe` in `close_open_regions` loses its `// SAFETY:` reason",
    },
    Row {
        rule: "conflicting-region-balance",
        file: "crates/check/src/workloads/transfer.rs",
        edits: &[("                            ver_ref.end_conflicting_action();\n", "")],
        bug: "the transfer workload's three-account move never closes its region",
    },
    Row {
        rule: "lock-order-cycle",
        file: "crates/htm/src/inject.rs",
        edits: &[
            (
                "    *g = Some(CrashState { plan, count: 0 });\n",
                "    clear();\n    *g = Some(CrashState { plan, count: 0 });\n",
            ),
            (
                "    let mut g = STATE.lock().unwrap();\n    *g = Some(PlanState {\n",
                "    let mut g = STATE.lock().unwrap();\n    clear_crash();\n    *g = Some(PlanState {\n",
            ),
        ],
        bug: "each plan installer clears the other plan under its own lock: \
              `CRASH_STATE` → `STATE` in `install_crash`, `STATE` → `CRASH_STATE` in `install`",
    },
];

/// The default lint surface, read into memory.
fn tree() -> Vec<(String, String, bool)> {
    let root = ale_lint::default_workspace_root();
    ale_lint::read_sources(&root, &ale_lint::workspace_files(&root), false)
        .expect("workspace readable")
}

fn key(f: &Finding) -> (&'static str, String, String) {
    (f.rule, f.file.clone(), f.message.clone())
}

#[test]
fn every_row_fires_its_rule_on_the_real_tree() {
    let clean: HashSet<_> = Analysis::of_sources(tree())
        .findings()
        .iter()
        .map(key)
        .collect();
    let mut escaped = Vec::new();
    for row in MUTATIONS {
        let mut sources = tree();
        let (_, src, _) = sources
            .iter_mut()
            .find(|(path, _, _)| path == row.file)
            .unwrap_or_else(|| panic!("{}: no such file in the lint surface", row.file));
        for (anchor, replacement) in row.edits {
            let hits = src.matches(anchor).count();
            assert_eq!(
                hits, 1,
                "{} row ({}): anchor {anchor:?} occurs {hits} times in {}",
                row.rule, row.bug, row.file
            );
            *src = src.replacen(anchor, replacement, 1);
        }
        let fired = Analysis::of_sources(sources)
            .findings()
            .into_iter()
            .any(|f| f.rule == row.rule && f.file == row.file && !clean.contains(&key(&f)));
        if !fired {
            escaped.push(format!("{} in {}: {}", row.rule, row.file, row.bug));
        }
    }
    assert!(
        escaped.is_empty(),
        "rules that missed their seeded bug:\n  {}",
        escaped.join("\n  ")
    );
}

#[test]
fn every_rule_has_a_row() {
    for rule in RULE_IDS {
        assert!(
            MUTATIONS.iter().any(|row| row.rule == rule),
            "`{rule}` has no row in MUTATIONS: give it a seeded bug in the real tree, or delete it"
        );
    }
    for row in MUTATIONS {
        assert!(RULE_IDS.contains(&row.rule), "unknown rule `{}`", row.rule);
    }
}
