//! Property tests for the interprocedural layer (vendored proptest stub,
//! same idiom as the other crates' `tests/prop.rs`).
//!
//! Three contracts the whole-program rules lean on:
//! * the full pipeline (lex → parse → call graph → lock sets → rules)
//!   never panics, whatever bytes or token soup it is fed;
//! * lock-set propagation reaches a genuine fixed point and terminates, on
//!   arbitrary call topologies including cycles;
//! * propagation is monotone — adding call edges can only grow (never
//!   shrink) any node's lock set.

use ale_lint::callgraph::CallEdge;
use ale_lint::effects::{local_locks, propagate};
use ale_lint::Analysis;
use proptest::prelude::*;

/// Fragments that exercise every lexer state and parser path, including
/// deliberately unterminated ones.
const SOUP: [&str; 36] = [
    "fn",
    "impl",
    "unsafe",
    "for",
    "while",
    "loop",
    "match",
    "attempt",
    "f0",
    "f1",
    "helper",
    "self",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ".",
    "::",
    ";",
    ",",
    "=",
    "==",
    "!",
    "?",
    "<",
    ">",
    "\"str\"",
    "r#\"raw\"#",
    "br#\"b\"#",
    "'a'",
    "// line\n",
    "/* block */",
    "/* open",
    "\\",
];

/// A random multi-function source whose calls, locks, reads, writes, and
/// loops are drawn from a small grammar — realistic enough to build call
/// graphs with cycles, fan-out, and every op kind.
fn gen_source(fns: usize, ops: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for i in 0..fns {
        src.push_str(&format!("fn f{i}(db: &Db) {{\n"));
        for &(kind, arg) in ops.iter().filter(|&&(k, _)| k % fns == i) {
            let a = arg % fns.max(1);
            let line = match kind % 7 {
                0 => format!("    f{a}(db);\n"),
                1 => format!("    db.cell{a}.set(1);\n"),
                2 => format!("    db.cell{a}.get();\n"),
                3 => format!("    db.lock{a}.acquire();\n"),
                4 => format!("    db.lock{a}.release();\n"),
                5 => "    let v = vec![1];\n".to_string(),
                _ => format!("    for x in 0..9 {{ db.cell{a}.get(); }}\n"),
            };
            src.push_str(&line);
        }
        src.push_str("}\n");
    }
    src
}

fn analyze(src: &str) -> Analysis {
    Analysis::of_sources(vec![(
        "crates/x/src/gen.rs".to_string(),
        src.to_string(),
        true,
    )])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup: the whole pipeline terminates without
    /// panicking and produces deterministic output.
    #[test]
    fn pipeline_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let src: String = bytes.iter().map(|&b| (b % 128) as char).collect();
        let a = ale_lint::lint_source_as("crates/x/src/fuzz.rs", &src, true);
        let b = ale_lint::lint_source_as("crates/x/src/fuzz.rs", &src, true);
        prop_assert_eq!(a, b, "nondeterministic findings");
    }

    /// Arbitrary *token* soup — unterminated strings and comments,
    /// unbalanced delimiters, keywords in illegal positions — never
    /// panics either.
    #[test]
    fn pipeline_never_panics_on_token_soup(
        picks in proptest::collection::vec((0usize..SOUP.len(), any::<bool>()), 0..200),
    ) {
        let mut src = String::new();
        for (i, space) in picks {
            src.push_str(SOUP[i]);
            src.push(if space { ' ' } else { '\n' });
        }
        ale_lint::lint_source_as("crates/x/src/fuzz.rs", &src, true);
    }

    /// Propagation terminates on arbitrary topologies (cycles included)
    /// and lands on a true fixed point: every node's effects subsume its
    /// local effects and every callee's effects.
    #[test]
    fn propagation_reaches_a_fixed_point(
        fns in 1usize..8,
        ops in proptest::collection::vec((0usize..64, 0usize..64), 0..48),
    ) {
        let analysis = analyze(&gen_source(fns, &ops));
        let p = &analysis.program;
        let locks = &analysis.locks;
        for (id, node) in p.nodes.iter().enumerate() {
            prop_assert!(
                locks[id].is_superset(&local_locks(&node.ops)),
                "node {id} lost local locks"
            );
            for e in &p.edges[id] {
                prop_assert!(
                    locks[id].is_superset(&locks[e.callee]),
                    "node {id} missing callee {} locks", e.callee
                );
            }
        }
    }

    /// Monotonicity: adding a call edge can only grow lock sets.
    #[test]
    fn propagation_is_monotone_under_added_edges(
        fns in 2usize..8,
        ops in proptest::collection::vec((0usize..64, 0usize..64), 0..32),
        extra_from in 0usize..8,
        extra_to in 0usize..8,
    ) {
        let mut analysis = analyze(&gen_source(fns, &ops));
        let before = analysis.locks.clone();
        let n = analysis.program.nodes.len();
        prop_assert!(n >= 2);
        let (from, to) = (extra_from % n, extra_to % n);
        analysis.program.edges[from].push(CallEdge { op_idx: 0, callee: to });
        let after = propagate(&analysis.program);
        for id in 0..n {
            prop_assert!(
                after[id].is_superset(&before[id]),
                "locks shrank at node {id} after adding edge {from}→{to}"
            );
        }
    }
}
