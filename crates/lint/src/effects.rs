//! Transitive lock sets.
//!
//! A function's lock set is the set of lock (receiver) names it acquires,
//! directly or through any call chain. Sets join by union, which is
//! idempotent, commutative, associative and monotone. [`propagate`]
//! computes the least fixed point of `locks(n) = local(n) ∪ ⋃ {locks(c) |
//! n calls c}` with a worklist; the lattice is finite (names are drawn from
//! the program text), so termination is guaranteed, recursion and cycles
//! included. `lock-order-cycle` reads it at call sites made while a lock is
//! held.

use std::collections::BTreeSet;

use crate::callgraph::Program;
use crate::parser::{Op, OpKind};

/// The locks an op list acquires directly (no call propagation).
#[must_use]
pub fn local_locks(ops: &[Op]) -> BTreeSet<String> {
    ops.iter()
        .filter_map(|op| match &op.kind {
            OpKind::Acquire { lock } => Some(lock.clone()),
            _ => None,
        })
        .collect()
}

/// Transitive lock sets for every node: the least fixed point of local
/// locks joined over all resolved callees.
#[must_use]
pub fn propagate(program: &Program) -> Vec<BTreeSet<String>> {
    let n = program.nodes.len();
    let mut locks: Vec<BTreeSet<String>> = program
        .nodes
        .iter()
        .map(|node| local_locks(&node.ops))
        .collect();
    let callers = program.callers();
    // Worklist seeded with every node; when a node's set grows, its callers
    // are revisited. Each join is monotone over a finite lattice, so the
    // list drains.
    let mut queue: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(id) = queue.pop() {
        queued[id] = false;
        let mut grew = false;
        for e in &program.edges[id] {
            let new: Vec<String> = locks[e.callee].difference(&locks[id]).cloned().collect();
            grew |= !new.is_empty();
            locks[id].extend(new);
        }
        if grew {
            for &caller in &callers[id] {
                if !queued[caller] {
                    queued[caller] = true;
                    queue.push(caller);
                }
            }
        }
    }
    locks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Program;
    use crate::lexer;
    use crate::parser;

    fn program(src: &str) -> Program {
        let model = lexer::analyze(src);
        let toks = lexer::tokens(&model);
        let fns = lexer::functions(&toks);
        let ranges = lexer::cfg_test_ranges(&toks);
        Program::build(&[(
            "a.rs".to_string(),
            parser::parse_file(&model, &toks, &fns, &ranges),
        )])
    }

    fn locks_of<'a>(
        p: &Program,
        locks: &'a [BTreeSet<String>],
        name: &str,
    ) -> &'a BTreeSet<String> {
        &locks[p.nodes.iter().position(|n| n.name == name).unwrap()]
    }

    #[test]
    fn locks_propagate_through_chains() {
        let p = program(
            "
fn top() { mid(); }
fn mid() { bottom(); }
fn bottom(m: &M) { m.lock(); }
",
        );
        let locks = propagate(&p);
        assert!(locks_of(&p, &locks, "top").contains("m"));
    }

    #[test]
    fn recursion_terminates_and_is_sound() {
        let p = program(
            "
fn ping(c: &C) { c.mlock.acquire(); pong(); }
fn pong(c: &C) { c.slot.acquire(); ping(); }
",
        );
        let locks = propagate(&p);
        for name in ["ping", "pong"] {
            let l = locks_of(&p, &locks, name);
            assert!(l.contains("mlock") && l.contains("slot"), "{name}: {l:?}");
        }
    }
}
