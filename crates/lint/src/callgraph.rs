//! The workspace call graph.
//!
//! Nodes are parsed function items; edges are resolved call operations. Resolution is name-based (see [`crate::parser::CallQual`]):
//!
//! * `Type::name(..)` resolves only against `impl Type` methods;
//! * `name(..)` / `module::name(..)` resolve same-file first, then by
//!   bare name workspace-wide;
//! * `.name(..)` resolves like a bare call but was already filtered at
//!   parse time against the std-collision deny list.
//!
//! Unresolvable calls (std, vendored crates) simply have no edge — their
//! known writes, locks and allocations were recorded as ops at the call
//! site. When a
//! name is ambiguous the call links to *every* candidate: effects are
//! joined over all of them, which errs conservative.

use std::collections::HashMap;

use crate::parser::{CallQual, Op, OpKind, PFn};

pub type NodeId = usize;

/// One call-graph node: a function.
#[derive(Debug, Clone)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Bare name (resolution key).
    pub name: String,
    /// Qualified display name (`Type::name` where known).
    pub qual: String,
    /// 0-based line of the signature.
    pub line: usize,
    pub swopt: bool,
    pub ops: Vec<Op>,
}

/// A resolved call edge: `ops[op_idx]` in the caller targets `callee`.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    pub op_idx: usize,
    pub callee: NodeId,
}

/// The assembled whole-program view.
#[derive(Debug, Default)]
pub struct Program {
    pub nodes: Vec<Node>,
    /// Outgoing resolved edges per node, in op order.
    pub edges: Vec<Vec<CallEdge>>,
}

impl Program {
    /// Assemble a program from per-file parses. Test-gated functions are
    /// excluded wholesale: they neither define nor receive edges.
    #[must_use]
    pub fn build(files: &[(String, Vec<PFn>)]) -> Program {
        let mut p = Program::default();
        // (file index kept alongside each node for same-file resolution)
        let mut file_of: Vec<usize> = Vec::new();
        for (fi, (path, parsed)) in files.iter().enumerate() {
            for f in parsed.iter().filter(|f| !f.is_test) {
                p.nodes.push(Node {
                    file: path.clone(),
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    line: f.sig_line,
                    swopt: f.swopt,
                    ops: f.ops.clone(),
                });
                file_of.push(fi);
            }
        }

        // Name indexes.
        let mut by_name: HashMap<&str, Vec<NodeId>> = HashMap::new();
        let mut by_qual: HashMap<&str, Vec<NodeId>> = HashMap::new();
        let mut by_file_name: HashMap<(usize, &str), Vec<NodeId>> = HashMap::new();
        for (id, n) in p.nodes.iter().enumerate() {
            by_name.entry(&n.name).or_default().push(id);
            by_qual.entry(&n.qual).or_default().push(id);
            by_file_name
                .entry((file_of[id], &n.name))
                .or_default()
                .push(id);
        }

        let mut all_edges: Vec<Vec<CallEdge>> = Vec::with_capacity(p.nodes.len());
        for (id, n) in p.nodes.iter().enumerate() {
            let mut out: Vec<CallEdge> = Vec::new();
            for (op_idx, op) in n.ops.iter().enumerate() {
                let OpKind::Call { callee, qual } = &op.kind else {
                    continue;
                };
                let targets: Option<&Vec<NodeId>> = match qual {
                    CallQual::Typed(ty) => by_qual.get(format!("{ty}::{callee}").as_str()),
                    CallQual::Bare | CallQual::Method => by_file_name
                        .get(&(file_of[id], callee.as_str()))
                        .or_else(|| by_name.get(callee.as_str())),
                };
                if let Some(targets) = targets {
                    out.extend(targets.iter().map(|&callee| CallEdge { op_idx, callee }));
                }
            }
            all_edges.push(out);
        }
        p.edges = all_edges;
        p
    }

    /// Callers of each node (reverse adjacency), for fixed-point worklists.
    #[must_use]
    pub fn callers(&self) -> Vec<Vec<NodeId>> {
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (caller, edges) in self.edges.iter().enumerate() {
            for e in edges {
                rev[e.callee].push(caller);
            }
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    fn program(files: &[(&str, &str)]) -> Program {
        let parsed: Vec<(String, Vec<PFn>)> = files
            .iter()
            .map(|(path, src)| {
                let model = lexer::analyze(src);
                let toks = lexer::tokens(&model);
                let fns = lexer::functions(&toks);
                let ranges = lexer::cfg_test_ranges(&toks);
                (
                    (*path).to_string(),
                    parser::parse_file(&model, &toks, &fns, &ranges),
                )
            })
            .collect();
        Program::build(&parsed)
    }

    fn node_id(p: &Program, name: &str) -> NodeId {
        p.nodes.iter().position(|n| n.name == name).unwrap()
    }

    #[test]
    fn cross_file_bare_calls_resolve() {
        let p = program(&[
            ("a.rs", "fn caller() { helper(); }"),
            ("b.rs", "fn helper() { other_thing(); }"),
        ]);
        let caller = node_id(&p, "caller");
        let helper = node_id(&p, "helper");
        assert!(p.edges[caller].iter().any(|e| e.callee == helper));
        assert!(p.edges[helper].is_empty(), "unresolvable call has no edge");
    }

    #[test]
    fn same_file_resolution_wins_over_global() {
        let p = program(&[
            ("a.rs", "fn helper() {}\nfn caller() { helper(); }"),
            ("b.rs", "fn helper() {}"),
        ]);
        let caller = node_id(&p, "caller");
        assert_eq!(p.edges[caller].len(), 1);
        assert_eq!(p.nodes[p.edges[caller][0].callee].file, "a.rs");
    }

    #[test]
    fn typed_calls_resolve_only_against_matching_impl() {
        let p = program(&[(
            "a.rs",
            "impl Foo { fn make() {} }\nfn caller() { let x = Foo::make(); let v = Vec::make(); }",
        )]);
        let caller = node_id(&p, "caller");
        assert_eq!(p.edges[caller].len(), 1, "Vec::make must not resolve");
        assert_eq!(p.nodes[p.edges[caller][0].callee].qual, "Foo::make");
    }

    #[test]
    fn test_fns_are_invisible() {
        let p = program(&[(
            "a.rs",
            "fn caller() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )]);
        let caller = node_id(&p, "caller");
        assert!(p.edges[caller].is_empty());
        assert_eq!(p.nodes.len(), 1);
    }
}
