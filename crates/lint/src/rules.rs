//! The elision-safety rules: four line-local, two whole-program.
//!
//! | rule id | invariant |
//! |---------|-----------|
//! | `safety-comment` | every `unsafe` is annotated with `// SAFETY:` (or a `# Safety` doc section) within the five preceding lines |
//! | `conflicting-region-balance` | `begin_conflicting_action` / `end_conflicting_action` pair up within one function, with no `return` / `?` / `break` escaping the open region |
//! | `swopt-purity` | SWOpt (optimistic) read paths perform no writes — `store(` / `fetch_*` / `get_mut` / `lock()` — outside a conflicting-region bracket |
//! | `ordering-discipline` | `Ordering::Relaxed` is forbidden on stores and read-modify-writes (`swap`, `fetch_*`) to lock words and version/publication fields |
//! | `swopt-purity-transitive` | a SWOpt path must not *reach* a write/alloc/lock effect through any call chain (calls made inside a conflicting-region bracket are exempt) |
//! | `lock-order-cycle` | the static lock-acquisition graph (lock A held while B is acquired, directly or through calls) must be acyclic |
//!
//! SWOpt paths are the functions marked `// ale-lint: swopt`. The
//! whole-program rules run over the [`crate::callgraph::Program`] with
//! transitive lock sets from [`crate::effects`]; see DESIGN.md §7 for the
//! analysis model. Each rule catches a seeded bug in the real tree:
//! `tests/mutations.rs` holds at least one row per rule.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::callgraph::{NodeId, Program};
use crate::lexer::{match_delim, FileModel, FnExtent, Tok, TokKind};
use crate::parser::OpKind;
use crate::Finding;

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    pub model: &'a FileModel,
    pub toks: &'a [Tok],
    pub fns: &'a [FnExtent],
    /// Token-index ranges under `#[cfg(test)]`.
    pub test_ranges: &'a [(usize, usize)],
    /// True for files under a crate's `src/` (as opposed to `tests/`).
    pub is_src: bool,
}

impl FileCtx<'_> {
    fn in_test_code(&self, tok_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= tok_idx && tok_idx <= b)
    }

    fn finding(&self, rule: &'static str, line0: usize, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line: line0 + 1,
            message,
            line_content: self
                .model
                .raw
                .get(line0)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }

    /// Does any comment in `[line0 - back, line0]` contain `needle`?
    fn comment_nearby(&self, line0: usize, back: usize, needle: &str) -> bool {
        let lo = line0.saturating_sub(back);
        self.model.comments[lo..=line0.min(self.model.comments.len() - 1)]
            .iter()
            .any(|c| c.contains(needle))
    }
}

/// All rule IDs, in reporting order.
pub const RULE_IDS: [&str; 6] = [
    "safety-comment",
    "conflicting-region-balance",
    "swopt-purity",
    "ordering-discipline",
    "swopt-purity-transitive",
    "lock-order-cycle",
];

pub fn check_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(safety_comment(ctx));
    out.extend(region_balance(ctx));
    out.extend(swopt_purity(ctx));
    out.extend(ordering_discipline(ctx));
    out
}

/// `safety-comment`: each `unsafe` keyword must have a `SAFETY:` comment or
/// a `# Safety` doc section within the five preceding lines (or inline).
fn safety_comment(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for t in ctx.toks {
        if t.is_ident("unsafe") {
            let l = t.line;
            if !ctx.comment_nearby(l, 5, "SAFETY:") && !ctx.comment_nearby(l, 5, "# Safety") {
                out.push(
                    ctx.finding(
                        "safety-comment",
                        l,
                        "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                     within the five preceding lines"
                            .to_string(),
                    ),
                );
            }
        }
    }
    out
}

/// Is the token at `i` a *call* of `name` (not its `fn` definition)?
fn is_call_of(toks: &[Tok], i: usize, name: &str) -> bool {
    if !toks[i].is_ident(name) {
        return false;
    }
    if i > 0 && toks[i - 1].is_ident("fn") {
        return false;
    }
    toks.get(i + 1).is_some_and(|n| n.is_punct('('))
}

/// `conflicting-region-balance`: per function, `begin_conflicting_action`
/// and `end_conflicting_action` must pair up, and no `return` / `?` /
/// `break` may occur while a region is open.
fn region_balance(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in ctx.fns {
        let mut depth = 0i64;
        let mut open_line = 0usize;
        for i in f.body_open..=f.body_close.min(ctx.toks.len() - 1) {
            let t = &ctx.toks[i];
            if is_call_of(ctx.toks, i, "begin_conflicting_action") {
                if depth == 0 {
                    open_line = t.line;
                }
                depth += 1;
            } else if is_call_of(ctx.toks, i, "end_conflicting_action") {
                depth -= 1;
                if depth < 0 {
                    out.push(ctx.finding(
                        "conflicting-region-balance",
                        t.line,
                        format!(
                            "`end_conflicting_action` without a matching begin in `{}`",
                            f.name
                        ),
                    ));
                    depth = 0;
                }
            } else if depth > 0 {
                let escapes = t.is_ident("return")
                    || t.is_ident("break")
                    || (t.is_punct('?')
                        && !ctx.toks.get(i + 1).is_some_and(|n| n.is_ident("Sized")));
                if escapes {
                    out.push(ctx.finding(
                        "conflicting-region-balance",
                        t.line,
                        format!(
                            "`{}` escapes an open conflicting region in `{}` \
                             (the version word would stay odd forever)",
                            t.text, f.name
                        ),
                    ));
                }
            }
        }
        if depth > 0 {
            out.push(ctx.finding(
                "conflicting-region-balance",
                open_line,
                format!(
                    "`begin_conflicting_action` in `{}` has no matching \
                     `end_conflicting_action`",
                    f.name
                ),
            ));
        }
    }
    out
}

/// Functions this file treats as SWOpt (optimistic) read paths: those
/// opted in with the `swopt` marker comment (see the crate docs for the
/// exact spelling — writing it out here would mark *this* function).
fn swopt_fns<'a>(ctx: &'a FileCtx) -> impl Iterator<Item = &'a FnExtent> {
    ctx.fns
        .iter()
        .filter(|f| ctx.comment_nearby(f.sig_line, 5, "ale-lint: swopt"))
}

/// `swopt-purity`: SWOpt paths must not write shared state outside a
/// conflicting-region bracket.
fn swopt_purity(ctx: &FileCtx) -> Vec<Finding> {
    if !ctx.is_src {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in swopt_fns(ctx) {
        if ctx.in_test_code(f.body_open) {
            continue;
        }
        let mut depth = 0i64;
        for i in f.body_open..=f.body_close.min(ctx.toks.len() - 1) {
            let t = &ctx.toks[i];
            if is_call_of(ctx.toks, i, "begin_conflicting_action") {
                depth += 1;
            } else if is_call_of(ctx.toks, i, "end_conflicting_action") {
                depth = (depth - 1).max(0);
            } else if depth == 0 && t.kind == TokKind::Ident {
                let next_is_call = ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let impure = (t.text == "store" && next_is_call)
                    || t.text.starts_with("fetch_")
                    || (t.text == "get_mut" && next_is_call)
                    || (t.text == "lock"
                        && next_is_call
                        && i > 0
                        && !ctx.toks[i - 1].is_ident("fn"));
                if impure {
                    out.push(ctx.finding(
                        "swopt-purity",
                        t.line,
                        format!(
                            "SWOpt path `{}` performs a write/lock (`{}`) outside a \
                             conflicting-region bracket",
                            f.name, t.text
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Receiver names that denote lock words or version/publication fields.
fn is_publication_field(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    matches!(
        lower.as_str(),
        "meta" | "locked" | "lock" | "seq" | "ver" | "version" | "vclock" | "v"
    ) || lower.contains("vclock")
        || lower.ends_with("_lock")
        || lower.ends_with("version")
}

/// Atomic methods that write: `store`, `swap` and the `fetch_*` family. A
/// read-modify-write publishes just as a store does (the version clock is
/// only ever written by `fetch_max`), so the rule covers both.
fn is_atomic_write(method: &str) -> bool {
    method == "store" || method == "swap" || method.starts_with("fetch_")
}

/// `ordering-discipline`: no `Ordering::Relaxed` on stores or
/// read-modify-writes to lock words or version/publication fields.
/// Statistics counters (`counters.rs`) are exempt wholesale.
fn ordering_discipline(ctx: &FileCtx) -> Vec<Finding> {
    if !ctx.is_src || ctx.path.ends_with("sync/src/counters.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 1..ctx.toks.len() {
        let t = &ctx.toks[i];
        if !(t.kind == TokKind::Ident
            && is_atomic_write(&t.text)
            && ctx.toks[i - 1].is_punct('.')
            && ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        if ctx.in_test_code(i) {
            continue;
        }
        let receiver = if i >= 2 && ctx.toks[i - 2].kind == TokKind::Ident {
            ctx.toks[i - 2].text.as_str()
        } else {
            continue;
        };
        if !is_publication_field(receiver) {
            continue;
        }
        let close = match_delim(ctx.toks, i + 1, '(', ')');
        let relaxed = ctx.toks[i + 1..=close.min(ctx.toks.len() - 1)]
            .iter()
            .any(|a| a.is_ident("Relaxed"));
        if relaxed {
            out.push(ctx.finding(
                "ordering-discipline",
                t.line,
                format!(
                    "`Ordering::Relaxed` {} on publication field `{receiver}`: \
                     lock words and version fields must publish with Release (or stronger)",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Whole-program rules
// ---------------------------------------------------------------------------

/// Everything the whole-program rules need.
pub struct ProgramCtx<'a> {
    pub program: &'a Program,
    /// Transitive lock sets per node, from [`crate::effects::propagate`].
    pub locks: &'a [BTreeSet<String>],
    /// Files under a crate's `src/` — program rules only root there
    /// (reaching *into* test helpers still counts).
    pub src_files: &'a HashSet<String>,
}

/// Run the two whole-program rules. The returned findings have empty
/// `line_content` — the caller fills it from its file models (the rules
/// here only see the parsed program).
pub fn check_program(ctx: &ProgramCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(swopt_purity_transitive(ctx));
    out.extend(lock_order_cycle(ctx));
    out
}

fn program_finding(rule: &'static str, file: &str, line0: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: line0 + 1,
        message,
        line_content: String::new(),
    }
}

/// Breadth-first reachability over call edges from `root`, not following
/// calls made inside a conflicting-region bracket (the SWOpt exemption).
/// Returns the visit order (root excluded) and a parent map for
/// witness-chain reconstruction.
fn reach(p: &Program, root: NodeId) -> (Vec<NodeId>, HashMap<NodeId, NodeId>) {
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut order = Vec::new();
    let mut seen: HashSet<NodeId> = HashSet::from([root]);
    let mut q = VecDeque::from([root]);
    while let Some(id) = q.pop_front() {
        for e in &p.edges[id] {
            if p.nodes[id].ops[e.op_idx].cr_depth > 0 {
                continue;
            }
            if seen.insert(e.callee) {
                parent.insert(e.callee, id);
                order.push(e.callee);
                q.push_back(e.callee);
            }
        }
    }
    (order, parent)
}

/// `root → a → b` witness chain for a reached node.
fn chain(p: &Program, parent: &HashMap<NodeId, NodeId>, root: NodeId, node: NodeId) -> String {
    let mut names = vec![p.nodes[node].qual.clone()];
    let mut cur = node;
    while cur != root {
        cur = parent[&cur];
        names.push(p.nodes[cur].qual.clone());
    }
    names.reverse();
    names.join(" → ")
}

/// `swopt-purity-transitive`: a SWOpt root may not reach a write, lock
/// acquisition, or allocation through any call chain made outside a
/// conflicting-region bracket. Direct (chain-length-0) violations are the
/// line-local `swopt-purity` rule's job; this rule checks callees.
fn swopt_purity_transitive(ctx: &ProgramCtx) -> Vec<Finding> {
    let p = ctx.program;
    let mut out = Vec::new();
    for (root, n) in p.nodes.iter().enumerate() {
        if !n.swopt || !ctx.src_files.contains(&n.file) {
            continue;
        }
        let (order, parent) = reach(p, root);
        for id in order {
            let m = &p.nodes[id];
            let bad = m.ops.iter().find_map(|op| {
                if op.cr_depth > 0 {
                    return None;
                }
                match &op.kind {
                    OpKind::Write { key } => Some((format!("write to `{key}`"), op.line)),
                    OpKind::Acquire { lock } => {
                        Some((format!("lock acquisition on `{lock}`"), op.line))
                    }
                    OpKind::Alloc { what } => Some((format!("allocation (`{what}`)"), op.line)),
                    _ => None,
                }
            });
            if let Some((what, line)) = bad {
                out.push(program_finding(
                    "swopt-purity-transitive",
                    &n.file,
                    n.line,
                    format!(
                        "SWOpt path `{}` reaches a {what} at {}:{} via {}",
                        n.qual,
                        m.file,
                        line + 1,
                        chain(p, &parent, root, id)
                    ),
                ));
            }
        }
    }
    out
}

/// Where a lock-order edge was observed.
struct EdgeSite {
    file: String,
    line: usize,
    holder: String,
    /// Set when the inner acquisition happens transitively inside a callee.
    via: Option<String>,
}

/// `lock-order-cycle`: build the static "lock A held while B is acquired"
/// graph (direct acquisitions plus transitive lock effects at call sites)
/// and report every cycle with its exact acquisition path. Guards are
/// conservatively assumed held to the end of the function unless an
/// explicit release appears; self-edges (`A` re-acquired under `A`) are
/// skipped — distinct instances sharing a receiver name would drown the
/// signal (documented imprecision).
fn lock_order_cycle(ctx: &ProgramCtx) -> Vec<Finding> {
    let p = ctx.program;
    let mut graph: BTreeMap<String, BTreeMap<String, EdgeSite>> = BTreeMap::new();
    for (id, n) in p.nodes.iter().enumerate() {
        if !ctx.src_files.contains(&n.file) {
            continue;
        }
        let mut held: Vec<String> = Vec::new();
        for (op_idx, op) in n.ops.iter().enumerate() {
            match &op.kind {
                OpKind::Acquire { lock } => {
                    for h in &held {
                        if h != lock {
                            graph
                                .entry(h.clone())
                                .or_default()
                                .entry(lock.clone())
                                .or_insert(EdgeSite {
                                    file: n.file.clone(),
                                    line: op.line,
                                    holder: n.qual.clone(),
                                    via: None,
                                });
                        }
                    }
                    if !held.contains(lock) {
                        held.push(lock.clone());
                    }
                }
                OpKind::Release { lock } => held.retain(|h| h != lock),
                OpKind::Call { .. } if !held.is_empty() => {
                    for e in p.edges[id].iter().filter(|e| e.op_idx == op_idx) {
                        for l in &ctx.locks[e.callee] {
                            for h in &held {
                                if h != l {
                                    graph
                                        .entry(h.clone())
                                        .or_default()
                                        .entry(l.clone())
                                        .or_insert(EdgeSite {
                                            file: n.file.clone(),
                                            line: op.line,
                                            holder: n.qual.clone(),
                                            via: Some(p.nodes[e.callee].qual.clone()),
                                        });
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut out = Vec::new();
    for cycle in find_cycles(&graph) {
        let k = cycle.len();
        let path: Vec<String> = cycle
            .iter()
            .chain(cycle.first())
            .map(|l| format!("`{l}`"))
            .collect();
        let legs: Vec<String> = (0..k)
            .map(|i| {
                let site = &graph[&cycle[i]][&cycle[(i + 1) % k]];
                let via = site
                    .via
                    .as_ref()
                    .map_or_else(String::new, |v| format!(", via `{v}`"));
                format!(
                    "`{}` → `{}` at {}:{} (in `{}`{via})",
                    cycle[i],
                    cycle[(i + 1) % k],
                    site.file,
                    site.line + 1,
                    site.holder
                )
            })
            .collect();
        let first = &graph[&cycle[0]][&cycle[1 % k]];
        out.push(program_finding(
            "lock-order-cycle",
            &first.file,
            first.line,
            format!(
                "potential deadlock: lock-order cycle {}; {}",
                path.join(" → "),
                legs.join("; ")
            ),
        ));
    }
    out
}

/// Elementary cycles of the lock graph, canonicalised (lexicographically
/// smallest lock first) and deduplicated. DFS with gray-path extraction:
/// finds at least one cycle through every cyclic region, deterministically.
fn find_cycles(graph: &BTreeMap<String, BTreeMap<String, EdgeSite>>) -> Vec<Vec<String>> {
    fn visit<'a>(
        u: &'a str,
        graph: &'a BTreeMap<String, BTreeMap<String, EdgeSite>>,
        color: &mut HashMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        cycles: &mut BTreeSet<Vec<String>>,
    ) {
        color.insert(u, 1);
        stack.push(u);
        if let Some(succ) = graph.get(u) {
            for v in succ.keys() {
                match color.get(v.as_str()).copied().unwrap_or(0) {
                    0 => visit(v, graph, color, stack, cycles),
                    1 => {
                        let pos = stack.iter().position(|&s| s == v.as_str()).unwrap();
                        let cyc = &stack[pos..];
                        // Rotate so the smallest lock name leads.
                        let min = cyc
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, s)| *s)
                            .map_or(0, |(i, _)| i);
                        cycles.insert(
                            (0..cyc.len())
                                .map(|i| cyc[(min + i) % cyc.len()].to_string())
                                .collect(),
                        );
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        color.insert(u, 2);
    }

    let mut color: HashMap<&str, u8> = HashMap::new();
    let mut stack = Vec::new();
    let mut cycles = BTreeSet::new();
    for u in graph.keys() {
        if color.get(u.as_str()).copied().unwrap_or(0) == 0 {
            visit(u, graph, &mut color, &mut stack, &mut cycles);
        }
    }
    cycles.into_iter().collect()
}
