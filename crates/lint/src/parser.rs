//! A lightweight item parser on top of the [`crate::lexer`] token stream.
//!
//! The whole-program rules need more structure than per-line token scans:
//! which functions exist (and under which `impl`), what each function
//! *does* — calls, lock acquisitions/releases, shared-state writes,
//! allocations — and whether each operation happens inside a
//! `begin/end_conflicting_action` bracket. This module extracts exactly
//! that, per file; the [`crate::callgraph`] module stitches files into a
//! program.
//!
//! This is deliberately *not* a Rust parser: resolution is name-based and
//! syntactic, conservative in the same way the line-local rules are. The
//! known imprecision is documented in DESIGN.md §7.

use crate::lexer::{match_delim, FileModel, FnExtent, Tok, TokKind};

/// One operation extracted from a function body, in source order.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// 0-based source line.
    pub line: usize,
    /// `begin/end_conflicting_action` bracket depth at this op.
    pub cr_depth: u32,
}

/// How a call names its target, which decides resolution strategy (see
/// [`crate::callgraph`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallQual {
    /// `name(..)` or `module::name(..)`: resolved by bare name.
    Bare,
    /// `.name(..)`: resolved by bare name, most conservatively (subject to
    /// the std-collision deny list).
    Method,
    /// `Type::name(..)`: resolved only against `impl Type` methods, so
    /// `Vec::new(..)` never links to an unrelated workspace `new`.
    Typed(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// A call that may resolve to a workspace function.
    Call { callee: String, qual: CallQual },
    /// A lock acquisition on the receiver named `lock`.
    Acquire { lock: String },
    /// A lock release on the receiver named `lock`.
    Release { lock: String },
    /// A shared-state write (`.store(`, `fetch_*`, `.set(`, `.get_mut(`)
    /// through the receiver named `key`.
    Write { key: String },
    /// A heap allocation (`Box::new`, `vec![..]`, `.push(..)`, …); `what`
    /// is the offending token text, for diagnostics.
    Alloc { what: String },
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct PFn {
    /// Bare name (resolution key).
    pub name: String,
    /// Display name: `Type::name` when inside an `impl Type`, else `name`.
    pub qual: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Inside `#[cfg(test)]`: excluded from resolution and from rules.
    pub is_test: bool,
    /// Marked `// ale-lint: swopt`: a root for the transitive SWOpt purity
    /// rule.
    pub swopt: bool,
    pub ops: Vec<Op>,
}

/// Method names that acquire a lock when called on a receiver.
const LOCK_ACQUIRE: [&str; 10] = [
    "lock",
    "acquire",
    "acquire_shared",
    "acquire_excl",
    "try_acquire",
    "try_acquire_shared",
    "try_acquire_excl",
    "try_acquire_for",
    "try_acquire_shared_for",
    "try_acquire_excl_for",
];

/// Method names that release a lock on a receiver.
const LOCK_RELEASE: [&str; 4] = ["unlock", "release", "release_shared", "release_excl"];

/// Macro names (followed by `!`) that allocate.
fn macro_allocates(name: &str) -> bool {
    matches!(name, "vec" | "format")
}

/// Method names (preceded by `.`) that allocate.
fn method_allocates(name: &str) -> bool {
    matches!(
        name,
        "push" | "to_string" | "to_vec" | "to_owned" | "reserve" | "collect"
    )
}

/// Method names whose *call alone* never links into the workspace call
/// graph: they collide with std/container methods, so a name match would
/// wire unrelated code together (e.g. every `HashMap::get` call in the
/// standard library sense linking to `AleHashMap::get`). Their writes,
/// locks and allocations are still recorded as ops.
const METHOD_LINK_DENY: [&str; 38] = [
    "get",
    "set",
    "load",
    "store",
    "lock",
    "push",
    "insert",
    "remove",
    "len",
    "is_empty",
    "new",
    "clone",
    "next",
    "iter",
    "read",
    "write",
    "contains",
    "free",
    "alloc",
    "node",
    "drain",
    "run",
    "report",
    "name",
    "min",
    "max",
    "abs",
    "swap",
    "take",
    "get_mut",
    "unwrap",
    "expect",
    "with",
    "borrow",
    "borrow_mut",
    "kind",
    "collect",
    "count",
];

/// Names that are never calls into the program: control keywords, common
/// std free functions, bracket markers, the HTM engine entry (its closure
/// is scanned in place, as part of the enclosing function), and the
/// instrumentation hooks. `tick(..)` is the `ale-vtime` time-accounting
/// hook — every sync primitive charges virtual time through it, so linking
/// it would thread the *scheduler's* locks into every analyzed path; like
/// `trace::emit(..)`, it is exempt by construction (simulation substrate,
/// not modeled algorithm).
fn is_noncall(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "drop"
            | "Some"
            | "Ok"
            | "Err"
            | "begin_conflicting_action"
            | "end_conflicting_action"
            | "attempt"
            | "emit"
            | "tick"
    )
}

/// Parse one file's functions. `fns` and `test_ranges` come from the lexer
/// ([`crate::lexer::functions`] / [`crate::lexer::cfg_test_ranges`]).
pub fn parse_file(
    model: &FileModel,
    toks: &[Tok],
    fns: &[FnExtent],
    test_ranges: &[(usize, usize)],
) -> Vec<PFn> {
    let impl_types = impl_type_by_token(toks);
    let marked_swopt = |line0: usize| -> bool {
        let lo = line0.saturating_sub(5);
        model.comments[lo..=line0.min(model.comments.len().saturating_sub(1))]
            .iter()
            .any(|c| c.contains("ale-lint: swopt"))
    };

    let mut out = Vec::with_capacity(fns.len());
    for (fi, f) in fns.iter().enumerate() {
        // Token spans of *nested* fn items, excluded from this fn's ops.
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .enumerate()
            .filter(|&(gi, g)| gi != fi && g.body_open > f.body_open && g.body_close < f.body_close)
            .map(|(_, g)| (g.body_open, g.body_close))
            .collect();
        let is_test = test_ranges
            .iter()
            .any(|&(a, b)| a <= f.body_open && f.body_open <= b);
        let qual = impl_types
            .iter()
            .rev()
            .find(|&&(a, b, _)| a <= f.body_open && f.body_close <= b)
            .map_or_else(|| f.name.clone(), |(_, _, ty)| format!("{ty}::{}", f.name));
        out.push(PFn {
            name: f.name.clone(),
            qual,
            sig_line: f.sig_line,
            is_test,
            swopt: marked_swopt(f.sig_line),
            ops: scan_ops(toks, f.body_open, f.body_close, &nested),
        });
    }
    out
}

/// `(body_open, body_close, type name)` for every `impl` block, used to
/// qualify method display names.
fn impl_type_by_token(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // An `impl` *item* starts after an item boundary; `impl Trait` in
        // type position (`f: impl FnOnce() -> R`) follows `(`/`,`/`:`/…
        // and must not be mistaken for a block.
        let item_position = i == 0
            || toks[i - 1].is_punct('}')
            || toks[i - 1].is_punct('{')
            || toks[i - 1].is_punct(';')
            || toks[i - 1].is_punct(']')
            || toks[i - 1].is_ident("unsafe");
        if toks[i].is_ident("impl") && item_position {
            // Skip the generic-parameter list (`impl<K, V, S> …`), if any.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                let mut depth = 0i64;
                while j < toks.len() {
                    if toks[j].is_punct('<') {
                        depth += 1;
                    } else if toks[j].is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // The head ident names the trait-or-type; a later `for`
            // re-points at the implemented type. The type's own generic
            // arguments trail the head ident, so the first (last path
            // segment of the) head is the right name.
            let mut ty: Option<String> = None;
            let mut want_head = true;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                if toks[j].is_ident("for") {
                    want_head = true;
                } else if toks[j].is_ident("where") {
                    want_head = false;
                } else if want_head && toks[j].kind == TokKind::Ident {
                    ty = Some(toks[j].text.clone());
                    // Stay on the head through `path::segments`.
                    want_head = toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(j + 2).is_some_and(|t| t.is_punct(':'));
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let close = match_delim(toks, j, '{', '}');
                if let Some(ty) = ty {
                    out.push((j, close, ty));
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Walk back from the token *before* a `.` at `dot_idx` to find the
/// receiver's innermost field/base name, skipping index and call suffixes:
/// `self.slot_locks[si].acquire` → `slot_locks`; `registry().lock` →
/// `registry`; `*ret_val` → `ret_val`.
fn receiver_name(toks: &[Tok], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx.checked_sub(1)?;
    loop {
        let t = &toks[j];
        if t.is_punct(']') || t.is_punct(')') {
            // Skip to the matching opener.
            let (open, close) = if t.is_punct(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut depth = 0i64;
            loop {
                if toks[j].is_punct(close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
        } else if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        } else {
            return None;
        }
    }
}

/// After an ident at `i`, skip a turbofish (`::<..>`) if present and return
/// the index of the would-be `(`.
fn after_turbofish(toks: &[Tok], i: usize) -> usize {
    if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i64;
        for (j, t) in toks.iter().enumerate().skip(i + 3) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
    }
    i + 1
}

/// Scan `[start, end]` (token indices) into an op list, skipping the
/// `skip` spans (nested fn items).
fn scan_ops(toks: &[Tok], start: usize, end: usize, skip: &[(usize, usize)]) -> Vec<Op> {
    let mut ops = Vec::new();
    let end = end.min(toks.len().saturating_sub(1));
    let mut cr_depth: u32 = 0;
    let mut i = start;
    while i <= end {
        if let Some(&(_, close)) = skip.iter().find(|&&(a, b)| a <= i && i <= b) {
            i = close + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let line = t.line;
        macro_rules! push {
            ($kind:expr) => {
                ops.push(Op {
                    kind: $kind,
                    line,
                    cr_depth,
                })
            };
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let call_paren = after_turbofish(toks, i);
        let is_called = toks.get(call_paren).is_some_and(|n| n.is_punct('('));
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        let name = t.text.as_str();

        // `trace::emit(..)` / `ale_trace::emit(..)` spans are exempt from
        // every analysis (a branch plus thread-local stores by
        // construction): skip them wholesale.
        if (t.is_ident("trace") || t.is_ident("ale_trace"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("emit"))
            && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
        {
            i = match_delim(toks, i + 4, '(', ')') + 1;
            continue;
        }

        // Conflicting-region brackets adjust depth; they are not calls.
        if is_called && !is_def && name == "begin_conflicting_action" {
            cr_depth += 1;
            i += 1;
            continue;
        }
        if is_called && !is_def && name == "end_conflicting_action" {
            cr_depth = cr_depth.saturating_sub(1);
            i += 1;
            continue;
        }

        // `Box::new` and friends: path-form allocation.
        if (name == "Box" || name == "Rc" || name == "Arc" || name == "String")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|n| n.is_ident("new") || n.is_ident("from"))
        {
            push!(OpKind::Alloc {
                what: format!("{name}::{}", toks[i + 3].text),
            });
            i += 4;
            continue;
        }

        // Macros: `name!(..)`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            if macro_allocates(name) {
                push!(OpKind::Alloc {
                    what: format!("{name}!"),
                });
            }
            i += 2;
            continue;
        }

        if is_called && !is_def {
            if prev_dot {
                let recv = receiver_name(toks, i - 1).unwrap_or_else(|| "?".into());
                if LOCK_ACQUIRE.contains(&name) {
                    push!(OpKind::Acquire { lock: recv });
                } else if LOCK_RELEASE.contains(&name) {
                    push!(OpKind::Release { lock: recv });
                } else if matches!(name, "set" | "store" | "get_mut") || name.starts_with("fetch_")
                {
                    push!(OpKind::Write { key: recv });
                }
                if method_allocates(name) {
                    push!(OpKind::Alloc {
                        what: format!(".{name}("),
                    });
                }
                if !METHOD_LINK_DENY.contains(&name) && !is_noncall(name) {
                    push!(OpKind::Call {
                        callee: name.to_string(),
                        qual: CallQual::Method,
                    });
                }
            } else {
                if name == "with_capacity" {
                    push!(OpKind::Alloc {
                        what: "with_capacity(".into(),
                    });
                }
                if !is_noncall(name) {
                    // `Qual::name(..)`: an uppercase qualifier is a type
                    // (resolved strictly against `impl Qual`); a lowercase
                    // one is a module path (resolved by bare name, like an
                    // unqualified call, minus the std-collision deny list).
                    let path_qual = (i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks[i - 3].kind == TokKind::Ident)
                        .then(|| toks[i - 3].text.clone());
                    let qual = match path_qual {
                        Some(q)
                            if q != "self"
                                && q != "Self"
                                && q.starts_with(|c: char| c.is_ascii_uppercase()) =>
                        {
                            Some(CallQual::Typed(q))
                        }
                        Some(_) if METHOD_LINK_DENY.contains(&name) => None,
                        _ => Some(CallQual::Bare),
                    };
                    if let Some(qual) = qual {
                        push!(OpKind::Call {
                            callee: name.to_string(),
                            qual,
                        });
                    }
                }
            }
        }
        i += 1;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> Vec<PFn> {
        let model = lexer::analyze(src);
        let toks = lexer::tokens(&model);
        let fns = lexer::functions(&toks);
        let ranges = lexer::cfg_test_ranges(&toks);
        parse_file(&model, &toks, &fns, &ranges)
    }

    #[test]
    fn calls_locks_and_writes_are_extracted() {
        let src = "
impl Db {
    fn put(&self) {
        self.mlock.acquire_shared();
        self.slot_locks[si].acquire();
        helper(1);
        self.cell.set(5);
        self.slot_locks[si].release();
        self.mlock.release_shared();
    }
}
";
        let p = parse(src);
        assert_eq!(p.len(), 1);
        let f = &p[0];
        assert_eq!(f.qual, "Db::put");
        let kinds: Vec<&OpKind> = f.ops.iter().map(|o| &o.kind).collect();
        assert!(kinds.contains(&&OpKind::Acquire {
            lock: "mlock".into()
        }));
        assert!(kinds.contains(&&OpKind::Acquire {
            lock: "slot_locks".into()
        }));
        assert!(kinds.contains(&&OpKind::Call {
            callee: "helper".into(),
            qual: CallQual::Bare
        }));
        assert!(kinds.contains(&&OpKind::Write { key: "cell".into() }));
        assert!(kinds.contains(&&OpKind::Release {
            lock: "slot_locks".into()
        }));
    }

    #[test]
    fn bracket_depth_is_tracked() {
        let src = "
fn f(v: &SeqVersion) {
    v.begin_conflicting_action();
    self.cell.set(1);
    v.end_conflicting_action();
    self.other.set(2);
}
";
        let p = parse(src);
        let depth_of = |field: &str| {
            p[0].ops
                .iter()
                .find(|o| matches!(&o.kind, OpKind::Write { key } if key == field))
                .unwrap()
                .cr_depth
        };
        assert_eq!(depth_of("cell"), 1);
        assert_eq!(depth_of("other"), 0);
    }

    #[test]
    fn swopt_marker_and_attempt_closures() {
        let src = "
// ale-lint: swopt
fn lookup(&self) { helper(); }

// (markers look back five lines, like every ale-lint comment rule, so
// this fn needs enough distance from the marker above to stay unmarked)
//
//
//
fn outer(&self) {
    attempt(profile, rng, || {
        inner_helper();
    });
}
";
        let p = parse(src);
        assert!(p[0].swopt);
        assert!(!p[1].swopt);
        // `attempt` is no call target; its closure's ops are the host's.
        let calls: Vec<&str> = p[1]
            .ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Call { callee, .. } => Some(callee.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, ["inner_helper"]);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "fn f(&self) { self.get_impl::<true>(k, v); }";
        let p = parse(src);
        assert!(p[0]
            .ops
            .iter()
            .any(|o| matches!(&o.kind, OpKind::Call { callee, .. } if callee == "get_impl")));
    }

    #[test]
    fn trace_emit_spans_are_invisible() {
        let src = "fn f() { trace::emit(TraceEvent::mode_decision(x.unwrap(), vec![1])); }";
        let p = parse(src);
        assert!(p[0].ops.is_empty(), "{:?}", p[0].ops);
    }
}
