//! Scopes, contexts, and the `scope!` macro.
//!
//! Every ALE-enabled critical section defines a *scope* (§3.4). A thread's
//! *context* is the stack of scopes it is currently inside; statistics and
//! policy decisions are per *(lock, context)* pair, so the same source-level
//! critical section can adapt differently depending on where it was called
//! from. Programmers may also open explicit scopes (the paper's
//! `BEGIN_SCOPE("foo.CS1")`, here [`crate::Ale::with_scope`]) — the classic
//! use case is the C++ scoped-locking idiom, where one constructor-site
//! critical section serves many call sites — and may give one source
//! critical section different scopes on different branches
//! (`BEGIN_CS_NAMED`, here just passing a different `&'static ScopeId`).

use crate::thread::{self, CsThread};

/// A statically-declared scope. Identity is the static's address, so two
/// scopes are the same iff they are the same declaration.
#[derive(Debug)]
pub struct ScopeId {
    label: &'static str,
}

impl ScopeId {
    /// Usually written via the [`scope!`](crate::scope) macro.
    pub const fn new(label: &'static str) -> Self {
        ScopeId { label }
    }

    pub fn label(&self) -> &'static str {
        self.label
    }

    #[inline]
    pub(crate) fn key(&'static self) -> usize {
        self as *const ScopeId as usize
    }
}

/// Declare (and reference) a static [`ScopeId`] in place:
/// `lock.cs(scope!("HashMap::get"), …)`.
#[macro_export]
macro_rules! scope {
    ($label:expr) => {{
        static __ALE_SCOPE: $crate::ScopeId = $crate::ScopeId::new($label);
        &__ALE_SCOPE
    }};
}

/// A hashed identity for a full scope stack. Equal stacks hash equal; the
/// (vanishingly unlikely) collision merges two contexts' statistics, which
/// is benign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

impl ContextId {
    /// The empty context (no enclosing scopes).
    pub const ROOT: ContextId = ContextId(0xcbf2_9ce4_8422_2325);
}

/// One thread's scope stack (a field of [`CsThread`]).
pub(crate) struct ContextStack {
    /// (scope key, label, hash-of-stack-up-to-and-including-this-entry)
    entries: Vec<(usize, &'static str, u64)>,
}

impl ContextStack {
    pub(crate) const fn new() -> Self {
        ContextStack {
            entries: Vec::new(),
        }
    }

    fn top_hash(&self) -> u64 {
        self.entries
            .last()
            .map(|e| e.2)
            .unwrap_or(ContextId::ROOT.0)
    }

    /// The hash of this stack with `key` pushed on top. Folds the scope
    /// key into the hash of the stack below it with one multiply-xorshift
    /// round. Keys are addresses of statics, so the values differ from run
    /// to run anyway; only "equal stacks hash equal, different stacks
    /// almost surely differ" matters.
    #[inline]
    fn child_hash(&self, key: usize) -> u64 {
        let h = (self.top_hash() ^ key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn push(&mut self, key: usize, label: &'static str) {
        let h = self.child_hash(key);
        self.entries.push((key, label, h));
    }

    fn pop(&mut self, key: usize) {
        let top = self.entries.pop().expect("scope stack underflow");
        assert_eq!(
            top.0, key,
            "scopes must strictly nest: popped {:?}, expected {:?}",
            top.1, key
        );
    }
}

impl CsThread {
    /// Current context id.
    #[inline]
    pub(crate) fn context(&self) -> ContextId {
        ContextId(self.scopes.borrow().top_hash())
    }

    /// The context a section in `scope` runs in: this thread's context with
    /// `scope` on top, computed without pushing it.
    #[inline]
    pub(crate) fn context_in(&self, scope: &'static ScopeId) -> ContextId {
        ContextId(self.scopes.borrow().child_hash(scope.key()))
    }

    /// The labels of [`CsThread::context_in`], outermost first.
    pub(crate) fn labels_in(&self, scope: &'static ScopeId) -> Vec<&'static str> {
        let stack = self.scopes.borrow();
        let below = stack.entries.iter().map(|e| e.1);
        below.chain([scope.label()]).collect()
    }

    /// Push `scope`, run `f`, pop: the engine under explicit `with_scope`.
    /// A critical section's own scope is pushed only around a SWOpt or
    /// Lock body ([`CsThread::with_frame`]).
    pub(crate) fn enter_scope<R>(&self, scope: &'static ScopeId, f: impl FnOnce() -> R) -> R {
        let key = scope.key();
        self.scopes.borrow_mut().push(key, scope.label());
        // Pop even on unwind (HTM aborts unwind through critical sections).
        struct PopGuard<'a>(&'a CsThread, usize);
        impl Drop for PopGuard<'_> {
            fn drop(&mut self) {
                self.0.scopes.borrow_mut().pop(self.1);
            }
        }
        let _guard = PopGuard(self, key);
        f()
    }
}

/// Current context id for the calling thread.
pub fn current_context() -> ContextId {
    thread::with(CsThread::context)
}

/// The labels of the calling thread's scope stack, outermost first
/// (used to describe granules in reports).
pub fn current_context_labels() -> Vec<&'static str> {
    thread::with(|t| t.scopes.borrow().entries.iter().map(|e| e.1).collect())
}

/// [`CsThread::enter_scope`] on the calling thread's block.
pub fn enter_scope<R>(scope: &'static ScopeId, f: impl FnOnce() -> R) -> R {
    thread::with(|t| t.enter_scope(scope, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_context_is_stable() {
        assert_eq!(current_context(), ContextId::ROOT);
        assert_eq!(current_context_labels(), Vec::<&str>::new());
    }

    #[test]
    fn nesting_changes_and_restores_context() {
        let root = current_context();
        let a = enter_scope(scope!("a"), || {
            let in_a = current_context();
            assert_ne!(in_a, root);
            assert_eq!(current_context_labels(), vec!["a"]);
            let in_ab = enter_scope(scope!("b"), current_context);
            assert_ne!(in_ab, in_a);
            in_a
        });
        assert_eq!(current_context(), root, "context must restore after exit");
        // Re-entering the same scope reproduces the same context id.
        let a2 = enter_scope(scope!("a"), current_context);
        assert_ne!(
            a, a2,
            "distinct scope declarations differ even with equal labels"
        );
    }

    #[test]
    fn same_scope_same_context() {
        let s = scope!("shared");
        let c1 = enter_scope(s, current_context);
        let c2 = enter_scope(s, current_context);
        assert_eq!(c1, c2);
    }

    #[test]
    fn sibling_scopes_differ() {
        let c1 = enter_scope(scope!("x"), current_context);
        let c2 = enter_scope(scope!("y"), current_context);
        assert_ne!(c1, c2);
    }

    #[test]
    fn order_matters() {
        let sa = scope!("a");
        let sb = scope!("b");
        let ab = enter_scope(sa, || enter_scope(sb, current_context));
        let ba = enter_scope(sb, || enter_scope(sa, current_context));
        assert_ne!(ab, ba);
    }

    #[test]
    fn scope_pops_on_unwind() {
        let root = current_context();
        let r = std::panic::catch_unwind(|| {
            enter_scope(scope!("explodes"), || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current_context(), root, "unwind must restore the context");
    }

    #[test]
    fn contexts_are_per_thread() {
        let outer = enter_scope(scope!("outer"), || {
            let t = std::thread::spawn(current_context);
            (current_context(), t.join().unwrap())
        });
        assert_ne!(outer.0, outer.1);
        assert_eq!(outer.1, ContextId::ROOT);
    }
}
