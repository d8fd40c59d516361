//! Per-thread nesting frames and held-lock tracking (§4.1).
//!
//! ALE-enabled critical sections must nest properly; the library keeps a
//! per-thread stack of frames recording the lock and execution mode of each
//! enclosing SWOpt or Lock *attempt*. The nesting rules implemented by the
//! driver ([`crate::cs`]) read this state and the transaction flag:
//!
//! * inside an HTM-mode execution (`ale_htm::in_txn()`), nested critical
//!   sections run inside the same hardware transaction. The HTM attempt
//!   pushes no frame and no scope, and its nested sections push none —
//!   mirroring the paper's optimisation of writing nothing extra inside
//!   transactions;
//! * a nested critical section whose lock the thread already holds skips
//!   the acquisition (Lock mode) or the lock check (HTM mode);
//! * SWOpt is ineligible while the thread is in SWOpt mode for a critical
//!   section of a *different* lock.
//!
//! The two stacks are fields of the thread's [`CsThread`] block; this
//! module holds the methods that read and write them.

use crate::mode::ExecMode;
use crate::scope::ScopeId;
use crate::thread::CsThread;

/// How a held lock was acquired (readers-writer locks distinguish the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeldKind {
    Excl,
    Shared,
}

impl CsThread {
    /// Is this thread executing in SWOpt mode for a critical section
    /// protected by a lock other than `lock_key`?
    pub(crate) fn in_swopt_for_other_lock(&self, lock_key: usize) -> bool {
        self.frames
            .borrow()
            .iter()
            .any(|&(k, m)| m == ExecMode::SwOpt && k != lock_key)
    }

    /// Current nesting depth of ALE frames on this thread.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.frames.borrow().len()
    }

    /// Run one SWOpt or Lock attempt inside its section's `scope` and
    /// under a frame recording (lock, mode), so that the sections it nests
    /// find their granules and the nesting rules. Both pop even if `f`
    /// unwinds.
    pub(crate) fn with_frame<R>(
        &self,
        scope: &'static ScopeId,
        lock_key: usize,
        mode: ExecMode,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter_scope(scope, || {
            self.frames.borrow_mut().push((lock_key, mode));
            struct PopGuard<'a>(&'a CsThread);
            impl Drop for PopGuard<'_> {
                fn drop(&mut self) {
                    self.0
                        .frames
                        .borrow_mut()
                        .pop()
                        .expect("frame stack underflow");
                }
            }
            let _guard = PopGuard(self);
            f()
        })
    }

    /// Does this thread hold `lock_key` (acquired in Lock mode)?
    pub(crate) fn held_kind(&self, lock_key: usize) -> Option<HeldKind> {
        self.held
            .borrow()
            .iter()
            .rev()
            .find(|&&(k, _)| k == lock_key)
            .map(|&(_, kind)| kind)
    }

    /// Record an acquisition. Paired with [`CsThread::note_released`]; the
    /// driver keeps the pairing even across unwinds via its own guards.
    pub(crate) fn note_acquired(&self, lock_key: usize, kind: HeldKind) {
        self.held.borrow_mut().push((lock_key, kind));
    }

    pub(crate) fn note_released(&self, lock_key: usize) {
        let top = self
            .held
            .borrow_mut()
            .pop()
            .expect("released a lock that was never acquired");
        assert_eq!(top.0, lock_key, "locks must be released in LIFO order");
    }

    /// Unwind-path variant of [`CsThread::note_released`]: never panics,
    /// because a second panic while already unwinding aborts the whole
    /// process. Removes the innermost matching hold if present and silently
    /// tolerates bookkeeping that the unwind has already torn down.
    pub(crate) fn note_released_on_unwind(&self, lock_key: usize) {
        let mut h = self.held.borrow_mut();
        if let Some(pos) = h.iter().rposition(|&(k, _)| k == lock_key) {
            h.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{scope, thread};

    #[test]
    fn frames_nest_and_carry_their_scope() {
        let root = crate::current_context();
        thread::with(|t| {
            assert_eq!(t.depth(), 0);
            t.with_frame(scope!("outer"), 1, ExecMode::Lock, || {
                assert_eq!(t.depth(), 1);
                assert_ne!(crate::current_context(), root);
                // A nested section reaches the same block through its own
                // lookup and must find no borrow live.
                thread::with(|inner| {
                    inner.with_frame(scope!("inner"), 2, ExecMode::SwOpt, || {
                        assert_eq!(inner.depth(), 2);
                        assert_eq!(crate::scope::current_context_labels(), ["outer", "inner"]);
                    })
                });
                assert_eq!(t.depth(), 1);
            });
            assert_eq!(t.depth(), 0);
        });
        assert_eq!(crate::current_context(), root);
    }

    #[test]
    fn swopt_conflict_detection_is_per_lock() {
        thread::with(|t| {
            t.with_frame(scope!("sw"), 1, ExecMode::SwOpt, || {
                assert!(!t.in_swopt_for_other_lock(1), "same lock is allowed");
                assert!(t.in_swopt_for_other_lock(2), "different lock is not");
            });
            assert!(!t.in_swopt_for_other_lock(2));
        });
    }

    #[test]
    fn held_locks_are_lifo_and_queryable() {
        thread::with(|t| {
            assert_eq!(t.held_kind(7), None);
            t.note_acquired(7, HeldKind::Excl);
            t.note_acquired(8, HeldKind::Shared);
            assert_eq!(t.held_kind(7), Some(HeldKind::Excl));
            assert_eq!(t.held_kind(8), Some(HeldKind::Shared));
            t.note_released(8);
            t.note_released(7);
            assert_eq!(t.held_kind(7), None);
        });
    }

    #[test]
    fn frame_pops_on_unwind() {
        let r = std::panic::catch_unwind(|| {
            thread::with(|t| t.with_frame(scope!("boom"), 3, ExecMode::Lock, || panic!("unwind")));
        });
        assert!(r.is_err());
        thread::with(|t| assert_eq!(t.depth(), 0));
        assert_eq!(crate::current_context(), crate::ContextId::ROOT);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_release_is_rejected() {
        thread::with(|t| {
            t.note_acquired(1, HeldKind::Excl);
            t.note_acquired(2, HeldKind::Excl);
            t.note_released(1);
        });
    }
}
