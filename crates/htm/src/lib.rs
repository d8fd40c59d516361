//! # ale-htm — software-emulated best-effort hardware transactional memory
//!
//! The ALE paper's Transactional Lock Elision mode requires HTM (Rock's
//! checkpointing HTM or Intel TSX). This crate substitutes a **software
//! emulation** with the same observable interface a TLE runtime needs:
//!
//! * **Atomicity & isolation** — transactions buffer writes (TL2-style lazy
//!   versioning over a global version clock) and publish them atomically at
//!   commit, so speculative state is never visible to other threads, exactly
//!   like real HTM.
//! * **Conflict detection** — against other transactions *and* against
//!   non-transactional writes (e.g. a Lock-mode critical section storing to
//!   an [`HtmCell`], or a lock acquisition bumping the lock word a
//!   transaction has subscribed to), per cell and from the transaction's
//!   first access to it. Every transactional read is opaque: it can never
//!   observe inconsistent state; instead the transaction aborts.
//! * **No communication without conflict** — a non-transactional store and
//!   a writing commit only *load* the version clock; the one cache line
//!   every thread shares is written by snapshot extensions alone, and only
//!   when the clock is behind the version they met (see [`cell`] for the
//!   protocol and its invariants).
//! * **Best-effort failures** — per-platform read/write-set capacity limits
//!   and spurious aborts (probabilistic, deterministic under a seeded
//!   [`Rng`](ale_vtime::Rng)), with abort status codes and an Intel-style
//!   "retry may succeed" hint. See [`ale_vtime::HtmProfile`].
//!
//! Data that may be accessed transactionally lives in [`HtmCell`]s. Inside
//! a transaction (see [`attempt`]) `get`/`set` are transactional; outside,
//! they are seqlock-consistent plain accesses — which is what the paper's
//! SWOpt and Lock modes use. This mirrors real HTM, where the same loads
//! and stores are transactional or not depending on context.
//!
//! Aborts transfer control out of the transaction body by unwinding with a
//! private payload (caught in [`attempt`]), mirroring real HTM's
//! control-flow reset to the abort handler. User code never observes the
//! unwind.
//!
//! ## Example
//!
//! ```
//! use ale_htm::{attempt, HtmCell};
//! use ale_vtime::{Platform, Rng};
//!
//! let profile = Platform::haswell().htm.unwrap();
//! let mut rng = Rng::new(1);
//! let a = HtmCell::new(1u64);
//! let b = HtmCell::new(2u64);
//! // Swap a and b atomically.
//! let r = attempt(&profile, &mut rng, || {
//!     let (x, y) = (a.get(), b.get());
//!     a.set(y);
//!     b.set(x);
//! });
//! assert!(r.is_ok());
//! assert_eq!((a.get(), b.get()), (2, 1));
//! ```

pub mod abort;
pub mod besteffort;
pub mod cell;
pub mod inject;
pub mod storm;
pub mod txn;

pub use abort::{AbortCode, AbortStatus};
pub use cell::HtmCell;
pub use inject::{
    mutated, CrashPlan, CrashPoint, InjectKind, InjectPlan, InjectPoint, InjectRule, InjectedCrash,
    InjectedPanic, Mutation, TornMode,
};
pub use storm::{htm_supported, BreakerConfig, BreakerState, BreakerTransition, StormBreaker};
pub use txn::{
    attempt, attempt_seeded, explicit_abort, in_txn, init_panic_hook, read_set_len, write_set_len,
};
