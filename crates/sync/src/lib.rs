//! # ale-sync — synchronisation substrates for the ALE reproduction
//!
//! Everything the ALE library (SPAA 2014) builds on, implemented from
//! scratch per the paper and its cited references:
//!
//! * [`RawLock`]/[`RawRwLock`] — the lock interface ALE elides. Lock state
//!   lives in [`HtmCell`](ale_htm::HtmCell)s so that a transaction checking
//!   `is_locked()` *subscribes* to the lock word: any Lock-mode acquisition
//!   invalidates concurrently-running transactions (the TLE soundness
//!   requirement).
//! * [`SpinLock`] — the test-and-test-and-set lock every table uses.
//! * [`RwLock`] — a writer-preference readers-writer lock with try-variants
//!   (Kyoto Cabinet's locking structure; Courtois et al. [2]).
//! * [`SeqLock`]/[`SeqVersion`] — sequence locks [1, 9] and the paper's
//!   enhanced variant: explicit `begin/end_conflicting_action` bracketing
//!   so SWOpt readers only retry when a *conflicting region* runs, not for
//!   whole critical sections.
//! * [`Snzi`] — scalable non-zero indicator (Ellen et al., PODC 2007 [6]),
//!   used by the adaptive policy's grouping mechanism.
//! * [`StatCounter`] — the BFP probabilistic statistics counter
//!   (Dice, Lev, Moir, SPAA 2013 [4]).
//! * [`SampledTime`] — sampled (~3 %) timing statistics with CAS updates
//!   and exponential backoff (§4.3 of the paper).
//!
//! All spin paths charge virtual time through [`ale_vtime::tick`], so the
//! same code runs on real threads and under the deterministic simulator.

pub mod backoff;
pub mod chaos;
pub mod counters;
pub mod mutex;
pub mod padded;
pub mod raw_lock;
pub mod reorder;
pub mod rwlock;
pub mod seqlock;
pub mod snzi;
pub mod spinlock;
pub mod timing;
pub mod watchdog;

pub use backoff::Backoff;
pub use counters::{fold_draw, StatCounter};
pub use mutex::{TickMutex, TickMutexGuard};
pub use padded::CachePadded;
pub use raw_lock::{RawLock, RawRwLock};
pub use rwlock::RwLock;
pub use seqlock::{close_open_regions, open_region_count, SeqBuffer, SeqLock, SeqVersion};
pub use snzi::{Snzi, SnziGuard};
pub use spinlock::SpinLock;
pub use timing::SampledTime;
pub use watchdog::{clear_stall_observer, set_park_thresholds, set_stall_observer, StallEvent};
