//! The SWOpt grouping mechanism and the `COULD_SWOPT_BE_RUNNING` indicator
//! (§3.3, §4.2).
//!
//! Two per-lock facilities live here:
//!
//! 1. **Retry grouping.** A SWOpt path only fails when a critical section
//!    under the same lock runs a *conflicting region* in HTM or Lock mode.
//!    So when SWOpt executions are retrying (tracked by a [`Snzi`]),
//!    executions that could conflict defer until the indicator clears —
//!    letting all SWOpt retries complete in parallel. The Y retry budget
//!    stays large only as a livelock backstop; with grouping, SWOpt
//!    "always succeeds with much fewer than Y attempts" (§4.2).
//!
//! 2. **Active-SWOpt indicator.** `COULD_SWOPT_BE_RUNNING` lets HTM-mode
//!    executions skip the version bump for their conflicting regions when
//!    no SWOpt path can be running, avoiding needless HTM-vs-HTM conflicts
//!    on the version word (§3.3). Soundness requires more than a
//!    conservative hint here: the indicator is a set of **striped
//!    [`HtmCell`]s** that the transaction reads *transactionally* —
//!    a SWOpt path starting after the check invalidates the transaction,
//!    which then re-executes and sees the indicator set. (Lock-mode
//!    executions cannot subscribe, so they never elide; the driver's
//!    `could_swopt_be_running` answers `true` in Lock mode.)

use ale_htm::HtmCell;
use ale_sync::{Backoff, CachePadded, Snzi, SnziGuard};
use ale_vtime::tick;

/// Default stripes for the active-SWOpt indicator (used by
/// [`Grouping::new`]; ALE sizes it per platform via
/// [`Grouping::with_stripes`]). SWOpt executions CAS their stripe twice
/// per execution, so wide machines need many stripes (4 measurably cap
/// T2-2's 128 threads); HTM elision checks scan *all* stripes, so narrow
/// machines want few.
const DEFAULT_ACTIVE_STRIPES: usize = 8;

/// SNZI depth for the retry indicator.
const RETRY_SNZI_LEVELS: u32 = 3;

/// Per-lock grouping state.
pub struct Grouping {
    retry_snzi: Snzi,
    /// One stripe per cache line: every SWOpt execution CASes its stripe
    /// twice, and `stripe_hint` hands neighbouring threads neighbouring
    /// stripes.
    active: Vec<CachePadded<HtmCell<u64>>>,
}

impl Default for Grouping {
    fn default() -> Self {
        Self::new()
    }
}

impl Grouping {
    pub fn new() -> Self {
        Self::with_stripes(DEFAULT_ACTIVE_STRIPES)
    }

    /// A grouping whose active-SWOpt indicator has `stripes` cells
    /// (rounded up to 1). ALE passes ~`logical_threads / 8`, clamped to
    /// 4..=16, trading registration contention against elision-scan cost.
    pub fn with_stripes(stripes: usize) -> Self {
        Grouping {
            retry_snzi: Snzi::new(RETRY_SNZI_LEVELS),
            active: (0..stripes.max(1))
                .map(|_| CachePadded::new(HtmCell::new(0)))
                .collect(),
        }
    }

    fn stripe(&self) -> &HtmCell<u64> {
        &self.active[ale_vtime::stripe_hint() % self.active.len()]
    }

    /// Mark this thread as executing a SWOpt attempt. Must be held across
    /// all attempts of one execution; drops cleanly on unwind.
    pub fn swopt_active(&self) -> ActiveGuard<'_> {
        let cell = self.stripe();
        loop {
            let v = cell.get();
            if cell.compare_exchange(v, v + 1).is_ok() {
                break;
            }
        }
        ActiveGuard { cell }
    }

    /// Register this SWOpt execution as *retrying* (it detected
    /// interference at least once). Conflicting executions defer while any
    /// of these are outstanding.
    pub fn swopt_retrying(&self) -> SnziGuard<'_> {
        self.retry_snzi.arrive()
    }

    /// Are any SWOpt executions currently retrying?
    pub fn has_retrying_swopt(&self) -> bool {
        self.retry_snzi.query()
    }

    /// Defer until no SWOpt execution is retrying (called before HTM/Lock
    /// mode attempts of critical sections with conflicting regions).
    ///
    /// The poll granularity stays fine (small backoff cap): retries last
    /// about one optimistic read, so a coarse exponential wait would make
    /// deferring executions oversleep far past the point the indicator
    /// clears, wiping out the grouping win.
    pub fn wait_for_swopt_retries(&self) {
        let mut backoff = Backoff::with_max_exp(2);
        while self.retry_snzi.query() {
            backoff.spin();
        }
    }

    /// The `COULD_SWOPT_BE_RUNNING` read. Inside a hardware transaction
    /// every stripe read is tracked, making bump-elision sound (see module
    /// docs); outside it is a consistent snapshot-free scan (conservative).
    pub fn could_swopt_be_running(&self) -> bool {
        for cell in &self.active {
            tick(ale_vtime::Event::SharedLoad);
            if cell.get() != 0 {
                return true;
            }
        }
        false
    }
}

impl std::fmt::Debug for Grouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grouping")
            .field("retrying", &self.has_retrying_swopt())
            .field("could_swopt_be_running", &self.could_swopt_be_running())
            .finish()
    }
}

/// RAII guard for one thread's active-SWOpt registration.
pub struct ActiveGuard<'a> {
    cell: &'a HtmCell<u64>,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        loop {
            let v = self.cell.get();
            debug_assert!(v > 0, "active-SWOpt stripe underflow");
            if self.cell.compare_exchange(v, v - 1).is_ok() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_indicator_tracks_guards() {
        let g = Grouping::new();
        assert!(!g.could_swopt_be_running());
        let a = g.swopt_active();
        assert!(g.could_swopt_be_running());
        let b = g.swopt_active();
        drop(a);
        assert!(g.could_swopt_be_running());
        drop(b);
        assert!(!g.could_swopt_be_running());
    }

    #[test]
    fn retry_indicator_and_wait() {
        let g = Grouping::new();
        assert!(!g.has_retrying_swopt());
        let r = g.swopt_retrying();
        assert!(g.has_retrying_swopt());
        drop(r);
        assert!(!g.has_retrying_swopt());
        g.wait_for_swopt_retries(); // must not block when clear
    }

    #[test]
    fn transaction_subscribes_to_active_indicator() {
        use ale_htm::{attempt, AbortCode};
        use ale_vtime::{Platform, Rng};
        let g = Grouping::new();
        let p = Platform::testbed().htm.unwrap();
        let mut rng = Rng::new(4);
        // Tx checks the indicator (clear), then a SWOpt execution starts on
        // another thread; the tx must abort rather than commit an elision
        // decision that the new SWOpt reader contradicts.
        let r: Result<bool, _> = attempt(&p, &mut rng, || {
            let clear = !g.could_swopt_be_running();
            assert!(clear);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let guard = g.swopt_active();
                    std::mem::forget(guard); // stays active past the scope
                });
            });
            g.could_swopt_be_running()
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert!(g.could_swopt_be_running());
    }

    #[test]
    fn waiters_proceed_after_retries_finish() {
        use ale_vtime::{Platform, Sim};
        use std::sync::atomic::{AtomicU64, Ordering};
        let g = Grouping::new();
        let order = AtomicU64::new(0);
        Sim::new(Platform::testbed(), 2).run(|lane| {
            if lane.id() == 0 {
                let _r = g.swopt_retrying();
                ale_vtime::tick(ale_vtime::Event::LocalWork(10_000));
                order
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .ok();
            } else {
                ale_vtime::tick(ale_vtime::Event::LocalWork(500));
                g.wait_for_swopt_retries();
                order
                    .compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst)
                    .ok();
            }
        });
        assert_eq!(
            order.load(Ordering::SeqCst),
            1,
            "the conflicting execution must defer to the retrying SWOpt"
        );
    }

    #[test]
    fn stripes_absorb_concurrent_activity() {
        let g = Grouping::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..1000 {
                        let guard = g.swopt_active();
                        std::hint::black_box(&guard);
                    }
                });
            }
        });
        assert!(!g.could_swopt_be_running(), "all guards dropped");
    }
}
