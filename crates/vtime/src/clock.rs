//! Thread clocks and the `tick` instrumentation entry point.
//!
//! Code anywhere in the ALE stack calls [`tick`] at synchronisation-relevant
//! points (a CAS, a shared load, the start of a hardware transaction, …).
//! Under a simulation this advances the calling lane's virtual clock by the
//! event's cost in the active [`Platform`](crate::Platform) cost model and
//! may hand the CPU to another lane; outside a simulation it is free.
//!
//! The rule that keeps the simulator live is simple: **every spin-loop
//! iteration must tick.** All primitives in `ale-sync`, `ale-htm`, and
//! `ale-core` obey it, so a lane that is "spinning on" a lock held by a
//! parked lane keeps advancing its own clock and the scheduler eventually
//! runs the holder.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::sched::LaneCtx;

/// An abstract, platform-independent cost event.
///
/// Call sites describe *what* they did; the active platform's
/// [`CostModel`](crate::CostModel) decides how many virtual nanoseconds it
/// costs. This keeps instrumentation portable across the simulated Rock,
/// Haswell, and T2 machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A compare-and-swap (or other atomic read-modify-write) on shared data.
    Cas,
    /// A load of potentially-shared data (average of hit/miss under load).
    SharedLoad,
    /// A store to potentially-shared data.
    SharedStore,
    /// Thread-private computation costing the given number of nanoseconds.
    LocalWork(u64),
    /// Entering a hardware transaction.
    HtmBegin,
    /// Committing a hardware transaction.
    HtmCommit,
    /// Aborting a hardware transaction (rollback + restart overhead).
    HtmAbort,
    /// Handing a contended lock from one thread to another.
    LockHandoff,
    /// One unit of exponential backoff at the given exponent (cost is
    /// `backoff_unit << exp`, saturating).
    Backoff(u32),
    /// Raw virtual nanoseconds, already platform-scaled by the caller.
    Raw(u64),
}

thread_local! {
    /// True exactly while `CURRENT_LANE` holds a lane. Const-initialised and
    /// destructor-free, so outside a simulation every entry point below
    /// costs one thread-relative load and one branch.
    static LANE_INSTALLED: Cell<bool> = const { Cell::new(false) };
    static CURRENT_LANE: RefCell<Option<Rc<LaneCtx>>> = const { RefCell::new(None) };
    /// This OS thread's dense index for [`stripe_hint`], handed out at its
    /// first call outside a simulation (`usize::MAX` until then).
    static THREAD_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Next [`THREAD_INDEX`] to hand out.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

/// Process-relative real-time origin used when not simulating.
fn real_now_ns() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_nanos() as u64
}

pub(crate) fn install_lane(ctx: Rc<LaneCtx>) {
    CURRENT_LANE.with(|c| *c.borrow_mut() = Some(ctx));
    LANE_INSTALLED.with(|f| f.set(true));
}

pub(crate) fn clear_lane() {
    LANE_INSTALLED.with(|f| f.set(false));
    CURRENT_LANE.with(|c| *c.borrow_mut() = None);
}

#[inline]
fn with_lane<R>(f: impl FnOnce(Option<&Rc<LaneCtx>>) -> R) -> R {
    if !LANE_INSTALLED.with(Cell::get) {
        return f(None);
    }
    CURRENT_LANE.with(|c| f(c.borrow().as_ref()))
}

/// Current time in nanoseconds: the lane's virtual clock under simulation,
/// a process-monotonic real clock otherwise.
///
/// All timing statistics in `ale-sync`/`ale-core` are built on this, so the
/// adaptive policy's learning works identically in both worlds.
#[inline]
pub fn now() -> u64 {
    with_lane(|lane| match lane {
        Some(l) => l.clock(),
        None => real_now_ns(),
    })
}

/// True when the calling thread is a simulated lane.
#[inline]
pub fn is_simulated() -> bool {
    with_lane(|lane| lane.is_some())
}

/// The calling lane's id, or `None` outside a simulation.
#[inline]
pub fn lane_id() -> Option<usize> {
    with_lane(|lane| lane.map(|l| l.id()))
}

/// "Which stripe am I": the lane id under simulation, otherwise a dense
/// per-thread index (0, 1, 2, … in order of first call). Striped structures
/// — SNZI leaves, slab free lists, the active-SWOpt indicator — take it
/// modulo their stripe count; the per-thread random stream is seeded from
/// it. One thread-relative load after the thread's first call.
///
/// Dense indices put neighbouring threads on neighbouring stripes, so
/// stripes that their owners write must each sit on a cache line of their
/// own (`ale_sync::CachePadded`).
#[inline]
pub fn stripe_hint() -> usize {
    lane_id().unwrap_or_else(|| {
        THREAD_INDEX.with(|index| {
            if index.get() == usize::MAX {
                // Relaxed: the counter only hands out distinct numbers;
                // nothing is published through it.
                index.set(NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed));
            }
            index.get()
        })
    })
}

/// Record one cost event. Advances the virtual clock (and possibly yields to
/// another lane) under simulation; a no-op otherwise.
#[inline]
pub fn tick(ev: Event) {
    with_lane(|lane| {
        if let Some(l) = lane {
            l.tick(ev);
        }
    });
}

/// Record `n` repetitions of an event in one call (cheaper than looping).
#[inline]
pub fn tick_n(ev: Event, n: u64) {
    with_lane(|lane| {
        if let Some(l) = lane {
            l.tick_n(ev, n);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_mode_is_inert_but_monotonic() {
        assert!(!is_simulated());
        assert_eq!(lane_id(), None);
        let a = now();
        tick(Event::Cas);
        tick_n(Event::SharedLoad, 1000);
        let b = now();
        assert!(b >= a, "real clock must be monotonic");
    }

    #[test]
    fn stripe_hint_is_stable_per_thread_and_distinct_across_threads() {
        let mine = stripe_hint();
        assert_eq!(stripe_hint(), mine);
        let theirs = std::thread::spawn(|| (stripe_hint(), stripe_hint()))
            .join()
            .unwrap();
        assert_eq!(theirs.0, theirs.1);
        assert_ne!(theirs.0, mine);
    }

    #[test]
    fn real_now_advances() {
        let a = now();
        // Burn a little real time.
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = now();
        assert!(b > a);
    }
}
