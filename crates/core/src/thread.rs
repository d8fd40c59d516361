//! The per-thread block under the critical-section driver.
//!
//! Everything the driver keeps per thread lives in one [`CsThread`]: the
//! scope stack ([`crate::scope`]), the frame and held-lock stacks
//! ([`crate::frame`]), the master random stream and the timing-sample
//! countdown. A critical section
//! reaches the block once, in [`with`], and passes the reference down
//! (`run_cs → run_protocol → with_frame`), so one section
//! costs one thread-local lookup in this crate however many of the fields
//! it reads.
//!
//! **Re-entrancy rule.** A body closure may open another critical section,
//! which reaches the *same* block through its own [`with`]. So no borrow of
//! a field may be live while user code runs: every method borrows, reads or
//! writes, and releases before it returns, and the push/pop pairs around a
//! body are two separate borrows, never one held across it.

use std::cell::{Cell, RefCell};

use ale_vtime::Rng;

use crate::frame::HeldKind;
use crate::mode::ExecMode;
use crate::scope::ContextStack;

pub(crate) struct CsThread {
    /// The scopes this thread is inside, outermost first.
    pub(crate) scopes: RefCell<ContextStack>,
    /// (lock, mode) of every enclosing critical-section attempt.
    pub(crate) frames: RefCell<Vec<(usize, ExecMode)>>,
    /// Locks this thread acquired in Lock mode, in acquisition order.
    pub(crate) held: RefCell<Vec<(usize, HeldKind)>>,
    /// Master stream the per-section streams fork from; seeded on first use.
    rng: RefCell<Option<Rng>>,
    /// Sections left before the next one whose timing is sampled.
    sample_in: Cell<u32>,
}

thread_local! {
    static CS_THREAD: CsThread = const {
        CsThread {
            scopes: RefCell::new(ContextStack::new()),
            frames: RefCell::new(Vec::new()),
            held: RefCell::new(Vec::new()),
            rng: RefCell::new(None),
            sample_in: Cell::new(0),
        }
    };
}

/// Run `f` with the calling thread's block.
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&CsThread) -> R) -> R {
    CS_THREAD.with(f)
}

impl CsThread {
    /// Fork a short-lived random stream for one critical-section execution
    /// from the per-thread master stream (deterministic under simulation).
    /// The master is seeded once per thread, from the first library
    /// instance that runs a critical section on it.
    fn fork_rng(&self, seed: u64) -> Rng {
        self.rng
            .borrow_mut()
            .get_or_insert_with(|| {
                let lane = ale_vtime::stripe_hint() as u64;
                Rng::new(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .fork(0xC5)
    }

    /// One critical section's random stream, forked on its first draw.
    pub(crate) fn section_rng(&self, seed: u64) -> SectionRng<'_> {
        SectionRng {
            t: self,
            seed,
            rng: None,
        }
    }

    /// Is this section's timing sampled? Every one in ~32.5 is (~3 %): a
    /// countdown whose refill, the one draw, is a gap uniform in 0..63.
    #[inline]
    pub(crate) fn sample_due(&self, rng: &mut SectionRng<'_>) -> bool {
        match self.sample_in.get().checked_sub(1) {
            Some(left) => {
                self.sample_in.set(left);
                false
            }
            None => {
                self.sample_in.set(rng.get().gen_range(64) as u32);
                true
            }
        }
    }
}

/// A critical section's random stream. Most sections draw nothing — a
/// first-attempt HTM commit on a cached plan never does — so the fork from
/// the thread's master stream waits for the first draw: a grouping defer
/// below 1000‰, a breaker abort, a sampling refill, or the seed of a
/// rebuilt spurious-event clock.
pub(crate) struct SectionRng<'a> {
    t: &'a CsThread,
    seed: u64,
    rng: Option<Rng>,
}

impl SectionRng<'_> {
    pub(crate) fn get(&mut self) -> &mut Rng {
        let (t, seed) = (self.t, self.seed);
        self.rng.get_or_insert_with(|| t.fork_rng(seed))
    }
}
