//! The best-effort failure model layered over the TL2 engine.
//!
//! Real HTMs are *best effort*: they may abort for reasons unrelated to
//! data conflicts — capacity overflow, TLB misses, interrupts, unfriendly
//! instructions. The ALE policies' whole job is coping with this, so the
//! emulation reproduces it faithfully and *deterministically*: capacity
//! limits are exact set-size checks and "spurious" events come from a
//! seeded per-thread clock, so a simulation replays identically.
//!
//! The clock keeps, per event kind (transaction begin, transactional
//! access), the number of trials left before the next spurious event. The
//! gaps are geometric at the profile's rate, so the events form the same
//! Bernoulli process as one draw per trial, at one draw per *event*: a
//! zero-rate profile never draws, and a committed transaction on a
//! low-rate profile almost never does.

use ale_vtime::{HtmProfile, Rng};

/// Stream constant mixed into the seed of a rebuilt clock.
const CLOCK_STREAM: u64 = 0x7854_6E67;

/// Trials left before one kind of spurious event fires.
#[derive(Debug, Clone, Copy)]
struct Gap {
    /// `ln(1 - p)`; 0 for a zero rate (the event never fires).
    ln_q: f64,
    /// Trials that pass before the one that fires.
    left: u64,
}

impl Gap {
    const NEVER: Gap = Gap {
        ln_q: 0.0,
        left: u64::MAX,
    };

    /// A fresh gap at rate `p`: draws only when `p > 0`.
    fn new(p: f64, rng: &mut Rng) -> Gap {
        if p <= 0.0 {
            return Gap::NEVER;
        }
        let mut g = Gap {
            ln_q: (-p.min(1.0)).ln_1p(),
            left: 0,
        };
        g.redraw(rng);
        g
    }

    /// Geometric number of failures before the next success:
    /// `P(left = k) = (1 - p)^k · p` (inversion of one uniform draw).
    fn redraw(&mut self, rng: &mut Rng) {
        let u = 1.0 - rng.gen_f64(); // (0, 1]
        self.left = (u.ln() / self.ln_q) as u64;
    }

    /// One trial: does it fire? Draws only when it does.
    #[inline]
    fn fires(&mut self, rng: &mut Rng) -> bool {
        match self.left.checked_sub(1) {
            Some(left) => {
                self.left = left;
                false
            }
            None => {
                self.redraw(rng);
                true
            }
        }
    }
}

/// One thread's failure state: the HTM profile in force plus the
/// spurious-event clock built for it.
#[derive(Debug)]
pub struct FailureModel {
    /// The profile the clock was built for; `None` before the first use.
    profile: Option<HtmProfile>,
    /// The clock's own stream, seeded when a clock with a nonzero rate is
    /// built and drawn from once per spurious event.
    rng: Rng,
    txn: Gap,
    access: Gap,
}

impl Default for FailureModel {
    fn default() -> Self {
        Self::new()
    }
}

impl FailureModel {
    /// A model with no profile yet: the first [`rebuild`] builds it.
    ///
    /// [`rebuild`]: FailureModel::rebuild
    pub const fn new() -> Self {
        FailureModel {
            profile: None,
            rng: Rng::from_state([CLOCK_STREAM, 1, 2, 3]),
            txn: Gap::NEVER,
            access: Gap::NEVER,
        }
    }

    /// Whether putting `profile` in force needs a new clock — `None` when
    /// it is the profile in force — and, if it does, whether that clock
    /// takes a seed (only a profile with a nonzero spurious rate draws).
    #[inline]
    pub fn rebuild_for(&self, profile: &HtmProfile) -> Option<bool> {
        if self.profile.as_ref() == Some(profile) {
            return None;
        }
        Some(profile.spurious_abort_per_txn > 0.0 || profile.spurious_abort_per_access > 0.0)
    }

    /// Put `profile` in force with a new clock, seeded from `seed` when the
    /// profile has a nonzero spurious rate (`seed` is unused otherwise).
    #[cold]
    pub fn rebuild(&mut self, profile: &HtmProfile, seed: u64) {
        let (pt, pa) = (
            profile.spurious_abort_per_txn,
            profile.spurious_abort_per_access,
        );
        if pt > 0.0 || pa > 0.0 {
            self.rng = Rng::new(seed ^ CLOCK_STREAM);
        }
        self.txn = Gap::new(pt, &mut self.rng);
        self.access = Gap::new(pa, &mut self.rng);
        self.profile = Some(*profile);
    }

    fn profile(&self) -> &HtmProfile {
        self.profile.as_ref().expect("no HTM profile in force")
    }

    /// Should this transaction abort spuriously right at begin?
    #[inline]
    pub fn txn_spurious(&mut self) -> bool {
        self.txn.fires(&mut self.rng)
    }

    /// Should this transactional access abort spuriously?
    #[inline]
    pub fn access_spurious(&mut self) -> bool {
        self.access.fires(&mut self.rng)
    }

    /// Does a spurious abort on this platform hint that a retry may help?
    pub fn spurious_retry_hint(&self) -> bool {
        self.profile().spurious_retry_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_vtime::Platform;

    fn model(p: fn() -> Platform) -> FailureModel {
        let mut m = FailureModel::new();
        m.rebuild(&p().htm.expect("platform has HTM"), 7);
        m
    }

    #[test]
    fn testbed_never_fails_spuriously() {
        let mut m = model(Platform::testbed);
        for _ in 0..10_000 {
            assert!(!m.txn_spurious());
            assert!(!m.access_spurious());
        }
    }

    #[test]
    fn rock_fails_more_than_haswell() {
        let mut rock = model(Platform::rock);
        let mut haswell = model(Platform::haswell);
        let rock_fails = (0..20_000).filter(|_| rock.txn_spurious()).count();
        let haswell_fails = (0..20_000).filter(|_| haswell.txn_spurious()).count();
        assert!(
            rock_fails > haswell_fails * 2,
            "rock {rock_fails} vs haswell {haswell_fails}"
        );
    }

    #[test]
    fn gaps_keep_the_bernoulli_rate() {
        let mut m = model(Platform::rock);
        let n = 1_000_000;
        let fails = (0..n).filter(|_| m.txn_spurious()).count() as f64;
        let rate = fails / n as f64;
        assert!((0.019..0.021).contains(&rate), "per-txn rate {rate}");
    }

    #[test]
    fn a_rate_of_one_always_fires() {
        let mut p = Platform::rock().htm.unwrap();
        p.spurious_abort_per_access = 1.0;
        let mut m = FailureModel::new();
        m.rebuild(&p, 1);
        assert!((0..100).all(|_| m.access_spurious()));
    }

    #[test]
    fn spurious_streams_are_deterministic() {
        let mut a = model(Platform::rock);
        let mut b = model(Platform::rock);
        let va: Vec<bool> = (0..1000).map(|_| a.txn_spurious()).collect();
        let vb: Vec<bool> = (0..1000).map(|_| b.txn_spurious()).collect();
        assert_eq!(va, vb);
    }
}
