//! Bounded exponential backoff, charged to virtual time.
//!
//! Used wherever the paper mentions backoff: contended CAS retries in the
//! statistics machinery (§4.3), lock acquisition spins, and HTM retry
//! pacing. Each `spin()` burns real CPU briefly *and* charges the
//! platform's `Backoff(exp)` cost, so contention shows up in simulated
//! throughput exactly as it would in wall-clock time.

use ale_vtime::{tick, Event, Rng};

/// Exponentially growing busy-wait, optionally jittered.
///
/// Without jitter every contended thread walks the same exponent sequence
/// 0, 1, 2, … and so retries in lockstep — exactly the synchronised
/// reconvergence that fuels HTM abort storms. [`Backoff::with_jitter`]
/// attaches a decorrelated-jitter delay stream (next delay drawn uniformly
/// from `[1, 3 × previous]`, capped at `2^max_exp` units) seeded from a
/// deterministic [`Rng`], so threads with different seeds desynchronise
/// while staying reproducible under the simulator.
#[derive(Debug, Clone)]
pub struct Backoff {
    exp: u32,
    max_exp: u32,
    /// Decorrelated-jitter state: (last delay in backoff units, RNG).
    jitter: Option<(u64, Rng)>,
}

impl Backoff {
    /// Default cap: 2^10 backoff units.
    pub const DEFAULT_MAX_EXP: u32 = 10;

    pub fn new() -> Self {
        Backoff {
            exp: 0,
            max_exp: Self::DEFAULT_MAX_EXP,
            jitter: None,
        }
    }

    /// A backoff that never exceeds `2^max_exp` units per spin.
    pub fn with_max_exp(max_exp: u32) -> Self {
        Backoff {
            exp: 0,
            max_exp,
            jitter: None,
        }
    }

    /// Attach a decorrelated-jitter stream. The cap (`2^max_exp`) and the
    /// [`Backoff::is_saturated`] switch-strategies signal keep their
    /// un-jittered meaning; only the per-spin delay is randomised.
    #[must_use]
    pub fn with_jitter(mut self, rng: Rng) -> Self {
        self.jitter = Some((1, rng));
        self
    }

    /// Current exponent (grows by one per `spin`, saturating).
    pub fn exp(&self) -> u32 {
        self.exp
    }

    /// Wait once, then increase the delay for next time.
    #[inline]
    pub fn spin(&mut self) {
        let charged = match &mut self.jitter {
            Some((prev, rng)) => {
                let cap = 1u64 << self.max_exp;
                let hi = prev.saturating_mul(3).min(cap);
                let units = 1 + rng.gen_range(hi);
                *prev = units;
                // Charge the nearest power-of-two exponent (floor log2).
                63 - (units | 1).leading_zeros()
            }
            None => self.exp,
        };
        // The virtual cost; under the simulator the real wait below only
        // costs wall time.
        tick(Event::Backoff(charged));
        if charged >= 3 {
            // Real threads on few (possibly one) CPUs: give the lock holder
            // a chance to run instead of burning the whole timeslice.
            std::thread::yield_now();
        } else {
            for _ in 0..(1u32 << charged) {
                std::hint::spin_loop();
            }
        }
        if self.exp < self.max_exp {
            self.exp += 1;
        }
    }

    /// Forget accumulated delay (call after a successful operation).
    #[inline]
    pub fn reset(&mut self) {
        self.exp = 0;
        if let Some((prev, _)) = &mut self.jitter {
            *prev = 1;
        }
    }

    /// Has the backoff reached its cap? Callers often switch strategies
    /// (e.g. stop eliding and take the lock) at this point.
    pub fn is_saturated(&self) -> bool {
        self.exp >= self.max_exp
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_vtime::{Platform, Sim};

    #[test]
    fn exponent_grows_and_saturates() {
        let mut b = Backoff::with_max_exp(3);
        assert_eq!(b.exp(), 0);
        assert!(!b.is_saturated());
        for _ in 0..10 {
            b.spin();
        }
        assert_eq!(b.exp(), 3);
        assert!(b.is_saturated());
        b.reset();
        assert_eq!(b.exp(), 0);
    }

    #[test]
    fn jittered_streams_decorrelate_but_stay_deterministic() {
        let charge = |seed: u64| {
            let report = Sim::new(Platform::testbed(), 1).run(move |_| {
                let mut b = Backoff::with_max_exp(6).with_jitter(Rng::new(seed));
                let t0 = ale_vtime::now();
                for _ in 0..12 {
                    b.spin();
                }
                ale_vtime::now() - t0
            });
            report.results[0]
        };
        assert_eq!(charge(1), charge(1), "same seed must replay identically");
        assert_ne!(charge(1), charge(2), "different seeds must desynchronise");
    }

    #[test]
    fn jitter_keeps_saturation_semantics() {
        let mut b = Backoff::with_max_exp(4).with_jitter(Rng::new(7));
        for _ in 0..10 {
            b.spin();
        }
        assert!(b.is_saturated());
        b.reset();
        assert_eq!(b.exp(), 0);
        assert!(!b.is_saturated());
    }

    #[test]
    fn charges_growing_virtual_time() {
        let report = Sim::new(Platform::testbed(), 1).run(|_| {
            let mut b = Backoff::new();
            let t0 = ale_vtime::now();
            b.spin();
            let t1 = ale_vtime::now();
            b.spin();
            let t2 = ale_vtime::now();
            (t1 - t0, t2 - t1)
        });
        let (first, second) = report.results[0];
        assert!(second > first, "backoff must grow: {first} then {second}");
    }
}
