//! The BFP probabilistic statistics counter (Dice, Lev, Moir —
//! "Scalable Statistics Counters", SPAA 2013).
//!
//! ALE records *lots* of events (attempts, successes, aborts per
//! (lock, context) granule). A plain shared `fetch_add` counter becomes a
//! coherence hot-spot at exactly the moment the data matters most — under
//! contention. The BFP ("binary floating point") counter stores a mantissa
//! and an exponent: increments update the shared word only with probability
//! `2^-exponent`, and each successful update adds `2^exponent` to the
//! projected value, keeping the estimate **unbiased**. While the value is
//! small the exponent is 0, so counts are *exact* until the mantissa
//! reaches its threshold — the paper's requirement that accuracy be good
//! "even after relatively small numbers of events" (§4.3). When the
//! mantissa fills up it is halved and the exponent bumped, halving the
//! update probability.
//!
//! Layout of the shared word: `mantissa (48 bits) | exponent (16 bits)`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ale_vtime::{tick, Event, Rng};

use crate::backoff::Backoff;

/// Mantissa threshold: exact counting up to this value, and the relative
/// error stays ~`1/sqrt(MANTISSA_THRESHOLD)` afterwards.
const MANTISSA_THRESHOLD: u64 = 1 << 12;

#[inline]
fn pack(mantissa: u64, exp: u64) -> u64 {
    (mantissa << 16) | (exp & 0xFFFF)
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> 16, word & 0xFFFF)
}

thread_local! {
    /// Position in [`fold_draw`]'s stream; 0 = not started.
    static FOLD_STATE: Cell<u64> = const { Cell::new(0) };
}

/// 64 random bits for [`StatCounter::add`]'s rounding: a SplitMix64 step on
/// a thread-local Weyl sequence whose start is keyed by the thread's
/// [`stripe_hint`](ale_vtime::stripe_hint), so concurrent flushers do not
/// round in lockstep. Under the simulator that key is the lane id and each
/// lane is a fresh thread, so the draws — and every count above the exact
/// regime — replay bit for bit (an address key did not: ASLR moved it).
/// Deliberately not the lane's [`Rng`]: `add` has no `rng` parameter, and
/// its draws must not perturb simulated streams. Public so a flush of
/// several counters can take one draw and hand each
/// [`StatCounter::add_drawn`] its own rotation of it.
#[inline]
pub fn fold_draw() -> u64 {
    // Only the state step runs inside `with`: a closure this small lets
    // `LocalKey::with` inline to one thread-relative access.
    let x = FOLD_STATE.with(|s| {
        let x = match s.get() {
            0 => first_fold_state(),
            x => x,
        }
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
        s.set(x);
        x
    });
    let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a thread's [`fold_draw`] stream starts, keyed by its stripe hint.
#[cold]
fn first_fold_state() -> u64 {
    (ale_vtime::stripe_hint() as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A scalable, probabilistically-updated event counter (increment-by-one
/// only, as in the paper — which is why ALE cannot use it for timing data).
///
/// ```
/// use ale_sync::StatCounter;
/// use ale_vtime::Rng;
/// let c = StatCounter::new();
/// let mut rng = Rng::new(1);
/// for _ in 0..1000 {
///     c.inc(&mut rng);
/// }
/// assert_eq!(c.read(), 1000, "exact while the count is small");
/// ```
#[derive(Debug, Default)]
pub struct StatCounter {
    word: AtomicU64,
}

impl StatCounter {
    pub fn new() -> Self {
        StatCounter {
            word: AtomicU64::new(0),
        }
    }

    /// Record one event: [`add_drawn`](StatCounter::add_drawn) of one,
    /// rounded with a draw from `rng` (per-thread, deterministic under
    /// simulation). Above the exact regime that updates the shared word
    /// with probability `2^-exponent`, the paper's thinning.
    #[inline]
    pub fn inc(&self, rng: &mut Rng) {
        self.add_drawn(1, rng.next_u64());
    }

    /// Fold a pre-aggregated batch of `n` events into the counter — the
    /// flush half of the critical-section driver's stack-local statistics
    /// delta, under the simulator and on real threads alike. Tick-free: at
    /// most one CAS loop per counter per flush, instead of one per event.
    ///
    /// Exact and RNG-free while the exponent is zero (the regime every
    /// ale-check workload stays in). Above threshold the batch folds at the
    /// counter's resolution without bias: `n >> exp` whole units, plus one
    /// more with probability `(n mod 2^exp) / 2^exp`. A draw that yields no
    /// unit returns without touching the shared word, so a stream of
    /// small flushes leaves the word alone as often as the paper's
    /// per-event thinning does.
    #[inline]
    pub fn add(&self, n: u64) {
        self.fold(n, None);
    }

    /// [`add`](StatCounter::add) with the rounding bits supplied by the
    /// caller, so one [`fold_draw`] can serve a whole batch of counters.
    /// `draw` must be uniform over `u64`; distinct rotations of one draw
    /// are each uniform, which is all the per-counter estimate needs.
    #[inline]
    pub fn add_drawn(&self, n: u64, draw: u64) {
        self.fold(n, Some(draw));
    }

    /// The one writer of the shared word.
    #[inline]
    fn fold(&self, n: u64, mut draw: Option<u64>) {
        if n == 0 {
            return;
        }
        let mut backoff = Backoff::with_max_exp(6);
        loop {
            let w = self.word.load(Ordering::Relaxed);
            let (m, e) = unpack(w);
            let units = if e == 0 {
                n
            } else {
                // At most one draw per call, reused if the CAS has to retry.
                let r = *draw.get_or_insert_with(fold_draw);
                let mask = (1u64 << e) - 1;
                (n >> e) + u64::from((r & mask) < (n & mask))
            };
            if units == 0 {
                return;
            }
            let (mut nm, mut ne) = (m + units, e);
            while nm >= MANTISSA_THRESHOLD * 2 {
                nm = nm.div_ceil(2);
                ne += 1;
            }
            // Strong CAS: with no tick between the load and here, a lane
            // under the simulator cannot lose this race, so the retry's
            // backoff (a tick) only ever runs on real threads.
            if self
                .word
                .compare_exchange(w, pack(nm, ne), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            backoff.spin();
        }
    }

    /// The projected (estimated) count: `mantissa << exponent`. Exact while
    /// the exponent is zero.
    #[inline]
    pub fn read(&self) -> u64 {
        tick(Event::SharedLoad);
        let (m, e) = unpack(self.word.load(Ordering::Acquire));
        m << e
    }

    /// Is the counter still in its exact (pre-threshold) regime?
    #[inline]
    pub fn is_exact(&self) -> bool {
        unpack(self.word.load(Ordering::Relaxed)).1 == 0
    }

    /// Reset to zero (used between ALE learning phases).
    pub fn reset(&self) {
        self.word.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_within(c: &StatCounter, n: u64, tolerance: f64) {
        let est = c.read();
        let err = (est as f64 - n as f64).abs() / n as f64;
        assert!(err < tolerance, "estimate {est} vs true {n} (err {err:.4})");
    }

    #[test]
    fn exact_below_threshold() {
        let c = StatCounter::new();
        let mut rng = Rng::new(1);
        for i in 1..=1000u64 {
            c.inc(&mut rng);
            assert_eq!(c.read(), i, "must be exact in the small-count regime");
        }
        assert!(c.is_exact());
        c.reset();
        assert_eq!(c.read(), 0);
    }

    #[test]
    fn accurate_above_threshold() {
        let c = StatCounter::new();
        let mut rng = Rng::new(7);
        let n = 1_000_000u64;
        for _ in 0..n {
            c.inc(&mut rng);
        }
        assert!(!c.is_exact());
        assert_within(&c, n, 0.05);
    }

    #[test]
    fn concurrent_increments_stay_accurate() {
        let c = StatCounter::new();
        let per_thread = 100_000u64;
        let threads = 4u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = &c;
                s.spawn(move || {
                    let mut rng = Rng::new(100 + t);
                    for _ in 0..per_thread {
                        c.inc(&mut rng);
                    }
                });
            }
        });
        assert_within(&c, per_thread * threads, 0.08);
    }

    /// The batched flush must keep counting past the exact regime: the
    /// parent's round-to-nearest fold turned every `add(1)` into 0 units
    /// once the exponent reached 2 and froze the counter at 16 384.
    #[test]
    fn add_stays_accurate_above_threshold() {
        let c = StatCounter::new();
        let n = 1_000_000u64;
        for _ in 0..n {
            c.add(1);
        }
        assert!(!c.is_exact());
        assert_within(&c, n, 0.05);
    }

    #[test]
    fn concurrent_adds_stay_accurate() {
        let c = StatCounter::new();
        let (threads, per_thread) = (4u64, 250_000u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        c.add(1);
                    }
                });
            }
        });
        assert_within(&c, per_thread * threads, 0.08);
    }

    /// Exact regime: batches fold exactly; above it, mixed batch sizes
    /// stay unbiased and small batches mostly leave the word alone.
    #[test]
    fn add_is_exact_then_thinned() {
        let c = StatCounter::new();
        for _ in 0..1000 {
            c.add(3);
        }
        assert!(c.is_exact());
        assert_eq!(c.read(), 3000);
        let mut rng = Rng::new(11);
        let mut total = 3000u64;
        while total < 500_000 {
            let n = 1 + rng.gen_range(7);
            c.add(n);
            total += n;
        }
        assert_within(&c, total, 0.05);
        assert!(unpack(c.word.load(Ordering::Relaxed)).1 >= 2);
        let mut prev = c.word.load(Ordering::Relaxed);
        let mut changes = 0;
        for _ in 0..1000 {
            c.add(1);
            let w = c.word.load(Ordering::Relaxed);
            if w != prev {
                changes += 1;
                prev = w;
            }
        }
        assert!(
            changes < 500,
            "add(1) must skip the shared word on most calls once exp >= 2: {changes}"
        );
    }

    #[test]
    fn updates_thin_out_as_count_grows() {
        // Count CAS updates indirectly: after the exponent grows, most incs
        // should return without touching the word.
        let c = StatCounter::new();
        let mut rng = Rng::new(3);
        for _ in 0..(MANTISSA_THRESHOLD * 4) {
            c.inc(&mut rng);
        }
        let mut prev = c.word.load(Ordering::Relaxed);
        let mut changes = 0;
        for _ in 0..1000 {
            c.inc(&mut rng);
            let w = c.word.load(Ordering::Relaxed);
            if w != prev {
                changes += 1;
                prev = w;
            }
        }
        // Exponent is ≥ 2 here, so roughly ≤ 1/4 of incs update the word.
        assert!(
            (50..=600).contains(&changes),
            "updates must be probabilistically thinned: {changes}"
        );
    }
}
