//! Deterministic pseudo-random numbers (xoshiro256**, SplitMix64-seeded).
//!
//! Everything random in the reproduction — workload operation choice,
//! spurious HTM aborts, statistics sampling, backoff jitter — draws from
//! per-thread [`Rng`] streams derived from a single run seed, so a figure
//! regenerated twice is bit-identical. Implemented locally (rather than via
//! the `rand` crate) to keep the simulated hot path allocation-free and the
//! stream derivation explicit.

/// SplitMix64 step: the recommended seeder for xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed. Any seed (including 0) is fine; the
    /// state is expanded through SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng { s }
    }

    /// A generator from raw xoshiro state (not all zero), for `const`
    /// initialisers; [`Rng::new`] is the way to seed one.
    pub const fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s[0] | s[1] | s[2] | s[3] != 0,
            "xoshiro state must not be all zero"
        );
        Rng { s }
    }

    /// Derive an independent stream, e.g. one per (thread, purpose).
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0xD1342543DE82EF95))
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..n` (Lemire's unbiased multiply-shift method).
    /// `n` must be nonzero.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// True with probability `num/den` using integer arithmetic.
    #[inline]
    pub fn gen_ratio(&mut self, num: u64, den: u64) -> bool {
        debug_assert!(den > 0);
        self.gen_range(den) < num.min(den)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = Rng::new(123);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
        for _ in 0..100 {
            assert_eq!(r.gen_range(1), 0);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut r = Rng::new(4);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(-1.0));
        assert!(r.gen_bool(2.0));
        let hits = (0..100_000).filter(|_| r.gen_bool(0.03)).count();
        assert!((2_400..=3_600).contains(&hits), "3% rate, got {hits}");
    }

    #[test]
    fn gen_ratio_rate() {
        let mut r = Rng::new(5);
        let hits = (0..100_000).filter(|_| r.gen_ratio(1, 4)).count();
        assert!((24_000..=26_000).contains(&hits), "{hits}");
        assert!(r.gen_ratio(5, 4), "num >= den is always true");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut base = Rng::new(11);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        let a: Vec<u64> = (0..5).map(|_| f1.next_u64()).collect();
        let b: Vec<u64> = (0..5).map(|_| f2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }
}
