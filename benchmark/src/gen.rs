//! Op streams. Everything the library sees is generated here from
//! `--seed`; the same `(seed, stream, pass, thread)` always yields the same
//! ops, and workloads that must see identical traffic share a stream id.

use ale_vtime::{Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64),
    Remove(u64),
}

/// Key distribution over `0..key_space`.
#[derive(Debug, Clone)]
pub enum Keys {
    Uniform,
    /// Zipfian ranks scrambled over the key space so hot keys spread
    /// across buckets and shards (rank 0 is hottest), as `ale-bench` does.
    ZipfScrambled(Zipf),
}

/// A key distribution plus a put/remove/get mix in parts per thousand.
#[derive(Debug, Clone)]
pub struct Mix {
    pub key_space: u64,
    pub keys: Keys,
    pub put_pm: u64,
    pub remove_pm: u64,
}

impl Mix {
    pub fn uniform(key_space: u64, put_pm: u64, remove_pm: u64) -> Self {
        Mix {
            key_space,
            keys: Keys::Uniform,
            put_pm,
            remove_pm,
        }
    }

    pub fn zipf(key_space: u64, theta: f64, put_pm: u64, remove_pm: u64) -> Self {
        Mix {
            key_space,
            keys: Keys::ZipfScrambled(Zipf::new(key_space, theta)),
            put_pm,
            remove_pm,
        }
    }

    #[inline]
    pub fn next(&self, rng: &mut Rng) -> Op {
        let key = match &self.keys {
            Keys::Uniform => rng.gen_range(self.key_space),
            Keys::ZipfScrambled(z) => {
                z.sample(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.key_space
            }
        };
        let dice = rng.gen_range(1000);
        if dice < self.put_pm {
            Op::Put(key)
        } else if dice < self.put_pm + self.remove_pm {
            Op::Remove(key)
        } else {
            Op::Get(key)
        }
    }
}

/// The generator for one (stream, pass, thread) of a run. `stream`
/// identifies the traffic, not the workload: `map_mutate_zipf_2t` and
/// `shard8_mutate_zipf_2t` share one, as do the two kyoto workloads.
pub fn stream_rng(seed: u64, stream: u64, pass: u64, thread: u64) -> Rng {
    debug_assert!(stream < 1 << 8 && pass < 1 << 32 && thread < 1 << 16);
    Rng::new(seed ^ (stream << 56) ^ (pass << 16) ^ thread)
}

/// FNV-1a over the first `ops` ops of a stream, for the reproducibility
/// tests.
#[cfg(test)]
pub fn stream_hash(mix: &Mix, mut rng: Rng, ops: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..ops {
        match mix.next(&mut rng) {
            Op::Get(k) => eat(k << 2),
            Op::Put(k) => eat(k << 2 | 1),
            Op::Remove(k) => eat(k << 2 | 2),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_respects_its_shares_and_key_space() {
        let mix = Mix::zipf(1024, 1.1, 200, 200);
        let mut rng = Rng::new(7);
        let (mut put, mut rem, mut get) = (0, 0, 0);
        for _ in 0..100_000 {
            match mix.next(&mut rng) {
                Op::Put(k) => {
                    assert!(k < 1024);
                    put += 1
                }
                Op::Remove(k) => {
                    assert!(k < 1024);
                    rem += 1
                }
                Op::Get(k) => {
                    assert!(k < 1024);
                    get += 1
                }
            }
        }
        assert!((19_000..21_000).contains(&put), "{put}");
        assert!((19_000..21_000).contains(&rem), "{rem}");
        assert!((59_000..61_000).contains(&get), "{get}");
    }
}
