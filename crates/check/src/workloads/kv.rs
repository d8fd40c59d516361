//! The key-value oracle: one checker for the four map-shaped workloads
//! (`hashmap`, `kyoto`, `durable`, `shard`).
//!
//! Every such workload has the same shape. The [`STABLE_KEYS`] are filled
//! before the run and never written again. Each lane owns `N` further keys,
//! `base + lane * N + j`, and is their only writer, so its [`KvShadow`] is
//! the exact truth for them at every point of the run, not only at the
//! end. Any lane may read any key. The checks:
//!
//! * **read** — a value carries its key's low bits ([`integrity_ok`]); a
//!   stable key is present and unchanged; a lane's own key reads exactly
//!   its shadow;
//! * **write** — `insert`'s `newly` and `remove`'s `was` agree with the
//!   owner shadow;
//! * **quiescent sweep** — every owned key matches its shadow, every stable
//!   key is intact, the subject's count is the stable keys plus the
//!   shadows' live keys, and no version word was left odd.
//!
//! What only one workload has (the hashmap's rotator and fine-grained
//! paths, the shard's migrations and per-shard parity, durable's recovery)
//! stays in that workload's file. A check here makes no subject call of its
//! own beyond the one it checks, so the schedule — and every digest — is
//! the workload's alone.

use ale_hashmap::{AleHashMap, AleShardedMap};
use ale_kyoto::{AleCacheDb, DurableCacheDb, KyotoDb};
use ale_vtime::Rng;

use super::shadow::KvShadow;
use super::{encode, integrity_ok, Violations, STABLE_COUNT, STABLE_KEYS};
use crate::CheckConfig;

/// What the key-value oracle drives.
pub(crate) trait KvSubject: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    /// `true` when `key` was newly inserted.
    fn insert(&self, key: u64, val: u64) -> bool;
    /// `true` when `key` was present.
    fn remove(&self, key: u64) -> bool;
    /// Live keys, counted under the subject's locks.
    fn len(&self) -> usize;
    fn versions_even(&self) -> bool;
}

macro_rules! map_subject {
    ($($map:ty),*) => {$(
        impl KvSubject for $map {
            fn get(&self, key: u64) -> Option<u64> {
                let mut val = 0;
                <$map>::get(self, key, &mut val).then_some(val)
            }
            fn insert(&self, key: u64, val: u64) -> bool {
                <$map>::insert(self, key, val)
            }
            fn remove(&self, key: u64) -> bool {
                <$map>::remove(self, key)
            }
            fn len(&self) -> usize {
                self.len_slow()
            }
            fn versions_even(&self) -> bool {
                <$map>::versions_even(self)
            }
        }
    )*};
}

macro_rules! db_subject {
    ($($db:ty),*) => {$(
        impl KvSubject for $db {
            fn get(&self, key: u64) -> Option<u64> {
                KyotoDb::get(self, key)
            }
            fn insert(&self, key: u64, val: u64) -> bool {
                self.set(key, val)
            }
            fn remove(&self, key: u64) -> bool {
                KyotoDb::remove(self, key)
            }
            fn len(&self) -> usize {
                self.count()
            }
            fn versions_even(&self) -> bool {
                <$db>::versions_even(self)
            }
        }
    )*};
}

map_subject!(AleHashMap<u64>, AleShardedMap<u64>);
db_subject!(AleCacheDb, DurableCacheDb);

/// Fill the stable keys (before the run).
pub(crate) fn fill_stable(subject: &impl KvSubject) {
    for key in STABLE_KEYS {
        subject.insert(key, encode(key, 0));
    }
}

/// The oracle over one subject, for lanes owning `N` keys each from `base`.
/// Every violation it records starts with the workload's name.
pub(crate) struct KvCheck<'a, S, const N: usize> {
    pub subject: &'a S,
    v: &'a Violations,
    name: &'static str,
    base: u64,
}

impl<'a, S: KvSubject, const N: usize> KvCheck<'a, S, N> {
    pub fn new(cfg: &CheckConfig, subject: &'a S, v: &'a Violations, base: u64) -> Self {
        KvCheck {
            subject,
            v,
            name: cfg.workload.name(),
            base,
        }
    }

    /// Lane `lane`'s key in slot `j`.
    pub fn key(&self, lane: usize, j: usize) -> u64 {
        self.base + (lane * N + j) as u64
    }

    /// A uniformly drawn slot.
    pub fn slot(&self, rng: &mut Rng) -> usize {
        rng.gen_range(N as u64) as usize
    }

    /// A read target: a stable key or any of `threads` lanes' keys, even odds.
    pub fn any_key(&self, rng: &mut Rng, threads: u64) -> u64 {
        if rng.gen_ratio(1, 2) {
            STABLE_KEYS.start + rng.gen_range(STABLE_COUNT as u64)
        } else {
            let lane = rng.gen_range(threads) as usize;
            self.key(lane, self.slot(rng))
        }
    }

    /// Record a violation under the workload's name.
    pub fn violation(&self, msg: std::fmt::Arguments) {
        self.v.record(format!("{}: {msg}", self.name));
    }

    /// Look `key` up from lane `lane` and check what came back.
    pub fn read(&self, lane: usize, shadow: &KvShadow<N>, key: u64) -> Option<u64> {
        let found = self.subject.get(key);
        if let Some(val) = found.filter(|&val| !integrity_ok(key, val)) {
            self.violation(format_args!(
                "get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                val & 0xFFFF
            ));
        }
        let own = key.wrapping_sub(self.key(lane, 0));
        if STABLE_KEYS.contains(&key) {
            match found {
                None => self.violation(format_args!("stable key {key:#x} reported absent")),
                Some(val) if val != encode(key, 0) => self.violation(format_args!(
                    "stable key {key:#x} value changed to {val:#x}"
                )),
                Some(_) => {}
            }
        } else if own < N as u64 {
            let expect = shadow.live(own as usize);
            if found != expect {
                self.violation(format_args!(
                    "own key {key:#x} read {found:?}, shadow says {expect:?}"
                ));
            }
        }
        found
    }

    /// Lane `lane`'s next insert of slot `j`: the key and its next value.
    pub fn next_value(&self, shadow: &KvShadow<N>, lane: usize, j: usize) -> (u64, u64) {
        let key = self.key(lane, j);
        (key, encode(key, shadow.generation[j] + 1))
    }

    /// Fold an acknowledged insert of `val` into slot `j`'s shadow.
    pub fn inserted(&self, shadow: &mut KvShadow<N>, j: usize, key: u64, val: u64, newly: bool) {
        let expect = shadow.insert(j, val);
        if newly != expect {
            self.violation(format_args!(
                "insert({key:#x}) returned newly={newly} but shadow says newly={expect}"
            ));
        }
    }

    /// Fold an acknowledged remove of slot `j` into its shadow.
    pub fn removed(&self, shadow: &mut KvShadow<N>, j: usize, key: u64, was: bool) {
        let expect = shadow.remove(j);
        if was != expect {
            self.violation(format_args!(
                "remove({key:#x}) returned {was} but shadow says present={expect}"
            ));
        }
    }

    /// At quiescence: lane `lane`'s slot `j` is exactly its shadow.
    pub fn owner_final(&self, lane: usize, shadow: &KvShadow<N>, j: usize) {
        let key = self.key(lane, j);
        match (self.subject.get(key), shadow.live(j)) {
            (Some(val), Some(want)) if val != want => self.violation(format_args!(
                "final value of {key:#x} is {val:#x}, owner shadow says {want:#x} (lost update)"
            )),
            (found, want) if found.is_some() != want.is_some() => self.violation(format_args!(
                "final state of {key:#x} is {found:?}, owner shadow says {want:?}"
            )),
            _ => {}
        }
    }

    /// [`Self::owner_final`] for every lane's every slot, lane by lane.
    pub fn owners_final<'s>(&self, shadows: impl IntoIterator<Item = &'s KvShadow<N>>) {
        for (lane, shadow) in shadows.into_iter().enumerate() {
            for j in 0..N {
                self.owner_final(lane, shadow, j);
            }
        }
    }

    /// At quiescence: stable key `key` is present and unchanged.
    pub fn stable_final(&self, key: u64) {
        match self.subject.get(key) {
            None => self.violation(format_args!("stable key {key:#x} absent after the run")),
            Some(val) if val != encode(key, 0) => self.violation(format_args!(
                "stable key {key:#x} ended as {val:#x}, expected {:#x}",
                encode(key, 0)
            )),
            Some(_) => {}
        }
    }

    /// At quiescence: the subject's count `len` is the stable keys plus
    /// the shadows' live keys.
    pub fn len_final<'s>(&self, len: usize, shadows: impl IntoIterator<Item = &'s KvShadow<N>>) {
        let expected = STABLE_COUNT
            + shadows
                .into_iter()
                .map(|s| s.live_count() as usize)
                .sum::<usize>();
        if len != expected {
            self.violation(format_args!("len is {len}, owner shadows total {expected}"));
        }
    }

    /// At quiescence: no version word was left odd.
    pub fn versions_final(&self) {
        if !self.subject.versions_even() {
            self.violation(format_args!("a version word was left odd after quiescence"));
        }
    }

    /// The whole quiescent sweep: owned keys, stable keys, count, versions.
    /// Returns the subject's count.
    pub fn final_sweep<'s, I>(&self, shadows: I) -> usize
    where
        I: IntoIterator<Item = &'s KvShadow<N>> + Clone,
    {
        self.owners_final(shadows.clone());
        for key in STABLE_KEYS {
            self.stable_final(key);
        }
        let len = self.subject.len();
        self.len_final(len, shadows);
        self.versions_final();
        len
    }
}
