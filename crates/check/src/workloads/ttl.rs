//! TTL cache with eviction: entries carry an expiry deadline, readers must
//! never be served a stale entry, and eviction is lazy (explicit drops
//! plus periodic sweeps).
//!
//! The cache wraps the ALE HashMap and packs each entry's deadline into
//! its value (`expiry << 16 | key`), so freshness revalidation is one
//! shift away from the lookup — and skipping it (`mut-ttl-stale-read`) is
//! a one-line bug, exactly the mutation the selftest must catch.
//!
//! Oracle soundness: churn slots are lane-owned (sole writer), and the
//! lane judges freshness against the *same* `now` it passed into the
//! cache, so the per-op shadow comparison ([`TtlShadow::live`]) is exact —
//! no tolerance window. Cross-lane reads check value integrity only.

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleHashMap, MapConfig};
use ale_htm::{mutated, Mutation};
use ale_vtime::{tick, Event};

use super::shadow::{ShadowModel, TtlShadow};
use super::{
    churn_key, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome, CHURN_PER_LANE,
    STABLE_COUNT, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

/// Deadline for entries that must never expire (fits the 48-bit field).
const FOREVER: u64 = 1 << 47;

/// Pack a deadline and the key's integrity bits into one cache value.
fn encode_ttl(key: u64, expiry: u64) -> u64 {
    (expiry << 16) | (key & 0xFFFF)
}

fn expiry_of(val: u64) -> u64 {
    val >> 16
}

/// The ALE HashMap as a TTL cache: values carry their deadline; `get`
/// revalidates it against the caller's clock.
struct TtlCache {
    map: AleHashMap<u64>,
}

impl TtlCache {
    fn fill(&self, key: u64, expiry: u64) -> bool {
        self.map.insert(key, encode_ttl(key, expiry))
    }

    fn evict(&self, key: u64) -> bool {
        self.map.remove(key)
    }

    /// Look `key` up at time `now`: a hit whose deadline has passed is
    /// *stale* and must read as a miss (revalidation on the read path).
    fn get(&self, key: u64, now: u64) -> Option<u64> {
        let mut val = 0u64;
        if !self.map.get(key, &mut val) {
            return None;
        }
        if mutated(Mutation::TtlStaleRead) {
            // Self-test mutation: serve whatever is cached without revalidating the
            // deadline — the stale read the freshness oracle must catch.
            return Some(val);
        }
        if expiry_of(val) <= now {
            return None;
        }
        Some(val)
    }
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // Tuned like the hashmap workload: HTM off, so lookups ride the SWOpt
    // path and every fill/evict runs under the lock — the widest stale
    // windows the revalidation has to close.
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform())
            .without_htm()
            .with_seed(cfg.seed),
        StaticPolicy::new(0, 6),
    );
    let cache = TtlCache {
        map: AleHashMap::new(&ale, MapConfig::new(4).with_capacity(1 << 14)),
    };
    for key in STABLE_KEYS {
        cache.fill(key, FOREVER);
    }

    let violations = Violations::new();
    let v = &violations;
    let cache_ref = &cache;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = TtlShadow::new();
        let threads = cfg.threads as u64;
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=2 => {
                    // Freshness-checked read of an owned slot: the shadow
                    // computes the expected outcome from the same `now`.
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let now = ale_vtime::now();
                    let got = cache_ref.get(key, now);
                    let want = shadow.live(j, now);
                    if got != want {
                        v.record(match (got, want) {
                            (Some(val), None) if shadow.present[j] => format!(
                                "ttl: get({key:#x}) served a stale entry {val:#x} \
                                 (deadline {} ≤ now {now})",
                                shadow.expiry[j]
                            ),
                            (Some(val), None) => format!(
                                "ttl: get({key:#x}) returned {val:#x} for an evicted key"
                            ),
                            (None, Some(val)) => format!(
                                "ttl: get({key:#x}) missed a fresh entry {val:#x} \
                                 (deadline {} > now {now})",
                                shadow.expiry[j]
                            ),
                            (Some(got), Some(want)) => format!(
                                "ttl: get({key:#x}) returned {got:#x}, shadow says {want:#x}"
                            ),
                            (None, None) => unreachable!("equal"),
                        });
                    }
                }
                3 | 4 => {
                    // Cross-lane read: stable keys are immortal and exact;
                    // other lanes' churn keys get integrity checks only.
                    let now = ale_vtime::now();
                    if rng.gen_ratio(1, 2) {
                        let key =
                            STABLE_KEYS.start + rng.gen_range(STABLE_KEYS.end - STABLE_KEYS.start);
                        match cache_ref.get(key, now) {
                            Some(val) if val != encode_ttl(key, FOREVER) => v.record(format!(
                                "ttl: stable key {key:#x} value changed to {val:#x}"
                            )),
                            None => {
                                v.record(format!("ttl: stable key {key:#x} reported absent"))
                            }
                            _ => {}
                        }
                    } else {
                        let key = churn_key(
                            rng.gen_range(threads) as usize,
                            rng.gen_range(CHURN_PER_LANE as u64) as usize,
                        );
                        if let Some(val) = cache_ref.get(key, now) {
                            if !integrity_ok(key, val) {
                                v.record(format!(
                                    "ttl: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                                    val & 0xFFFF
                                ));
                            }
                        }
                    }
                }
                5 | 6 => {
                    // Fill an owned slot with a jittered lifetime.
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let ttl = cfg.ttl_ns + rng.gen_range(cfg.ttl_ns.max(1));
                    let expiry = ale_vtime::now() + ttl;
                    let expect_newly = !shadow.present[j];
                    shadow.fill(j, encode_ttl(key, expiry), expiry);
                    let newly = cache_ref.fill(key, expiry);
                    if newly != expect_newly {
                        v.record(format!(
                            "ttl: fill({key:#x}) returned newly={newly} but shadow says newly={expect_newly}"
                        ));
                    }
                }
                7 => {
                    // Unconditional eviction of an owned slot.
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let was = cache_ref.evict(key);
                    if was != shadow.evict(j) {
                        v.record(format!(
                            "ttl: evict({key:#x}) returned {was} but shadow says present={}",
                            !was
                        ));
                    }
                }
                8 => {
                    // Sweep: evict every owned entry whose deadline passed.
                    let now = ale_vtime::now();
                    for j in 0..CHURN_PER_LANE {
                        if shadow.present[j] && shadow.expiry[j] <= now {
                            let key = churn_key(id, j);
                            if !cache_ref.evict(key) {
                                v.record(format!(
                                    "ttl: sweep found expired {key:#x} already gone"
                                ));
                            }
                        }
                    }
                    shadow.sweep(now);
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        shadow
    });

    // Quiescent oracles: physical state must match the owner shadows
    // (expired-but-unswept entries are still physically present).
    let mut expected_len = STABLE_COUNT;
    for (id, shadow) in report.results.iter().enumerate() {
        for j in 0..CHURN_PER_LANE {
            let key = churn_key(id, j);
            let mut val = 0u64;
            let found = cache.map.get(key, &mut val);
            if found != shadow.present[j] {
                violations.record(format!(
                    "ttl: final state of {key:#x} is present={found}, owner shadow says {}",
                    shadow.present[j]
                ));
            } else if found && val != shadow.value[j] {
                violations.record(format!(
                    "ttl: final value of {key:#x} is {val:#x}, owner shadow says {:#x} (lost update)",
                    shadow.value[j]
                ));
            }
            expected_len += shadow.present[j] as usize;
        }
    }
    let len = cache.map.len_slow();
    if len != expected_len {
        violations.record(format!(
            "ttl: len is {len}, owner shadows total {expected_len}"
        ));
    }
    if !cache.map.versions_even() {
        violations.record("ttl: a version word was left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    for shadow in &report.results {
        shadow.fold(&mut h);
    }
    h.write_u64(len as u64);
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
