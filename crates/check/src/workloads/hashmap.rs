//! The paper's chained HashMap: SWOpt readers vs Lock-mode mutators.
//!
//! Lane 0 (with two or more lanes) is the *rotator*: it only rotates one
//! pair of its keys — remove the live one, insert the other, which re-pops
//! the node the remove just freed — and publishes which key its next
//! rotation removes. The other lanes run the mixed op stream and look that
//! key up before every op. A reader that copies the key's value after its
//! last validation while the rotator recycles the node reads a value with
//! the wrong key in it: the window a skipped validation leaves open.

use std::sync::atomic::{AtomicU64, Ordering};

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleHashMap, MapConfig};
use ale_vtime::{tick, Event};

use super::shadow::{KvShadow, ShadowModel};
use super::{
    churn_key, encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome,
    CHURN_PER_LANE, STABLE_COUNT, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // SWOpt vs Lock focus: HTM off so every optimistic read takes the
    // SWOpt path and every mutation runs under the lock, maximising the
    // windows the seqlock protocol must cover. 4 buckets force long mixed
    // chains (stable and churn keys collide).
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform())
            .without_htm()
            .with_seed(cfg.seed),
        StaticPolicy::new(0, 6),
    );
    let map: AleHashMap<u64> = AleHashMap::new(&ale, MapConfig::new(4).with_capacity(1 << 14));
    for key in STABLE_KEYS {
        map.insert(key, encode(key, 0));
    }

    let violations = Violations::new();
    let v = &violations;
    let map_ref = &map;
    // The rotator's live key (0 until its first rotation). Workload
    // bookkeeping, not simulated memory: it only steers which key the
    // readers look up.
    let next_removed = AtomicU64::new(0);
    let next_removed = &next_removed;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = KvShadow::new();
        let threads = cfg.threads as u64;
        if id == ROTATOR && threads > 1 {
            for _ in 0..cfg.ops {
                let j = usize::from(!shadow.present[0]);
                let key2 = rotate(map_ref, &mut shadow, v, id, j, 1 - j);
                next_removed.store(key2, Ordering::Relaxed);
                // Weight-free ticks take this lane's conflict score to 0.
                // The most-conflicting scheduler then runs every other
                // lane first, so this lane's clock is the eligibility
                // window's floor: the readers run up to the window's top
                // and park at whatever tick lands there — between a
                // reader's last validation and its value read, too —
                // while this lane, alone below them, runs its next
                // rotation of the key they were reading.
                for _ in 0..8 {
                    tick(Event::LocalWork(1));
                }
            }
            return shadow;
        }
        for _ in 0..cfg.ops {
            let hot = next_removed.load(Ordering::Relaxed);
            if hot != 0 {
                get_checked(map_ref, v, hot);
            }
            match rng.gen_range(10) {
                0..=4 => {
                    // Read a random key: a stable one or any lane's churn key.
                    let key = if rng.gen_ratio(1, 2) {
                        STABLE_KEYS.start + rng.gen_range(STABLE_KEYS.end - STABLE_KEYS.start)
                    } else {
                        churn_key(
                            rng.gen_range(threads) as usize,
                            rng.gen_range(CHURN_PER_LANE as u64) as usize,
                        )
                    };
                    let found = get_checked(map_ref, v, key);
                    if STABLE_KEYS.contains(&key) {
                        match found {
                            None => {
                                v.record(format!("hashmap: stable key {key:#x} reported absent"))
                            }
                            Some(val) if val != encode(key, 0) => v.record(format!(
                                "hashmap: stable key {key:#x} value changed to {val:#x}"
                            )),
                            Some(_) => {}
                        }
                    }
                }
                5 | 6 => {
                    // (Re-)insert one of our own keys; alternate the plain
                    // and fine-grained paths for coverage.
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let expect_newly = !shadow.present[j];
                    let val = encode(key, shadow.generation[j] + 1);
                    shadow.insert(j, val);
                    let newly = if shadow.generation[j].is_multiple_of(2) {
                        map_ref.insert(key, val)
                    } else {
                        map_ref.insert_fine(key, val)
                    };
                    if newly != expect_newly {
                        v.record(format!(
                            "hashmap: insert({key:#x}) returned newly={newly} but shadow says newly={expect_newly}"
                        ));
                    }
                }
                7 => {
                    // Remove one of our own keys via a rotating API choice.
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let was = match rng.gen_range(3) {
                        0 => map_ref.remove(key),
                        1 => map_ref.remove_fine(key),
                        _ => map_ref.remove_self_abort(key),
                    };
                    if was != shadow.remove(j) {
                        v.record(format!(
                            "hashmap: remove({key:#x}) returned {was} but shadow says present={}",
                            !was
                        ));
                    }
                }
                8 => {
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    rotate(map_ref, &mut shadow, v, id, j, (j + 1) % CHURN_PER_LANE);
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        shadow
    });

    // Quiescent oracles: owner shadows are the truth now.
    let mut expected_len = STABLE_COUNT;
    for (id, shadow) in report.results.iter().enumerate() {
        for j in 0..CHURN_PER_LANE {
            let key = churn_key(id, j);
            let mut val = 0u64;
            let found = map.get(key, &mut val);
            if found != shadow.present[j] {
                violations.record(format!(
                    "hashmap: final state of {key:#x} is present={found}, owner shadow says {}",
                    shadow.present[j]
                ));
            } else if found && val != shadow.value[j] {
                violations.record(format!(
                    "hashmap: final value of {key:#x} is {val:#x}, owner shadow says {:#x} (lost update)",
                    shadow.value[j]
                ));
            }
            expected_len += shadow.present[j] as usize;
        }
    }
    for key in STABLE_KEYS {
        let mut val = 0u64;
        if !map.get(key, &mut val) {
            violations.record(format!("hashmap: stable key {key:#x} absent after the run"));
        }
    }
    let len = map.len_slow();
    if len != expected_len {
        violations.record(format!(
            "hashmap: len is {len}, owner shadows total {expected_len}"
        ));
    }
    if !map.versions_even() {
        violations.record("hashmap: a version word was left odd after quiescence".into());
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
        stat_parity: Some(super::granule_stat_parity(&ale)),
        ..Default::default()
    }
}

/// The lane that only rotates (see the module docs).
const ROTATOR: usize = 0;

/// Look `key` up, recording a value that carries another key's bits.
fn get_checked(map: &AleHashMap<u64>, v: &Violations, key: u64) -> Option<u64> {
    let mut val = 0u64;
    let found = map.get(key, &mut val).then_some(val);
    if found.is_some_and(|val| !integrity_ok(key, val)) {
        v.record(format!(
            "hashmap: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
            val & 0xFFFF
        ));
    }
    found
}

/// Remove our key `j`, then insert our key `j2`, and return `j2`'s key. The
/// freed slab node lands on this lane's free stripe and the very next alloc
/// pops it, so the node is recycled under a new key within a few ticks of
/// the unlink — the shortest possible reuse distance, and the schedule a
/// skipped version bump or a skipped reader validation cannot survive.
fn rotate(
    map: &AleHashMap<u64>,
    shadow: &mut KvShadow,
    v: &Violations,
    id: usize,
    j: usize,
    j2: usize,
) -> u64 {
    let key = churn_key(id, j);
    let was = map.remove(key);
    if was != shadow.remove(j) {
        v.record(format!(
            "hashmap: remove({key:#x}) returned {was} but shadow says present={}",
            !was
        ));
    }
    let key2 = churn_key(id, j2);
    let expect_newly = !shadow.present[j2];
    let val2 = encode(key2, shadow.generation[j2] + 1);
    shadow.insert(j2, val2);
    let newly = map.insert(key2, val2);
    if newly != expect_newly {
        v.record(format!(
            "hashmap: insert({key2:#x}) returned newly={newly} but shadow says newly={expect_newly}"
        ));
    }
    key2
}
