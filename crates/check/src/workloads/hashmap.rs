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

use super::kv::{fill_stable, KvCheck};
use super::shadow::{KvShadow, ShadowModel};
use super::{lane_rng, sim_for, Violations, WorkloadOutcome, CHURN_BASE, CHURN_PER_LANE};
use crate::{CheckConfig, Fnv};

type MapCheck<'a> = KvCheck<'a, AleHashMap<u64>, CHURN_PER_LANE>;
type Shadow = KvShadow<CHURN_PER_LANE>;

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
    fill_stable(&map);

    let violations = Violations::new();
    let kv = MapCheck::new(cfg, &map, &violations, CHURN_BASE);
    let kv = &kv;
    // The rotator's live key (0 until its first rotation). Workload
    // bookkeeping, not simulated memory: it only steers which key the
    // readers look up.
    let next_removed = AtomicU64::new(0);
    let next_removed = &next_removed;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = Shadow::new();
        let threads = cfg.threads as u64;
        if id == ROTATOR && threads > 1 {
            for _ in 0..cfg.ops {
                let j = usize::from(!shadow.present[0]);
                let key2 = rotate(kv, &mut shadow, id, j, 1 - j);
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
                kv.read(id, &shadow, hot);
            }
            match rng.gen_range(10) {
                0..=4 => {
                    let key = kv.any_key(&mut rng, threads);
                    kv.read(id, &shadow, key);
                }
                5 | 6 => {
                    // (Re-)insert one of our own keys; alternate the plain
                    // and fine-grained paths for coverage.
                    let j = kv.slot(&mut rng);
                    let (key, val) = kv.next_value(&shadow, id, j);
                    let newly = if shadow.generation[j].is_multiple_of(2) {
                        map.insert_fine(key, val)
                    } else {
                        map.insert(key, val)
                    };
                    kv.inserted(&mut shadow, j, key, val, newly);
                }
                7 => {
                    // Remove one of our own keys via a rotating API choice.
                    let j = kv.slot(&mut rng);
                    let key = kv.key(id, j);
                    let was = match rng.gen_range(3) {
                        0 => map.remove(key),
                        1 => map.remove_fine(key),
                        _ => map.remove_self_abort(key),
                    };
                    kv.removed(&mut shadow, j, key, was);
                }
                8 => {
                    let j = kv.slot(&mut rng);
                    rotate(kv, &mut shadow, id, j, (j + 1) % CHURN_PER_LANE);
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        shadow
    });

    // Quiescent oracles: owner shadows are the truth now.
    let len = kv.final_sweep(&report.results);

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

/// Remove our key `j`, then insert our key `j2`, and return `j2`'s key. The
/// freed slab node lands on this lane's free stripe and the very next alloc
/// pops it, so the node is recycled under a new key within a few ticks of
/// the unlink — the shortest possible reuse distance, and the schedule a
/// skipped version bump or a skipped reader validation cannot survive.
fn rotate(kv: &MapCheck, shadow: &mut Shadow, id: usize, j: usize, j2: usize) -> u64 {
    let key = kv.key(id, j);
    kv.removed(shadow, j, key, kv.subject.remove(key));
    let (key2, val2) = kv.next_value(shadow, id, j2);
    kv.inserted(shadow, j2, key2, val2, kv.subject.insert(key2, val2));
    key2
}
