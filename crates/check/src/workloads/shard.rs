//! The sharded, incrementally-resizable map: SWOpt readers racing
//! Lock-mode mutators *and* live chain migrations across shard boundaries.
//!
//! The configuration is chosen to keep migrations in flight for most of
//! the run: two buckets per shard trip the load-factor trigger almost
//! immediately, and piggyback migration is disabled
//! (`migrate_steps_per_op = 0`) so chains move only when a lane draws the
//! explicit migrate-step op — each one an elided critical section racing
//! every concurrent optimistic lookup.
//!
//! Oracles, in the order they catch the compile-gated mutations:
//!
//! * **Torn lookup** (`mut-resize-skip-republish`): stable keys are
//!   inserted before the run and never mutated, so *any* read reporting
//!   one absent — e.g. an optimistic reader overlapping a chain splice
//!   whose version bump came too late — is a violation. Own-key reads
//!   check exact read-your-writes against the owner shadow.
//! * **Lost key** (`mut-shard-route-stale`): every insert is immediately
//!   re-read through the public lookup path; a key routed into a bucket
//!   the (correctly-masked) lookup never visits fails right there, and
//!   again at the quiescent final-state sweep.
//! * **Cursor monotonicity**: lanes poll each shard's published
//!   `[cur, prev, cursor, epoch]` and require the epoch to never regress
//!   and the cursor to never move backwards within an epoch.
//! * **Count parity**: at quiescence every shard's `HtmCell` counter must
//!   equal a locked enumeration of both its tables, and the total must
//!   equal stable keys + the owner shadows' net insertions.
//!
//! Reads draw keys Zipf(θ)-skewed when `--zipf` is set (θ =
//! `zipf_milli`/1000): rank 0 is the hottest *stable* key, so skew piles
//! optimistic readers onto exactly the chains migrations splice.

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleShardedMap, ShardedMapConfig};
use ale_vtime::{tick, Event, Zipf};

use super::shadow::{ShadowModel, ShardShadow, SHARD_SLOTS};
use super::{
    encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome, STABLE_COUNT, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

/// Lane-owned keys, disjoint from [`STABLE_KEYS`] and spread across
/// shards by the Fibonacci router.
fn slot_key(lane: usize, j: usize) -> u64 {
    0x1000 + (lane as u64) * SHARD_SLOTS as u64 + j as u64
}

/// The read key space: stable keys first (so Zipf rank 0 lands on a
/// never-mutated key), then every lane's owned slots.
fn read_key(rank: u64) -> u64 {
    if rank < STABLE_COUNT as u64 {
        STABLE_KEYS.start + rank
    } else {
        let r = rank - STABLE_COUNT as u64;
        slot_key(
            (r / SHARD_SLOTS as u64) as usize,
            (r % SHARD_SLOTS as u64) as usize,
        )
    }
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // SWOpt vs Lock focus, as in the single-lock hashmap workload: HTM off
    // so optimistic reads take the seqlock path while mutations and
    // migration steps run under the shard lock. Two buckets per shard keep
    // chains long and trip resizes almost immediately; piggyback migration
    // is off so the explicit migrate-step op is the only thing draining a
    // migration — they stay live across most of the schedule.
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform())
            .without_htm()
            .with_seed(cfg.seed),
        StaticPolicy::new(0, 6),
    );
    let map: AleShardedMap<u64> = AleShardedMap::new(
        &ale,
        ShardedMapConfig::new(cfg.shards)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 14)
            .with_version_stripes(2)
            .with_max_load_permille(800)
            .with_migrate_steps_per_op(0),
    );
    for key in STABLE_KEYS {
        map.insert(key, encode(key, 0));
    }

    let threads = cfg.threads as u64;
    let key_space = STABLE_COUNT as u64 + threads * SHARD_SLOTS as u64;
    let zipf = (cfg.zipf_milli > 0).then(|| Zipf::new(key_space, cfg.zipf_milli as f64 / 1000.0));

    let violations = Violations::new();
    let v = &violations;
    let map_ref = &map;
    let zipf_ref = &zipf;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = ShardShadow::new();
        // Last published [epoch, cursor] seen per shard, for monotonicity.
        let mut last_meta = vec![[0u64; 2]; map_ref.shard_count()];
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=4 => {
                    // Read: Zipf-skewed over the shared key space when the
                    // knob is set, uniform otherwise.
                    let rank = match zipf_ref {
                        Some(z) => z.sample(&mut rng),
                        None => rng.gen_range(key_space),
                    };
                    let key = read_key(rank);
                    let mut val = 0u64;
                    let found = map_ref.get(key, &mut val);
                    if found && !integrity_ok(key, val) {
                        v.record(format!(
                            "shard: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                            val & 0xFFFF
                        ));
                    }
                    if STABLE_KEYS.contains(&key) {
                        if !found {
                            v.record(format!(
                                "shard: stable key {key:#x} reported absent (torn lookup)"
                            ));
                        } else if val != encode(key, 0) {
                            v.record(format!(
                                "shard: stable key {key:#x} value changed to {val:#x}"
                            ));
                        }
                    } else if key >= slot_key(id, 0) && key < slot_key(id, SHARD_SLOTS) {
                        // Our own key: single-writer ownership makes the
                        // shadow exact even mid-run.
                        let j = (key - slot_key(id, 0)) as usize;
                        let expect = shadow.live(j);
                        if found != expect.is_some() || (found && Some(val) != expect) {
                            v.record(format!(
                                "shard: own key {key:#x} read {:?}, shadow says {expect:?}",
                                found.then_some(val)
                            ));
                        }
                    }
                }
                5 | 6 => {
                    // (Re-)insert one of our slots, then read it straight
                    // back: a misrouted link is invisible to the lookup
                    // path and fails here.
                    let j = rng.gen_range(SHARD_SLOTS as u64) as usize;
                    let key = slot_key(id, j);
                    let expect_newly = !shadow.present[j];
                    let val = encode(key, shadow.generation[j] + 1);
                    shadow.insert(j, val);
                    let newly = map_ref.insert(key, val);
                    if newly != expect_newly {
                        v.record(format!(
                            "shard: insert({key:#x}) returned newly={newly} but shadow says newly={expect_newly}"
                        ));
                    }
                    let mut got = 0u64;
                    if !map_ref.get(key, &mut got) {
                        v.record(format!(
                            "shard: own key {key:#x} absent immediately after insert (lost key)"
                        ));
                    } else if got != val {
                        v.record(format!(
                            "shard: own key {key:#x} read {got:#x} immediately after inserting {val:#x}"
                        ));
                    }
                }
                7 => {
                    // Remove one of our slots.
                    let j = rng.gen_range(SHARD_SLOTS as u64) as usize;
                    let key = slot_key(id, j);
                    let was = map_ref.remove(key);
                    if was != shadow.remove(j) {
                        v.record(format!(
                            "shard: remove({key:#x}) returned {was} but shadow says present={}",
                            !was
                        ));
                    }
                }
                8 => {
                    // Drive one migration chain move on a random shard,
                    // then check the published cursor never regresses.
                    let si = rng.gen_range(map_ref.shard_count() as u64) as usize;
                    map_ref.migrate_step(si);
                    let [_, _, cursor, epoch] = map_ref.migration_state(si);
                    let [le, lc] = last_meta[si];
                    if epoch < le {
                        v.record(format!(
                            "shard: shard {si} epoch moved backwards ({le} -> {epoch})"
                        ));
                    } else if epoch == le && cursor < lc {
                        v.record(format!(
                            "shard: shard {si} cursor moved backwards ({lc} -> {cursor}) in epoch {epoch}"
                        ));
                    }
                    last_meta[si] = [epoch, cursor];
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        shadow
    });

    // Quiescent oracles: owner shadows are the truth now.
    let mut expected_len = STABLE_COUNT as u64;
    let mut expected_per_shard = vec![0u64; map.shard_count()];
    for key in STABLE_KEYS {
        expected_per_shard[map.shard_of(key)] += 1;
        let mut val = 0u64;
        if !map.get(key, &mut val) {
            violations.record(format!("shard: stable key {key:#x} absent after the run"));
        } else if val != encode(key, 0) {
            violations.record(format!(
                "shard: stable key {key:#x} ended as {val:#x}, expected {:#x}",
                encode(key, 0)
            ));
        }
    }
    for (id, shadow) in report.results.iter().enumerate() {
        for j in 0..SHARD_SLOTS {
            let key = slot_key(id, j);
            let mut val = 0u64;
            let found = map.get(key, &mut val);
            if found != shadow.present[j] {
                violations.record(format!(
                    "shard: final state of {key:#x} is present={found}, owner shadow says {}",
                    shadow.present[j]
                ));
            } else if found {
                if val != shadow.value[j] {
                    violations.record(format!(
                        "shard: final value of {key:#x} is {val:#x}, owner shadow says {:#x} (lost update)",
                        shadow.value[j]
                    ));
                }
                expected_per_shard[map.shard_of(key)] += 1;
            }
        }
        expected_len += shadow.live_count();
    }

    // Per-shard parity: counter cell, locked enumeration, and the routed
    // owner shadows must all agree; migration invariants must hold even if
    // a migration is still live at quiescence.
    for (si, &routed) in expected_per_shard.iter().enumerate() {
        let enumerated = map.shard_len_slow(si) as u64;
        let counted = map.shard_live_count(si);
        if enumerated != counted {
            violations.record(format!(
                "shard: shard {si} enumerates {enumerated} keys but its counter says {counted}"
            ));
        }
        if enumerated != routed {
            violations.record(format!(
                "shard: shard {si} holds {enumerated} keys, owner shadows route {routed} there"
            ));
        }
        if !map.old_chains_empty_below_cursor(si) {
            violations.record(format!(
                "shard: shard {si} has a non-empty old-table chain below the migration cursor"
            ));
        }
    }
    let len = map.len_slow() as u64;
    if len != expected_len {
        violations.record(format!(
            "shard: len is {len}, owner shadows total {expected_len}"
        ));
    }
    if !map.versions_even() {
        violations.record("shard: a version word was left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    for shadow in &report.results {
        shadow.fold(&mut h);
    }
    h.write_u64(len);
    for &n in &expected_per_shard {
        h.write_u64(n);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        stat_parity: Some(super::granule_stat_parity(&ale)),
        ..Default::default()
    }
}
