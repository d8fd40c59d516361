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
//! The read, write and quiescent checks are the key-value oracle's
//! (`kv.rs`); this file adds the migration driver and the shard oracles.
//! In the order they catch the compile-gated mutations:
//!
//! * **Torn lookup** (`mut-resize-skip-republish`): stable keys are
//!   inserted before the run and never mutated, so *any* read reporting
//!   one absent — e.g. an optimistic reader overlapping a chain splice
//!   whose version bump came too late — is a violation. Own-key reads
//!   check exact read-your-writes against the owner shadow.
//! * **Lost key** (`mut-shard-route-stale`): every insert is immediately
//!   re-read through the public lookup path, whose own-key check wants
//!   exactly the value just written; a key routed into a bucket the
//!   (correctly-masked) lookup never visits fails right there, and again
//!   at the quiescent final-state sweep.
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

use super::kv::{fill_stable, KvCheck};
use super::shadow::{KvShadow, ShadowModel};
use super::{lane_rng, sim_for, Violations, WorkloadOutcome, STABLE_COUNT, STABLE_KEYS};
use crate::{CheckConfig, Fnv};

/// Lane-owned slots. Wider than the other map workloads' four so one
/// lane's keys land on *many* shards — the point of this workload is
/// linearizability across shard boundaries, so a lane must routinely
/// mutate several shards within one op window.
const SHARD_SLOTS: usize = 8;

/// The first lane-owned key: lane-owned keys are disjoint from
/// [`STABLE_KEYS`] and spread across shards by the Fibonacci router.
const SLOT_BASE: u64 = 0x1000;

type ShardCheck<'a> = KvCheck<'a, AleShardedMap<u64>, SHARD_SLOTS>;

/// The read key space: stable keys first (so Zipf rank 0 lands on a
/// never-mutated key), then every lane's owned slots.
fn read_key(kv: &ShardCheck, rank: u64) -> u64 {
    if rank < STABLE_COUNT as u64 {
        STABLE_KEYS.start + rank
    } else {
        let r = rank - STABLE_COUNT as u64;
        kv.key(
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
    fill_stable(&map);

    let threads = cfg.threads as u64;
    let key_space = STABLE_COUNT as u64 + threads * SHARD_SLOTS as u64;
    let zipf = (cfg.zipf_milli > 0).then(|| Zipf::new(key_space, cfg.zipf_milli as f64 / 1000.0));

    let violations = Violations::new();
    let kv = ShardCheck::new(cfg, &map, &violations, SLOT_BASE);
    let kv = &kv;
    let zipf_ref = &zipf;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = KvShadow::<SHARD_SLOTS>::new();
        // Last published [epoch, cursor] seen per shard, for monotonicity.
        let mut last_meta = vec![[0u64; 2]; map.shard_count()];
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=4 => {
                    // Read: Zipf-skewed over the shared key space when the
                    // knob is set, uniform otherwise.
                    let rank = match zipf_ref {
                        Some(z) => z.sample(&mut rng),
                        None => rng.gen_range(key_space),
                    };
                    kv.read(id, &shadow, read_key(kv, rank));
                }
                5 | 6 => {
                    // (Re-)insert one of our slots, then read it straight
                    // back: a misrouted link is invisible to the lookup
                    // path and fails here.
                    let j = kv.slot(&mut rng);
                    let (key, val) = kv.next_value(&shadow, id, j);
                    kv.inserted(&mut shadow, j, key, val, map.insert(key, val));
                    kv.read(id, &shadow, key);
                }
                7 => {
                    // Remove one of our slots.
                    let j = kv.slot(&mut rng);
                    let key = kv.key(id, j);
                    kv.removed(&mut shadow, j, key, map.remove(key));
                }
                8 => {
                    // Drive one migration chain move on a random shard,
                    // then check the published cursor never regresses.
                    let si = rng.gen_range(map.shard_count() as u64) as usize;
                    map.migrate_step(si);
                    let [_, _, cursor, epoch] = map.migration_state(si);
                    let [le, lc] = last_meta[si];
                    if epoch < le {
                        kv.violation(format_args!(
                            "shard {si} epoch moved backwards ({le} -> {epoch})"
                        ));
                    } else if epoch == le && cursor < lc {
                        kv.violation(format_args!(
                            "shard {si} cursor moved backwards ({lc} -> {cursor}) in epoch {epoch}"
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
    for key in STABLE_KEYS {
        kv.stable_final(key);
    }
    kv.owners_final(&report.results);

    // Per-shard parity: counter cell, locked enumeration, and the routed
    // owner shadows must all agree; migration invariants must hold even if
    // a migration is still live at quiescence.
    let mut expected_per_shard = vec![0u64; map.shard_count()];
    for key in STABLE_KEYS {
        expected_per_shard[map.shard_of(key)] += 1;
    }
    for (id, shadow) in report.results.iter().enumerate() {
        for j in (0..SHARD_SLOTS).filter(|&j| shadow.present[j]) {
            expected_per_shard[map.shard_of(kv.key(id, j))] += 1;
        }
    }
    for (si, &routed) in expected_per_shard.iter().enumerate() {
        let enumerated = map.shard_len_slow(si) as u64;
        let counted = map.shard_live_count(si);
        if enumerated != counted {
            kv.violation(format_args!(
                "shard {si} enumerates {enumerated} keys but its counter says {counted}"
            ));
        }
        if enumerated != routed {
            kv.violation(format_args!(
                "shard {si} holds {enumerated} keys, owner shadows route {routed} there"
            ));
        }
        if !map.old_chains_empty_below_cursor(si) {
            kv.violation(format_args!(
                "shard {si} has a non-empty old-table chain below the migration cursor"
            ));
        }
    }
    let len = map.len_slow();
    kv.len_final(len, &report.results);
    kv.versions_final();

    let mut h = Fnv::new();
    for shadow in &report.results {
        shadow.fold(&mut h);
        h.write_u64(shadow.inserted);
        h.write_u64(shadow.removed);
    }
    h.write_u64(len as u64);
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
