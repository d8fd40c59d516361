//! Read-mostly registry with rare bulk updates: a single updater lane
//! occasionally bumps a global epoch and rewrites every entry at the new
//! generation; every other op is a read.
//!
//! The epoch lives in a [`SeqBuffer`] — a multi-word seqlock-published
//! block — and readers bracket each registry lookup with two epoch
//! snapshots. Oracles:
//!
//! * a validated epoch snapshot is never **torn** (all four words equal) —
//!   the check that catches `mut-reorder-publish`, where the buffer's data
//!   writes are reordered ahead of its version bump;
//! * epochs are **monotone** across the two snapshots;
//! * an entry's generation is bounded by the bracketing epochs
//!   (`e1 - 1 ≤ gen ≤ e2`): with one sequential updater, epoch `e` is
//!   published before the rewrite at `e` starts, so a lookup racing the
//!   rewrite sees generation `e-1` or `e`, never older or newer.

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleHashMap, MapConfig};
use ale_sync::SeqBuffer;
use ale_vtime::{tick, Event};

use super::{encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome};
use crate::{CheckConfig, Fnv};

/// Fixed key set: the registry's membership never changes, only the
/// generation stamped into each value.
const REG_KEYS: std::ops::Range<u64> = 1..13;
const REG_KEY_COUNT: usize = 12;

#[derive(Clone, Copy, Default)]
struct LaneOut {
    epochs: u64,
    reads: u64,
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // Read-mostly tuning: few HTM attempts, a deep SWOpt budget — lookups
    // should almost always complete optimistically.
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(2, 8),
    );
    let map = AleHashMap::new(&ale, MapConfig::new(8).with_capacity(1 << 14));
    let epoch_block: SeqBuffer<4> = SeqBuffer::new();
    for key in REG_KEYS {
        map.insert(key, encode(key, 0));
    }

    let violations = Violations::new();
    let v = &violations;
    let (map_ref, block_ref) = (&map, &epoch_block);
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut out = LaneOut::default();
        let mut epoch = 0u64;
        for op in 0..cfg.ops {
            // Lane 0 is the sole updater: publish the new epoch, then
            // rewrite the whole registry at that generation.
            if id == 0 && op % 24 == 23 {
                epoch += 1;
                block_ref.store([epoch; 4]);
                for key in REG_KEYS {
                    map_ref.insert(key, encode(key, epoch));
                }
                out.epochs = epoch;
                continue;
            }
            match rng.gen_range(10) {
                0..=6 => {
                    // Coherent read: epoch snapshot, lookup, epoch snapshot.
                    let b1 = block_ref.load();
                    if !(b1[0] == b1[1] && b1[1] == b1[2] && b1[2] == b1[3]) {
                        v.record(format!(
                            "registry: torn epoch block {b1:?} survived seqlock validation"
                        ));
                    }
                    let key = REG_KEYS.start + rng.gen_range(REG_KEY_COUNT as u64);
                    let mut val = 0u64;
                    if !map_ref.get(key, &mut val) {
                        v.record(format!("registry: key {key:#x} reported absent"));
                        continue;
                    }
                    if !integrity_ok(key, val) {
                        v.record(format!(
                            "registry: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                            val & 0xFFFF
                        ));
                        continue;
                    }
                    let gen = val >> 16;
                    let b2 = block_ref.load();
                    if !(b2[0] == b2[1] && b2[1] == b2[2] && b2[2] == b2[3]) {
                        v.record(format!(
                            "registry: torn epoch block {b2:?} survived seqlock validation"
                        ));
                    }
                    if b2[0] < b1[0] {
                        v.record(format!(
                            "registry: epoch went backwards ({} then {})",
                            b1[0], b2[0]
                        ));
                    }
                    if gen + 1 < b1[0] || gen > b2[0] {
                        v.record(format!(
                            "registry: key {key:#x} at generation {gen} outside epoch \
                             bracket [{} - 1, {}]",
                            b1[0], b2[0]
                        ));
                    }
                    out.reads += 1;
                }
                7 | 8 => {
                    // Integrity-only read (no epoch bracketing).
                    let key = REG_KEYS.start + rng.gen_range(REG_KEY_COUNT as u64);
                    let mut val = 0u64;
                    if map_ref.get(key, &mut val) && !integrity_ok(key, val) {
                        v.record(format!(
                            "registry: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                            val & 0xFFFF
                        ));
                    }
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(200))),
            }
        }
        out
    });

    // Quiescence: the last published epoch is consistent everywhere.
    let final_epoch = report.results.first().map_or(0, |o| o.epochs);
    let block = epoch_block.load();
    if block != [final_epoch; 4] {
        violations.record(format!(
            "registry: final epoch block {block:?} != [{final_epoch}; 4]"
        ));
    }
    for key in REG_KEYS {
        let mut val = 0u64;
        if !map.get(key, &mut val) {
            violations.record(format!("registry: key {key:#x} missing at quiescence"));
        } else if val != encode(key, final_epoch) {
            violations.record(format!(
                "registry: key {key:#x} ended at {val:#x}, expected generation {final_epoch}"
            ));
        }
    }
    if !map.versions_even() {
        violations.record("registry: a version word was left odd after quiescence".into());
    }
    if epoch_block.version().read(false) % 2 == 1 {
        violations.record("registry: epoch block version left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    h.write_u64(final_epoch);
    for out in &report.results {
        h.write_u64(out.epochs);
        h.write_u64(out.reads);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
