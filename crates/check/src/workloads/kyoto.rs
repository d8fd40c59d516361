//! The Kyoto CacheDB: nested RW-lock + slot-lock critical sections, all
//! three modes. Its lane loop is also the `durable` workload's: the same op
//! stream, through the write-ahead log.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_htm::InjectedCrash;
use ale_kyoto::{AleCacheDb, DbConfig};
use ale_vtime::{tick, Event};

use super::kv::{fill_stable, KvCheck, KvSubject};
use super::shadow::{KvShadow, ShadowModel};
use super::{lane_rng, sim_for, Violations, WorkloadOutcome, CHURN_BASE, CHURN_PER_LANE};
use crate::{CheckConfig, Fnv};

/// The oracle over a CacheDB: lanes own [`CHURN_PER_LANE`] keys each.
pub(super) type DbCheck<'a, S> = KvCheck<'a, S, CHURN_PER_LANE>;

pub(super) fn db_config() -> DbConfig {
    DbConfig {
        buckets_per_slot: 64,
        capacity_per_slot: 1 << 12,
        payload_cells: 2,
    }
}

pub(super) fn new_ale(cfg: &CheckConfig, seed: u64) -> std::sync::Arc<Ale> {
    Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(seed),
        StaticPolicy::new(3, 10),
    )
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let ale = new_ale(cfg, cfg.seed);
    let db = AleCacheDb::new(&ale, db_config());
    fill_stable(&db);

    let violations = Violations::new();
    let kv = DbCheck::new(cfg, &db, &violations, CHURN_BASE);
    let report = sim_for(cfg).run(|lane| self::lane(cfg, &kv, lane.id()).shadow);
    let n = kv.final_sweep(&report.results);

    let mut h = Fnv::new();
    for shadow in &report.results {
        shadow.fold(&mut h);
    }
    h.write_u64(n as u64);
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}

/// What a lane of the CacheDB stream ends with.
pub(super) struct LaneOut {
    /// The acknowledged state of the lane's keys.
    pub shadow: KvShadow<CHURN_PER_LANE>,
    /// The op a planned crash killed, if one did: `(slot, Some(value))` =
    /// set, `(slot, None)` = remove.
    pub inflight: Option<(usize, Option<u64>)>,
}

/// One lane of the CacheDB op stream. The shadow takes an op only once the
/// subject acknowledged it; a planned crash (only the durable store
/// consults one) stops the lane and leaves the op it killed in flight.
pub(super) fn lane<S: KvSubject>(cfg: &CheckConfig, kv: &DbCheck<S>, id: usize) -> LaneOut {
    let mut rng = lane_rng(cfg, id);
    let mut out = LaneOut {
        shadow: KvShadow::new(),
        inflight: None,
    };
    let shadow = &mut out.shadow;
    let threads = cfg.threads as u64;
    for op in 0..cfg.ops {
        // The process died: the lane stops at its op boundary.
        if ale_htm::inject::crashed() {
            break;
        }
        if op % 64 == 63 {
            // Occasional whole-database count: the paper's "relatively
            // large hardware transaction". Racy by nature mid-run; the
            // only invariant here is that it terminates and is sane.
            let n = kv.subject.len();
            let ceiling = super::STABLE_COUNT + cfg.threads * CHURN_PER_LANE;
            if n > ceiling {
                kv.violation(format_args!("count() returned {n} > ceiling {ceiling}"));
            }
            continue;
        }
        match rng.gen_range(10) {
            0..=4 => {
                let key = kv.any_key(&mut rng, threads);
                kv.read(id, shadow, key);
            }
            5 | 6 => {
                let j = kv.slot(&mut rng);
                let (key, val) = kv.next_value(shadow, id, j);
                match acked(|| kv.subject.insert(key, val)) {
                    Some(newly) => kv.inserted(shadow, j, key, val, newly),
                    None => {
                        out.inflight = Some((j, Some(val)));
                        break;
                    }
                }
            }
            7 | 8 => {
                let j = kv.slot(&mut rng);
                let key = kv.key(id, j);
                match acked(|| kv.subject.remove(key)) {
                    Some(was) => kv.removed(shadow, j, key, was),
                    None => {
                        out.inflight = Some((j, None));
                        break;
                    }
                }
            }
            _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
        }
    }
    out
}

/// Run `op`; `None` when a planned crash killed it.
fn acked<T>(op: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => Some(r),
        Err(payload) if payload.is::<InjectedCrash>() => None,
        Err(payload) => resume_unwind(payload),
    }
}
