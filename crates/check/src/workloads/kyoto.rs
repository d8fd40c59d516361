//! The Kyoto CacheDB: nested RW-lock + slot-lock critical sections, all
//! three modes.

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_kyoto::{AleCacheDb, DbConfig, KyotoDb};
use ale_vtime::{tick, Event};

use super::shadow::{KvShadow, ShadowModel};
use super::{
    churn_key, encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome,
    CHURN_PER_LANE, STABLE_COUNT, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(3, 10),
    );
    let db = AleCacheDb::new(
        &ale,
        DbConfig {
            buckets_per_slot: 64,
            capacity_per_slot: 1 << 12,
            payload_cells: 2,
        },
    );
    for key in STABLE_KEYS {
        db.set(key, encode(key, 0));
    }

    let violations = Violations::new();
    let v = &violations;
    let db_ref = &db;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = KvShadow::new();
        let threads = cfg.threads as u64;
        for op in 0..cfg.ops {
            if op % 64 == 63 {
                // Occasional whole-database count: the paper's "relatively
                // large hardware transaction". Racy by nature mid-run; the
                // only invariant here is that it terminates and is sane.
                let n = db_ref.count();
                let ceiling = STABLE_COUNT + cfg.threads * CHURN_PER_LANE;
                if n > ceiling {
                    v.record(format!("kyoto: count() returned {n} > ceiling {ceiling}"));
                }
                continue;
            }
            match rng.gen_range(10) {
                0..=4 => {
                    let key = if rng.gen_ratio(1, 2) {
                        STABLE_KEYS.start + rng.gen_range(STABLE_KEYS.end - STABLE_KEYS.start)
                    } else {
                        churn_key(
                            rng.gen_range(threads) as usize,
                            rng.gen_range(CHURN_PER_LANE as u64) as usize,
                        )
                    };
                    match db_ref.get(key) {
                        Some(val) if !integrity_ok(key, val) => v.record(format!(
                            "kyoto: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                            val & 0xFFFF
                        )),
                        Some(val) if STABLE_KEYS.contains(&key) && val != encode(key, 0) => v
                            .record(format!(
                                "kyoto: stable key {key:#x} value changed to {val:#x}"
                            )),
                        None if STABLE_KEYS.contains(&key) => {
                            v.record(format!("kyoto: stable key {key:#x} reported absent"))
                        }
                        _ => {}
                    }
                }
                5 | 6 => {
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let expect_newly = !shadow.present[j];
                    let val = encode(key, shadow.generation[j] + 1);
                    shadow.insert(j, val);
                    let newly = db_ref.set(key, val);
                    if newly != expect_newly {
                        v.record(format!(
                            "kyoto: set({key:#x}) returned newly={newly} but shadow says newly={expect_newly}"
                        ));
                    }
                }
                7 | 8 => {
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let was = db_ref.remove(key);
                    if was != shadow.remove(j) {
                        v.record(format!(
                            "kyoto: remove({key:#x}) returned {was} but shadow says present={}",
                            !was
                        ));
                    }
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        shadow
    });

    let mut expected = STABLE_COUNT;
    for (id, shadow) in report.results.iter().enumerate() {
        for j in 0..CHURN_PER_LANE {
            let key = churn_key(id, j);
            let found = db.get(key);
            match (found, shadow.present[j]) {
                (Some(val), true) if val != shadow.value[j] => violations.record(format!(
                    "kyoto: final value of {key:#x} is {val:#x}, owner shadow says {:#x} (lost update)",
                    shadow.value[j]
                )),
                (None, true) => violations.record(format!(
                    "kyoto: final state of {key:#x} is absent, owner shadow says present"
                )),
                (Some(_), false) => violations.record(format!(
                    "kyoto: final state of {key:#x} is present, owner shadow says absent"
                )),
                _ => {}
            }
            expected += shadow.present[j] as usize;
        }
    }
    for key in STABLE_KEYS {
        if db.get(key).is_none() {
            violations.record(format!("kyoto: stable key {key:#x} absent after the run"));
        }
    }
    let n = db.count();
    if n != expected {
        violations.record(format!(
            "kyoto: count() is {n}, owner shadows total {expected}"
        ));
    }
    if !db.versions_even() {
        violations.record("kyoto: a slot version was left odd after quiescence".into());
    }

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
