//! The durable Kyoto CacheDB: write-ahead logging, crash-point fault
//! injection, and verified recovery.
//!
//! Same shape as the `kyoto` workload (per-lane churn keys, shared stable
//! keys, occasional whole-database counts), but through [`DurableCacheDb`]
//! with one crucial bookkeeping change: a lane's shadow is updated only
//! **after** an operation returns — the shadow is the *acknowledged* state,
//! exactly what a client of a durable store is promised to find again.
//!
//! When the configured crash plan fires ([`CheckConfig::crash`]), the lane
//! whose operation was killed records it as *in-flight* and every lane
//! stops at its next operation boundary (the process is dead; the WAL
//! medium freezes). The harness then plays the restart: a **fresh**
//! [`ale_core::Ale`] instance recovers a new database from the log, and the
//! durability oracle checks:
//!
//! * every acknowledged operation is present after recovery (a churn key's
//!   recovered state must be its owner's acked shadow state — or the
//!   owner's in-flight operation, which may or may not have become durable
//!   before the crash; nothing else);
//! * no unacknowledged operation is observable — enforced per key by the
//!   same allowed-set check, and globally by comparing `count()` against an
//!   enumeration of every key the workload can legally contain (a torn
//!   record wrongly applied materialises a garbage key and inflates the
//!   count);
//! * record seqs are gapless up to the truncation point;
//! * init-phase records (armed before the crash plan) always survive.
//!
//! Crash-free runs instead require recovery to reproduce the live database
//! exactly — which is what catches `mut-wal-ack-before-durable` even
//! without a crash: the acked-but-unflushed tail record is missing from the
//! recovered image.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_htm::InjectedCrash;
use ale_kyoto::{wal, DbConfig, DurableCacheDb, KyotoDb, Wal};
use ale_vtime::{tick, Event};

use super::shadow::{KvShadow, ShadowModel};
use super::{
    churn_key, encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome,
    CHURN_PER_LANE, STABLE_COUNT, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

/// What a killed lane was doing: `Some(value)` = set, `None` = remove.
type Inflight = Option<(usize, Option<u64>)>;

struct LaneOut {
    shadow: KvShadow,
    inflight: Inflight,
}

fn db_config() -> DbConfig {
    DbConfig {
        buckets_per_slot: 64,
        capacity_per_slot: 1 << 12,
        payload_cells: 2,
    }
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // The init phase below must not consume the crash plan's consult
    // budget; disarm, init, then arm fresh.
    ale_htm::inject::clear_crash();

    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(3, 10),
    );
    let shared_wal = std::sync::Arc::new(Wal::new());
    let db = DurableCacheDb::new(&ale, db_config(), std::sync::Arc::clone(&shared_wal));
    for key in STABLE_KEYS {
        db.set(key, encode(key, 0));
    }
    if let Some(crash) = cfg.crash {
        ale_htm::inject::install_crash(crash.to_plan(cfg.torn));
    }

    let violations = Violations::new();
    let v = &violations;
    let db_ref = &db;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut shadow = KvShadow::new();
        let mut inflight: Inflight = None;
        let threads = cfg.threads as u64;
        for op in 0..cfg.ops {
            // The process died: the lane stops at its op boundary.
            if ale_htm::inject::crashed() {
                break;
            }
            if op % 64 == 63 {
                let n = db_ref.count();
                let ceiling = STABLE_COUNT + cfg.threads * CHURN_PER_LANE;
                if n > ceiling {
                    v.record(format!("durable: count() returned {n} > ceiling {ceiling}"));
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
                            "durable: get({key:#x}) returned value {val:#x} belonging to key {:#x}",
                            val & 0xFFFF
                        )),
                        Some(val) if STABLE_KEYS.contains(&key) && val != encode(key, 0) => v
                            .record(format!(
                                "durable: stable key {key:#x} value changed to {val:#x}"
                            )),
                        None if STABLE_KEYS.contains(&key) => {
                            v.record(format!("durable: stable key {key:#x} reported absent"))
                        }
                        _ => {}
                    }
                }
                5 | 6 => {
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    let val = encode(key, shadow.generation[j] + 1);
                    match catch_unwind(AssertUnwindSafe(|| db_ref.set(key, val))) {
                        Ok(_newly) => {
                            // The acknowledgement: only now does the client
                            // consider the write durable.
                            shadow.insert(j, val);
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<InjectedCrash>().is_none() {
                                resume_unwind(payload);
                            }
                            inflight = Some((j, Some(val)));
                            break;
                        }
                    }
                }
                7 | 8 => {
                    let j = rng.gen_range(CHURN_PER_LANE as u64) as usize;
                    let key = churn_key(id, j);
                    match catch_unwind(AssertUnwindSafe(|| db_ref.remove(key))) {
                        Ok(_was) => {
                            shadow.remove(j);
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<InjectedCrash>().is_none() {
                                resume_unwind(payload);
                            }
                            inflight = Some((j, None));
                            break;
                        }
                    }
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(300))),
            }
        }
        LaneOut { shadow, inflight }
    });

    let crashed = ale_htm::inject::crashed();

    if !db.versions_even() {
        violations.record("durable: a live-db slot version was left odd after quiescence".into());
    }

    // The restart: recover a fresh database — new Ale instance, same log.
    let ale2 = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed ^ 0xD15C),
        StaticPolicy::new(3, 10),
    );
    let (rdb, rec) = wal::recover(&ale2, db_config(), std::sync::Arc::clone(&shared_wal));

    if !rec.gapless {
        violations.record(format!(
            "durable: recovered log has a seq gap (last trusted seq {})",
            rec.last_seq
        ));
    }
    if !crashed && rec.truncated != 0 {
        violations.record(format!(
            "durable: {} record(s) truncated from a log that never crashed",
            rec.truncated
        ));
    }
    if !rdb.versions_even() {
        violations.record("durable: a recovered-db slot version is odd".into());
    }

    // Init-phase records were durable before the crash plan was armed.
    for key in STABLE_KEYS {
        if rdb.get(key) != Some(encode(key, 0)) {
            violations.record(format!(
                "durable: stable key {key:#x} not intact after recovery"
            ));
        }
        if !crashed && db.get(key) != Some(encode(key, 0)) {
            violations.record(format!("durable: stable key {key:#x} lost on the live db"));
        }
    }

    for (id, lane) in report.results.iter().enumerate() {
        for j in 0..CHURN_PER_LANE {
            let key = churn_key(id, j);
            let acked = lane.shadow.present[j].then_some(lane.shadow.value[j]);
            let found = rdb.get(key);
            // The allowed post-recovery states: the acked state, plus the
            // owner's in-flight operation (its record may have become
            // durable before the crash killed the commit).
            let inflight_state = match lane.inflight {
                Some((ij, state)) if ij == j => Some(state),
                _ => None,
            };
            if found != acked && Some(found) != inflight_state {
                violations.record(format!(
                    "durable: recovered {key:#x} is {found:?}, but acked state is {acked:?}{}",
                    match inflight_state {
                        Some(s) => format!(" and the in-flight op would leave {s:?}"),
                        None => String::new(),
                    }
                ));
            }
            if !crashed && db.get(key) != acked {
                violations.record(format!(
                    "durable: live {key:#x} is {:?}, owner shadow says {acked:?}",
                    db.get(key)
                ));
            }
        }
    }

    // Global no-garbage check: the database may contain exactly the keys
    // the workload can name. A torn record wrongly applied (the
    // `mut-recovery-skip-checksum` failure mode) materialises a key
    // outside this enumeration, which only the count can see.
    let mut enumerated = 0usize;
    for key in STABLE_KEYS {
        enumerated += rdb.get(key).is_some() as usize;
    }
    for id in 0..cfg.threads {
        for j in 0..CHURN_PER_LANE {
            enumerated += rdb.get(churn_key(id, j)).is_some() as usize;
        }
    }
    let n = rdb.count();
    if n != enumerated {
        violations.record(format!(
            "durable: recovered count() is {n} but only {enumerated} known key(s) are present \
             (phantom record applied?)"
        ));
    }
    if !crashed {
        let live = db.count();
        if live != n {
            violations.record(format!(
                "durable: live count {live} != recovered count {n} with no crash \
                 (acked record missing from the log?)"
            ));
        }
    }

    let mut h = Fnv::new();
    for lane in &report.results {
        lane.shadow.fold(&mut h);
        match lane.inflight {
            None => h.write(&[0]),
            Some((j, None)) => {
                h.write(&[1, j as u8]);
            }
            Some((j, Some(val))) => {
                h.write(&[2, j as u8]);
                h.write_u64(val);
            }
        }
    }
    h.write_u64(n as u64);
    h.write_u64(rec.applied);
    h.write_u64(rec.ignored);
    h.write_u64(rec.truncated);
    h.write_u64(rec.last_seq);
    h.write_u64(shared_wal.appends());
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
