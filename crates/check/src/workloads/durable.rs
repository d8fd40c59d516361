//! The durable Kyoto CacheDB: write-ahead logging, crash-point fault
//! injection, and verified recovery.
//!
//! The `kyoto` workload's lane loop ([`super::kyoto::lane`]), through
//! [`DurableCacheDb`]: a lane's shadow takes an operation only **after** it
//! returns, so the shadow is the *acknowledged* state — exactly what a
//! client of a durable store is promised to find again. The key-value
//! oracle (`kv.rs`) checks the live run as it does kyoto's; this file adds
//! the restart.
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
//! * record seqs are gapless up to the truncation point, and none below
//!   the last trusted one is missing from every WAL segment (a crash fires
//!   inside one append, with no other in flight, so the only seq it can
//!   lose is the highest drawn);
//! * init-phase records (armed before the crash plan) always survive.
//!
//! Crash-free runs instead require recovery to reproduce the live database
//! exactly — which is what catches `mut-wal-ack-before-durable` even
//! without a crash: the acked-but-unflushed tail record is missing from the
//! recovered image.

use ale_kyoto::{wal, DurableCacheDb, KyotoDb, Wal};

use super::kv::fill_stable;
use super::kyoto::{db_config, lane, new_ale, DbCheck};
use super::shadow::ShadowModel;
use super::{
    encode, sim_for, Violations, WorkloadOutcome, CHURN_BASE, CHURN_PER_LANE, STABLE_KEYS,
};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    // The init phase below must not consume the crash plan's consult
    // budget; disarm, init, then arm fresh.
    ale_htm::inject::clear_crash();

    let ale = new_ale(cfg, cfg.seed);
    let shared_wal = std::sync::Arc::new(Wal::new());
    let db = DurableCacheDb::new(&ale, db_config(), std::sync::Arc::clone(&shared_wal));
    fill_stable(&db);
    if let Some(crash) = cfg.crash {
        ale_htm::inject::install_crash(crash.to_plan(cfg.torn));
    }

    let violations = Violations::new();
    let kv = DbCheck::new(cfg, &db, &violations, CHURN_BASE);
    let report = sim_for(cfg).run(|l| lane(cfg, &kv, l.id()));

    let crashed = ale_htm::inject::crashed();
    kv.versions_final();

    // The restart: recover a fresh database — new Ale instance, same log.
    let ale2 = new_ale(cfg, cfg.seed ^ 0xD15C);
    let (rdb, rec) = wal::recover(&ale2, db_config(), std::sync::Arc::clone(&shared_wal));

    if !rec.gapless {
        violations.record(format!(
            "durable: recovered log has a seq gap (last trusted seq {})",
            rec.last_seq
        ));
    }
    if rec.missing != 0 {
        violations.record(format!(
            "durable: {} seq(s) below {} missing from every segment",
            rec.missing, rec.last_seq
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
        if !crashed {
            kv.stable_final(key);
        }
    }

    for (id, lane) in report.results.iter().enumerate() {
        for j in 0..CHURN_PER_LANE {
            let key = kv.key(id, j);
            let acked = lane.shadow.live(j);
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
            if !crashed {
                kv.owner_final(id, &lane.shadow, j);
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
            enumerated += rdb.get(kv.key(id, j)).is_some() as usize;
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
        kv.len_final(live, report.results.iter().map(|l| &l.shadow));
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
