//! Integration tests for the durable CacheDB: log → commit → ack protocol,
//! crash-point recovery, torn-tail truncation, and lock-poison healing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_htm::inject::{clear_crash, crashed, install_crash, CrashPlan, CrashPoint, TornMode};
use ale_htm::{InjectKind, InjectPlan, InjectPoint, InjectRule, InjectedCrash, InjectedPanic};
use ale_kyoto::{recover, DbConfig, DurableCacheDb, KyotoDb, Wal, WalOp, WalRecord, RECORD_BYTES};
use ale_vtime::{HtmProfile, Platform, Rng};

/// The crash plan is process-global; tests that arm it must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn db_with(seed: u64) -> (Arc<Ale>, DurableCacheDb, Arc<Wal>) {
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(seed),
        StaticPolicy::new(3, 8),
    );
    let wal = Arc::new(Wal::new());
    let db = DurableCacheDb::new(
        &ale,
        DbConfig {
            buckets_per_slot: 64,
            capacity_per_slot: 4096,
            payload_cells: 0,
        },
        Arc::clone(&wal),
    );
    (ale, db, wal)
}

fn fresh_recover(seed: u64, wal: &Arc<Wal>) -> (DurableCacheDb, ale_kyoto::RecoveryReport) {
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(seed),
        StaticPolicy::new(3, 8),
    );
    recover(
        &ale,
        DbConfig {
            buckets_per_slot: 64,
            capacity_per_slot: 4096,
            payload_cells: 0,
        },
        Arc::clone(wal),
    )
}

#[test]
fn crash_free_recovery_reproduces_the_database() {
    let _guard = serial();
    clear_crash();
    let (_ale, db, wal) = db_with(1);
    for k in 0..40u64 {
        db.set(k, k * 100 + 7);
    }
    for k in (0..40u64).step_by(3) {
        db.remove(k);
    }
    db.set(5, 999);

    let (rdb, rep) = fresh_recover(2, &wal);
    assert!(rep.gapless);
    assert_eq!(rep.truncated, 0);
    assert_eq!(rep.ignored, 0);
    for k in 0..40u64 {
        assert_eq!(rdb.get(k), db.get(k), "key {k} diverged after recovery");
    }
    assert_eq!(rdb.count(), db.count());
    assert!(rdb.versions_even());
}

#[test]
fn pre_commit_crash_keeps_the_durable_record() {
    let _guard = serial();
    clear_crash();
    let (_ale, db, wal) = db_with(3);
    install_crash(CrashPlan::new(CrashPoint::PreCommit, 3));
    let mut acked = Vec::new();
    let mut killed = None;
    for k in 1..=10u64 {
        match catch_unwind(AssertUnwindSafe(|| db.set(k, k + 500))) {
            Ok(_) => acked.push(k),
            Err(p) => {
                assert!(p.downcast_ref::<InjectedCrash>().is_some());
                if killed.is_none() {
                    killed = Some(k);
                }
            }
        }
    }
    assert!(crashed());
    assert_eq!(acked, vec![1, 2]);
    assert_eq!(killed, Some(3));
    clear_crash();

    let (rdb, rep) = fresh_recover(4, &wal);
    // A pre-commit crash fires *after* the record became durable: the
    // killed operation must be recovered even though it never committed
    // in the dead process (it was simply never acknowledged).
    assert!(rep.gapless);
    assert_eq!(rep.applied, 3);
    for &k in &acked {
        assert_eq!(rdb.get(k), Some(k + 500), "acked key {k} lost");
    }
    assert_eq!(rdb.get(3), Some(503));
    assert_eq!(rdb.get(4), None, "post-crash append must not be durable");
    assert_eq!(rdb.count(), 3);
}

#[test]
fn mid_record_crash_truncates_the_torn_tail() {
    let _guard = serial();
    clear_crash();
    let (_ale, db, wal) = db_with(5);
    install_crash(CrashPlan::new(CrashPoint::MidRecord, 3).with_torn(TornMode::Truncate));
    for k in 1..=6u64 {
        let _ = catch_unwind(AssertUnwindSafe(|| db.set(k, k)));
    }
    assert!(crashed());
    clear_crash();

    let (rdb, rep) = fresh_recover(6, &wal);
    assert!(rep.gapless);
    assert_eq!(rep.applied, 2);
    assert_eq!(rep.truncated, 1, "the torn record is dropped, not applied");
    assert_eq!(rdb.get(3), None);
    assert_eq!(rdb.count(), 2);

    // The medium was rewound to the trusted prefix: post-recovery appends
    // continue with gapless seqs and survive the next recovery.
    rdb.set(99, 4242);
    let (rdb2, rep2) = fresh_recover(7, &wal);
    assert!(rep2.gapless);
    assert_eq!(rep2.applied, 3);
    assert_eq!(rdb2.get(99), Some(4242));
}

#[test]
fn flip_torn_tail_is_rejected_by_checksum() {
    let _guard = serial();
    clear_crash();
    let (_ale, db, wal) = db_with(8);
    install_crash(CrashPlan::new(CrashPoint::MidRecord, 2).with_torn(TornMode::Flip));
    for k in 1..=4u64 {
        let _ = catch_unwind(AssertUnwindSafe(|| db.set(k, k)));
    }
    assert!(crashed());
    clear_crash();

    // The flipped record is complete (valid marker, valid length) but its
    // checksum fails — recovery must truncate it, never apply it.
    let (rdb, rep) = fresh_recover(9, &wal);
    assert!(rep.gapless);
    assert_eq!(rep.applied, 1);
    assert_eq!(rep.truncated, 1);
    assert_eq!(rdb.count(), 1);
}

#[test]
fn crash_mid_migration_recovers_every_acked_write() {
    use ale_hashmap::{AleShardedMap, ShardedMapConfig};

    let _guard = serial();
    clear_crash();
    let (ale, db, wal) = db_with(12);
    // An in-memory sharded index mirrors every acknowledged write — the
    // usual cache-in-front-of-log shape. Tiny shards with piggyback
    // migration off keep an incremental resize live across the crash.
    let map: AleShardedMap<u64> = AleShardedMap::new(
        &ale,
        ShardedMapConfig::new(2)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 10)
            .with_version_stripes(2)
            .with_max_load_permille(600)
            .with_migrate_steps_per_op(0),
    );

    let mut acked = Vec::new();
    for k in 1..=24u64 {
        db.set(k, k + 300);
        map.insert(k, k + 300);
        acked.push(k);
    }
    // Advance the migration a little, but the crash must land *mid*-epoch.
    map.migrate_step(0);
    assert!(
        map.any_migration_in_progress(),
        "the load factor must have tripped a resize before the crash"
    );

    // The process dies on the 4th durable append from here: some writes
    // ack, one is killed after its record is durable, the map is torn
    // away mid-migration.
    install_crash(CrashPlan::new(CrashPoint::PreCommit, 4));
    let mut killed = None;
    for k in 25..=32u64 {
        match catch_unwind(AssertUnwindSafe(|| db.set(k, k + 300))) {
            Ok(_) => {
                map.insert(k, k + 300);
                acked.push(k);
            }
            Err(p) => {
                assert!(p.downcast_ref::<InjectedCrash>().is_some());
                if killed.is_none() {
                    killed = Some(k);
                }
            }
        }
    }
    assert!(crashed());
    assert_eq!(killed, Some(28));
    assert!(
        map.any_migration_in_progress(),
        "the crash must interrupt a live migration"
    );
    clear_crash();

    // Recovery sees only the log. The durability oracle's contract: every
    // acknowledged write present, the killed-but-durable write present,
    // nothing after the crash observable.
    let (rdb, rep) = fresh_recover(13, &wal);
    assert!(rep.gapless);
    assert_eq!(rep.truncated, 0);
    for &k in &acked {
        assert_eq!(rdb.get(k), Some(k + 300), "acked key {k} lost");
    }
    assert_eq!(rdb.get(28), Some(328), "durable pre-commit write lost");
    assert_eq!(rdb.get(29), None, "post-crash write must not be durable");
    assert_eq!(rdb.count(), acked.len() + 1);

    // Rebuild the sharded index from the recovered database: the dead
    // map's half-finished migration must leave no residue — the fresh map
    // reaches parity, its cursor invariant holds through its own resizes,
    // and draining them terminates.
    let rale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(14),
        StaticPolicy::new(3, 8),
    );
    let rmap: AleShardedMap<u64> = AleShardedMap::new(
        &rale,
        ShardedMapConfig::new(2)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 10)
            .with_version_stripes(2)
            .with_max_load_permille(600)
            .with_migrate_steps_per_op(1),
    );
    for k in 1..=32u64 {
        if let Some(v) = rdb.get(k) {
            rmap.insert(k, v);
        }
    }
    for si in 0..rmap.shard_count() {
        let mut steps = 0;
        while rmap.migrate_step(si) {
            assert!(rmap.old_chains_empty_below_cursor(si));
            steps += 1;
            assert!(steps < 10_000, "rebuild migration never terminates");
        }
    }
    assert_eq!(rmap.len_slow(), rdb.count());
    let mut v = 0;
    for &k in &acked {
        assert!(rmap.get(k, &mut v), "rebuilt index lost acked key {k}");
        assert_eq!(v, k + 300);
    }
    assert!(rmap.versions_even());
}

#[test]
fn frozen_wal_rejects_posthumous_appends() {
    let _guard = serial();
    clear_crash();
    let (_ale, db, wal) = db_with(10);
    db.set(1, 1);
    install_crash(CrashPlan::new(CrashPoint::WalAppend, 1));
    assert!(catch_unwind(AssertUnwindSafe(|| db.set(2, 2))).is_err());
    let len_at_death = wal.len();
    // The process is dead: nothing may extend its log, even with the plan
    // exhausted.
    assert!(catch_unwind(AssertUnwindSafe(|| db.set(3, 3))).is_err());
    assert!(catch_unwind(AssertUnwindSafe(|| db.remove(1))).is_err());
    assert_eq!(wal.len(), len_at_death);
    clear_crash();
}

#[test]
fn append_inside_an_htm_transaction_panics_before_writing() {
    let _guard = serial();
    clear_crash();
    let wal = Wal::new();
    // No spurious aborts, so the body is sure to run.
    let profile = HtmProfile {
        spurious_abort_per_access: 0.0,
        spurious_abort_per_txn: 0.0,
        ..Platform::testbed().htm.expect("testbed advertises HTM")
    };
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let _ = ale_htm::attempt(&profile, &mut Rng::new(12), || wal.append(WalOp::Set, 1, 1));
    }))
    .expect_err("an append inside a transaction must panic");
    let msg = panicked
        .downcast_ref::<&str>()
        .copied()
        .expect("assert! message");
    assert!(msg.contains("inside an HTM transaction"), "{msg}");
    assert!(wal.is_empty(), "nothing may reach the log");
    // The same append outside a transaction goes through.
    assert_eq!(wal.append(WalOp::Set, 1, 1), 1);
}

#[test]
fn lock_poison_heals_and_preserves_acked_data() {
    let _guard = serial();
    clear_crash();
    ale_core::init_panic_hook();
    let (_ale, db, _wal) = db_with(11);
    for k in 0..20u64 {
        db.set(k, k + 1000);
    }
    db.remove(7);

    // A panicking critical section elsewhere poisoned the external lock
    // and a slot lock. The next operation must heal (clear poison, rebuild
    // from the log) instead of wedging every client forever.
    db.inner().external_meta().poison();
    db.inner().slot_meta(3).poison();
    assert!(db.inner().external_meta().is_poisoned());

    assert_eq!(db.get(4), Some(1004), "reader must heal a poisoned db");
    assert!(!db.inner().external_meta().is_poisoned());
    assert!(!db.inner().slot_meta(3).is_poisoned());
    for k in 0..20u64 {
        let expect = (k != 7).then_some(k + 1000);
        assert_eq!(db.get(k), expect, "key {k} damaged by healing");
    }
    assert_eq!(db.count(), 19);
    assert!(db.versions_even());

    // Writers heal too.
    db.inner().external_meta().poison();
    db.set(7, 7777);
    assert_eq!(db.get(7), Some(7777));
    assert_eq!(db.count(), 20);
}

#[test]
fn unwinding_commit_appends_a_compensation_record() {
    let _guard = serial();
    clear_crash();
    ale_core::init_panic_hook();
    let (_ale, db, wal) = db_with(13);

    // One planned panic, raised as the first hardware transaction begins:
    // `set`'s record is already in the log, its commit never happens.
    ale_htm::inject::install(
        InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Begin,
            every: 1,
            kind: InjectKind::Panic,
        }])
        .limited(1),
    );
    let payload = catch_unwind(AssertUnwindSafe(|| db.set(42, 4200)))
        .expect_err("the injected panic must unwind out of set");
    assert_eq!(ale_htm::inject::clear(), 1, "the plan fires exactly once");
    assert!(payload.downcast_ref::<InjectedPanic>().is_some());

    let log = wal.bytes();
    let records: Vec<WalRecord> = log
        .chunks_exact(RECORD_BYTES)
        .map(|frame| WalRecord::decode(frame.try_into().unwrap()).unwrap())
        .collect();
    let ops: Vec<(WalOp, u64)> = records.iter().map(|r| (r.op, r.seq)).collect();
    assert_eq!(ops, [(WalOp::Set, 1), (WalOp::Abort, 2)]);
    assert_eq!(records[1].key, 1, "the compensation names the set's seq");

    assert_eq!(db.get(42), None, "the unwound set must not be visible");
    let (rdb, rep) = fresh_recover(14, &wal);
    assert_eq!((rep.applied, rep.ignored), (0, 2));
    assert_eq!(
        rdb.get(42),
        None,
        "recovery must not replay the unwound set"
    );

    // The database stays usable: the next set commits and is durable.
    assert!(db.set(42, 4201));
    assert_eq!(db.get(42), Some(4201));
    let (rdb, rep) = fresh_recover(15, &wal);
    assert_eq!((rep.applied, rep.ignored), (1, 2));
    assert_eq!(rdb.get(42), Some(4201));
}
