//! The three table structures and the write-ahead log on concurrent OS
//! threads.
//!
//! Everything else that drives `AleHashMap`, `AleShardedMap`, `AleCacheDb`
//! and `DurableCacheDb` full-stack runs under the simulator, which hands
//! lanes the CPU one at a time. These tests run the same operations on two real
//! threads released by a barrier and check the wall-clock benchmark's
//! oracles: every `get` hit returns the key's canonical value, prefill plus
//! the workers' tallies equals the enumerated size, every version is even
//! at quiescence, and no lock is left held or poisoned. The durable test
//! adds the log's oracle: recovery from the log alone is gapless,
//! untruncated and equal to the live database on every key.

use std::sync::{Arc, Barrier};

use ale_repro::core::{Ale, AleConfig, StaticPolicy};
use ale_repro::hashmap::{AleHashMap, AleShardedMap, MapConfig, ShardedMapConfig};
use ale_repro::kyoto::{recover, AleCacheDb, DbConfig, DurableCacheDb, KyotoDb, Wal, SLOT_NUM};
use ale_repro::sync::RawLock;
use ale_repro::vtime::{Platform, Rng};

const THREADS: u64 = 2;
const KEYS: u64 = 512;
const OPS_PER_THREAD: usize = 50_000;
const DURABLE_OPS_PER_THREAD: usize = 20_000;

fn canonical(key: u64) -> u64 {
    key.wrapping_mul(31) + 7
}

/// All three modes in play: a few HTM attempts, then SWOpt, then the lock.
fn ale() -> Arc<Ale> {
    Ale::new(
        AleConfig::new(Platform::haswell()).with_seed(12),
        StaticPolicy::new(2, 4),
    )
}

/// Insert half of each thread's keys; returns how many.
fn prefill(insert: impl Fn(u64, u64) -> bool) -> i64 {
    let keys = (0..KEYS).filter(|k| k % 4 < 2);
    keys.map(|k| i64::from(insert(k, canonical(k)))).sum()
}

/// The mixed workload: thread `t` inserts and removes only keys
/// `≡ t (mod THREADS)` — so its tally of keys created and removed is exact
/// — and reads every key. Returns the net number of keys created.
fn hammer(
    ops_per_thread: usize,
    get: impl Fn(u64) -> Option<u64> + Sync,
    insert: impl Fn(u64, u64) -> bool + Sync,
    remove: impl Fn(u64) -> bool + Sync,
) -> i64 {
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (get, insert, remove, barrier) = (&get, &insert, &remove, &barrier);
                s.spawn(move || {
                    let mut rng = Rng::new(0xA1E0 + t);
                    let mut net = 0i64;
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let key = rng.gen_range(KEYS);
                        let own = key - key % THREADS + t;
                        match rng.gen_range(10) {
                            0..=1 => net += i64::from(insert(own, canonical(own))),
                            2..=3 => net -= i64::from(remove(own)),
                            _ => {
                                if let Some(v) = get(key) {
                                    assert_eq!(v, canonical(key), "get({key}) hit a foreign value");
                                }
                            }
                        }
                    }
                    net
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker panicked"))
            .sum()
    })
}

#[test]
fn hashmap_on_two_os_threads() {
    let ale = ale();
    // 64 buckets for 512 keys: chains are long enough to walk.
    let map: AleHashMap<u64> = AleHashMap::new(&ale, MapConfig::new(64).with_version_stripes(4));
    let before = prefill(|k, val| map.insert(k, val));
    let net = hammer(
        OPS_PER_THREAD,
        |k| {
            let mut v = 0;
            map.get(k, &mut v).then_some(v)
        },
        |k, val| map.insert(k, val),
        |k| map.remove(k),
    );
    assert_eq!(map.len_slow() as i64, before + net);
    assert!(map.versions_even());
    assert!(!map.lock().raw().is_locked() && !map.lock().is_poisoned());
}

#[test]
fn sharded_map_on_two_os_threads() {
    let ale = ale();
    // 2-bucket shards and no prefill: the population grows from nothing, so
    // resizes start and finish while both workers run.
    let map: AleShardedMap<u64> = AleShardedMap::new(
        &ale,
        ShardedMapConfig::new(4)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 12)
            .with_version_stripes(2)
            .with_max_load_permille(1500)
            .with_migrate_steps_per_op(1),
    );
    let net = hammer(
        OPS_PER_THREAD,
        |k| {
            let mut v = 0;
            map.get(k, &mut v).then_some(v)
        },
        |k, val| map.insert(k, val),
        |k| map.remove(k),
    );
    assert_eq!(map.len_slow() as i64, net);
    assert!(map.versions_even());
    for si in 0..map.shard_count() {
        assert_eq!(map.shard_live_count(si) as usize, map.shard_len_slow(si));
        assert!(map.old_chains_empty_below_cursor(si));
        assert!(map.migration_state(si)[3] > 0, "shard {si} never resized");
        let lock = map.shard_lock(si);
        assert!(!lock.raw().is_locked() && !lock.is_poisoned());
    }
}

#[test]
fn cachedb_on_two_os_threads() {
    let ale = ale();
    let db = AleCacheDb::new(
        &ale,
        DbConfig {
            buckets_per_slot: 4,
            capacity_per_slot: 1 << 12,
            payload_cells: 0,
        },
    );
    let before = prefill(|k, val| db.set(k, val));
    let net = hammer(
        OPS_PER_THREAD,
        |k| db.get(k),
        |k, val| db.set(k, val),
        |k| db.remove(k),
    );
    // `count` takes the RW lock exclusively and every slot lock in turn: it
    // returning at all shows none was left held.
    assert_eq!(db.count() as i64, before + net);
    assert!(db.versions_even());
    assert!(!db.external_meta().is_poisoned());
    assert!((0..SLOT_NUM).all(|s| !db.slot_meta(s).is_poisoned()));
}

/// The WAL under real concurrency. Each thread mutates only its own keys
/// (as everywhere in this file), which also keeps the test clear of a known
/// gap it must not paper over: `DurableCacheDb` appends and commits
/// non-atomically, so two threads mutating *one* key can log in one order
/// and commit in the other (CHANGES.md PR 11).
#[test]
fn durable_on_two_os_threads() {
    let ale = ale();
    let config = DbConfig {
        buckets_per_slot: 4,
        capacity_per_slot: 1 << 12,
        payload_cells: 0,
    };
    let db = DurableCacheDb::new(&ale, config.clone(), Arc::new(Wal::new()));
    let before = prefill(|k, val| db.set(k, val));
    let net = hammer(
        DURABLE_OPS_PER_THREAD,
        |k| db.get(k),
        |k, val| db.set(k, val),
        |k| db.remove(k),
    );
    assert_eq!(db.count() as i64, before + net);
    assert!(db.versions_even());

    let (recovered, report) = recover(&ale, config, Arc::clone(db.wal()));
    assert!(
        report.gapless && report.truncated == 0,
        "a crash-free log must recover cleanly: {report:?}"
    );
    assert!(recovered.versions_even());
    assert_eq!(recovered.count(), db.count());
    for k in 0..KEYS {
        assert_eq!(recovered.get(k), db.get(k), "key {k}: recovered != live");
    }
}
