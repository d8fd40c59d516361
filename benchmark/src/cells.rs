//! The systems under test. A [`Cell`] knows how to build and prefill one
//! configuration of the library, drive it with generated ops from a worker
//! thread, and say what must hold at quiescence. The six named workloads
//! are six values of the three cell types; comparison variants (one
//! shard, WAL on/off, the uninstrumented baseline) are further values.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ale_bench::harness::{self, HashMapWorkload, BENCH_SLACK_NS};
use ale_bench::Variant;
use ale_core::{scope, AdaptivePolicy, Ale, AleConfig, AleLock, CsOptions, StatSink, StaticPolicy};
use ale_hashmap::{AleHashMap, AleShardedMap, MapConfig, ShardedMapConfig};
use ale_kyoto::{
    recover, wicked_op, AleCacheDb, DbConfig, DurableCacheDb, KyotoDb, TrylockspinDb, Wal,
    WickedConfig, WickedStats,
};
use ale_sync::{RawLock, SpinLock};
use ale_vtime::{Platform, Rng, Sim};

use crate::gen::{Mix, Op};
use crate::span::Recorder;

/// What one worker observed during one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Ops whose result was wrong (a `get` hit with a foreign value).
    pub failed: u64,
    pub gets: u64,
    pub hits: u64,
    /// Puts that created a key / removes that deleted one: the net of the
    /// two, added to the prefill, must equal the table's size.
    pub created: u64,
    pub removed: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.gets += o.gets;
        self.hits += o.hits;
        self.created += o.created;
        self.removed += o.removed;
    }
}

/// A timed, checked recovery from the log alone.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub records: u64,
    pub seconds: f64,
}

/// A worker's place in a pass: its op-stream generator and which of the
/// pass's threads it is.
pub struct Lane {
    pub rng: Rng,
    pub thread: u64,
    pub threads: u64,
}

/// Which layer's table a cell drives, for the per-layer comparisons only
/// that family can make.
pub enum Family<'a> {
    Cs,
    Map(&'a MapCell),
    Kyoto(&'a KyotoCell),
}

pub trait Cell: Sync {
    type Inst: Sync;

    fn family(&self) -> Family<'_>;

    /// Worker threads the workload asks for (capped at `nproc` by the
    /// driver).
    fn threads(&self) -> usize;
    /// Ops per thread per pass at full scale.
    fn ops(&self) -> u64;
    /// Every `stride`-th op is timed in the untraced run.
    fn stride(&self) -> u64 {
        8
    }
    /// Which generated traffic the cell consumes (see [`crate::gen`]).
    fn stream(&self) -> u64;
    /// Whether every pass must start from a freshly built instance.
    fn fresh_each_pass(&self) -> bool {
        false
    }
    /// `std::sync::Mutex` cycles timed beside each pass.
    fn mutex_cycles(&self) -> u64 {
        2_000_000
    }

    /// Builds timed together as one `setup_s` sample (see `Live::build`).
    fn setup_batch(&self) -> usize {
        1
    }
    /// Build, prefill and `reset_statistics()`: what `setup_s` times.
    fn build(&self, seed: u64, adaptive: bool) -> Self::Inst;
    fn ale<'a>(&self, inst: &'a Self::Inst) -> Option<&'a Arc<Ale>>;
    /// Live keys at quiescence.
    fn len(&self, inst: &Self::Inst) -> u64;
    /// No conflicting region left open and no lock left held.
    fn settled(&self, inst: &Self::Inst) -> bool;
    fn worker<R: Recorder>(&self, inst: &Self::Inst, lane: Lane, ops: u64, rec: &mut R) -> Tally;
    /// Incremental-resize epochs the instance has completed.
    fn resize_epochs(&self, _inst: &Self::Inst) -> u64 {
        0
    }
    /// Work that ends a pass and is checked but not counted as ops.
    fn after_pass(&self, _inst: &Self::Inst, _seed: u64) -> Result<Option<Recovery>, String> {
        Ok(None)
    }
    /// The same cell under the virtual-time simulator at `threads` lanes:
    /// predicted M ops/s. Deterministic for a given seed.
    fn predict(&self, threads: usize, seed: u64) -> f64;
}

/// Sim sizes for [`Cell::predict`] (the trajectory suite's full sizes).
const PRED_OPS: u64 = 6_000;
const PRED_WARMUP: u64 = 600;

fn make_ale(platform: Platform, seed: u64, policy: (u32, u32), adaptive: bool) -> Arc<Ale> {
    let cfg = AleConfig::new(platform).with_seed(seed);
    if adaptive {
        Ale::new(cfg, AdaptivePolicy::new())
    } else {
        Ale::new(cfg, StaticPolicy::new(policy.0, policy.1))
    }
}

// ---------------------------------------------------------------------------
// Empty critical sections
// ---------------------------------------------------------------------------

/// Empty `cs_plain` brackets on `Platform::testbed()` under
/// Static-All-3:8: the BENCH_10 `per_cs_overhead` cell.
pub struct CsCell {
    pub ops: u64,
}

pub struct CsInst {
    ale: Arc<Ale>,
    lock: AleLock<SpinLock>,
}

impl CsCell {
    pub const POLICY: (u32, u32) = (3, 8);
}

impl Cell for CsCell {
    type Inst = CsInst;

    fn family(&self) -> Family<'_> {
        Family::Cs
    }
    fn threads(&self) -> usize {
        1
    }
    fn ops(&self) -> u64 {
        self.ops
    }
    /// A bracket is ~10x shorter than a table op; a sparser stride keeps
    /// the two clock reads under 1 % of the pass.
    fn stride(&self) -> u64 {
        64
    }
    fn stream(&self) -> u64 {
        0
    }
    /// "The same count of real `std::sync::Mutex` lock/unlock."
    fn mutex_cycles(&self) -> u64 {
        self.ops
    }
    /// A library instance and one lock build in ~0.3 us.
    fn setup_batch(&self) -> usize {
        2048
    }

    fn build(&self, seed: u64, adaptive: bool) -> CsInst {
        let ale = make_ale(Platform::testbed(), seed, Self::POLICY, adaptive);
        let lock = ale.new_lock("per_cs_overhead", SpinLock::new());
        ale.reset_statistics();
        CsInst { ale, lock }
    }
    fn ale<'a>(&self, inst: &'a CsInst) -> Option<&'a Arc<Ale>> {
        Some(&inst.ale)
    }
    fn len(&self, _inst: &CsInst) -> u64 {
        0
    }
    fn settled(&self, inst: &CsInst) -> bool {
        !inst.lock.raw().is_locked() && !inst.lock.is_poisoned()
    }

    fn worker<R: Recorder>(&self, inst: &CsInst, _lane: Lane, ops: u64, rec: &mut R) -> Tally {
        let mut t = Tally::default();
        for i in 0..ops {
            let got = rec.call("cs_plain", || {
                inst.lock
                    .cs_plain(scope!("bench::per_cs"), CsOptions::new(), |_| black_box(i))
            });
            if got != i {
                t.failed += 1;
            }
        }
        t.attempted = ops;
        t
    }

    fn predict(&self, threads: usize, seed: u64) -> f64 {
        let inst = self.build(seed, false);
        // Price the statistics path that ships (batched), as the
        // trajectory suite's per-CS cell does.
        StatSink::force_batched(true);
        let report = Sim::new(Platform::testbed(), threads)
            .with_seed(seed)
            .with_slack(BENCH_SLACK_NS)
            .run(|_lane| {
                for _ in 0..PRED_OPS {
                    inst.lock
                        .cs_plain(scope!("bench::per_cs"), CsOptions::new(), |_| {});
                }
            });
        StatSink::force_batched(false);
        report.throughput(PRED_OPS * threads as u64) / 1e6
    }
}

// ---------------------------------------------------------------------------
// Hash maps
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `AleHashMap`: one lock, fixed size.
    Single,
    /// `AleShardedMap` with this many shards, the bucket budget split
    /// between them and incremental resize armed.
    Sharded(usize),
}

/// `AleHashMap` / `AleShardedMap` on `Platform::haswell()`, half the key
/// space prefilled, values `k·31`.
#[derive(Clone)]
pub struct MapCell {
    pub table: Table,
    pub buckets: usize,
    pub mix: Mix,
    pub policy: (u32, u32),
    pub ops: u64,
    pub stream: u64,
    /// Zipf skew, kept beside the sampler for the simulator's workload.
    pub theta: Option<f64>,
}

pub enum MapInst {
    Single(Arc<Ale>, AleHashMap<u64>),
    Sharded(Arc<Ale>, AleShardedMap<u64>),
}

#[inline]
fn map_value(key: u64) -> u64 {
    key.wrapping_mul(31)
}

/// The three calls the map workloads make, so one loop drives both maps.
trait MapApi {
    fn get(&self, key: u64, out: &mut u64) -> bool;
    fn insert(&self, key: u64, val: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
}

macro_rules! map_api {
    ($t:ty) => {
        impl MapApi for $t {
            #[inline]
            fn get(&self, key: u64, out: &mut u64) -> bool {
                <$t>::get(self, key, out)
            }
            #[inline]
            fn insert(&self, key: u64, val: u64) -> bool {
                <$t>::insert(self, key, val)
            }
            #[inline]
            fn remove(&self, key: u64) -> bool {
                <$t>::remove(self, key)
            }
        }
    };
}
map_api!(AleHashMap<u64>);
map_api!(AleShardedMap<u64>);

fn drive_map<M: MapApi, R: Recorder>(
    map: &M,
    mix: &Mix,
    mut rng: Rng,
    ops: u64,
    rec: &mut R,
) -> Tally {
    let mut t = Tally::default();
    for _ in 0..ops {
        match mix.next(&mut rng) {
            Op::Get(k) => {
                let mut v = 0;
                t.gets += 1;
                if rec.call("get", || map.get(k, &mut v)) {
                    t.hits += 1;
                    if v != map_value(k) {
                        t.failed += 1;
                    }
                }
            }
            Op::Put(k) => {
                if rec.call("insert", || map.insert(k, map_value(k))) {
                    t.created += 1;
                }
            }
            Op::Remove(k) => {
                if rec.call("remove", || map.remove(k)) {
                    t.removed += 1;
                }
            }
        }
    }
    t.attempted = ops;
    t
}

impl MapCell {
    fn key_space(&self) -> u64 {
        self.mix.key_space
    }

    /// The same cell on another table layout (comparison variants).
    pub fn on(&self, table: Table) -> MapCell {
        MapCell {
            table,
            ..self.clone()
        }
    }
}

impl Cell for MapCell {
    type Inst = MapInst;

    fn family(&self) -> Family<'_> {
        Family::Map(self)
    }
    fn threads(&self) -> usize {
        2
    }
    fn ops(&self) -> u64 {
        self.ops
    }
    fn stream(&self) -> u64 {
        self.stream
    }

    fn build(&self, seed: u64, adaptive: bool) -> MapInst {
        let ale = make_ale(Platform::haswell(), seed, self.policy, adaptive);
        let ks = self.key_space();
        let prefill = (0..ks).step_by(2);
        let inst = match self.table {
            Table::Single => {
                let map = AleHashMap::new(
                    &ale,
                    MapConfig::new(self.buckets).with_capacity(ks * 2 + 4096),
                );
                for k in prefill {
                    map.insert(k, map_value(k));
                }
                MapInst::Single(Arc::clone(&ale), map)
            }
            Table::Sharded(shards) => {
                let map = AleShardedMap::new(
                    &ale,
                    ShardedMapConfig::new(shards)
                        .with_buckets_per_shard((self.buckets / shards).max(4))
                        .with_capacity_per_shard(ks * 2 / shards as u64 + 4096)
                        .with_version_stripes(1),
                );
                for k in prefill {
                    map.insert(k, map_value(k));
                }
                MapInst::Sharded(Arc::clone(&ale), map)
            }
        };
        ale.reset_statistics();
        inst
    }
    fn ale<'a>(&self, inst: &'a MapInst) -> Option<&'a Arc<Ale>> {
        match inst {
            MapInst::Single(a, _) | MapInst::Sharded(a, _) => Some(a),
        }
    }
    fn len(&self, inst: &MapInst) -> u64 {
        match inst {
            MapInst::Single(_, m) => m.len_slow() as u64,
            MapInst::Sharded(_, m) => m.len_slow() as u64,
        }
    }
    fn settled(&self, inst: &MapInst) -> bool {
        match inst {
            MapInst::Single(_, m) => m.versions_even() && !m.lock().raw().is_locked(),
            MapInst::Sharded(_, m) => {
                m.versions_even()
                    && (0..m.shard_count()).all(|si| !m.shard_lock(si).raw().is_locked())
            }
        }
    }

    fn resize_epochs(&self, inst: &MapInst) -> u64 {
        match inst {
            MapInst::Single(..) => 0,
            MapInst::Sharded(_, m) => (0..m.shard_count())
                .map(|si| m.migration_state(si)[3])
                .sum(),
        }
    }

    fn worker<R: Recorder>(&self, inst: &MapInst, lane: Lane, ops: u64, rec: &mut R) -> Tally {
        match inst {
            MapInst::Single(_, m) => drive_map(m, &self.mix, lane.rng, ops, rec),
            MapInst::Sharded(_, m) => drive_map(m, &self.mix, lane.rng, ops, rec),
        }
    }

    fn predict(&self, threads: usize, seed: u64) -> f64 {
        let w = HashMapWorkload {
            key_space: self.key_space(),
            insert_pm: self.mix.put_pm as u32,
            remove_pm: self.mix.remove_pm as u32,
            version_stripes: 1,
            buckets: Some(self.buckets),
            zipf_theta: self.theta,
        };
        let variant = Variant::StaticAll(self.policy.0, self.policy.1);
        let platform = Platform::haswell();
        match self.table {
            Table::Single => {
                harness::run_hashmap(platform, variant, threads, &w, PRED_OPS, PRED_WARMUP, seed)
            }
            Table::Sharded(shards) => harness::run_sharded(
                platform,
                variant,
                threads,
                shards,
                &w,
                PRED_OPS,
                PRED_WARMUP,
                seed,
            ),
        }
        .mops
    }
}

// ---------------------------------------------------------------------------
// Kyoto CacheDB
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// `AleCacheDb`, WAL off.
    Plain,
    /// `DurableCacheDb` over an in-memory `Wal`; every pass ends with a
    /// checked `recover()`.
    Durable,
    /// `TrylockspinDb`: the uninstrumented baseline.
    Trylockspin,
}

/// The `wicked` mix (60 % get / 25 % set / 15 % remove, no `count`) on a
/// 4 K key space, 256 buckets per slot, Static-All-3:8 on
/// `Platform::haswell()`: the BENCH_10 durability cell.
///
/// Reads go to any key, but each thread sets and removes only the keys
/// congruent to its index modulo the thread count. `DurableCacheDb`
/// appends to the log and commits to the table in two steps that are not
/// atomic together, so two threads mutating one key can log in one order
/// and commit in the other; recovery then rebuilds a database the live one
/// never was (seen once in ~80 shared-key passes on this host: key live,
/// recovered absent). That is a defect of the library under real
/// concurrency, recorded in README.md; a benchmark needs workloads on
/// which no operation fails, so mutations are made race-free per key. WAL
/// traffic and mutex contention are unchanged, and both database
/// workloads use the same rule so their op streams stay identical.
pub struct KyotoCell {
    pub flavor: Flavor,
    pub mix: Mix,
    pub ops: u64,
}

pub enum KyotoStore {
    Plain(AleCacheDb),
    Durable(DurableCacheDb),
    Trylockspin(TrylockspinDb),
}

pub struct KyotoInst {
    ale: Option<Arc<Ale>>,
    store: KyotoStore,
}

impl KyotoInst {
    fn db(&self) -> &dyn KyotoDb {
        match &self.store {
            KyotoStore::Plain(d) => d,
            KyotoStore::Durable(d) => d,
            KyotoStore::Trylockspin(d) => d,
        }
    }
}

impl KyotoCell {
    pub const KEY_SPACE: u64 = 4 * 1024;
    pub const POLICY: (u32, u32) = (3, 8);

    pub fn new(flavor: Flavor, ops: u64) -> Self {
        KyotoCell {
            flavor,
            mix: Mix::uniform(Self::KEY_SPACE, 250, 150),
            ops,
        }
    }

    pub fn with_flavor(&self, flavor: Flavor) -> KyotoCell {
        KyotoCell::new(flavor, self.ops)
    }

    fn db_config() -> DbConfig {
        DbConfig {
            buckets_per_slot: 256,
            capacity_per_slot: 8 * 1024,
            payload_cells: 0,
        }
    }

    fn wicked_config() -> WickedConfig {
        WickedConfig {
            key_space: Self::KEY_SPACE,
            count_permille: 0,
            ..Default::default()
        }
    }
}

impl Cell for KyotoCell {
    type Inst = KyotoInst;

    fn family(&self) -> Family<'_> {
        Family::Kyoto(self)
    }
    fn threads(&self) -> usize {
        2
    }
    fn ops(&self) -> u64 {
        self.ops
    }
    /// Both database workloads consume one stream, so wicked ÷ durable
    /// isolates the WAL.
    fn stream(&self) -> u64 {
        3
    }
    /// A durable pass starts from a fresh prefilled db and an empty log, so
    /// log growth (and with it the append cost) repeats pass to pass.
    fn fresh_each_pass(&self) -> bool {
        self.flavor == Flavor::Durable
    }

    fn build(&self, seed: u64, adaptive: bool) -> KyotoInst {
        let cfg = Self::db_config();
        let ale = (self.flavor != Flavor::Trylockspin)
            .then(|| make_ale(Platform::haswell(), seed, Self::POLICY, adaptive));
        let store = match (self.flavor, &ale) {
            (Flavor::Plain, Some(a)) => KyotoStore::Plain(AleCacheDb::new(a, cfg)),
            (Flavor::Durable, Some(a)) => {
                KyotoStore::Durable(DurableCacheDb::new(a, cfg, Arc::new(Wal::new())))
            }
            _ => KyotoStore::Trylockspin(TrylockspinDb::new(
                cfg.buckets_per_slot,
                cfg.capacity_per_slot,
            )),
        };
        let inst = KyotoInst { ale, store };
        ale_kyoto::prefill(inst.db(), &Self::wicked_config(), seed);
        if let Some(a) = &inst.ale {
            a.reset_statistics();
        }
        inst
    }
    fn ale<'a>(&self, inst: &'a KyotoInst) -> Option<&'a Arc<Ale>> {
        inst.ale.as_ref()
    }
    fn len(&self, inst: &KyotoInst) -> u64 {
        inst.db().count() as u64
    }
    fn settled(&self, inst: &KyotoInst) -> bool {
        match &inst.store {
            KyotoStore::Plain(d) => d.versions_even(),
            KyotoStore::Durable(d) => d.versions_even(),
            KyotoStore::Trylockspin(_) => true,
        }
    }

    fn worker<R: Recorder>(&self, inst: &KyotoInst, lane: Lane, ops: u64, rec: &mut R) -> Tally {
        let db = inst.db();
        let mut rng = lane.rng;
        // Thread t mutates only keys congruent to t (see the type's docs).
        let own = |k: u64| k - k % lane.threads + lane.thread;
        let mut t = Tally::default();
        for _ in 0..ops {
            match self.mix.next(&mut rng) {
                Op::Get(k) => {
                    t.gets += 1;
                    if let Some(v) = rec.call("get", || db.get(k)) {
                        t.hits += 1;
                        if v != ale_kyoto::value_for(k) {
                            t.failed += 1;
                        }
                    }
                }
                Op::Put(k) => {
                    let k = own(k);
                    if rec.call("set", || db.set(k, ale_kyoto::value_for(k))) {
                        t.created += 1;
                    }
                }
                Op::Remove(k) => {
                    let k = own(k);
                    if rec.call("remove", || db.remove(k)) {
                        t.removed += 1;
                    }
                }
            }
        }
        t.attempted = ops;
        t
    }

    fn after_pass(&self, inst: &KyotoInst, seed: u64) -> Result<Option<Recovery>, String> {
        let KyotoStore::Durable(live) = &inst.store else {
            return Ok(None);
        };
        let ale = make_ale(Platform::haswell(), seed ^ 0xD15C, Self::POLICY, false);
        let t = Instant::now();
        let (recovered, report) = recover(&ale, Self::db_config(), Arc::clone(live.wal()));
        let seconds = t.elapsed().as_secs_f64();
        if !report.gapless || report.truncated != 0 {
            return Err(format!(
                "crash-free log did not recover cleanly: {report:?}"
            ));
        }
        if !recovered.versions_even() {
            return Err("recovered db left a conflicting region open".into());
        }
        for k in 0..Self::KEY_SPACE {
            let (a, b) = (live.get(k), recovered.get(k));
            if a != b {
                return Err(format!("key {k}: live {a:?} but recovered {b:?}"));
            }
        }
        Ok(Some(Recovery {
            records: report.applied + report.ignored,
            seconds,
        }))
    }

    fn predict(&self, threads: usize, seed: u64) -> f64 {
        let cfg = Self::wicked_config();
        let platform = Platform::haswell();
        let variant = match self.flavor {
            Flavor::Plain => Variant::StaticAll(Self::POLICY.0, Self::POLICY.1),
            Flavor::Trylockspin => Variant::Uninstrumented,
            Flavor::Durable => {
                // ale-bench has no durable runner; this is its `run_kyoto`
                // loop over a DurableCacheDb, as the trajectory suite does.
                let inst = self.build(seed, false);
                let lane = |sim_seed: u64, ops: u64| {
                    Sim::new(platform.clone(), threads)
                        .with_seed(sim_seed)
                        .with_slack(BENCH_SLACK_NS)
                        .run(|lane| {
                            let mut rng = lane.rng().clone();
                            let mut stats = WickedStats::default();
                            for _ in 0..ops {
                                wicked_op(inst.db(), &cfg, &mut rng, &mut stats);
                            }
                        })
                };
                lane(seed, PRED_WARMUP);
                let report = lane(seed ^ 0xBEEF, PRED_OPS);
                return report.throughput(PRED_OPS * threads as u64) / 1e6;
            }
        };
        harness::run_kyoto(
            platform,
            variant,
            threads,
            &cfg,
            PRED_OPS,
            PRED_WARMUP,
            seed,
        )
        .mops
    }
}

// ---------------------------------------------------------------------------
// The six named workloads
// ---------------------------------------------------------------------------

pub const MAP_KEYS: u64 = 16 * 1024;

pub fn cs_empty() -> CsCell {
    CsCell { ops: 6_000_000 }
}

/// 2i/2r/96g uniform over 4096 buckets, Static-All-3:8: the fig2 mix.
pub fn map_read() -> MapCell {
    MapCell {
        table: Table::Single,
        buckets: 4096,
        mix: Mix::uniform(MAP_KEYS, 20, 20),
        policy: (3, 8),
        ops: 2_000_000,
        stream: 1,
        theta: None,
    }
}

/// 20i/20r/60g Zipf(1.1) over 512 buckets, Static-All-0:6: the BENCH_10
/// sharded cell's single-lock side.
pub fn map_mutate_zipf() -> MapCell {
    MapCell {
        table: Table::Single,
        buckets: 512,
        mix: Mix::zipf(MAP_KEYS, 1.1, 200, 200),
        policy: (0, 6),
        ops: 700_000,
        stream: 2,
        theta: Some(1.1),
    }
}

/// The same op stream on 8 shards x 64 buckets with resize armed.
pub fn shard8_mutate_zipf() -> MapCell {
    map_mutate_zipf().on(Table::Sharded(8))
}

pub fn kyoto_wicked() -> KyotoCell {
    KyotoCell::new(Flavor::Plain, 1_000_000)
}

pub fn kyoto_durable() -> KyotoCell {
    KyotoCell::new(Flavor::Durable, 500_000)
}
