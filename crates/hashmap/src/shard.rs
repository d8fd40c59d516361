//! The §3 map protocol, written once, and the sharded map built on it.
//!
//! `Shard<V, B>` is one lock over chained buckets: the SWOpt and
//! pessimistic `Get` (Figure 1), `Insert`/`Remove` with only the overwrite
//! and the unlink bracketed as conflicting, and the node slab and version
//! stripes under them. `B: Buckets` is the bucket layout, fixed at compile
//! time:
//!
//! * [`Table`] — one fixed bucket array. Every layout method is a
//!   constant, so the resize protocol below compiles out.
//!   [`AleHashMap`](crate::AleHashMap) is a `Shard<V, Table>`.
//! * `Resizing` — an append-only [`TableSet`] behind a table-pointer
//!   seqlock. Each shard of [`AleShardedMap`] is a `Shard<V, Resizing>`.
//!
//! [`AleShardedMap`] splits the key space across N shards by the *high*
//! bits of the same Fibonacci hash whose low bits pick the bucket. Each
//! shard owns its own [`AleLock`], [`NodeSlab`], version stripes, and
//! bucket tables — so the per-granule adaptive policy and the StormBreaker
//! see N independent granules and can pick a *different mode per shard*
//! under skewed traffic: a Zipf-hot shard may fall back to Lock mode while
//! cold shards keep eliding.
//!
//! ## Incremental resize
//!
//! A shard whose load factor crosses
//! [`ShardedMapConfig::max_load_permille`] doubles its bucket array. The
//! doubled [`Table`] is installed into the shard's append-only
//! [`TableSet`], and migration proceeds one chain per step, driven
//! piggyback from subsequent mutating operations while a migration is
//! live (or explicitly via [`AleShardedMap::migrate_step`]).
//!
//! The shard's migration state is published through an
//! [`ale_sync::SeqBuffer`] of four words — `[cur_table_slot,
//! prev_table_slot | NO_TABLE, migration_cursor, epoch]` — the
//! *table-pointer seqlock*. The protocol:
//!
//! * **Resize start** (Lock-mode CS; the doubled table is allocated
//!   outside): install the table into the next slot, then publish
//!   `[new, old, 0, epoch+1]`.
//! * **Migration step** (elided CS, HTM or Lock): open a conflicting
//!   region on the metadata version, splice every node of old-table chain
//!   `cursor` into its new-table bucket, close the region, then publish
//!   `cursor+1`. The brackets are what let a SWOpt reader overlap the
//!   splice and *know*: its final validate fails and it retries.
//! * **Finish**: once the cursor walks off the old table, publish
//!   `[cur, NO_TABLE, 0, epoch+1]`.
//!
//! Lookups snapshot the metadata ([`SeqBuffer::load_versioned`]), consult
//! the current table, then — if a migration is live and the key's
//! old-table bucket has not been passed by the cursor — the old table, and
//! re-validate both the key's version stripe and the metadata version
//! before trusting anything they read. Version stripes are indexed by
//! *hash*, not bucket, so a stripe snapshot stays meaningful across a
//! table swap.
//!
//! Mutating operations route new links to the current table; inserts and
//! removes search both tables so a not-yet-migrated key is updated in
//! place. Nodes never move between shards, and tables are never freed
//! ([`TableSet`]), so stale traversals stay memory-safe exactly as in the
//! single-lock map.

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, CsCtx, CsOptions, CsOutcome, ScopeId};
use ale_htm::{mutated, HtmCell, Mutation};
use ale_sync::{CachePadded, SeqBuffer, SeqVersion, SpinLock};

use crate::node::{NodeSlab, NIL};
use crate::resize::{Table, TableSet, MAX_TABLES, NO_TABLE};

/// Maximum shard count (power of two).
pub const MAX_SHARDS: usize = 32;

/// Per-shard lock labels. `'static` names keep the label intern table and
/// granule registry happy, and `ale-trace` parses the shard index back out
/// of the label for the `ale_shard_mode_total{shard,mode}` export.
static SHARD_LABELS: [&str; MAX_SHARDS] = [
    "shard00", "shard01", "shard02", "shard03", "shard04", "shard05", "shard06", "shard07",
    "shard08", "shard09", "shard10", "shard11", "shard12", "shard13", "shard14", "shard15",
    "shard16", "shard17", "shard18", "shard19", "shard20", "shard21", "shard22", "shard23",
    "shard24", "shard25", "shard26", "shard27", "shard28", "shard29", "shard30", "shard31",
];

const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(key: u64) -> u64 {
    key.wrapping_mul(FIB)
}

/// The bucket hash: a table masks its low bits, the version stripes too.
#[inline]
pub(crate) fn hash_of(key: u64) -> usize {
    (mix(key) >> 32) as usize
}

/// Configuration for [`AleShardedMap`].
#[derive(Debug, Clone)]
pub struct ShardedMapConfig {
    /// Shard count (rounded up to a power of two, clamped to
    /// [`MAX_SHARDS`]).
    pub shards: usize,
    /// Initial bucket chains per shard (rounded up to a power of two).
    pub buckets_per_shard: usize,
    /// Node capacity per shard (live keys + in-flight allocations).
    pub capacity_per_shard: u64,
    /// Version-number stripes per shard (rounded up to a power of two).
    /// Stripes are indexed by hash, so they survive resizes unchanged.
    pub version_stripes: usize,
    /// Resize trigger: a shard doubles once `live_keys * 1000 >
    /// buckets * max_load_permille`. Must be positive.
    pub max_load_permille: u64,
    /// Migration chains moved piggyback per mutating operation.
    pub migrate_steps_per_op: usize,
}

impl Default for ShardedMapConfig {
    fn default() -> Self {
        ShardedMapConfig {
            shards: 8,
            buckets_per_shard: 128,
            capacity_per_shard: 1 << 16,
            version_stripes: 8,
            max_load_permille: 750,
            migrate_steps_per_op: 2,
        }
    }
}

impl ShardedMapConfig {
    pub fn new(shards: usize) -> Self {
        ShardedMapConfig {
            shards,
            ..Default::default()
        }
    }

    pub fn with_buckets_per_shard(mut self, buckets: usize) -> Self {
        self.buckets_per_shard = buckets;
        self
    }

    pub fn with_capacity_per_shard(mut self, capacity: u64) -> Self {
        self.capacity_per_shard = capacity;
        self
    }

    pub fn with_version_stripes(mut self, stripes: usize) -> Self {
        self.version_stripes = stripes.max(1);
        self
    }

    pub fn with_max_load_permille(mut self, permille: u64) -> Self {
        self.max_load_permille = permille;
        self
    }

    pub fn with_migrate_steps_per_op(mut self, steps: usize) -> Self {
        self.migrate_steps_per_op = steps;
        self
    }
}

/// A shard's bucket layout: everything the §3 protocol asks of the tables
/// under it. Chosen at compile time, so a layout without resize pays for
/// none of it.
pub(crate) trait Buckets {
    /// The table-pointer snapshot `[cur_slot, prev_slot | NO_TABLE, cursor,
    /// epoch]` and the version it was validated against. Locked paths use
    /// the snapshot alone; SWOpt paths re-validate the version.
    fn meta(&self) -> ([u64; 4], u64);
    /// The table-pointer version SWOpt readers validate, if there is one.
    fn meta_version(&self) -> Option<&SeqVersion>;
    /// The table at a slot named by [`meta`](Self::meta).
    fn table(&self, slot: u64) -> &Table;
    /// Account for `delta` live keys.
    fn counted(&self, delta: i64);
}

/// The fixed layout: one table, no migration, no key count.
impl Buckets for Table {
    #[inline]
    fn meta(&self) -> ([u64; 4], u64) {
        ([0, NO_TABLE, 0, 0], 0)
    }

    #[inline]
    fn meta_version(&self) -> Option<&SeqVersion> {
        None
    }

    #[inline]
    fn table(&self, _slot: u64) -> &Table {
        self
    }

    #[inline]
    fn counted(&self, _delta: i64) {}
}

/// The incremental-resize layout (module docs).
pub(crate) struct Resizing {
    tables: TableSet,
    /// `[cur_slot, prev_slot | NO_TABLE, migration_cursor, epoch]`.
    meta: SeqBuffer<4>,
    /// Live keys. An [`HtmCell`] so HTM-mode updates roll back on abort.
    count: HtmCell<u64>,
    max_load_permille: u64,
}

impl Resizing {
    fn new(buckets: usize, max_load_permille: u64) -> Self {
        let r = Resizing {
            tables: TableSet::new(Table::new(buckets)),
            meta: SeqBuffer::new(),
            count: HtmCell::new(0),
            max_load_permille,
        };
        // Initial metadata: current table in slot 0, no migration.
        r.meta.store([0, NO_TABLE, 0, 0]);
        r
    }
}

impl Buckets for Resizing {
    #[inline]
    fn meta(&self) -> ([u64; 4], u64) {
        self.meta.load_versioned()
    }

    #[inline]
    fn meta_version(&self) -> Option<&SeqVersion> {
        Some(self.meta.version())
    }

    #[inline]
    fn table(&self, slot: u64) -> &Table {
        self.tables.get(slot)
    }

    #[inline]
    fn counted(&self, delta: i64) {
        let (n, wrapped) = self.count.get().overflowing_add_signed(delta);
        debug_assert!(!wrapped, "live-key count underflow");
        self.count.set(n);
    }
}

/// A search hit: `(chain head, predecessor id | NIL, node id)`.
type Hit<'a> = (&'a HtmCell<u64>, u64, u64);

/// One lock over chained buckets laid out by `B`: the §3 map.
pub(crate) struct Shard<V: Copy + Default + Send + 'static, B: Buckets> {
    pub(crate) lock: AleLock<SpinLock>,
    pub(crate) slab: NodeSlab<V>,
    /// Per-stripe version words, each padded onto its own cache line
    /// (DESIGN.md §14): stripes exist to split writer traffic, which is
    /// defeated if neighbouring stripes share a line.
    pub(crate) vers: Vec<CachePadded<SeqVersion>>,
    pub(crate) ver_mask: usize,
    pub(crate) buckets: B,
}

impl<V: Copy + Default + Send + 'static, B: Buckets> Shard<V, B> {
    /// A shard of `capacity` nodes and `stripes` (a power of two) version
    /// stripes, guarded by `lock`.
    pub(crate) fn new(lock: AleLock<SpinLock>, capacity: u64, stripes: usize, buckets: B) -> Self {
        Shard {
            lock,
            slab: NodeSlab::with_capacity(capacity),
            vers: (0..stripes)
                .map(|_| CachePadded::new(SeqVersion::new()))
                .collect(),
            ver_mask: stripes - 1,
            buckets,
        }
    }

    #[inline]
    pub(crate) fn ver_of(&self, hash: usize) -> &SeqVersion {
        &self.vers[hash & self.ver_mask]
    }

    /// The insert router: which current-table bucket takes a new link.
    #[inline]
    fn route_insert(&self, hash: usize, curt: &Table, prev: u64) -> usize {
        if mutated(Mutation::ShardRouteStale) && prev != NO_TABLE {
            // Self-test mutation: the router masks with the *pre-resize* table's mask
            // while a migration is live. Keys whose doubled-mask bit is set
            // land in the wrong new-table bucket, where no lookup (which
            // masks correctly) will ever find them — a lost key the shard
            // workload's shadow oracle must catch.
            return hash & self.buckets.table(prev).mask;
        }
        hash & curt.mask
    }

    /// Search both tables for `key` under a metadata snapshot: the current
    /// table, then — while a migration is live and its cursor has not
    /// passed the key's old bucket — the old table.
    /// `ok` is the caller's validation, run by the engine after every read.
    /// `None` on interference, `Some(None)` on a miss, else the hit's
    /// `(chain head, prev, id)`.
    // ale-lint: swopt
    #[inline]
    fn search(
        &self,
        [cur, prev, cursor, _]: [u64; 4],
        hash: usize,
        key: u64,
        ok: &impl Fn() -> bool,
    ) -> Option<Option<Hit<'_>>> {
        let curt = self.buckets.table(cur);
        let head = curt.bucket(hash & curt.mask);
        let (p, id) = self.slab.walk(head, key, ok)?;
        if id != NIL {
            return Some(Some((head, p, id)));
        }
        if prev != NO_TABLE {
            let prevt = self.buckets.table(prev);
            let ob = hash & prevt.mask;
            if (ob as u64) >= cursor {
                let head = prevt.bucket(ob);
                let (p, id) = self.slab.walk(head, key, ok)?;
                if id != NIL {
                    return Some(Some((head, p, id)));
                }
            }
        }
        Some(None)
    }

    /// [`search`](Self::search) under exclusion (HTM/Lock): cannot fail.
    #[inline]
    fn find(&self, meta: [u64; 4], hash: usize, key: u64) -> Option<Hit<'_>> {
        self.search(meta, hash, key, &|| true)
            .expect("an unvalidated search has no failure path")
    }

    /// SWOpt lookup: `Some(found)` on a validated result, `None` on
    /// interference (caller reports `CsOutcome::SwOptFail`). Everything
    /// read since the snapshots is validated against the stripe *and* the
    /// table-pointer version before use: the stripe catches
    /// overwrites/unlinks; the metadata version catches chain splices and
    /// table swaps.
    // ale-lint: swopt
    #[inline]
    pub(crate) fn get_swopt(&self, hash: usize, key: u64, ret_val: &mut V) -> Option<bool> {
        let (snap, mv) = self.buckets.meta();
        let ver = self.ver_of(hash);
        let v = ver.read(true);
        let meta_ok = || self.buckets.meta_version().is_none_or(|m| m.validate(mv));
        // The stripe snapshot must postdate nothing: re-anchor the metadata.
        if !meta_ok() {
            return None;
        }
        let ok = || ver.validate(v) && meta_ok();
        let Some((_, _, id)) = self.search(snap, hash, key, &ok)? else {
            return Some(false);
        };
        let val = self.slab.node(id).val.get();
        // Self-test mutation (`SkipValidate`): dropping the validation
        // after copying the value lets a SWOpt reader return data from a
        // node recycled mid-read — ale-check's value-integrity oracle must
        // catch it.
        if !mutated(Mutation::SkipValidate) && !ok() {
            return None;
        }
        *ret_val = val;
        Some(true)
    }

    /// Pessimistic (HTM/Lock) lookup.
    #[inline]
    fn get_locked(&self, hash: usize, key: u64, ret_val: &mut V) -> bool {
        let Some((_, _, id)) = self.find(self.buckets.meta().0, hash, key) else {
            return false;
        };
        *ret_val = self.slab.node(id).val.get();
        true
    }

    /// The HTM/Lock insertion. An overwrite is the conflicting region — a
    /// SWOpt reader may be about to copy the value; publishing a
    /// fully-initialised node at the head of the current-table chain is
    /// not: readers see the old or the new chain.
    pub(crate) fn insert_locked(
        &self,
        cs: &CsCtx<'_>,
        hash: usize,
        key: u64,
        val: V,
        new_id: u64,
    ) -> bool {
        let meta = self.buckets.meta().0;
        if let Some((_, _, id)) = self.find(meta, hash, key) {
            // Overwrite in place, whichever table holds the node: lookups
            // still consult the old table for buckets at or past the
            // cursor.
            self.ver_of(hash)
                .conflicting(cs.could_swopt_be_running(), || {
                    self.slab.node(id).val.set(val)
                });
            return false;
        }
        let curt = self.buckets.table(meta[0]);
        let idx = self.route_insert(hash, curt, meta[1]);
        self.slab.link_front(curt.bucket(idx), new_id);
        self.buckets.counted(1);
        true
    }

    /// The HTM/Lock removal: find `key` in whichever table holds it, then
    /// unlink it inside the conflicting region (the paper's §3.2 example).
    /// Returns the unlinked node for [`recycle`](Self::recycle).
    pub(crate) fn remove_locked(&self, cs: &CsCtx<'_>, hash: usize, key: u64) -> Option<u64> {
        let (head, prev, id) = self.find(self.buckets.meta().0, hash, key)?;
        let next = self.slab.node(id).next.get();
        // Self-test mutation (`SkipVersionBump`): unlinking without bumping
        // the version makes concurrent SWOpt readers follow a recycled node
        // unnoticed — ale-check must catch it.
        let bump = cs.could_swopt_be_running() && !mutated(Mutation::SkipVersionBump);
        self.ver_of(hash)
            .conflicting(bump, || self.slab.unlink(head, prev, next));
        self.buckets.counted(-1);
        Some(id)
    }

    /// Free an unlinked node — only after the unlink's critical section
    /// committed. Returns whether there was one.
    pub(crate) fn recycle(&self, unlinked: Option<u64>) -> bool {
        if let Some(id) = unlinked {
            self.slab.free(id);
        }
        unlinked.is_some()
    }

    /// Look up `key` under `scope`, copying its value into `ret_val`.
    pub(crate) fn get(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        let hash = hash_of(key);
        self.lock.cs(
            scope,
            CsOptions::new().with_swopt().non_conflicting(),
            |cs| {
                if cs.is_swopt() {
                    self.get_swopt(hash, key, ret_val)
                        .map_or(CsOutcome::SwOptFail, CsOutcome::Done)
                } else {
                    CsOutcome::Done(self.get_locked(hash, key, ret_val))
                }
            },
        )
    }

    /// Insert `key → val` under `scope`. The node is allocated and filled
    /// *outside* the critical section; only the link is published inside.
    pub(crate) fn insert(&self, scope: &'static ScopeId, key: u64, val: V) -> bool {
        let hash = hash_of(key);
        let new_id = self.slab.alloc(key, val);
        let inserted = self.lock.cs_plain(scope, CsOptions::new(), |cs| {
            self.insert_locked(cs, hash, key, val, new_id)
        });
        if !inserted {
            self.slab.free(new_id);
        }
        inserted
    }

    /// Remove `key` under `scope`; recycles the node once the unlink
    /// committed.
    pub(crate) fn remove(&self, scope: &'static ScopeId, key: u64) -> bool {
        let hash = hash_of(key);
        let removed = self.lock.cs_plain(scope, CsOptions::new(), |cs| {
            self.remove_locked(cs, hash, key)
        });
        self.recycle(removed)
    }

    /// Key count via a Lock-mode sweep over every table (diagnostics).
    pub(crate) fn len_slow(&self, scope: &'static ScopeId) -> usize {
        self.lock
            .cs_plain(scope, CsOptions::new().without_htm(), |_| {
                let [cur, prev, _, _] = self.buckets.meta().0;
                let mut n = 0;
                let mut sweep = |t: &Table| {
                    for head in t.heads() {
                        self.slab.sweep(head, |_| n += 1);
                    }
                };
                sweep(self.buckets.table(cur));
                if prev != NO_TABLE {
                    // Chains below the cursor must already be empty; sweep the
                    // whole table so a violated invariant shows up as a count
                    // mismatch.
                    sweep(self.buckets.table(prev));
                }
                n
            })
    }

    /// Are all version stripes and the table-pointer version even (no
    /// conflicting region left open)?
    pub(crate) fn versions_even(&self) -> bool {
        self.vers
            .iter()
            .map(|v| &**v)
            .chain(self.buckets.meta_version())
            .all(|v| v.read(false).is_multiple_of(2))
    }
}

impl<V: Copy + Default + Send + 'static> Shard<V, Resizing> {
    /// Is a migration live?
    fn migrating(&self) -> bool {
        self.buckets.meta.load()[1] != NO_TABLE
    }

    /// Move one old-table chain inside its own elided critical section.
    /// Returns true if a chain was moved (i.e. a migration was live).
    fn migrate_step(&self) -> bool {
        self.lock
            .cs_plain(scope!("ShardedMap::migrate"), CsOptions::new(), |cs| {
                self.migrate_step_in_cs(cs)
            })
    }

    /// One migration step under the already-entered critical section:
    /// splice old-table chain `cursor` into the current table and publish
    /// the advanced cursor. Returns false when there is nothing to migrate.
    fn migrate_step_in_cs(&self, cs: &CsCtx<'_>) -> bool {
        let r = &self.buckets;
        let [cur, prev, cursor, epoch] = r.meta.load();
        if prev == NO_TABLE {
            return false;
        }
        let prevt = r.tables.get(prev);
        let curt = r.tables.get(cur);
        if cursor as usize > prevt.mask {
            // Every chain moved: retire the old table.
            r.meta.store([cur, NO_TABLE, 0, epoch + 1]);
            return false;
        }
        let idx = cursor as usize;
        let mut bp = prevt.bucket(idx).get();
        let bump = cs.could_swopt_be_running();
        let brackets = bump && !mutated(Mutation::ResizeSkipRepublish);
        // The chain splice is the conflicting action: a SWOpt reader that
        // overlaps it could find the key in *neither* table (gone from the
        // old bucket, not yet linked into the new one). The bracket on the
        // table-pointer version is what turns that torn lookup into a
        // validation failure.
        r.meta.version().conflicting(brackets, || {
            prevt.bucket(idx).set(NIL);
            while bp != NIL {
                let node = self.slab.node(bp);
                let next = node.next.get();
                let nb = hash_of(node.key.get()) & curt.mask;
                self.slab.link_front(curt.bucket(nb), bp);
                bp = next;
            }
        });
        if bump && !brackets {
            // Self-test mutation (`ResizeSkipRepublish`): the chains moved
            // *before* any version bump — a reader that overlapped the
            // splice has already validated successfully against the stale
            // even version and reported the key absent. The late bump
            // cannot un-tell it. ale-check's torn-lookup oracle must catch
            // this.
            r.meta.version().conflicting(true, || {});
        }
        r.meta.store([cur, prev, cursor + 1, epoch]);
        true
    }

    /// Start a resize if the load factor crossed the threshold and no
    /// migration is already live.
    fn maybe_start_resize(&self) {
        let r = &self.buckets;
        // Cheap pre-check outside the lock; re-checked under it.
        let [cur, prev, _, _] = r.meta.load();
        if prev != NO_TABLE {
            return;
        }
        let buckets = r.tables.get(cur).len() as u64;
        if r.count.load_consistent() * 1000 <= buckets * r.max_load_permille {
            return;
        }
        let next_slot = (cur + 1) as usize;
        if next_slot >= MAX_TABLES {
            return;
        }
        // The doubled table is allocated outside the critical section; the
        // CS only installs and publishes it. Lock-only: installing a table
        // is a real (non-rollback-able) side effect, so it must not run
        // inside a hardware transaction.
        let mut fresh = Some(Table::new(buckets as usize * 2));
        self.lock.cs_plain(
            scope!("ShardedMap::resize"),
            CsOptions::new().without_htm(),
            |_cs| {
                let [cur2, prev2, _, epoch] = r.meta.load();
                if cur2 != cur || prev2 != NO_TABLE {
                    return;
                }
                if r.count.get() * 1000 <= buckets * r.max_load_permille {
                    return;
                }
                let Some(table) = fresh.take() else { return };
                if !r.tables.install(next_slot, table) {
                    return;
                }
                // Publication order: the slot is populated (release) before
                // the metadata names it.
                r.meta.store([next_slot as u64, cur2, 0, epoch + 1]);
            },
        );
    }
}

/// A sharded, incrementally-resizable ALE hash map. See the module docs
/// for the migration protocol.
///
/// Values are `Copy` and at most 16 bytes (they live in [`HtmCell`]s);
/// keys are `u64`.
pub struct AleShardedMap<V: Copy + Default + Send + 'static> {
    shards: Vec<Shard<V, Resizing>>,
    /// `64 - log2(shards)`; unused when there is a single shard.
    shard_shift: u32,
    migrate_steps: usize,
}

impl<V: Copy + Default + Send + 'static> AleShardedMap<V> {
    /// Create a map registered with `ale`, one lock per shard labelled
    /// `shard00`, `shard01`, …
    ///
    /// Panics if `config.max_load_permille` is 0: every shard holding a
    /// key would then double its table after each migration.
    pub fn new(ale: &Arc<Ale>, config: ShardedMapConfig) -> Self {
        assert!(
            config.max_load_permille > 0,
            "max_load_permille must be positive"
        );
        let shards = config.shards.next_power_of_two().clamp(1, MAX_SHARDS);
        let stripes = config.version_stripes.next_power_of_two();
        let shard_shift = 64 - shards.trailing_zeros();
        let shards = (0..shards)
            .map(|i| {
                Shard::new(
                    ale.new_lock(SHARD_LABELS[i], SpinLock::new()),
                    config.capacity_per_shard,
                    stripes,
                    Resizing::new(config.buckets_per_shard, config.max_load_permille),
                )
            })
            .collect();
        AleShardedMap {
            shards,
            shard_shift,
            migrate_steps: config.migrate_steps_per_op,
        }
    }

    /// Which shard owns `key` (the high bits of the Fibonacci hash, so the
    /// bucket bits — the low half — stay independent of the shard choice).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (mix(key) >> self.shard_shift) as usize
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key`, copying its value into `ret_val`. Returns whether
    /// the key was present.
    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.get_scoped(scope!("ShardedMap::get"), key, ret_val)
    }

    /// `get` under a caller-chosen scope.
    pub fn get_scoped(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        self.shards[self.shard_of(key)].get(scope, key, ret_val)
    }

    /// Insert `key → val`, overwriting any existing value. Returns true if
    /// the key was newly inserted. Piggybacks migration steps and the
    /// resize trigger for the owning shard.
    pub fn insert(&self, key: u64, val: V) -> bool {
        let s = &self.shards[self.shard_of(key)];
        let inserted = s.insert(scope!("ShardedMap::insert"), key, val);
        self.advance_migration(s);
        s.maybe_start_resize();
        inserted
    }

    /// Remove `key`. Returns whether it was present. Piggybacks migration
    /// steps for the owning shard.
    pub fn remove(&self, key: u64) -> bool {
        let s = &self.shards[self.shard_of(key)];
        let removed = s.remove(scope!("ShardedMap::remove"), key);
        self.advance_migration(s);
        removed
    }

    /// Drive up to `migrate_steps_per_op` chain moves on `s`. Most writes
    /// find no migration live, and pay one metadata load for it instead
    /// of a critical section (`migrate_step` re-checks under the lock).
    fn advance_migration(&self, s: &Shard<V, Resizing>) {
        if self.migrate_steps == 0 || !s.migrating() {
            return;
        }
        for _ in 0..self.migrate_steps {
            if !s.migrate_step() {
                break;
            }
        }
    }

    /// Move one old-table chain on shard `si` inside its own elided
    /// critical section. Returns true if a chain was moved (i.e. a
    /// migration was live). Public so tests can single-step a migration.
    pub fn migrate_step(&self, si: usize) -> bool {
        self.shards[si].migrate_step()
    }

    /// Key count via per-shard Lock-mode sweeps (diagnostics/tests only).
    pub fn len_slow(&self) -> usize {
        (0..self.shards.len())
            .map(|si| self.shard_len_slow(si))
            .sum()
    }

    /// Key count of one shard via a Lock-mode sweep over both tables.
    pub fn shard_len_slow(&self, si: usize) -> usize {
        self.shards[si].len_slow(scope!("ShardedMap::len"))
    }

    /// The shard's live-key counter cell (quiescent diagnostics).
    pub fn shard_live_count(&self, si: usize) -> u64 {
        self.shards[si].buckets.count.load_consistent()
    }

    /// The published migration state of shard `si`:
    /// `[cur_slot, prev_slot | NO_TABLE, cursor, epoch]`.
    pub fn migration_state(&self, si: usize) -> [u64; 4] {
        self.shards[si].buckets.meta.load()
    }

    /// Is a migration currently live on shard `si`?
    pub fn migration_in_progress(&self, si: usize) -> bool {
        self.shards[si].migrating()
    }

    /// Is any shard mid-migration?
    pub fn any_migration_in_progress(&self) -> bool {
        (0..self.shards.len()).any(|si| self.migration_in_progress(si))
    }

    /// The migration-cursor invariant: every old-table chain the cursor
    /// has passed is empty. Checked under the shard lock; trivially true
    /// when no migration is live.
    pub fn old_chains_empty_below_cursor(&self, si: usize) -> bool {
        let s = &self.shards[si];
        s.lock.cs_plain(
            scope!("ShardedMap::invariant"),
            CsOptions::new().without_htm(),
            |_| {
                let [_, prev, cursor, _] = s.buckets.meta.load();
                if prev == NO_TABLE {
                    return true;
                }
                let prevt = s.buckets.tables.get(prev);
                (0..(cursor as usize).min(prevt.len())).all(|i| prevt.bucket(i).get() == NIL)
            },
        )
    }

    /// Are all version stripes and table-pointer versions even (no
    /// conflicting region left open)?
    pub fn versions_even(&self) -> bool {
        self.shards.iter().all(Shard::versions_even)
    }

    /// The ALE lock protecting shard `si` (reports, baselines).
    pub fn shard_lock(&self, si: usize) -> &AleLock<SpinLock> {
        &self.shards[si].lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::AleConfig;
    use ale_vtime::Platform;

    fn ale() -> Arc<Ale> {
        use ale_core::StaticPolicy;
        Ale::new(
            AleConfig::new(Platform::testbed()).with_seed(7),
            StaticPolicy::new(0, 4),
        )
    }

    fn tiny_config(shards: usize) -> ShardedMapConfig {
        ShardedMapConfig::new(shards)
            .with_buckets_per_shard(2)
            .with_capacity_per_shard(1 << 12)
            .with_version_stripes(2)
            .with_max_load_permille(1500)
            .with_migrate_steps_per_op(1)
    }

    #[test]
    fn routes_cover_all_shards_and_stay_in_range() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, ShardedMapConfig::new(8));
        let mut seen = [false; 8];
        for key in 0..4096u64 {
            let si = map.shard_of(key);
            assert!(si < 8);
            seen[si] = true;
        }
        assert!(seen.iter().all(|&s| s), "4096 keys must touch all 8 shards");
        // Single-shard map: everything routes to shard 0 without shifting
        // by 64.
        let one: AleShardedMap<u64> = AleShardedMap::new(&ale, ShardedMapConfig::new(1));
        for key in 0..128u64 {
            assert_eq!(one.shard_of(key), 0);
        }
    }

    #[test]
    fn insert_get_remove_roundtrip_across_resizes() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, tiny_config(4));
        for key in 0..512u64 {
            assert!(map.insert(key, key * 3));
            assert!(!map.insert(key, key * 7), "second insert overwrites");
        }
        assert_eq!(map.len_slow(), 512);
        let mut v = 0u64;
        for key in 0..512u64 {
            assert!(map.get(key, &mut v), "key {key} lost");
            assert_eq!(v, key * 7);
        }
        assert!(!map.get(9999, &mut v));
        for key in (0..512u64).step_by(2) {
            assert!(map.remove(key));
            assert!(!map.remove(key), "double remove");
        }
        assert_eq!(map.len_slow(), 256);
        // The tiny table must have resized at least once per shard.
        for si in 0..map.shard_count() {
            assert!(
                map.migration_state(si)[3] > 0,
                "shard {si} never resized under 512 keys on 2 buckets"
            );
        }
        assert!(map.versions_even());
    }

    #[test]
    fn migration_steps_preserve_the_cursor_invariant() {
        let ale = ale();
        // No piggyback steps: the test drives every step by hand.
        let cfg = tiny_config(2).with_migrate_steps_per_op(0);
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, cfg);
        for key in 0..64u64 {
            map.insert(key, key);
        }
        assert!(map.any_migration_in_progress(), "load factor must trip");
        for si in 0..map.shard_count() {
            let mut guard = 0;
            while map.migrate_step(si) {
                assert!(
                    map.old_chains_empty_below_cursor(si),
                    "cursor invariant broken on shard {si}"
                );
                guard += 1;
                assert!(guard < 10_000, "migration never terminates");
            }
            assert!(!map.migration_in_progress(si));
        }
        assert_eq!(map.len_slow(), 64);
        let mut v = 0;
        for key in 0..64u64 {
            assert!(map.get(key, &mut v));
            assert_eq!(v, key);
        }
    }

    /// Writes to a shard whose table never needs to grow enter no
    /// migration critical section: piggyback migration checks for a live
    /// migration first (each such section is a Lock-mode acquisition under
    /// a static SWOpt+Lock policy).
    #[test]
    fn writes_without_a_live_migration_take_no_migration_section() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, ShardedMapConfig::new(1));
        for key in 0..32u64 {
            assert!(map.insert(key, key));
            assert!(map.remove(key));
        }
        assert_eq!(
            map.migration_state(0)[3],
            0,
            "32 keys never trip 128 buckets"
        );
        let migrate: u64 = ale
            .report()
            .locks
            .iter()
            .flat_map(|l| &l.granules)
            .filter(|g| g.context.contains("ShardedMap::migrate"))
            .map(|g| g.executions)
            .sum();
        assert_eq!(
            migrate, 0,
            "a write entered a migration section with none live"
        );
    }

    #[test]
    #[should_panic(expected = "max_load_permille must be positive")]
    fn zero_max_load_is_rejected() {
        let cfg = ShardedMapConfig::new(1).with_max_load_permille(0);
        let _: AleShardedMap<u64> = AleShardedMap::new(&ale(), cfg);
    }

    #[test]
    fn per_shard_counts_match_enumeration() {
        let ale = ale();
        let map: AleShardedMap<u64> = AleShardedMap::new(&ale, tiny_config(4));
        for key in 0..300u64 {
            map.insert(key, key);
        }
        for key in (0..300u64).step_by(3) {
            map.remove(key);
        }
        let mut per_shard = vec![0u64; map.shard_count()];
        let mut v = 0;
        for key in 0..300u64 {
            if map.get(key, &mut v) {
                per_shard[map.shard_of(key)] += 1;
            }
        }
        for (si, &expect) in per_shard.iter().enumerate() {
            assert_eq!(map.shard_len_slow(si) as u64, expect);
            assert_eq!(map.shard_live_count(si), expect);
        }
    }
}
