//! The ALE-integrated HashMap (§3 of the paper).
//!
//! A chained hash table protected by a single lock (`tblLock`): the §3
//! protocol of `Shard` over one fixed [`Table`], with the resize
//! protocol compiled out. That gives:
//!
//! * **Get** — SWOpt path generated from the same source as the pessimistic
//!   path (the paper's `GetImp<SWOptMode>` twin template instantiation,
//!   Figure 1: one chain walk, validation passed in), validating the
//!   version number before using any value read since the last validation;
//! * **Insert / Remove** — executed in HTM or Lock mode; the code that
//!   interferes with SWOpt readers (the unlink, the value overwrite) is
//!   bracketed with `Begin/EndConflictingAction`, and the bump is elided
//!   when `COULD_SWOPT_BE_RUNNING` says no SWOpt reader can observe it
//!   (§3.3);
//! * **fine-grained variants** (`insert_fine`/`remove_fine`, §3.3) — the
//!   search prefix runs in SWOpt mode and only the mutating suffix takes a
//!   nested, non-SWOpt critical section, re-validating before committing
//!   to the conflicting action;
//! * **self-abort variant** (`remove_self_abort`, §3.3) — the whole
//!   operation runs in SWOpt mode and *self-aborts* out of it when it
//!   discovers it must mutate;
//! * **per-bucket version numbers** — the paper's "concurrency could be
//!   improved by using multiple version numbers, say one for each HashMap
//!   bucket. We have not yet experimented with this option." We did:
//!   configure [`MapConfig::version_stripes`] > 1 (ablation A3).
//!
//! The map keeps its own `HashMap::…` scopes: a scope's identity is its
//! static's address, so these granules stay distinct from the sharded
//! map's.

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, CsOptions, CsOutcome, ScopeId};
use ale_htm::HtmCell;
use ale_sync::{SeqVersion, SpinLock};

use crate::node::NIL;
use crate::resize::Table;
use crate::shard::{hash_of, Shard};

/// Configuration for [`AleHashMap`].
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Number of bucket chains (rounded up to a power of two).
    pub buckets: usize,
    /// Node capacity (live keys + in-flight allocations).
    pub capacity: u64,
    /// Version-number stripes: 1 = the paper's single `tblVer`; more
    /// stripes give per-bucket(-group) versions (ablation A3).
    pub version_stripes: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            buckets: 1024,
            capacity: 1 << 20,
            version_stripes: 1,
        }
    }
}

impl MapConfig {
    pub fn new(buckets: usize) -> Self {
        MapConfig {
            buckets,
            ..Default::default()
        }
    }

    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    pub fn with_version_stripes(mut self, stripes: usize) -> Self {
        self.version_stripes = stripes.max(1);
        self
    }
}

/// The paper's HashMap: one lock, chained buckets, three execution modes.
///
/// Values are `Copy` and at most 16 bytes (they live in
/// [`HtmCell`]s); keys are `u64`.
pub struct AleHashMap<V: Copy + Default + Send + 'static> {
    shard: Shard<V, Table>,
}

impl<V: Copy + Default + Send + 'static> AleHashMap<V> {
    /// Create a map registered with `ale` under the lock label `tblLock`.
    pub fn new(ale: &Arc<Ale>, config: MapConfig) -> Self {
        let table = Table::new(config.buckets);
        let stripes = config.version_stripes.next_power_of_two().min(table.len());
        AleHashMap {
            shard: Shard::new(
                ale.new_lock("tblLock", SpinLock::new()),
                config.capacity,
                stripes,
                table,
            ),
        }
    }

    /// `key`'s hash, chain head and the version stripe guarding it.
    #[inline]
    fn chain_of(&self, key: u64) -> (usize, &HtmCell<u64>, &SeqVersion) {
        let hash = hash_of(key);
        let t = &self.shard.buckets;
        (hash, t.bucket(hash & t.mask), self.shard.ver_of(hash))
    }

    /// Look up `key`, copying its value into `ret_val`. Returns whether the
    /// key was present.
    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.get_scoped(scope!("HashMap::get"), key, ret_val)
    }

    /// `get` under a caller-chosen scope (the `BEGIN_CS_NAMED` pattern:
    /// distinct call sites can adapt independently).
    pub fn get_scoped(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        self.shard.get(scope, key, ret_val)
    }

    /// Insert `key → val`, overwriting any existing value. Returns true if
    /// the key was newly inserted.
    pub fn insert(&self, key: u64, val: V) -> bool {
        self.shard.insert(scope!("HashMap::insert"), key, val)
    }

    /// Remove `key`. Returns whether it was present. This is the paper's
    /// §3.2 example: only the unlink is bracketed as conflicting.
    pub fn remove(&self, key: u64) -> bool {
        self.shard.remove(scope!("HashMap::remove"), key)
    }

    // ---------------------------------------------------------------------
    // §3.3 advanced variants
    // ---------------------------------------------------------------------

    /// Remove with the **self-abort idiom**: run the whole operation in
    /// SWOpt mode; when (and only when) a conflicting action turns out to
    /// be needed, abort out of SWOpt and redo pessimistically.
    pub fn remove_self_abort(&self, key: u64) -> bool {
        let s = &self.shard;
        let hash = hash_of(key);
        let removed = s.lock.cs(
            scope!("HashMap::remove_self_abort"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    return CsOutcome::Done(s.remove_locked(cs, hash, key));
                }
                // Optimistic miss-check: absent keys need no mutation.
                let mut unused = V::default();
                match s.get_swopt(hash, key, &mut unused) {
                    None => CsOutcome::SwOptFail,
                    Some(false) => CsOutcome::Done(None),
                    Some(true) => CsOutcome::SwOptSelfAbort, // present: must mutate
                }
            },
        );
        s.recycle(removed)
    }

    /// The §3.3 SWOpt search prefix: snapshot the stripe, walk the chain.
    /// `None` on interference, else `(snapshot, prev, id | NIL)`.
    // ale-lint: swopt
    fn search_swopt(
        &self,
        head: &HtmCell<u64>,
        ver: &SeqVersion,
        key: u64,
    ) -> Option<(u64, u64, u64)> {
        let v = ver.read(true);
        let (prev, id) = self.shard.slab.walk(head, key, || ver.validate(v))?;
        Some((v, prev, id))
    }

    /// Remove with a **SWOpt search prefix** and a nested, non-SWOpt
    /// critical section for the unlink (§3.3). The nested critical section
    /// first re-validates; on interference the whole operation retries
    /// after reporting the SWOpt failure.
    pub fn remove_fine(&self, key: u64) -> bool {
        let s = &self.shard;
        let (hash, head, ver) = self.chain_of(key);
        let removed = s.lock.cs(
            scope!("HashMap::remove_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    // HTM/Lock execution: plain pessimistic removal.
                    return CsOutcome::Done(s.remove_locked(cs, hash, key));
                }
                let Some((v, prev, id)) = self.search_swopt(head, ver, key) else {
                    return CsOutcome::SwOptFail;
                };
                if id == NIL {
                    return CsOutcome::Done(None);
                }
                // Nested critical section (no SWOpt path) for the unlink.
                let unlinked = s.lock.cs_plain(
                    scope!("HashMap::remove_fine::unlink"),
                    CsOptions::new(),
                    |ics| {
                        // "the nested critical section must first check if
                        // a conflict has occurred" (§3.3).
                        if !ver.validate(v) {
                            return false;
                        }
                        // The version said nothing conflicting happened,
                        // but non-conflicting inserts don't bump it: verify
                        // the splice point is still what we found.
                        if s.slab.link_cell(head, prev).get() != id {
                            return false;
                        }
                        let next = s.slab.node(id).next.get();
                        ver.conflicting(ics.could_swopt_be_running(), || {
                            s.slab.unlink(head, prev, next)
                        });
                        true
                    },
                );
                if unlinked {
                    CsOutcome::Done(Some(id))
                } else {
                    // Conflict detected inside the nested CS: report the
                    // SWOpt failure and retry the whole operation.
                    CsOutcome::SwOptFail
                }
            },
        );
        s.recycle(removed)
    }

    /// Insert with a SWOpt search prefix and a nested critical section for
    /// the publication (§3.3's "we can provide a SWOpt path for the first
    /// parts of these methods too").
    pub fn insert_fine(&self, key: u64, val: V) -> bool {
        let s = &self.shard;
        let new_id = s.slab.alloc(key, val);
        let (hash, head, ver) = self.chain_of(key);
        let inserted = s.lock.cs(
            scope!("HashMap::insert_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    return CsOutcome::Done(s.insert_locked(cs, hash, key, val, new_id));
                }
                // SWOpt search prefix: find whether the key exists.
                let Some((v, _, found)) = self.search_swopt(head, ver, key) else {
                    return CsOutcome::SwOptFail;
                };
                let first = head.get();
                if !ver.validate(v) {
                    return CsOutcome::SwOptFail;
                }
                // Nested CS performs the mutation.
                let done = s.lock.cs_plain(
                    scope!("HashMap::insert_fine::publish"),
                    CsOptions::new(),
                    |ics| {
                        if !ver.validate(v) {
                            return None;
                        }
                        if found != NIL {
                            // Overwrite: check the node is still reachable
                            // (recycling requires a version bump, which
                            // validate caught, so key identity holds).
                            ver.conflicting(ics.could_swopt_be_running(), || {
                                s.slab.node(found).val.set(val)
                            });
                            return Some(false);
                        }
                        // Fresh insert: the head we saw must be unchanged,
                        // else another insert may have added our key. The
                        // link reuses that observed head (no second read).
                        if head.get() != first {
                            return None;
                        }
                        s.slab.node(new_id).next.set(first);
                        head.set(new_id);
                        Some(true)
                    },
                );
                match done {
                    Some(flag) => CsOutcome::Done(flag),
                    None => CsOutcome::SwOptFail,
                }
            },
        );
        if !inserted {
            s.slab.free(new_id);
        }
        inserted
    }

    /// Key count via a Lock-mode sweep (diagnostics/tests only).
    pub fn len_slow(&self) -> usize {
        self.shard.len_slow(scope!("HashMap::len"))
    }

    /// The ALE lock protecting the table (reports, baselines).
    pub fn lock(&self) -> &AleLock<SpinLock> {
        &self.shard.lock
    }

    /// Are all version stripes even (no conflicting region left open)?
    /// ale-check's post-run oracle: a crash/abort path that leaves a
    /// version odd would wedge every future SWOpt reader.
    pub fn versions_even(&self) -> bool {
        self.shard.versions_even()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::{AleConfig, StaticPolicy};
    use ale_vtime::Platform;

    fn ale() -> Arc<Ale> {
        Ale::new(
            AleConfig::new(Platform::testbed()).with_seed(1),
            StaticPolicy::new(0, 4),
        )
    }

    /// Satellite: pin the documented `version_stripes` clamping behaviour.
    /// More stripes than buckets is useless (a stripe would never be the
    /// sole owner of a bucket), so construction clamps `stripes` to the
    /// rounded bucket count — and `ver_of` must never index out of bounds
    /// for *any* hash, power of two or not.
    #[test]
    fn version_stripes_clamp_to_buckets() {
        let ale = ale();
        // 100 buckets round to 128; 500 stripes round to 512 then clamp.
        let map: AleHashMap<u64> = AleHashMap::new(
            &ale,
            MapConfig {
                buckets: 100,
                capacity: 1 << 10,
                version_stripes: 500,
            },
        );
        assert_eq!(map.shard.buckets.len(), 128);
        assert_eq!(map.shard.vers.len(), 128, "stripes must clamp to buckets");
        assert_eq!(map.shard.ver_mask, map.shard.vers.len() - 1);
    }

    #[test]
    fn ver_of_stays_in_bounds_for_non_power_of_two_inputs() {
        let ale = ale();
        for (buckets, stripes) in [(1, 1), (3, 7), (5, 100), (100, 6), (7, 0), (64, 64)] {
            let map: AleHashMap<u64> = AleHashMap::new(
                &ale,
                MapConfig {
                    buckets,
                    capacity: 1 << 10,
                    version_stripes: stripes,
                },
            );
            let vers = map.shard.vers.len();
            assert!(vers.is_power_of_two());
            assert!(
                vers <= map.shard.buckets.len(),
                "{stripes} stripes on {buckets} buckets must clamp"
            );
            // `ver_of` takes a hash: masking keeps any usize in bounds.
            for raw in [0usize, 1, 2, 63, 64, 127, 1000, usize::MAX] {
                let _ = map.shard.ver_of(raw); // would panic on out-of-bounds
            }
        }
    }
}
