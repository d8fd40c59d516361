//! The ALE-integrated HashMap (§3 of the paper).
//!
//! A chained hash table protected by a single lock (`tblLock`), with:
//!
//! * **Get** — SWOpt path generated from the same source as the pessimistic
//!   path via a const-generic flag (the paper's `GetImp<SWOptMode>` twin
//!   template instantiation, Figure 1), validating the version number
//!   before using any value read since the last validation;
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

use std::sync::Arc;

use ale_core::{scope, Ale, AleLock, CsCtx, CsOptions, CsOutcome, ScopeId};
use ale_htm::{mutated, HtmCell, Mutation};
use ale_sync::{CachePadded, SeqVersion, SpinLock};

use crate::node::{NodeSlab, NIL};
use crate::resize::Table;

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
    lock: AleLock<SpinLock>,
    table: Table,
    /// Per-stripe version words, each padded onto its own cache line
    /// (DESIGN.md §14): stripes exist to split writer traffic, which is
    /// defeated if neighbouring stripes share a line.
    vers: Vec<CachePadded<SeqVersion>>,
    slab: NodeSlab<V>,
    ver_mask: usize,
}

impl<V: Copy + Default + Send + 'static> AleHashMap<V> {
    /// Create a map registered with `ale` under the lock label `tblLock`.
    pub fn new(ale: &Arc<Ale>, config: MapConfig) -> Self {
        let table = Table::new(config.buckets);
        let stripes = config.version_stripes.next_power_of_two().min(table.len());
        AleHashMap {
            lock: ale.new_lock("tblLock", SpinLock::new()),
            table,
            vers: (0..stripes)
                .map(|_| CachePadded::new(SeqVersion::new()))
                .collect(),
            slab: NodeSlab::with_capacity(config.capacity),
            ver_mask: stripes - 1,
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        // Fibonacci hashing.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.table.mask
    }

    #[inline]
    fn ver_of(&self, bucket: usize) -> &SeqVersion {
        &self.vers[bucket & self.ver_mask]
    }

    /// `key`'s chain head and the version stripe guarding it.
    #[inline]
    fn chain_of(&self, key: u64) -> (&HtmCell<u64>, &SeqVersion) {
        let idx = self.bucket_of(key);
        (self.table.bucket(idx), self.ver_of(idx))
    }

    /// The paper's Figure 1: one source, two instantiations. Returns 1 if
    /// found (value copied to `ret_val`), 0 if absent, -1 on SWOpt
    /// interference.
    // ale-lint: swopt
    fn get_impl<const SWOPT: bool>(&self, key: u64, ret_val: &mut V) -> i32 {
        let (head, ver) = self.chain_of(key);
        let v = if SWOPT { ver.read(true) } else { 0 };
        let Some((_, id)) = self.slab.walk(head, key, || !SWOPT || ver.validate(v)) else {
            return -1;
        };
        if id == NIL {
            return 0;
        }
        let val = self.slab.node(id).val.get();
        // Self-test mutation (`SkipValidate`): dropping the
        // validation after copying the value lets a SWOpt reader
        // return data from a node recycled mid-read — ale-check's
        // value-integrity oracle must catch it.
        if SWOPT && !mutated(Mutation::SkipValidate) && !ver.validate(v) {
            return -1;
        }
        *ret_val = val;
        1
    }

    /// Look up `key`, copying its value into `ret_val`. Returns whether the
    /// key was present.
    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.get_scoped(scope!("HashMap::get"), key, ret_val)
    }

    /// `get` under a caller-chosen scope (the `BEGIN_CS_NAMED` pattern:
    /// distinct call sites can adapt independently).
    pub fn get_scoped(&self, scope: &'static ScopeId, key: u64, ret_val: &mut V) -> bool {
        self.lock.cs(
            scope,
            CsOptions::new().with_swopt().non_conflicting(),
            |cs| {
                let r = if cs.is_swopt() {
                    self.get_impl::<true>(key, ret_val)
                } else {
                    self.get_impl::<false>(key, ret_val)
                };
                if r < 0 {
                    CsOutcome::SwOptFail
                } else {
                    CsOutcome::Done(r == 1)
                }
            },
        )
    }

    /// Insert `key → val`, overwriting any existing value. Returns true if
    /// the key was newly inserted.
    pub fn insert(&self, key: u64, val: V) -> bool {
        // Allocate and fill the node *outside* the critical section; only
        // the link is published inside it.
        let new_id = self.slab.alloc(key, val);
        let inserted = self
            .lock
            .cs_plain(scope!("HashMap::insert"), CsOptions::new(), |cs| {
                self.insert_pessimistic(cs, key, val, new_id)
            });
        if !inserted {
            self.slab.free(new_id);
        }
        inserted
    }

    /// Remove `key`. Returns whether it was present. This is the paper's
    /// §3.2 example: only the unlink is bracketed as conflicting.
    pub fn remove(&self, key: u64) -> bool {
        let removed = self
            .lock
            .cs_plain(scope!("HashMap::remove"), CsOptions::new(), |cs| {
                self.remove_pessimistic(cs, key)
            });
        self.recycle(removed)
    }

    // ---------------------------------------------------------------------
    // §3.3 advanced variants
    // ---------------------------------------------------------------------

    /// Remove with the **self-abort idiom**: run the whole operation in
    /// SWOpt mode; when (and only when) a conflicting action turns out to
    /// be needed, abort out of SWOpt and redo pessimistically.
    pub fn remove_self_abort(&self, key: u64) -> bool {
        let removed = self.lock.cs(
            scope!("HashMap::remove_self_abort"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    return CsOutcome::Done(self.remove_pessimistic(cs, key));
                }
                // Optimistic miss-check: absent keys need no mutation.
                let mut unused = V::default();
                match self.get_impl::<true>(key, &mut unused) {
                    -1 => CsOutcome::SwOptFail,
                    0 => CsOutcome::Done(None),
                    _ => CsOutcome::SwOptSelfAbort, // present: must mutate
                }
            },
        );
        self.recycle(removed)
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
        let (prev, id) = self.slab.walk(head, key, || ver.validate(v))?;
        Some((v, prev, id))
    }

    /// Remove with a **SWOpt search prefix** and a nested, non-SWOpt
    /// critical section for the unlink (§3.3). The nested critical section
    /// first re-validates; on interference the whole operation retries
    /// after reporting the SWOpt failure.
    pub fn remove_fine(&self, key: u64) -> bool {
        let (head, ver) = self.chain_of(key);
        let removed = self.lock.cs(
            scope!("HashMap::remove_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    // HTM/Lock execution: plain pessimistic removal.
                    return CsOutcome::Done(self.remove_pessimistic(cs, key));
                }
                let Some((v, prev, id)) = self.search_swopt(head, ver, key) else {
                    return CsOutcome::SwOptFail;
                };
                if id == NIL {
                    return CsOutcome::Done(None);
                }
                // Nested critical section (no SWOpt path) for the unlink.
                let unlinked = self.lock.cs_plain(
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
                        if self.slab.link_cell(head, prev).get() != id {
                            return false;
                        }
                        let next = self.slab.node(id).next.get();
                        ver.conflicting(ics.could_swopt_be_running(), || {
                            self.slab.unlink(head, prev, next)
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
        self.recycle(removed)
    }

    /// Insert with a SWOpt search prefix and a nested critical section for
    /// the publication (§3.3's "we can provide a SWOpt path for the first
    /// parts of these methods too").
    pub fn insert_fine(&self, key: u64, val: V) -> bool {
        let new_id = self.slab.alloc(key, val);
        let (head, ver) = self.chain_of(key);
        let inserted = self.lock.cs(
            scope!("HashMap::insert_fine"),
            CsOptions::new().with_swopt(),
            |cs| {
                if !cs.is_swopt() {
                    return CsOutcome::Done(self.insert_pessimistic(cs, key, val, new_id));
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
                let done = self.lock.cs_plain(
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
                                self.slab.node(found).val.set(val)
                            });
                            return Some(false);
                        }
                        // Fresh insert: the head we saw must be unchanged,
                        // else another insert may have added our key. The
                        // link reuses that observed head (no second read).
                        if head.get() != first {
                            return None;
                        }
                        self.slab.node(new_id).next.set(first);
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
            self.slab.free(new_id);
        }
        inserted
    }

    /// The HTM/Lock removal every variant shares: find, then unlink inside
    /// the conflicting region. Returns the unlinked node for [`recycle`].
    ///
    /// [`recycle`]: Self::recycle
    fn remove_pessimistic(&self, cs: &CsCtx<'_>, key: u64) -> Option<u64> {
        let (head, ver) = self.chain_of(key);
        let (prev, id) = self.slab.find(head, key);
        if id == NIL {
            return None;
        }
        let next = self.slab.node(id).next.get();
        // Self-test mutation (`SkipVersionBump`): unlinking
        // without bumping the version makes concurrent SWOpt readers
        // follow a recycled node unnoticed — ale-check must catch it.
        let bump = cs.could_swopt_be_running() && !mutated(Mutation::SkipVersionBump);
        ver.conflicting(bump, || self.slab.unlink(head, prev, next));
        Some(id)
    }

    /// The HTM/Lock insertion every variant shares. An overwrite is the
    /// conflicting region — a SWOpt reader may be about to copy the value;
    /// publishing a fully-initialised node at the head is not.
    fn insert_pessimistic(&self, cs: &CsCtx<'_>, key: u64, val: V, new_id: u64) -> bool {
        let (head, ver) = self.chain_of(key);
        let (_, id) = self.slab.find(head, key);
        if id != NIL {
            ver.conflicting(cs.could_swopt_be_running(), || {
                self.slab.node(id).val.set(val)
            });
            return false;
        }
        self.slab.link_front(head, new_id);
        true
    }

    /// Free an unlinked node — only after the unlink's critical section
    /// committed. Returns whether there was one.
    fn recycle(&self, unlinked: Option<u64>) -> bool {
        if let Some(id) = unlinked {
            self.slab.free(id);
        }
        unlinked.is_some()
    }

    /// Key count via a Lock-mode sweep (diagnostics/tests only).
    pub fn len_slow(&self) -> usize {
        self.lock.cs_plain(
            scope!("HashMap::len"),
            CsOptions::new().without_htm(),
            |_| {
                let mut n = 0;
                for head in self.table.heads() {
                    self.slab.sweep(head, |_| n += 1);
                }
                n
            },
        )
    }

    /// The ALE lock protecting the table (reports, baselines).
    pub fn lock(&self) -> &AleLock<SpinLock> {
        &self.lock
    }

    /// Are all version stripes even (no conflicting region left open)?
    /// ale-check's post-run oracle: a crash/abort path that leaves a
    /// version odd would wedge every future SWOpt reader.
    pub fn versions_even(&self) -> bool {
        self.vers.iter().all(|v| v.read(false).is_multiple_of(2))
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
    /// for *any* bucket the hash can produce, power of two or not.
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
        assert_eq!(map.table.len(), 128);
        assert_eq!(map.vers.len(), 128, "stripes must clamp to buckets");
        assert_eq!(map.ver_mask, map.vers.len() - 1);
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
            assert!(map.vers.len().is_power_of_two());
            assert!(
                map.vers.len() <= map.table.len(),
                "{stripes} stripes on {buckets} buckets must clamp"
            );
            // `ver_of` takes a bucket index, but must tolerate any usize a
            // caller could derive from a hash: masking keeps it in bounds.
            for raw in [0usize, 1, 2, 63, 64, 127, 1000, usize::MAX] {
                let _ = map.ver_of(raw); // would panic on out-of-bounds
            }
            // Every actual bucket maps to a live stripe.
            for b in 0..map.table.len() {
                let _ = map.ver_of(b);
            }
        }
    }
}
