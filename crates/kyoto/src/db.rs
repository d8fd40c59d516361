//! Common database structure: slot-partitioned chained hash storage.
//!
//! Kyoto Cabinet's `CacheDB` shards its records over a fixed set of slots
//! (each with its own lock and hash array) beneath one database-wide
//! readers-writer lock — the locking structure the paper's Figure 5
//! experiments elide. This module provides the slot storage shared by the
//! ALE-integrated database ([`crate::AleCacheDb`]) and the `trylockspin`
//! baseline ([`crate::TrylockspinDb`]), plus the [`KyotoDb`] trait the
//! `wicked` workload drives.
//!
//! A slot is a bucket [`Table`], a [`NodeSlab`] and one version number.
//! Its chains are searched, linked, unlinked, reordered and swept by
//! `ale-hashmap`'s chain engine — the same walk the HashMap and the sharded
//! map use; the slot adds only the key → chain-head hash, the optimistic
//! search against its single version, and the record payload.
//!
//! Like Kyoto's CacheDB, a successful lookup *mutates*: the record moves to
//! the front of its bucket chain (LRU-ish bookkeeping). That detail is
//! what makes the paper's `nomutate` statistics interesting — only misses
//! can complete purely optimistically.

use ale_htm::HtmCell;
use ale_sync::SeqVersion;

use ale_hashmap::node::{NodeSlab, NIL};
use ale_hashmap::resize::Table;

pub use ale_hashmap::node::Node;

/// Number of slots (Kyoto Cabinet's `SLOTNUM`).
pub const SLOT_NUM: usize = 16;

/// The record type: fixed-size u64 values (Kyoto stores byte strings; a
/// fixed-size payload exercises the same locking paths).
pub type Value = u64;

/// One slot: a chained hash array plus its version number for optimistic
/// readers. The chains are driven by `ale-hashmap`'s chain engine (the
/// [`NodeSlab`] methods); the slot adds the key → chain-head hash and the
/// record payload.
pub struct Slot {
    table: Table,
    pub slab: NodeSlab<Value>,
    pub ver: SeqVersion,
    /// Per-record payload words (row-major: `node_id * payload_cells ..`),
    /// modelling Kyoto's byte-string record bodies: every cell is written
    /// on set and read on get, inflating transaction footprints the way
    /// real record copies do.
    payload: Vec<HtmCell<u64>>,
    payload_cells: usize,
}

impl Slot {
    pub fn new(buckets: usize, capacity: u64) -> Self {
        Self::with_payload(buckets, capacity, 0)
    }

    /// As [`Slot::new`] with `payload_cells` extra words per record.
    pub fn with_payload(buckets: usize, capacity: u64, payload_cells: usize) -> Self {
        Slot {
            table: Table::new(buckets),
            slab: NodeSlab::with_capacity(capacity),
            ver: SeqVersion::new(),
            payload: (0..capacity as usize * payload_cells)
                .map(|_| HtmCell::new(0))
                .collect(),
            payload_cells,
        }
    }

    /// Write a record's payload body (call under the same protection as
    /// the value write). Derives the words from `value` so readers can
    /// verify them.
    pub fn write_payload(&self, id: u64, value: Value) {
        let base = (id as usize - 1) * self.payload_cells;
        for (i, cell) in self.payload[base..base + self.payload_cells]
            .iter()
            .enumerate()
        {
            cell.set(value.wrapping_add(i as u64));
        }
    }

    /// Read (and checksum) a record's payload body.
    pub fn read_payload(&self, id: u64) -> u64 {
        let base = (id as usize - 1) * self.payload_cells;
        let mut acc = 0u64;
        for cell in &self.payload[base..base + self.payload_cells] {
            acc = acc.wrapping_add(cell.get());
        }
        acc
    }

    pub fn payload_cells(&self) -> usize {
        self.payload_cells
    }

    /// The head cell of `key`'s bucket chain.
    #[inline]
    pub fn head_of(&self, key: u64) -> &HtmCell<u64> {
        let hash = (key.wrapping_mul(0xD134_2543_DE82_EF95) >> 32) as usize;
        self.table.bucket(hash & self.table.mask)
    }

    /// Search a bucket chain. Returns `(prev, id)`; `id == NIL` on miss.
    /// Caller must hold the slot lock or be inside a transaction.
    pub fn search(&self, key: u64) -> (u64, u64) {
        self.slab.find(self.head_of(key), key)
    }

    /// Optimistic search validated against [`Slot::ver`]: `None` on
    /// interference, else whether the key is present.
    // ale-lint: swopt
    pub fn search_swopt(&self, key: u64) -> Option<bool> {
        let v = self.ver.read(true);
        let (_, id) = self
            .slab
            .walk(self.head_of(key), key, || self.ver.validate(v))?;
        Some(id != NIL)
    }

    /// Move a found node to the front of its bucket (Kyoto's access-order
    /// bookkeeping). A conflicting action: callers bracket it with the
    /// slot version unless soundly elided.
    pub fn move_to_front(&self, key: u64, prev: u64, id: u64) {
        self.slab.move_to_front(self.head_of(key), prev, id);
    }

    /// Unlink a found node. A conflicting action (see `move_to_front`);
    /// the successor is read inside the caller's bracket.
    pub fn unlink(&self, key: u64, prev: u64, id: u64) {
        let next = self.slab.node(id).next.get();
        self.slab.unlink(self.head_of(key), prev, next);
    }

    /// Link a pre-allocated node at the bucket head (not conflicting:
    /// publishes a fully-initialised node atomically).
    pub fn link_front(&self, key: u64, id: u64) {
        self.slab.link_front(self.head_of(key), id);
    }

    /// Number of records (caller must exclude writers).
    pub fn count(&self) -> usize {
        let mut n = 0;
        for head in self.table.heads() {
            self.slab.sweep(head, |_| n += 1);
        }
        n
    }

    /// Remove every record, returning the unlinked ids (caller frees them
    /// after its critical section commits).
    pub fn clear_collect(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for head in self.table.heads() {
            self.slab.sweep(head, |id| ids.push(id));
            head.set(NIL);
        }
        ids
    }
}

/// Which slot a key lives in.
#[inline]
pub fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize & (SLOT_NUM - 1)
}

/// The operations the `wicked` workload drives, implemented by both the
/// ALE database and the `trylockspin` baseline.
pub trait KyotoDb: Sync {
    /// Insert or overwrite. Returns true if the key was new.
    fn set(&self, key: u64, value: Value) -> bool;
    /// Fetch (and touch — a hit moves the record to its bucket front).
    fn get(&self, key: u64) -> Option<Value>;
    /// Delete. Returns whether the key existed.
    fn remove(&self, key: u64) -> bool;
    /// Total records (takes the database exclusively).
    fn count(&self) -> usize;
    /// Remove everything (takes the database exclusively).
    fn clear(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_search_link_unlink() {
        let s = Slot::new(8, 1000);
        assert_eq!(s.search(1), (NIL, NIL));
        let id = s.slab.alloc(1, 10);
        s.link_front(1, id);
        let (prev, found) = s.search(1);
        assert_eq!((prev, found), (NIL, id));
        assert_eq!(s.count(), 1);
        s.unlink(1, prev, found);
        assert_eq!(s.search(1), (NIL, NIL));
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn move_to_front_reorders_chain() {
        let s = Slot::new(1, 1000); // single bucket: everything collides
        let ids: Vec<u64> = (0..4)
            .map(|k| {
                let id = s.slab.alloc(k, k * 10);
                s.link_front(k, id);
                id
            })
            .collect();
        // Chain is 3,2,1,0. Find key 0 (tail) and move it to front.
        let (prev, id) = s.search(0);
        assert_eq!(id, ids[0]);
        assert_ne!(prev, NIL);
        s.move_to_front(0, prev, id);
        let (p2, i2) = s.search(0);
        assert_eq!((p2, i2), (NIL, ids[0]), "must now be the head");
        assert_eq!(s.count(), 4, "reordering must not lose records");
        // Head move is a no-op.
        s.move_to_front(0, NIL, i2);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn clear_collect_empties_and_returns_ids() {
        let s = Slot::new(4, 1000);
        for k in 0..20 {
            let id = s.slab.alloc(k, k);
            s.link_front(k, id);
        }
        let ids = s.clear_collect();
        assert_eq!(ids.len(), 20);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn slot_of_is_stable_and_in_range() {
        for k in 0..10_000u64 {
            let s = slot_of(k);
            assert!(s < SLOT_NUM);
            assert_eq!(s, slot_of(k));
        }
        // Keys spread over all slots.
        let mut seen = [false; SLOT_NUM];
        for k in 0..10_000u64 {
            seen[slot_of(k)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
