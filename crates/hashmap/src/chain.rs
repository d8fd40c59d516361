//! The chain engine: the one bucket-chain walk, link, unlink and sweep
//! under every table in the workspace.
//!
//! The paper's Figure 1 generates the SWOpt and the pessimistic `Get` from
//! one source (`GetImp<SWOptMode>`). [`NodeSlab::walk`] is that source
//! here: it takes the validation as a closure and calls it after every
//! read a conflicting action could invalidate. A pessimistic caller passes
//! `|| true` and monomorphises to the bare loop; a SWOpt caller passes its
//! protocol's check — kyoto's slot version, or the map protocol's version
//! stripe *and* table-pointer version, which for the fixed table of
//! [`AleHashMap`](crate::AleHashMap) compiles down to the stripe alone and
//! for a resizing [`AleShardedMap`](crate::AleShardedMap) shard is both.
//!
//! **Order contract.** Every method issues its `HtmCell` reads and writes
//! in the fixed order its doc states, and `walk` validates after the head
//! read, after each key read and after each next read. Under virtual time
//! each of those is a tick and a yield point, so the order *is* the
//! behaviour the pinned digests check. It is also why [`NodeSlab::unlink`]
//! takes `next` from the caller: the maps read it before opening the
//! conflicting region, kyoto inside it.
//!
//! A chain is named by its head cell, so the engine works over any bucket
//! array; all three structures use [`Table`](crate::resize::Table).

use ale_htm::HtmCell;

use crate::node::{NodeSlab, NIL};

impl<V: Copy + Default> NodeSlab<V> {
    /// Search the chain at `head` for `key`, calling `ok()` after every
    /// read. Returns `None` as soon as `ok()` fails (no further reads are
    /// made), else `Some((prev, id))`: `id` is the matching node or [`NIL`]
    /// on a miss, `prev` its predecessor ([`NIL`] when `id` is the head).
    // ale-lint: swopt
    #[inline]
    pub fn walk(&self, head: &HtmCell<u64>, key: u64, ok: impl Fn() -> bool) -> Option<(u64, u64)> {
        let mut prev = NIL;
        let mut bp = head.get();
        if !ok() {
            return None;
        }
        while bp != NIL {
            let node = self.node(bp);
            let k = node.key.get();
            if !ok() {
                return None;
            }
            if k == key {
                break;
            }
            prev = bp;
            bp = node.next.get();
            if !ok() {
                return None;
            }
        }
        Some((prev, bp))
    }

    /// [`walk`](Self::walk) under exclusion (lock held or inside a
    /// transaction): nothing to validate, so it cannot fail.
    #[inline]
    pub fn find(&self, head: &HtmCell<u64>, key: u64) -> (u64, u64) {
        self.walk(head, key, || true)
            .expect("an unvalidated walk has no failure path")
    }

    /// The cell that links to `prev`'s successor: the head itself when
    /// `prev` is [`NIL`].
    #[inline]
    pub fn link_cell<'a>(&'a self, head: &'a HtmCell<u64>, prev: u64) -> &'a HtmCell<u64> {
        if prev == NIL {
            head
        } else {
            &self.node(prev).next
        }
    }

    /// Publish the fully-initialised node `id` at the front of the chain:
    /// reads the head, writes `id.next`, writes the head. Not a
    /// conflicting action — readers see the old chain or the new one.
    #[inline]
    pub fn link_front(&self, head: &HtmCell<u64>, id: u64) {
        self.node(id).next.set(head.get());
        head.set(id);
    }

    /// Splice out the node after `prev` (the head node when `prev` is
    /// [`NIL`]) by pointing its link at `next`, the removed node's
    /// successor. One write. A conflicting action: callers bracket it.
    #[inline]
    pub fn unlink(&self, head: &HtmCell<u64>, prev: u64, next: u64) {
        self.link_cell(head, prev).set(next);
    }

    /// Move the found node `id` (predecessor `prev`) to the front of its
    /// chain; a no-op when it already is the head. Reads `id.next`, then
    /// [`unlink`](Self::unlink), then [`link_front`](Self::link_front). A
    /// conflicting action.
    #[inline]
    pub fn move_to_front(&self, head: &HtmCell<u64>, prev: u64, id: u64) {
        if prev == NIL {
            return;
        }
        let next = self.node(id).next.get();
        self.unlink(head, prev, next);
        self.link_front(head, id);
    }

    /// Visit every node id of the chain at `head`, front to back (caller
    /// excludes writers). The id is handed to `f` before its `next` is
    /// read.
    #[inline]
    pub fn sweep(&self, head: &HtmCell<u64>, mut f: impl FnMut(u64)) {
        let mut bp = head.get();
        while bp != NIL {
            f(bp);
            bp = self.node(bp).next.get();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn chain_of(slab: &NodeSlab<u64>, head: &HtmCell<u64>, keys: &[u64]) -> Vec<u64> {
        // link_front reverses, so link back to front.
        let mut ids: Vec<u64> = keys
            .iter()
            .rev()
            .map(|&k| {
                let id = slab.alloc(k, k * 10);
                slab.link_front(head, id);
                id
            })
            .collect();
        ids.reverse();
        ids
    }

    fn keys(slab: &NodeSlab<u64>, head: &HtmCell<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        slab.sweep(head, |id| out.push(slab.node(id).key.get()));
        out
    }

    #[test]
    fn find_reports_predecessor_and_miss() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(16);
        let head = HtmCell::new(NIL);
        assert_eq!(slab.find(&head, 1), (NIL, NIL), "empty chain");
        let ids = chain_of(&slab, &head, &[1, 2, 3]);
        assert_eq!(slab.find(&head, 1), (NIL, ids[0]));
        assert_eq!(slab.find(&head, 3), (ids[1], ids[2]));
        assert_eq!(slab.find(&head, 9), (ids[2], NIL), "miss reports the tail");
    }

    #[test]
    fn unlink_and_move_to_front_rewire_the_chain() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(16);
        let head = HtmCell::new(NIL);
        chain_of(&slab, &head, &[1, 2, 3, 4]);
        let (prev, id) = slab.find(&head, 3);
        slab.move_to_front(&head, prev, id);
        assert_eq!(keys(&slab, &head), [3, 1, 2, 4]);
        let (prev, id) = slab.find(&head, 3);
        slab.move_to_front(&head, prev, id); // already the head
        assert_eq!(keys(&slab, &head), [3, 1, 2, 4]);
        let (prev, id) = slab.find(&head, 2);
        slab.unlink(&head, prev, slab.node(id).next.get());
        assert_eq!(keys(&slab, &head), [3, 1, 4]);
        let (prev, id) = slab.find(&head, 3);
        slab.unlink(&head, prev, slab.node(id).next.get());
        assert_eq!(keys(&slab, &head), [1, 4], "head unlink writes the head");
    }

    /// The SWOpt contract: the first failed validation ends the walk, and
    /// validation runs once per read (head, then key and next per node).
    #[test]
    fn walk_stops_at_the_first_failed_validation() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(16);
        let head = HtmCell::new(NIL);
        chain_of(&slab, &head, &[1, 2, 3]);
        // A full miss makes 1 + 2 * 3 reads, each validated once.
        let calls = Cell::new(0);
        let counted = |limit: u32| {
            calls.set(0);
            slab.walk(&head, 9, || {
                calls.set(calls.get() + 1);
                calls.get() <= limit
            })
        };
        assert!(counted(u32::MAX).is_some());
        assert_eq!(calls.get(), 7);
        // Failing the n-th validation returns None after exactly n calls:
        // nothing is read (and so nothing validated) past the failure.
        for n in 1..=7 {
            assert_eq!(counted(n - 1), None, "validation {n} fails");
            assert_eq!(calls.get(), n, "walk must stop at validation {n}");
        }
        // A hit on the second node stops after head + key + next + key.
        calls.set(0);
        let hit = slab.walk(&head, 2, || {
            calls.set(calls.get() + 1);
            true
        });
        assert!(matches!(hit, Some((p, id)) if p != NIL && id != NIL));
        assert_eq!(calls.get(), 4);
    }
}
