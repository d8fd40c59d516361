//! The uninstrumented baseline: the same chained hash table under a plain
//! single lock, with no ALE integration at all ("Uninstrumented" in the
//! paper's figures). Comparing it against an ALE-integrated, Lock-only run
//! ("Instrumented") measures the library's bookkeeping overhead.

use ale_htm::HtmCell;
use ale_sync::{RawLock, SpinLock};

use crate::node::{NodeSlab, NIL};
use crate::resize::Table;

/// Plain single-lock chained hash map.
pub struct BaselineHashMap<V: Copy + Default + Send + 'static> {
    lock: SpinLock,
    table: Table,
    slab: NodeSlab<V>,
}

impl<V: Copy + Default + Send + 'static> BaselineHashMap<V> {
    pub fn new(buckets: usize, capacity: u64) -> Self {
        BaselineHashMap {
            lock: SpinLock::new(),
            table: Table::new(buckets),
            slab: NodeSlab::with_capacity(capacity),
        }
    }

    #[inline]
    fn head_of(&self, key: u64) -> &HtmCell<u64> {
        let hash = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        self.table.bucket(hash & self.table.mask)
    }

    pub fn get(&self, key: u64, ret_val: &mut V) -> bool {
        self.lock.acquire();
        let (_, id) = self.slab.find(self.head_of(key), key);
        if id != NIL {
            *ret_val = self.slab.node(id).val.get();
        }
        self.lock.release();
        id != NIL
    }

    pub fn insert(&self, key: u64, val: V) -> bool {
        let new_id = self.slab.alloc(key, val);
        self.lock.acquire();
        let head = self.head_of(key);
        let (_, id) = self.slab.find(head, key);
        if id != NIL {
            self.slab.node(id).val.set(val);
        } else {
            self.slab.link_front(head, new_id);
        }
        self.lock.release();
        if id != NIL {
            self.slab.free(new_id);
        }
        id == NIL
    }

    pub fn remove(&self, key: u64) -> bool {
        self.lock.acquire();
        let head = self.head_of(key);
        let (prev, id) = self.slab.find(head, key);
        if id != NIL {
            let next = self.slab.node(id).next.get();
            self.slab.unlink(head, prev, next);
        }
        self.lock.release();
        if id != NIL {
            self.slab.free(id);
        }
        id != NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let m: BaselineHashMap<u64> = BaselineHashMap::new(16, 1000);
        let mut v = 0;
        assert!(!m.get(1, &mut v));
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11), "second insert overwrites");
        assert!(m.get(1, &mut v));
        assert_eq!(v, 11);
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(!m.get(1, &mut v));
    }

    #[test]
    fn many_keys_with_collisions() {
        let m: BaselineHashMap<u64> = BaselineHashMap::new(4, 10_000);
        for k in 0..500 {
            assert!(m.insert(k, k * 2));
        }
        let mut v = 0;
        for k in 0..500 {
            assert!(m.get(k, &mut v), "key {k}");
            assert_eq!(v, k * 2);
        }
        for k in (0..500).step_by(2) {
            assert!(m.remove(k));
        }
        for k in 0..500 {
            assert_eq!(m.get(k, &mut v), k % 2 == 1);
        }
    }
}
