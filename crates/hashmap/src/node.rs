//! The node slab: chunked, append-only storage with striped free lists.
//!
//! The paper's optimistic reads are safe because "the application does not
//! deallocate memory during its lifetime" (§3.2): a SWOpt reader may land
//! on a node that was just unlinked — validation will make it retry — but
//! the memory must stay mapped and well-formed. We get the same guarantee
//! structurally: nodes live in chunks that are *never* freed while the map
//! exists, links are integer node ids rather than pointers (so a stale
//! traversal is always memory-safe), and removed nodes are recycled through
//! free lists only after their unlink bumped the version number, which
//! forces any reader that could still see them to fail validation before
//! using recycled fields.

use ale_htm::HtmCell;
use ale_sync::{CachePadded, TickMutex};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Nodes per chunk (power of two).
const CHUNK_SHIFT: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;
/// Maximum number of chunks (total capacity = 4M nodes by default).
const MAX_CHUNKS: usize = 1024;
/// Free-list stripes (match the simulator's largest platform).
const FREE_STRIPES: usize = 32;

/// A chain node. Every field a concurrent reader may touch is an
/// [`HtmCell`], so access is transactional inside HTM mode and
/// seqlock-consistent elsewhere.
pub struct Node<V: Copy> {
    pub key: HtmCell<u64>,
    pub val: HtmCell<V>,
    /// Next node id in the bucket chain; [`NIL`] terminates.
    pub next: HtmCell<u64>,
}

/// The null node id.
pub const NIL: u64 = 0;

/// Chunked node storage. Node ids are 1-based (`NIL` = 0).
pub struct NodeSlab<V: Copy + Default> {
    chunks: Vec<AtomicPtr<Node<V>>>,
    /// Bump allocator: next never-used node id.
    next_fresh: AtomicU64,
    /// Striped free lists of recycled node ids, one per line: `stripe_hint`
    /// hands neighbouring threads neighbouring stripes.
    free: Vec<CachePadded<TickMutex<Vec<u64>>>>,
    /// Serialises chunk allocation.
    grow_lock: TickMutex<()>,
    capacity: u64,
}

// SAFETY: chunk pointers are written once (under grow_lock) and never
// freed until drop; Node fields are HtmCells (Sync for V: Copy + Send).
unsafe impl<V: Copy + Default + Send> Send for NodeSlab<V> {}
unsafe impl<V: Copy + Default + Send> Sync for NodeSlab<V> {}

impl<V: Copy + Default> NodeSlab<V> {
    /// A slab that can hold at least `capacity` nodes.
    pub fn with_capacity(capacity: u64) -> Self {
        let chunks_needed = capacity.div_ceil(CHUNK_SIZE as u64) as usize;
        assert!(
            chunks_needed <= MAX_CHUNKS,
            "slab capacity {capacity} exceeds the maximum ({})",
            MAX_CHUNKS * CHUNK_SIZE
        );
        NodeSlab {
            chunks: (0..MAX_CHUNKS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            next_fresh: AtomicU64::new(1),
            free: (0..FREE_STRIPES)
                .map(|_| CachePadded::new(TickMutex::new(Vec::new())))
                .collect(),
            grow_lock: TickMutex::new(()),
            capacity: (chunks_needed.max(1) * CHUNK_SIZE) as u64,
        }
    }

    fn stripe(&self) -> &TickMutex<Vec<u64>> {
        &self.free[ale_vtime::stripe_hint() % FREE_STRIPES]
    }

    /// Allocate a node and initialise its fields (plain stores — callers
    /// allocate *outside* critical sections, before publication).
    pub fn alloc(&self, key: u64, val: V) -> u64 {
        let id = self
            .stripe()
            .lock()
            .pop()
            .unwrap_or_else(|| self.fresh_id());
        let n = self.node(id);
        n.key.set(key);
        n.val.set(val);
        n.next.set(NIL);
        id
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_fresh.fetch_add(1, Ordering::Relaxed);
        assert!(
            id <= self.capacity,
            "node slab exhausted ({} nodes)",
            self.capacity
        );
        let chunk_idx = ((id - 1) >> CHUNK_SHIFT) as usize;
        if self.chunks[chunk_idx].load(Ordering::Acquire).is_null() {
            let _g = self.grow_lock.lock();
            if self.chunks[chunk_idx].load(Ordering::Acquire).is_null() {
                let chunk: Box<[Node<V>]> = (0..CHUNK_SIZE)
                    .map(|_| Node {
                        key: HtmCell::new(0),
                        val: HtmCell::new(V::default()),
                        next: HtmCell::new(NIL),
                    })
                    .collect();
                let ptr = Box::into_raw(chunk) as *mut Node<V>;
                self.chunks[chunk_idx].store(ptr, Ordering::Release);
            }
        }
        id
    }

    /// Return a node to the free pool. Callers must only free ids whose
    /// unlink has completed (see module docs).
    pub fn free(&self, id: u64) {
        debug_assert_ne!(id, NIL);
        self.stripe().lock().push(id);
    }

    /// Access a node by id. The id must have been allocated.
    #[inline]
    pub fn node(&self, id: u64) -> &Node<V> {
        debug_assert_ne!(id, NIL, "dereferenced NIL node id");
        let idx = (id - 1) as usize;
        let chunk = self.chunks[idx >> CHUNK_SHIFT].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "node id {id} beyond allocated chunks");
        // SAFETY: chunks are allocated before any id pointing into them is
        // handed out, and never freed while the slab lives.
        unsafe { &*chunk.add(idx & (CHUNK_SIZE - 1)) }
    }

    /// Total nodes ever bump-allocated (diagnostics).
    pub fn allocated(&self) -> u64 {
        self.next_fresh.load(Ordering::Relaxed) - 1
    }
}

impl<V: Copy + Default> Drop for NodeSlab<V> {
    fn drop(&mut self) {
        for c in &self.chunks {
            let p = c.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: reconstruct exactly what Box::into_raw produced.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        p, CHUNK_SIZE,
                    )));
                }
            }
        }
    }
}

impl<V: Copy + Default> Default for NodeSlab<V> {
    fn default() -> Self {
        Self::with_capacity(CHUNK_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_initialises_and_node_reads_back() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(100);
        let id = slab.alloc(42, 99);
        assert_ne!(id, NIL);
        let n = slab.node(id);
        assert_eq!(n.key.get(), 42);
        assert_eq!(n.val.get(), 99);
        assert_eq!(n.next.get(), NIL);
    }

    #[test]
    fn free_recycles_ids() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(100);
        let a = slab.alloc(1, 1);
        slab.free(a);
        let b = slab.alloc(2, 2);
        assert_eq!(a, b, "freed id must be recycled by the same stripe");
        assert_eq!(slab.node(b).key.get(), 2, "fields must be re-initialised");
        assert_eq!(slab.allocated(), 1);
    }

    #[test]
    fn crosses_chunk_boundaries() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(2 * CHUNK_SIZE as u64);
        let mut last = 0;
        for i in 0..(CHUNK_SIZE as u64 + 10) {
            last = slab.alloc(i, i);
        }
        assert_eq!(slab.node(last).key.get(), CHUNK_SIZE as u64 + 9);
        assert_eq!(slab.allocated(), CHUNK_SIZE as u64 + 10);
    }

    #[test]
    fn concurrent_alloc_yields_distinct_ids() {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(100_000);
        let ids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (slab, ids) = (&slab, &ids);
                s.spawn(move || {
                    let mine: Vec<u64> = (0..2000).map(|i| slab.alloc(t, i)).collect();
                    ids.lock().unwrap().extend(mine);
                });
            }
        });
        let mut all = ids.into_inner().unwrap();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no two threads may receive the same id");
    }
}
