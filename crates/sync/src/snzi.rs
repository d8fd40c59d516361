//! SNZI — Scalable Non-Zero Indicator (Ellen, Lev, Luchangco, Moir;
//! PODC 2007).
//!
//! A SNZI answers one question cheaply — "is the surplus of arrivals over
//! departures nonzero?" — while spreading the arrive/depart traffic over a
//! tree so no single cache line is hammered. The ALE adaptive policy's
//! *grouping mechanism* (§4.2) uses one per lock: SWOpt executions that hit
//! interference arrive before retrying; executions that could conflict
//! with them consult [`Snzi::query`] and defer until it reads false.
//!
//! Implementation notes: hierarchical nodes hold `(count, version)` where
//! the count is in *half* units — the transient ½ state is how a thread
//! that turned a node nonzero publishes "parent arrival in progress" so
//! helpers neither miss nor double-count it. The version number breaks the
//! ABA on 0 → ½ → 0 cycles. The root is the plain-counter variant (query
//! is a single load of one word); the tree above it is what removes the
//! contention.

use std::sync::atomic::{AtomicU64, Ordering};

use ale_htm::{mutated, Mutation};
use ale_vtime::{tick, Event};

const HALF: u64 = 1; // counts are in half units; 2 == one whole arrival

#[inline]
fn pack(c: u64, v: u64) -> u64 {
    (c << 32) | (v & 0xFFFF_FFFF)
}

#[inline]
fn unpack(x: u64) -> (u64, u64) {
    (x >> 32, x & 0xFFFF_FFFF)
}

struct Node {
    x: AtomicU64,
}

/// A fixed-shape SNZI tree.
///
/// ```
/// use ale_sync::Snzi;
/// let snzi = Snzi::new(3);
/// assert!(!snzi.query());
/// let a = snzi.arrive_at(0);
/// let b = snzi.arrive_at(7);
/// assert!(snzi.query());
/// drop(a);
/// assert!(snzi.query(), "one arrival still outstanding");
/// drop(b);
/// assert!(!snzi.query());
/// ```
pub struct Snzi {
    root: AtomicU64,
    nodes: Vec<Node>,
    leaf_start: usize,
    leaves: usize,
}

impl Snzi {
    /// A SNZI with `levels` tree levels below the root
    /// (`2^(levels-1)` leaves). `levels == 0` gives a bare counter.
    pub fn new(levels: u32) -> Self {
        let total = (1usize << levels) - 1;
        let leaves = if levels == 0 {
            0
        } else {
            1usize << (levels - 1)
        };
        Snzi {
            root: AtomicU64::new(0),
            nodes: (0..total)
                .map(|_| Node {
                    x: AtomicU64::new(0),
                })
                .collect(),
            leaf_start: total - leaves,
            leaves,
        }
    }

    /// Arrive, increasing the surplus. Departs automatically when the
    /// returned guard drops. The leaf is chosen by
    /// [`stripe_hint`](ale_vtime::stripe_hint), so neighbouring threads
    /// share a leaf.
    pub fn arrive(&self) -> SnziGuard<'_> {
        self.arrive_at(ale_vtime::stripe_hint())
    }

    /// Arrive at the leaf selected by `hint % leaves`.
    pub fn arrive_at(&self, hint: usize) -> SnziGuard<'_> {
        if self.leaves == 0 {
            self.root_arrive();
            return SnziGuard {
                snzi: self,
                leaf: usize::MAX,
            };
        }
        let leaf = self.leaf_start + (hint % self.leaves);
        self.node_arrive(leaf);
        SnziGuard { snzi: self, leaf }
    }

    /// Is the surplus nonzero? One shared load.
    #[inline]
    pub fn query(&self) -> bool {
        // Subscription-side reorder fence: a deferral decision made on this
        // load can go stale the instant another lane arrives; the fence lets
        // adversarial schedules stretch that gap.
        crate::reorder::subscribe_fence();
        tick(Event::SharedLoad);
        self.root.load(Ordering::Acquire) != 0
    }

    fn root_arrive(&self) {
        tick(Event::Cas);
        self.root.fetch_add(1, Ordering::AcqRel);
    }

    fn root_depart(&self) {
        tick(Event::Cas);
        let prev = self.root.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "SNZI root depart below zero");
    }

    fn parent_arrive(&self, i: usize) {
        if i == 0 {
            self.root_arrive();
        } else {
            self.node_arrive((i - 1) / 2);
        }
    }

    fn parent_depart(&self, i: usize) {
        if i == 0 {
            self.root_depart();
        } else {
            self.node_depart((i - 1) / 2);
        }
    }

    fn node_arrive(&self, i: usize) {
        let node = &self.nodes[i];
        let mut succ = false;
        let mut undo = 0u32;
        while !succ {
            let xw = node.x.load(Ordering::Acquire);
            tick(Event::SharedLoad);
            let (c, v) = unpack(xw);
            // Three cases of the PODC'07 algorithm (counts in halves).
            let mut cur = (c, v);
            if cur.0 >= 2 * HALF {
                tick(Event::Cas);
                if node
                    .x
                    .compare_exchange(
                        pack(cur.0, cur.1),
                        pack(cur.0 + 2 * HALF, cur.1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    succ = true;
                }
                continue;
            }
            if cur.0 == 0 {
                tick(Event::Cas);
                if node
                    .x
                    .compare_exchange(
                        pack(0, cur.1),
                        pack(HALF, cur.1 + 1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    succ = true;
                    cur = (HALF, cur.1 + 1);
                } else {
                    continue;
                }
            }
            if cur.0 == HALF {
                // Someone (possibly us) is mid-transition: help by arriving
                // at the parent, then try to finalise ½ -> 1.
                // Chaos point: stretch the transient ½ window under ale-check.
                crate::chaos::stall();
                // Self-test mutation (`SnziSkipHalf`): forgetting the
                // parent arrival on the ½ transition makes the root
                // under-count — ale-check's SNZI oracle must catch this.
                if !mutated(Mutation::SnziSkipHalf) {
                    self.parent_arrive(i);
                }
                tick(Event::Cas);
                if node
                    .x
                    .compare_exchange(
                        pack(HALF, cur.1),
                        pack(2 * HALF, cur.1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_err()
                {
                    undo += 1;
                }
            }
        }
        while undo > 0 {
            if !mutated(Mutation::SnziSkipHalf) {
                self.parent_depart(i);
            }
            undo -= 1;
        }
    }

    fn node_depart(&self, i: usize) {
        let node = &self.nodes[i];
        loop {
            let xw = node.x.load(Ordering::Acquire);
            tick(Event::SharedLoad);
            let (c, v) = unpack(xw);
            debug_assert!(c >= 2 * HALF, "departing a node with no whole arrivals");
            tick(Event::Cas);
            if node
                .x
                .compare_exchange(
                    pack(c, v),
                    pack(c - 2 * HALF, v),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                if c == 2 * HALF {
                    self.parent_depart(i);
                }
                return;
            }
        }
    }

    fn depart_leaf(&self, leaf: usize) {
        if leaf == usize::MAX {
            self.root_depart();
        } else {
            self.node_depart(leaf);
        }
    }
}

impl std::fmt::Debug for Snzi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snzi")
            .field("root", &self.root.load(Ordering::Relaxed))
            .field("leaves", &self.leaves)
            .finish()
    }
}

/// RAII handle for one arrival; departs on drop.
pub struct SnziGuard<'a> {
    snzi: &'a Snzi,
    leaf: usize,
}

impl Drop for SnziGuard<'_> {
    fn drop(&mut self) {
        self.snzi.depart_leaf(self.leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_counter_root() {
        let s = Snzi::new(0);
        assert!(!s.query());
        let g1 = s.arrive_at(0);
        assert!(s.query());
        let g2 = s.arrive_at(5);
        drop(g1);
        assert!(s.query());
        drop(g2);
        assert!(!s.query());
    }

    #[test]
    fn tree_arrivals_toggle_indicator() {
        for levels in 1..=4 {
            let s = Snzi::new(levels);
            assert!(!s.query(), "levels={levels}");
            let guards: Vec<_> = (0..10).map(|i| s.arrive_at(i)).collect();
            assert!(s.query(), "levels={levels}");
            drop(guards);
            assert!(!s.query(), "levels={levels}: surplus must return to zero");
        }
    }

    #[test]
    fn same_leaf_arrivals_are_absorbed() {
        // Two arrivals at one leaf should produce exactly one root arrival.
        let s = Snzi::new(3);
        let g1 = s.arrive_at(2);
        let root_after_first = s.root.load(Ordering::Relaxed);
        let g2 = s.arrive_at(2);
        assert_eq!(
            s.root.load(Ordering::Relaxed),
            root_after_first,
            "second same-leaf arrival must not touch the root"
        );
        drop(g1);
        assert!(s.query());
        drop(g2);
        assert!(!s.query());
    }

    #[test]
    fn concurrent_arrive_depart_never_loses_surplus() {
        let s = Snzi::new(3);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..2_000 {
                        let g = s.arrive_at(t * 31 + i);
                        assert!(s.query(), "indicator must be set while inside");
                        drop(g);
                    }
                });
            }
        });
        assert!(!s.query(), "all departed: indicator must clear");
        for n in &s.nodes {
            let (c, _) = unpack(n.x.load(Ordering::Relaxed));
            assert_eq!(c, 0, "all node counts must return to zero");
        }
    }

    #[test]
    fn nested_guards_interleave_correctly() {
        let s = Snzi::new(2);
        let a = s.arrive_at(0);
        let b = s.arrive_at(1);
        let c = s.arrive_at(0);
        drop(b);
        assert!(s.query());
        drop(a);
        assert!(s.query());
        drop(c);
        assert!(!s.query());
    }

    #[test]
    fn query_under_simulator_sees_peers() {
        use ale_vtime::{Platform, Sim};
        use std::sync::atomic::AtomicBool;
        let s = Snzi::new(3);
        let observed = AtomicBool::new(false);
        Sim::new(Platform::testbed(), 4).run(|lane| {
            if lane.id() == 0 {
                let _g = s.arrive();
                ale_vtime::tick(Event::LocalWork(10_000));
            } else {
                ale_vtime::tick(Event::LocalWork(1_000));
                if s.query() {
                    observed.store(true, Ordering::Relaxed);
                }
            }
        });
        assert!(
            observed.load(Ordering::Relaxed),
            "peers must observe the arrival"
        );
        assert!(!s.query());
    }
}
