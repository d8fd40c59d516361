//! Sequential shadow models: the oracles the scenario workloads check
//! against.
//!
//! A shadow model is the *naive single-threaded truth* for a slice of
//! state. Workloads keep one per lane over lane-owned state (the single
//! writer makes the comparison sound under any interleaving — the real
//! subject must agree with the shadow op for op) and consult shared-state
//! models only at quiescent points. Every model also folds into the run
//! digest, so a divergence that somehow escapes its oracle still breaks
//! determinism comparisons.
//!
//! The models themselves are deliberately boring — arrays, a deque, a
//! vector of balances, no interior mutability, no time. `tests/
//! shadow_prop.rs` pins each one against an independently-written
//! reference under random op sequences, so a bug in a model can't silently
//! weaken the workload oracles that trust it.

use crate::Fnv;

use super::CHURN_PER_LANE;

/// A sequential shadow: applies operations, returns the observation the
/// real subject must match, folds into the run digest.
pub trait ShadowModel {
    /// One operation against the modelled state.
    type Op;
    /// What the real subject must have observed for the same operation.
    type Obs: PartialEq + std::fmt::Debug;

    fn apply(&mut self, op: &Self::Op) -> Self::Obs;
    fn fold(&self, h: &mut Fnv);
}

// ---------------------------------------------------------------------------
// Key/value shadow (hashmap, kyoto, durable, shard)
// ---------------------------------------------------------------------------

/// Per-lane shadow of the `N` keys a lane owns (sole writer): presence,
/// value and generation per slot, plus an insert/remove ledger whose
/// difference is the lane's exact contribution to the subject's live-key
/// count. The map workloads check every read, `insert` and `remove` of
/// their keys against it (`workloads/kv.rs`).
#[derive(Clone)]
pub struct KvShadow<const N: usize> {
    pub present: [bool; N],
    pub value: [u64; N],
    pub generation: [u64; N],
    /// Successful new insertions (presence false → true).
    pub inserted: u64,
    /// Successful removals (presence true → false).
    pub removed: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum KvOp {
    /// (Re-)insert `value` under the slot's key.
    Insert { slot: usize, value: u64 },
    /// Remove the slot's key.
    Remove { slot: usize },
    /// Look the slot's key up.
    Get { slot: usize },
}

impl<const N: usize> KvShadow<N> {
    pub fn new() -> Self {
        KvShadow {
            present: [false; N],
            value: [0; N],
            generation: [0; N],
            inserted: 0,
            removed: 0,
        }
    }

    /// Insert, returning `true` when the key was newly inserted (the
    /// map's `insert` contract).
    pub fn insert(&mut self, slot: usize, value: u64) -> bool {
        let newly = !self.present[slot];
        self.present[slot] = true;
        self.value[slot] = value;
        self.generation[slot] += 1;
        self.inserted += newly as u64;
        newly
    }

    /// Remove, returning whether the key was present.
    pub fn remove(&mut self, slot: usize) -> bool {
        let was = std::mem::replace(&mut self.present[slot], false);
        self.removed += was as u64;
        was
    }

    /// The value a lookup must return (`None` = absent).
    pub fn live(&self, slot: usize) -> Option<u64> {
        self.present[slot].then_some(self.value[slot])
    }

    /// This lane's net contribution to the subject's live-key count.
    pub fn live_count(&self) -> u64 {
        self.inserted - self.removed
    }
}

impl<const N: usize> Default for KvShadow<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> ShadowModel for KvShadow<N> {
    type Op = KvOp;
    /// `Get` → the live value; `Insert`/`Remove` → 1 when presence changed.
    type Obs = Option<u64>;

    fn apply(&mut self, op: &KvOp) -> Option<u64> {
        match *op {
            KvOp::Insert { slot, value } => Some(self.insert(slot, value) as u64),
            KvOp::Remove { slot } => Some(self.remove(slot) as u64),
            KvOp::Get { slot } => self.live(slot),
        }
    }

    /// The slots only: the ledger follows from their history, and only the
    /// shard workload folds it (its pinned digests carry it).
    fn fold(&self, h: &mut Fnv) {
        for j in 0..N {
            h.write(&[self.present[j] as u8]);
            h.write_u64(self.value[j]);
            h.write_u64(self.generation[j]);
        }
    }
}

// ---------------------------------------------------------------------------
// TTL cache shadow
// ---------------------------------------------------------------------------

/// Per-lane shadow of a TTL cache's lane-owned slots: presence, value and
/// the *exact* expiry deadline. Freshness is judged against a caller-
/// supplied `now`, never wall/virtual clock reads inside the model — the
/// workload passes the same `now` to the cache and the shadow, so the two
/// computations are identical and the stale-read oracle has no tolerance
/// window to hide in.
#[derive(Clone)]
pub struct TtlShadow {
    pub present: [bool; CHURN_PER_LANE],
    pub value: [u64; CHURN_PER_LANE],
    pub expiry: [u64; CHURN_PER_LANE],
}

#[derive(Debug, Clone, Copy)]
pub enum TtlOp {
    /// Cache `value` under the slot's key until `expiry`.
    Fill {
        slot: usize,
        value: u64,
        expiry: u64,
    },
    /// Drop the slot's key unconditionally.
    Evict { slot: usize },
    /// Drop every entry whose deadline is ≤ `now`.
    Sweep { now: u64 },
    /// Look the slot's key up at time `now`.
    Get { slot: usize, now: u64 },
}

impl TtlShadow {
    pub fn new() -> Self {
        TtlShadow {
            present: [false; CHURN_PER_LANE],
            value: [0; CHURN_PER_LANE],
            expiry: [0; CHURN_PER_LANE],
        }
    }

    /// Fill, returning `true` when the key was newly inserted.
    pub fn fill(&mut self, slot: usize, value: u64, expiry: u64) -> bool {
        let newly = !self.present[slot];
        self.present[slot] = true;
        self.value[slot] = value;
        self.expiry[slot] = expiry;
        newly
    }

    /// Evict, returning whether the key was present.
    pub fn evict(&mut self, slot: usize) -> bool {
        std::mem::replace(&mut self.present[slot], false)
    }

    /// Evict every expired entry, returning how many went.
    pub fn sweep(&mut self, now: u64) -> u64 {
        let mut evicted = 0;
        for j in 0..CHURN_PER_LANE {
            if self.present[j] && self.expiry[j] <= now {
                self.present[j] = false;
                evicted += 1;
            }
        }
        evicted
    }

    /// The value a fresh lookup at `now` must return (`None` = absent *or*
    /// expired; an expired entry may still be physically cached, but
    /// serving it is the stale-read bug).
    pub fn live(&self, slot: usize, now: u64) -> Option<u64> {
        (self.present[slot] && self.expiry[slot] > now).then_some(self.value[slot])
    }
}

impl Default for TtlShadow {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowModel for TtlShadow {
    type Op = TtlOp;
    /// `Get` → the live value; `Sweep` → entries evicted; `Fill`/`Evict` →
    /// 1 when presence changed, else 0.
    type Obs = Option<u64>;

    fn apply(&mut self, op: &TtlOp) -> Option<u64> {
        match *op {
            TtlOp::Fill {
                slot,
                value,
                expiry,
            } => Some(self.fill(slot, value, expiry) as u64),
            TtlOp::Evict { slot } => Some(self.evict(slot) as u64),
            TtlOp::Sweep { now } => Some(self.sweep(now)),
            TtlOp::Get { slot, now } => self.live(slot, now),
        }
    }

    fn fold(&self, h: &mut Fnv) {
        for j in 0..CHURN_PER_LANE {
            h.write(&[self.present[j] as u8]);
            h.write_u64(self.value[j]);
            h.write_u64(self.expiry[j]);
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded FIFO shadow
// ---------------------------------------------------------------------------

/// A bounded FIFO queue: the sequential truth for the producer-consumer
/// ring. Used directly in the quiescent drain check and property-tested
/// against a naive reference; during the concurrent phase the workload
/// uses per-(consumer, producer) subsequence oracles instead, which stay
/// sound without a centralized model.
#[derive(Clone)]
pub struct QueueShadow {
    items: std::collections::VecDeque<u64>,
    cap: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum QueueOp {
    Enqueue(u64),
    Dequeue,
    Len,
}

impl QueueShadow {
    pub fn new(cap: usize) -> Self {
        QueueShadow {
            items: std::collections::VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Enqueue, returning `false` when the queue is full.
    pub fn enqueue(&mut self, item: u64) -> bool {
        if self.items.len() >= self.cap {
            return false;
        }
        self.items.push_back(item);
        true
    }

    pub fn dequeue(&mut self) -> Option<u64> {
        self.items.pop_front()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl ShadowModel for QueueShadow {
    type Op = QueueOp;
    /// `Enqueue` → 1 accepted / 0 full; `Dequeue` → the item; `Len` → len.
    type Obs = Option<u64>;

    fn apply(&mut self, op: &QueueOp) -> Option<u64> {
        match *op {
            QueueOp::Enqueue(item) => Some(self.enqueue(item) as u64),
            QueueOp::Dequeue => self.dequeue(),
            QueueOp::Len => Some(self.len() as u64),
        }
    }

    fn fold(&self, h: &mut Fnv) {
        h.write_u64(self.items.len() as u64);
        for &it in &self.items {
            h.write_u64(it);
        }
    }
}

// ---------------------------------------------------------------------------
// Balance shadow
// ---------------------------------------------------------------------------

/// Account balances under invariant-preserving multi-key transfers: two
/// debtors each pay `amount`, one creditor receives both, so the total is
/// conserved op by op. The workload checks conservation concurrently (it
/// needs no model); the shadow is the sequential truth the property tests
/// pin, and the quiescent digest surface.
#[derive(Clone)]
pub struct BalanceShadow {
    balances: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
pub struct TransferOp {
    /// First debtor.
    pub a: usize,
    /// Second debtor.
    pub b: usize,
    /// Creditor (receives `2 * amount`).
    pub c: usize,
    pub amount: u64,
}

impl BalanceShadow {
    pub fn new(accounts: usize, initial: u64) -> Self {
        BalanceShadow {
            balances: vec![initial; accounts],
        }
    }

    /// Apply a transfer, returning `false` (state unchanged) when either
    /// debtor lacks funds or the accounts are not distinct.
    pub fn transfer(&mut self, op: TransferOp) -> bool {
        let TransferOp { a, b, c, amount } = op;
        if a == b || b == c || a == c {
            return false;
        }
        if self.balances[a] < amount || self.balances[b] < amount {
            return false;
        }
        self.balances[a] -= amount;
        self.balances[b] -= amount;
        self.balances[c] += 2 * amount;
        true
    }

    pub fn total(&self) -> u64 {
        self.balances.iter().sum()
    }

    pub fn balance(&self, i: usize) -> u64 {
        self.balances[i]
    }
}

impl ShadowModel for BalanceShadow {
    type Op = TransferOp;
    /// Whether the transfer applied.
    type Obs = bool;

    fn apply(&mut self, op: &TransferOp) -> bool {
        self.transfer(*op)
    }

    fn fold(&self, h: &mut Fnv) {
        for &b in &self.balances {
            h.write_u64(b);
        }
    }
}
