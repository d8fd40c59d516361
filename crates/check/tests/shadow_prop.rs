//! Property tests pinning each sequential shadow model against a naive,
//! independently-written reference under random operation sequences.
//!
//! The scenario workloads trust the shadows as their source of truth, so
//! a bug in a shadow silently weakens a concurrency oracle. Each test
//! here re-implements the model's contract in the most obvious way
//! possible (std collections, linear scans) and checks observation-level
//! agreement op for op, plus final-state agreement.

use std::collections::{HashMap, VecDeque};

use ale_check::workloads::shadow::{
    BalanceShadow, KvOp, KvShadow, QueueOp, QueueShadow, ShadowModel, TransferOp, TtlOp, TtlShadow,
};
use proptest::prelude::*;

/// Slot space used by the per-lane shadows (mirrors CHURN_PER_LANE).
const SLOTS: usize = 4;

/// Run `script` (kind, slot, value) against a `KvShadow<N>` and a HashMap.
fn kv_shadow_agrees<const N: usize>(script: &[(u8, usize, u64)]) -> Result<(), TestCaseError> {
    let mut shadow = KvShadow::<N>::new();
    let mut reference: HashMap<usize, u64> = HashMap::new();
    let (mut inserted, mut removed) = (0u64, 0u64);
    for &(kind, slot, value) in script {
        let slot = slot % N;
        let (op, want) = match kind {
            0 => {
                let newly = reference.insert(slot, value).is_none();
                inserted += newly as u64;
                (KvOp::Insert { slot, value }, Some(newly as u64))
            }
            1 => {
                let was = reference.remove(&slot).is_some();
                removed += was as u64;
                (KvOp::Remove { slot }, Some(was as u64))
            }
            _ => (KvOp::Get { slot }, reference.get(&slot).copied()),
        };
        let got = shadow.apply(&op);
        prop_assert_eq!(got, want, "diverged on {:?}", op);
    }
    for slot in 0..N {
        prop_assert_eq!(shadow.live(slot), reference.get(&slot).copied());
    }
    prop_assert_eq!((shadow.inserted, shadow.removed), (inserted, removed));
    prop_assert_eq!(shadow.live_count(), reference.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// KvShadow agrees with a plain HashMap on presence transitions,
    /// lookups, final contents and its insert/remove ledger — at the four
    /// slots of the hashmap/kyoto/durable lanes and the eight of the
    /// shard lanes.
    #[test]
    fn kv_shadow_matches_hashmap(
        script in proptest::collection::vec((0u8..3, 0usize..8, any::<u64>()), 0..80),
    ) {
        kv_shadow_agrees::<SLOTS>(&script)?;
        kv_shadow_agrees::<8>(&script)?;
    }

    /// TtlShadow agrees with a HashMap of (value, expiry) pairs: fills,
    /// unconditional evictions, expiry sweeps, and freshness-checked gets.
    #[test]
    fn ttl_shadow_matches_reference(
        script in proptest::collection::vec(
            (0u8..4, 0usize..SLOTS, any::<u64>(), 0u64..1_000),
            0..100,
        ),
    ) {
        let mut shadow = TtlShadow::new();
        let mut reference: HashMap<usize, (u64, u64)> = HashMap::new();
        for (kind, slot, value, now) in script {
            let (op, want) = match kind {
                0 => {
                    let expiry = now; // any u64 works; reuse the draw
                    let want = reference.insert(slot, (value, expiry)).is_none() as u64;
                    (TtlOp::Fill { slot, value, expiry }, Some(want))
                }
                1 => {
                    let want = reference.remove(&slot).is_some() as u64;
                    (TtlOp::Evict { slot }, Some(want))
                }
                2 => {
                    let before = reference.len();
                    reference.retain(|_, &mut (_, expiry)| expiry > now);
                    (TtlOp::Sweep { now }, Some((before - reference.len()) as u64))
                }
                _ => {
                    let want = reference
                        .get(&slot)
                        .and_then(|&(val, expiry)| (expiry > now).then_some(val));
                    (TtlOp::Get { slot, now }, want)
                }
            };
            let got = shadow.apply(&op);
            prop_assert_eq!(got, want, "diverged on {:?}", op);
        }
        for slot in 0..SLOTS {
            prop_assert_eq!(shadow.present[slot], reference.contains_key(&slot));
            if let Some(&(val, expiry)) = reference.get(&slot) {
                prop_assert_eq!(shadow.value[slot], val);
                prop_assert_eq!(shadow.expiry[slot], expiry);
            }
        }
    }

    /// QueueShadow is a bounded FIFO: agrees with a VecDeque that rejects
    /// pushes past the capacity.
    #[test]
    fn queue_shadow_matches_deque(
        cap in 1usize..10,
        script in proptest::collection::vec((0u8..3, any::<u64>()), 0..120),
    ) {
        let mut shadow = QueueShadow::new(cap);
        let mut reference: VecDeque<u64> = VecDeque::new();
        for (kind, item) in script {
            let (op, want) = match kind {
                0 => {
                    let accept = reference.len() < cap;
                    if accept {
                        reference.push_back(item);
                    }
                    (QueueOp::Enqueue(item), Some(accept as u64))
                }
                1 => (QueueOp::Dequeue, reference.pop_front()),
                _ => (QueueOp::Len, Some(reference.len() as u64)),
            };
            let got = shadow.apply(&op);
            prop_assert_eq!(got, want, "diverged on {:?}", op);
        }
        prop_assert_eq!(shadow.len(), reference.len());
        prop_assert_eq!(shadow.is_empty(), reference.is_empty());
        while let Some(want) = reference.pop_front() {
            prop_assert_eq!(shadow.dequeue(), Some(want), "drain order diverged");
        }
        prop_assert!(shadow.is_empty());
    }

    /// BalanceShadow conserves the total and matches a naive reference on
    /// acceptance and per-account balances.
    #[test]
    fn balance_shadow_conserves_and_matches(
        accounts in 3usize..12,
        initial in 0u64..2_000,
        script in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), any::<usize>(), 0u64..50),
            0..100,
        ),
    ) {
        let mut shadow = BalanceShadow::new(accounts, initial);
        let mut reference = vec![initial; accounts];
        let total: u64 = initial * accounts as u64;
        for (a, b, c, amount) in script {
            let (a, b, c) = (a % accounts, b % accounts, c % accounts);
            let op = TransferOp { a, b, c, amount };
            let want = a != b && b != c && a != c
                && reference[a] >= amount
                && reference[b] >= amount;
            if want {
                reference[a] -= amount;
                reference[b] -= amount;
                reference[c] += 2 * amount;
            }
            prop_assert_eq!(shadow.apply(&op), want, "acceptance diverged on {:?}", op);
            prop_assert_eq!(shadow.total(), total, "conservation broken by {:?}", op);
        }
        for (i, &want) in reference.iter().enumerate() {
            prop_assert_eq!(shadow.balance(i), want);
        }
    }
}
