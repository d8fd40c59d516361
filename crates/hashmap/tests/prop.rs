//! Property-based tests: the ALE HashMap against `std::collections::HashMap`
//! under arbitrary operation scripts, across platforms, variants, and
//! version-striping configurations.

use std::collections::HashMap;
use std::sync::Arc;

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleHashMap, MapConfig, NodeSlab, NIL};
use ale_htm::HtmCell;
use ale_vtime::Platform;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    InsertFine(u64, u64),
    RemoveFine(u64),
    RemoveSelfAbort(u64),
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..keys, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0..keys).prop_map(Op::Remove),
        4 => (0..keys).prop_map(Op::Get),
        1 => (0..keys, any::<u64>()).prop_map(|(k, v)| Op::InsertFine(k, v)),
        1 => (0..keys).prop_map(Op::RemoveFine),
        1 => (0..keys).prop_map(Op::RemoveSelfAbort),
    ]
}

fn check_script(
    platform: Platform,
    x: u32,
    y: u32,
    stripes: usize,
    script: &[Op],
) -> Result<(), TestCaseError> {
    let ale: Arc<Ale> = Ale::new(
        AleConfig::new(platform).with_seed(5),
        StaticPolicy::new(x, y),
    );
    let map: AleHashMap<u64> =
        AleHashMap::new(&ale, MapConfig::new(32).with_version_stripes(stripes));
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in script {
        match *op {
            Op::Insert(k, v) => {
                prop_assert_eq!(map.insert(k, v), !model.contains_key(&k));
                model.insert(k, v);
            }
            Op::InsertFine(k, v) => {
                prop_assert_eq!(map.insert_fine(k, v), !model.contains_key(&k));
                model.insert(k, v);
            }
            Op::Remove(k) => {
                prop_assert_eq!(map.remove(k), model.remove(&k).is_some());
            }
            Op::RemoveFine(k) => {
                prop_assert_eq!(map.remove_fine(k), model.remove(&k).is_some());
            }
            Op::RemoveSelfAbort(k) => {
                prop_assert_eq!(map.remove_self_abort(k), model.remove(&k).is_some());
            }
            Op::Get(k) => {
                let mut v = 0;
                let found = map.get(k, &mut v);
                prop_assert_eq!(found, model.contains_key(&k));
                if found {
                    prop_assert_eq!(&v, &model[&k]);
                }
            }
        }
    }
    prop_assert_eq!(map.len_slow(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HTM-first execution matches the reference model.
    #[test]
    fn matches_model_htm(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::testbed(), 4, 0, 1, &script)?;
    }

    /// SWOpt-first execution (no HTM platform) matches the reference model.
    #[test]
    fn matches_model_swopt(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::t2(), 0, 8, 1, &script)?;
    }

    /// Rock's flaky HTM (spurious aborts, tiny write sets) still yields
    /// correct results — failures must be invisible.
    #[test]
    fn matches_model_rock(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::rock(), 3, 6, 1, &script)?;
    }

    /// Per-bucket version stripes preserve semantics.
    #[test]
    fn matches_model_striped(
        script in proptest::collection::vec(op_strategy(32), 0..120),
        stripes in 1usize..64,
    ) {
        check_script(Platform::testbed(), 4, 8, stripes, &script)?;
    }
}

/// The chain engine against a `Vec` of keys, front first.
#[derive(Debug, Clone)]
enum ChainOp {
    /// Link a fresh node unless the key is present.
    Link(u64),
    Unlink(u64),
    MoveToFront(u64),
}

fn chain_op(keys: u64) -> impl Strategy<Value = ChainOp> {
    prop_oneof![
        3 => (0..keys).prop_map(ChainOp::Link),
        2 => (0..keys).prop_map(ChainOp::Unlink),
        2 => (0..keys).prop_map(ChainOp::MoveToFront),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every step of a random link/unlink/move-to-front script the
    /// unvalidated walk finds exactly the model's keys, reports the
    /// model's predecessor, and the sweep yields the model's order.
    #[test]
    fn chain_engine_matches_vec_model(script in proptest::collection::vec(chain_op(12), 0..80)) {
        let slab: NodeSlab<u64> = NodeSlab::with_capacity(64);
        let head = HtmCell::new(NIL);
        let mut model: Vec<u64> = Vec::new();
        for op in &script {
            match *op {
                ChainOp::Link(k) => {
                    let (_, id) = slab.find(&head, k);
                    prop_assert_eq!(id != NIL, model.contains(&k));
                    if id == NIL {
                        slab.link_front(&head, slab.alloc(k, k));
                        model.insert(0, k);
                    }
                }
                ChainOp::Unlink(k) => {
                    let (prev, id) = slab.find(&head, k);
                    prop_assert_eq!(id != NIL, model.contains(&k));
                    if id != NIL {
                        slab.unlink(&head, prev, slab.node(id).next.get());
                        slab.free(id);
                        model.retain(|&m| m != k);
                    }
                }
                ChainOp::MoveToFront(k) => {
                    let (prev, id) = slab.find(&head, k);
                    if id != NIL {
                        slab.move_to_front(&head, prev, id);
                        model.retain(|&m| m != k);
                        model.insert(0, k);
                    }
                }
            }
            let mut order = Vec::new();
            slab.sweep(&head, |id| order.push(slab.node(id).key.get()));
            prop_assert_eq!(&order, &model);
            for k in 0..12 {
                let (prev, id) = slab.walk(&head, k, || true).expect("unvalidated");
                match model.iter().position(|&m| m == k) {
                    None => prop_assert_eq!(id, NIL),
                    Some(at) => {
                        prop_assert_eq!(slab.node(id).key.get(), k);
                        let want_prev = at.checked_sub(1).map(|p| model[p]);
                        let got_prev = (prev != NIL).then(|| slab.node(prev).key.get());
                        prop_assert_eq!(got_prev, want_prev);
                    }
                }
            }
        }
    }
}
