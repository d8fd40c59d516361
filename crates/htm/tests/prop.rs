//! Property-based tests: the transaction engine against a sequential
//! reference model, under arbitrary operation scripts.

use ale_htm::{attempt, AbortCode, HtmCell};
use ale_vtime::{Platform, Rng};
use proptest::prelude::*;

/// One step of a transaction script.
#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Write(usize, u64),
    Cas(usize, u64, u64),
    Abort(u8),
}

fn op_strategy(cells: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..cells).prop_map(Op::Read),
        4 => (0..cells, any::<u64>()).prop_map(|(i, v)| Op::Write(i, v)),
        2 => (0..cells, 0u64..4, any::<u64>()).prop_map(|(i, c, v)| Op::Cas(i, c, v)),
        1 => (1u8..20).prop_map(Op::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A committed transaction behaves exactly like running the script on a
    /// plain array; an aborted one leaves no trace.
    #[test]
    fn tx_matches_sequential_model(
        script in proptest::collection::vec(op_strategy(6), 0..40),
        init in proptest::collection::vec(0u64..4, 6),
        seed in any::<u64>(),
    ) {
        let cells: Vec<HtmCell<u64>> = init.iter().copied().map(HtmCell::new).collect();
        let mut model: Vec<u64> = init.clone();
        let profile = Platform::testbed().htm.unwrap(); // no spurious aborts
        let mut rng = Rng::new(seed);

        let mut model_reads = Vec::new();
        let mut expect_abort = None;
        // Run the script on the model first (stopping at an explicit abort).
        for op in &script {
            match *op {
                Op::Read(i) => model_reads.push(model[i]),
                Op::Write(i, v) => model[i] = v,
                Op::Cas(i, c, v) => {
                    if model[i] == c {
                        model[i] = v;
                    }
                }
                Op::Abort(code) => {
                    expect_abort = Some(code);
                    break;
                }
            }
        }

        let mut tx_reads = Vec::new();
        let result = attempt(&profile, &mut rng, || {
            for op in &script {
                match *op {
                    Op::Read(i) => tx_reads.push(cells[i].get()),
                    Op::Write(i, v) => cells[i].set(v),
                    Op::Cas(i, c, v) => {
                        let _ = cells[i].compare_exchange(c, v);
                    }
                    Op::Abort(code) => ale_htm::explicit_abort(code),
                }
            }
        });

        match expect_abort {
            Some(code) => {
                prop_assert_eq!(result.unwrap_err().code, AbortCode::Explicit(code));
                // No writes took effect.
                for (cell, &want) in cells.iter().zip(&init) {
                    prop_assert_eq!(cell.get(), want);
                }
            }
            None => {
                prop_assert!(result.is_ok());
                for (cell, &want) in cells.iter().zip(&model) {
                    prop_assert_eq!(cell.get(), want);
                }
            }
        }
        // Reads observed inside the tx match the model prefix in both cases
        // (opacity: a doomed tx still only sees consistent values — here,
        // single-threaded, exactly the model's).
        prop_assert_eq!(tx_reads, model_reads);
    }

    /// Capacity limits are exact: touching more distinct cells than the
    /// budget aborts with Capacity; staying within it commits.
    #[test]
    fn capacity_is_exact(n in 1usize..40, cap in 1usize..40) {
        let mut profile = Platform::testbed().htm.unwrap();
        profile.max_write_set = cap;
        let cells: Vec<HtmCell<u64>> = (0..n).map(|_| HtmCell::new(0)).collect();
        let mut rng = Rng::new(7);
        let r = attempt(&profile, &mut rng, || {
            for c in &cells {
                c.set(1);
            }
        });
        if n <= cap {
            prop_assert!(r.is_ok());
        } else {
            prop_assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
        }
    }

    /// A read is recorded unless one of the last eight *recorded* reads is
    /// of the same cell, and the entry that takes the read set past its
    /// capacity aborts: after every read the set has exactly the length
    /// that scanning that window gives, and the capacity abort comes at
    /// the same read.
    #[test]
    fn read_set_dedup_matches_a_window_scan(
        script in proptest::collection::vec(0usize..12, 0..80),
        cap in 1usize..40,
    ) {
        const WINDOW: usize = 8;
        let mut recorded: Vec<usize> = Vec::new();
        let mut model_lens = Vec::new();
        let mut model_abort = false;
        for &i in &script {
            let start = recorded.len().saturating_sub(WINDOW);
            if !recorded[start..].contains(&i) {
                recorded.push(i);
                if recorded.len() > cap {
                    model_abort = true;
                    break;
                }
            }
            model_lens.push(recorded.len());
        }

        let cells: Vec<HtmCell<u64>> = (0..12).map(HtmCell::new).collect();
        let mut profile = Platform::testbed().htm.unwrap();
        profile.max_read_set = cap;
        let mut lens = Vec::new();
        let r = attempt(&profile, &mut Rng::new(5), || {
            for &i in &script {
                let _ = cells[i].get();
                lens.push(ale_htm::read_set_len());
            }
        });
        if model_abort {
            prop_assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
        } else {
            prop_assert!(r.is_ok());
        }
        prop_assert_eq!(lens, model_lens);
    }

    /// Non-transactional stores to disjoint cell sets never interfere with
    /// a committed transaction's cells.
    #[test]
    fn disjoint_plain_stores_do_not_doom(init in any::<u64>(), other in any::<u64>()) {
        let a = HtmCell::new(init);
        let b = HtmCell::new(0u64);
        let profile = Platform::testbed().htm.unwrap();
        let mut rng = Rng::new(3);
        let r = attempt(&profile, &mut rng, || {
            let v = a.get();
            // Plain store to an *untouched* cell via another thread.
            std::thread::scope(|s| {
                s.spawn(|| b.set(other));
            });
            a.set(v.wrapping_add(1));
        });
        prop_assert!(r.is_ok());
        prop_assert_eq!(a.get(), init.wrapping_add(1));
        prop_assert_eq!(b.get(), other);
    }
}
