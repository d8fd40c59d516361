//! Property-based tests for the synchronisation substrates.

use ale_htm::HtmCell;
use ale_sync::{RawLock, RawRwLock, RwLock, SeqVersion, Snzi, SpinLock, StatCounter};
use ale_vtime::{tick, Event, Platform, Rng, Sim};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SNZI: for any arrive/depart schedule, query == surplus > 0.
    #[test]
    fn snzi_tracks_surplus(
        levels in 0u32..5,
        script in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..60),
    ) {
        let s = Snzi::new(levels);
        let mut guards = Vec::new();
        for (hint, arrive) in script {
            if arrive || guards.is_empty() {
                guards.push(s.arrive_at(hint));
            } else {
                let idx = hint % guards.len();
                guards.swap_remove(idx);
            }
            prop_assert_eq!(s.query(), !guards.is_empty());
        }
        drop(guards);
        prop_assert!(!s.query());
    }

    /// BFP counter: exact at small counts; within 10 % for any count up to
    /// a few hundred thousand, for any seed.
    #[test]
    fn counter_accuracy(seed in any::<u64>(), n in 1u64..200_000) {
        let c = StatCounter::new();
        let mut rng = Rng::new(seed);
        for _ in 0..n {
            c.inc(&mut rng);
        }
        let est = c.read();
        if n <= 4096 {
            prop_assert_eq!(est, n, "exact regime");
        } else {
            let err = (est as f64 - n as f64).abs() / n as f64;
            prop_assert!(err < 0.10, "n={n} est={est} err={err:.4}");
        }
    }

    /// SeqVersion: interleaved conflicting actions and reads — a snapshot
    /// validates iff no action intervened, and versions stay even outside
    /// actions.
    #[test]
    fn seqversion_validation(actions in proptest::collection::vec(any::<bool>(), 1..40)) {
        let v = SeqVersion::new();
        let mut snap = v.read(true);
        prop_assert_eq!(snap % 2, 0);
        for do_action in actions {
            if do_action {
                v.begin_conflicting_action();
                prop_assert_eq!(v.read(false) % 2, 1);
                v.end_conflicting_action();
                prop_assert!(!v.validate(snap), "action must invalidate");
                snap = v.read(true);
            } else {
                prop_assert!(v.validate(snap), "no action: snapshot stays valid");
            }
        }
    }

    /// SeqVersion: balanced conflicting regions keep the version word even
    /// at rest and advance it by exactly 2 per region, so the region count
    /// is always recoverable from the version.
    #[test]
    fn seqversion_parity_and_region_count(regions in 1usize..50) {
        let v = SeqVersion::new();
        for i in 0..regions as u64 {
            let snap = v.read(true);
            prop_assert!(snap.is_multiple_of(2));
            prop_assert_eq!(snap, 2 * i);
            v.begin_conflicting_action();
            prop_assert_eq!(v.read(false), 2 * i + 1, "odd inside the region");
            v.end_conflicting_action();
            prop_assert!(!v.validate(snap), "a completed region must invalidate");
        }
        prop_assert_eq!(v.read(true), 2 * regions as u64);
    }

    /// Reader-validation soundness under real interleavings: for any seed,
    /// a reader whose `validate` passed must have observed consistent data
    /// — the writer only breaks the `a == b` invariant inside conflicting
    /// regions, so a torn pair that survives validation is a protocol bug.
    #[test]
    fn seqversion_readers_validate_soundly(seed in any::<u64>()) {
        let ver = SeqVersion::new();
        let a = HtmCell::new(0u64);
        let b = HtmCell::new(0u64);
        Sim::new(Platform::testbed(), 3).with_seed(seed).run(|lane| {
            let mut rng = Rng::new(seed ^ (lane.id() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if lane.id() == 0 {
                // Sole writer: exclusion comes from single ownership, as the
                // lock provides it in the real protocol.
                for i in 1..=40u64 {
                    ver.begin_conflicting_action();
                    a.set(i);
                    tick(Event::LocalWork(1 + rng.gen_range(80)));
                    b.set(i);
                    ver.end_conflicting_action();
                    tick(Event::LocalWork(1 + rng.gen_range(120)));
                }
            } else {
                for _ in 0..60 {
                    let snap = ver.read(true);
                    let x = a.get();
                    let y = b.get();
                    if ver.validate(snap) {
                        assert_eq!(x, y, "validated read must be consistent");
                    }
                    tick(Event::LocalWork(1 + rng.gen_range(60)));
                }
            }
        });
        prop_assert!(ver.read(false).is_multiple_of(2), "even at quiescence");
    }

    /// SNZI under concurrent schedules: the indicator must never read
    /// empty while any lane holds an arrival, and must read empty once
    /// every lane departed — for any seed and tree depth.
    #[test]
    fn snzi_concurrent_stress(seed in any::<u64>(), levels in 0u32..4) {
        let s = Snzi::new(levels);
        Sim::new(Platform::testbed(), 4).with_seed(seed).run(|lane| {
            let mut rng = Rng::new(seed ^ (lane.id() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for i in 0..30usize {
                let guard = s.arrive_at(lane.id() * 31 + i);
                // Our own arrival is outstanding: the surplus is provably
                // nonzero right now, whatever the other lanes are doing.
                assert!(s.query(), "indicator empty while an arrival is held");
                tick(Event::LocalWork(1 + rng.gen_range(100)));
                drop(guard);
                tick(Event::LocalWork(1 + rng.gen_range(50)));
            }
        });
        prop_assert!(!s.query(), "indicator nonzero after all departures");
    }

    /// SpinLock: any acquire/release interleaving driven sequentially keeps
    /// is_locked consistent; try_acquire agrees with state.
    #[test]
    fn mutex_state_machine(ops in proptest::collection::vec(any::<bool>(), 0..40)) {
        let spin = SpinLock::new();
        let mut held = false;
        for want_acquire in ops {
            if want_acquire && !held {
                spin.acquire();
                held = true;
            } else if !want_acquire && held {
                spin.release();
                held = false;
            }
            prop_assert_eq!(spin.is_locked(), held);
            if held {
                prop_assert!(!spin.try_acquire());
            }
        }
        if held {
            spin.release();
        }
    }

    /// RW lock: reader count and writer bit behave like the obvious state
    /// machine for any sequential schedule.
    #[test]
    fn rwlock_state_machine(ops in proptest::collection::vec(0u8..4, 0..40)) {
        let l = RwLock::new();
        let mut readers = 0u32;
        let mut writer = false;
        for op in ops {
            match op {
                0 if !writer => {
                    // try shared: succeeds iff no writer (no waiters here)
                    prop_assert!(l.try_acquire_shared());
                    readers += 1;
                }
                1 if readers > 0 => {
                    l.release_shared();
                    readers -= 1;
                }
                2 if !writer && readers == 0 => {
                    prop_assert!(l.try_acquire_excl());
                    writer = true;
                }
                3 if writer => {
                    l.release_excl();
                    writer = false;
                }
                _ => {
                    // Illegal transition for current state: try-variants
                    // must refuse where exclusion demands it.
                    if writer {
                        prop_assert!(!l.try_acquire_shared());
                        prop_assert!(!l.try_acquire_excl());
                    }
                    if readers > 0 {
                        prop_assert!(!l.try_acquire_excl());
                    }
                }
            }
            prop_assert_eq!(l.is_excl_locked(), writer);
            prop_assert_eq!(l.is_any_locked(), writer || readers > 0);
            prop_assert_eq!(l.reader_count(), readers as u64);
        }
    }

    /// Batched flushes (`add`) vs per-event `inc`: any partitioning of the
    /// same event total into per-CS deltas, flushed in any order and
    /// interleaved with per-event updates, lands on the same total — exact
    /// below the mantissa threshold, within the usual BFP bound above it.
    #[test]
    fn counter_add_partitioning_and_order_are_exact(
        seed in any::<u64>(),
        batches in proptest::collection::vec(0u64..600, 0..12),
        incs in 0u64..600,
    ) {
        let forward = StatCounter::new();
        let reverse = StatCounter::new();
        let mut rng_f = Rng::new(seed);
        let mut rng_r = Rng::new(seed);
        let total: u64 = batches.iter().sum::<u64>() + incs;
        let mut fwd_batches = batches.iter();
        for i in 0..incs {
            forward.inc(&mut rng_f);
            if i % 3 == 0 {
                if let Some(&b) = fwd_batches.next() {
                    forward.add(b);
                }
            }
        }
        for &b in fwd_batches {
            forward.add(b);
        }
        // Same events, opposite flush order, incs all at the end.
        for &b in batches.iter().rev() {
            reverse.add(b);
        }
        for _ in 0..incs {
            reverse.inc(&mut rng_r);
        }
        if total <= 4096 {
            prop_assert_eq!(forward.read(), total, "exact regime");
            prop_assert_eq!(reverse.read(), total, "flush order must not matter");
            prop_assert!(forward.is_exact());
        } else {
            for est in [forward.read(), reverse.read()] {
                let err = (est as f64 - total as f64).abs() / total as f64;
                prop_assert!(err < 0.10, "total={total} est={est} err={err:.4}");
            }
        }
    }

    /// Saturation: folding large batches drives the counter deep into the
    /// sampled regime, where each flush rounds to the current quantum —
    /// the running estimate must stay within the standard accuracy bound
    /// no matter how the batches are sized.
    #[test]
    fn counter_add_saturation_stays_accurate(
        seed in any::<u64>(),
        batches in proptest::collection::vec(1u64..50_000, 1..20),
    ) {
        let c = StatCounter::new();
        let mut rng = Rng::new(seed);
        // Cross the threshold with per-event updates first, so the folds
        // land on a nonzero exponent.
        let warmup = 5_000u64;
        for _ in 0..warmup {
            c.inc(&mut rng);
        }
        let mut truth = warmup;
        for &b in &batches {
            c.add(b);
            truth += b;
        }
        prop_assert!(!c.is_exact(), "warmup must leave the exact regime");
        let est = c.read();
        let err = (est as f64 - truth as f64).abs() / truth as f64;
        prop_assert!(err < 0.10, "truth={truth} est={est} err={err:.4}");
    }
}

/// Concurrent flushes: per-thread deltas folded with `add` interleaved
/// with per-event `inc`s must drain to the exact sum of every thread's
/// contribution (the total stays below the mantissa threshold, so the CAS
/// loop may retry but can never lose or double-count a batch).
#[test]
fn counter_concurrent_add_drains_exact_totals() {
    let c = StatCounter::new();
    let threads = 4u64;
    let per_thread = 256 + 10 * 70; // incs + batched events, per thread
    std::thread::scope(|s| {
        for t in 0..threads {
            let c = &c;
            s.spawn(move || {
                let mut rng = Rng::new(1000 + t);
                for i in 0..10 {
                    for _ in 0..25 {
                        c.inc(&mut rng);
                    }
                    c.add(70); // one critical section's flushed delta
                    if i % 4 == 0 {
                        c.add(0); // empty delta: must be free
                    }
                }
                for _ in 0..6 {
                    c.inc(&mut rng);
                }
            });
        }
    });
    assert!(c.is_exact(), "total below threshold must stay exact");
    assert_eq!(c.read(), threads * per_thread);
}

/// BFP counter: the estimate is unbiased — across a fleet of deterministic
/// seeds every estimate stays within the single-run error bound, and the
/// fleet mean lands much tighter (the expected value is the true count).
#[test]
fn counter_expected_value_deterministic() {
    let n = 100_000u64;
    let seeds = 16u64;
    let mut sum = 0.0;
    for seed in 1..=seeds {
        let c = StatCounter::new();
        let mut rng = Rng::new(seed);
        for _ in 0..n {
            c.inc(&mut rng);
        }
        let est = c.read() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.10, "seed {seed}: est {est} err {err:.4}");
        sum += est;
    }
    let mean = sum / seeds as f64;
    let err = (mean - n as f64).abs() / n as f64;
    assert!(
        err < 0.03,
        "fleet mean {mean:.0} over {seeds} seeds must be unbiased (err {err:.4})"
    );
}

/// The exact→sampled transition: counts are exactly right up to the
/// mantissa threshold, and the first halving still projects the true count
/// — the paper's "accurate even after relatively small numbers of events".
#[test]
fn counter_saturation_edge_is_exact() {
    let c = StatCounter::new();
    let mut rng = Rng::new(42);
    let mut n = 0u64;
    while c.is_exact() {
        assert_eq!(c.read(), n, "exact regime must be exact");
        c.inc(&mut rng);
        n += 1;
        assert!(n < 1 << 20, "exact regime never ended");
    }
    assert_eq!(
        c.read(),
        n,
        "the first mantissa halving must still project the true count"
    );
    assert_eq!(n, 2 << 12, "mantissa threshold moved: update this test");
}
