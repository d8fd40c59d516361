//! What an emulated abort costs next to a commit, on real OS threads.
//!
//! A hardware abort is a jump back to `xbegin`; ours unwinds a panic
//! through the body. This prices the two outcomes of one body shape — read
//! one cell, then commit or `explicit_abort` — on one and on two threads,
//! and prints ns per attempt (run with `--nocapture` to see them). The only
//! assertion is the ordering: an abort costs more than a commit.

use std::sync::Barrier;
use std::time::Instant;

use ale_htm::{attempt, explicit_abort, HtmCell};
use ale_vtime::{HtmProfile, Platform, Rng};

const ATTEMPTS: u32 = 20_000;
const BATCHES: usize = 3;

/// Fastest batch's ns per attempt on each of `threads` threads, slowest
/// thread reported.
fn ns_per_attempt(threads: usize, abort: bool) -> f64 {
    let profile = HtmProfile {
        spurious_abort_per_access: 0.0,
        spurious_abort_per_txn: 0.0,
        ..Platform::testbed().htm.expect("testbed advertises HTM")
    };
    let cell = HtmCell::new(7u64);
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (profile, cell, start) = (&profile, &cell, &start);
                s.spawn(move || {
                    let mut rng = Rng::new(t as u64 + 1);
                    let mut best = f64::INFINITY;
                    for _ in 0..BATCHES {
                        start.wait();
                        let began = Instant::now();
                        for _ in 0..ATTEMPTS {
                            let r = attempt(profile, &mut rng, || {
                                if cell.get() == 7 && abort {
                                    explicit_abort(1);
                                }
                            });
                            assert_eq!(r.is_ok(), !abort);
                        }
                        let ns = began.elapsed().as_nanos() as f64 / ATTEMPTS as f64;
                        best = best.min(ns);
                    }
                    best
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold(0.0, f64::max)
    })
}

#[test]
fn an_abort_costs_more_than_a_commit() {
    for threads in [1, 2] {
        let commit = ns_per_attempt(threads, false);
        let abort = ns_per_attempt(threads, true);
        println!(
            "{threads} thread(s): commit {commit:.1} ns, abort {abort:.1} ns, ratio {:.1}x",
            abort / commit
        );
        assert!(
            abort > commit,
            "{threads} thread(s): abort {abort:.1} ns <= commit {commit:.1} ns"
        );
    }
}
