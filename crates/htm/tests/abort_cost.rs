//! What an emulated abort costs next to a commit, on real OS threads.
//!
//! A hardware abort is a jump back to `xbegin`; ours unwinds a panic
//! through the body. This prices three outcomes of one body shape — read
//! one cell, then commit, `explicit_abort`, or plain-store the cell and
//! read it again (a conflict) — on one and on two threads, and prints ns
//! per attempt (run with `--nocapture` to see them). The assertions are
//! the outcomes themselves and their ordering: an abort costs more than a
//! commit.

use std::sync::Barrier;
use std::time::Instant;

use ale_htm::{attempt, explicit_abort, AbortCode, HtmCell};
use ale_vtime::{HtmProfile, Platform, Rng};

const ATTEMPTS: u32 = 20_000;
const BATCHES: usize = 3;

/// How each attempt ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Commit,
    Explicit,
    Conflict,
}

/// Fastest batch's ns per attempt on each of `threads` threads, slowest
/// thread reported. Each thread has its own cell, so the only conflict a
/// `Conflict` attempt meets is the one its body makes.
fn ns_per_attempt(threads: usize, outcome: Outcome) -> f64 {
    let profile = HtmProfile {
        spurious_abort_per_access: 0.0,
        spurious_abort_per_txn: 0.0,
        ..Platform::testbed().htm.expect("testbed advertises HTM")
    };
    let cells: Vec<HtmCell<u64>> = (0..threads).map(|_| HtmCell::new(7)).collect();
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(t, cell)| {
                let (profile, start) = (&profile, &start);
                s.spawn(move || {
                    let mut rng = Rng::new(t as u64 + 1);
                    let mut best = f64::INFINITY;
                    for _ in 0..BATCHES {
                        start.wait();
                        let began = Instant::now();
                        for _ in 0..ATTEMPTS {
                            let r = attempt(profile, &mut rng, || {
                                let v = cell.get();
                                match outcome {
                                    Outcome::Commit => {}
                                    Outcome::Explicit => explicit_abort(1),
                                    Outcome::Conflict => {
                                        cell.plain_store(v);
                                        cell.get();
                                    }
                                }
                            });
                            match outcome {
                                Outcome::Commit => assert!(r.is_ok()),
                                Outcome::Explicit => {
                                    assert_eq!(r.unwrap_err().code, AbortCode::Explicit(1))
                                }
                                Outcome::Conflict => {
                                    assert_eq!(r.unwrap_err().code, AbortCode::Conflict)
                                }
                            }
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
        let commit = ns_per_attempt(threads, Outcome::Commit);
        let explicit = ns_per_attempt(threads, Outcome::Explicit);
        let conflict = ns_per_attempt(threads, Outcome::Conflict);
        println!(
            "{threads} thread(s): commit {commit:.1} ns, explicit abort {explicit:.1} ns \
             ({:.1}x), conflict abort {conflict:.1} ns ({:.1}x)",
            explicit / commit,
            conflict / commit
        );
        for (what, abort) in [("explicit", explicit), ("conflict", conflict)] {
            assert!(
                abort > commit,
                "{threads} thread(s): {what} abort {abort:.1} ns <= commit {commit:.1} ns"
            );
        }
    }
}
