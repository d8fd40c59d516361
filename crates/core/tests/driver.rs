//! End-to-end tests of the critical-section driver: mode selection,
//! correctness under simulated contention, nesting rules, SWOpt retry
//! plumbing, and adaptive-policy convergence.

use std::sync::atomic::{AtomicU64, Ordering};

use ale_core::{
    scope, Ale, AleConfig, AleLock, CsOptions, CsOutcome, ExecMode, Policy, StaticPolicy,
};
use ale_htm::HtmCell;
use ale_sync::{RawLock, RawRwLock, SeqVersion, SpinLock};
use ale_vtime::{Platform, Sim};

/// A bank of two accounts whose sum is invariant — the classic elision
/// correctness probe. Read CS has a SWOpt path; transfer CS has a
/// conflicting region bracketed by a SeqVersion.
struct Bank {
    lock: AleLock<SpinLock>,
    ver: SeqVersion,
    a: HtmCell<u64>,
    b: HtmCell<u64>,
}

impl Bank {
    fn new(ale: &std::sync::Arc<Ale>) -> Self {
        Bank {
            lock: ale.new_lock("bank", SpinLock::new()),
            ver: SeqVersion::new(),
            a: HtmCell::new(50),
            b: HtmCell::new(50),
        }
    }

    fn sum(&self) -> u64 {
        self.lock.cs(
            scope!("Bank::sum"),
            CsOptions::new().with_swopt().non_conflicting(),
            |cs| {
                if cs.is_swopt() {
                    let snap = self.ver.read(true);
                    let x = self.a.get();
                    if !self.ver.validate(snap) {
                        return CsOutcome::SwOptFail;
                    }
                    let y = self.b.get();
                    if !self.ver.validate(snap) {
                        return CsOutcome::SwOptFail;
                    }
                    CsOutcome::Done(x + y)
                } else {
                    CsOutcome::Done(self.a.get() + self.b.get())
                }
            },
        )
    }

    fn transfer(&self, amount: u64) {
        self.lock
            .cs_plain(scope!("Bank::transfer"), CsOptions::new(), |cs| {
                let x = self.a.get();
                let y = self.b.get();
                if x < amount {
                    return;
                }
                let bump = cs.could_swopt_be_running();
                if bump {
                    self.ver.begin_conflicting_action();
                }
                self.a.set(x - amount);
                self.b.set(y + amount);
                if bump {
                    self.ver.end_conflicting_action();
                }
            });
    }
}

fn ale_with(platform: Platform, policy: impl Policy) -> std::sync::Arc<Ale> {
    Ale::new(AleConfig::new(platform).with_seed(7), policy)
}

#[test]
fn htm_mode_is_used_on_htm_platform() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(5, 5));
    let bank = Bank::new(&ale);
    for _ in 0..100 {
        bank.transfer(1);
        assert_eq!(bank.sum(), 100);
    }
    let report = ale.report();
    let lock = report.lock("bank").unwrap();
    let htm_successes: u64 = lock
        .granules
        .iter()
        .map(|g| g.successes[ExecMode::Htm.index()])
        .sum();
    assert!(
        htm_successes > 150,
        "uncontended CSes on an HTM platform should elide: {report}"
    );
}

#[test]
fn swopt_carries_reads_when_htm_is_unavailable() {
    let ale = ale_with(Platform::t2(), StaticPolicy::new(5, 5));
    let bank = Bank::new(&ale);
    for _ in 0..100 {
        assert_eq!(bank.sum(), 100);
    }
    let report = ale.report();
    let g = &report.lock("bank").unwrap().granules;
    let swopt: u64 = g.iter().map(|g| g.successes[ExecMode::SwOpt.index()]).sum();
    let htm: u64 = g.iter().map(|g| g.successes[ExecMode::Htm.index()]).sum();
    assert_eq!(htm, 0, "T2-2 has no HTM");
    assert!(swopt >= 90, "reads should succeed via SWOpt, got {swopt}");
}

#[test]
fn instrumented_only_runs_lock_mode() {
    let ale = Ale::new(
        AleConfig::new(Platform::testbed())
            .without_htm()
            .without_swopt(),
        StaticPolicy::new(5, 5),
    );
    let bank = Bank::new(&ale);
    for _ in 0..50 {
        bank.transfer(1);
        assert_eq!(bank.sum(), 100);
    }
    let report = ale.report();
    for g in &report.lock("bank").unwrap().granules {
        assert_eq!(g.successes[ExecMode::Htm.index()], 0);
        assert_eq!(g.successes[ExecMode::SwOpt.index()], 0);
        assert_eq!(g.successes[ExecMode::Lock.index()], g.executions);
    }
}

#[test]
fn invariant_holds_under_simulated_contention() {
    for platform in [Platform::testbed(), Platform::haswell(), Platform::t2()] {
        let ale = ale_with(platform.clone(), StaticPolicy::new(4, 16));
        let bank = Bank::new(&ale);
        let reads_ok = AtomicU64::new(0);
        Sim::new(platform.clone(), 8).with_seed(3).run(|lane| {
            if lane.id() % 2 == 0 {
                for _ in 0..300 {
                    bank.transfer(1);
                }
            } else {
                for _ in 0..300 {
                    assert_eq!(bank.sum(), 100, "invariant broken on {:?}", platform.kind);
                    reads_ok.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(bank.sum(), 100);
        assert_eq!(reads_ok.load(Ordering::Relaxed), 4 * 300);
    }
}

#[test]
fn swopt_failures_are_reported_and_retried() {
    let ale = ale_with(Platform::t2(), StaticPolicy::new(0, 10));
    let lock = ale.new_lock("retry", SpinLock::new());
    let mut failures_left = 3;
    let v = lock.cs(scope!("flaky"), CsOptions::new().with_swopt(), |cs| {
        if cs.is_swopt() && failures_left > 0 {
            failures_left -= 1;
            return CsOutcome::SwOptFail;
        }
        CsOutcome::Done(42)
    });
    assert_eq!(v, 42);
    let report = ale.report();
    let g = &report.lock("retry").unwrap().granules[0];
    assert_eq!(g.swopt_fails, 3);
    assert_eq!(g.attempts[ExecMode::SwOpt.index()], 4);
    assert_eq!(g.successes[ExecMode::SwOpt.index()], 1);
    assert_eq!(g.executions, 1);
}

#[test]
fn swopt_budget_exhaustion_falls_back_to_lock() {
    let ale = ale_with(Platform::t2(), StaticPolicy::new(0, 5));
    let lock = ale.new_lock("exhaust", SpinLock::new());
    let v = lock.cs(
        scope!("always_fails"),
        CsOptions::new().with_swopt(),
        |cs| {
            if cs.is_swopt() {
                CsOutcome::SwOptFail
            } else {
                assert_eq!(cs.mode(), ExecMode::Lock);
                CsOutcome::Done(7)
            }
        },
    );
    assert_eq!(v, 7);
    let g = ale.report();
    let g = &g.lock("exhaust").unwrap().granules[0];
    assert_eq!(g.attempts[ExecMode::SwOpt.index()], 5);
    assert_eq!(g.successes[ExecMode::Lock.index()], 1);
}

#[test]
fn nested_cs_under_htm_is_flattened() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(5, 0));
    let outer = ale.new_lock("outer", SpinLock::new());
    let inner = ale.new_lock("inner", SpinLock::new());
    let cell = HtmCell::new(0u64);
    let modes = outer.cs_plain(scope!("outer_cs"), CsOptions::new(), |cs| {
        let outer_mode = cs.mode();
        let inner_mode = inner.cs_plain(scope!("inner_cs"), CsOptions::new(), |ics| {
            cell.set(cell.get() + 1);
            ics.mode()
        });
        (outer_mode, inner_mode)
    });
    assert_eq!(
        modes,
        (ExecMode::Htm, ExecMode::Htm),
        "nested CS must flatten"
    );
    assert_eq!(cell.get(), 1);
    // The inner lock records nothing for flattened executions (no frame is
    // pushed, matching §4.1).
    let report = ale.report();
    assert_eq!(report.lock("inner").unwrap().total_executions(), 0);
}

#[test]
fn nested_cs_forbidding_htm_aborts_the_outer_transaction() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(3, 0));
    let outer = ale.new_lock("outer2", SpinLock::new());
    let inner = ale.new_lock("inner2", SpinLock::new());
    let outer_mode = outer.cs_plain(scope!("outer2_cs"), CsOptions::new(), |cs| {
        inner.cs_plain(scope!("inner2_cs"), CsOptions::new().without_htm(), |ics| {
            assert_ne!(ics.mode(), ExecMode::Htm);
        });
        cs.mode()
    });
    // The outer CS can only complete in Lock mode: every HTM attempt dies
    // at the nested no-HTM critical section.
    assert_eq!(outer_mode, ExecMode::Lock);
    let report = ale.report();
    let g = &report.lock("outer2").unwrap().granules[0];
    assert_eq!(
        g.attempts[ExecMode::Htm.index()],
        1,
        "one attempt, then give up"
    );
}

#[test]
fn reentrant_lock_mode_skips_reacquisition() {
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).without_htm(),
        StaticPolicy::new(0, 0),
    );
    let lock = ale.new_lock("reentrant", SpinLock::new());
    let v = lock.cs_plain(scope!("outer_r"), CsOptions::new(), |cs| {
        assert_eq!(cs.mode(), ExecMode::Lock);
        assert!(lock.raw().is_locked());
        // Same lock again: must not deadlock, must run in Lock mode.
        lock.cs_plain(scope!("inner_r"), CsOptions::new(), |ics| {
            assert_eq!(ics.mode(), ExecMode::Lock);
            11
        })
    });
    assert_eq!(v, 11);
    assert!(!lock.raw().is_locked(), "outermost exit releases the lock");
}

#[test]
fn swopt_is_refused_while_in_swopt_for_another_lock() {
    let ale = ale_with(Platform::t2(), StaticPolicy::new(0, 8));
    let l1 = ale.new_lock("lk1", SpinLock::new());
    let l2 = ale.new_lock("lk2", SpinLock::new());
    let inner_mode = l1.cs(scope!("outer_sw"), CsOptions::new().with_swopt(), |cs| {
        assert_eq!(cs.mode(), ExecMode::SwOpt);
        let m = l2.cs(scope!("inner_sw"), CsOptions::new().with_swopt(), |ics| {
            CsOutcome::Done(ics.mode())
        });
        CsOutcome::Done(m)
    });
    assert_ne!(
        inner_mode,
        ExecMode::SwOpt,
        "nested SWOpt under a different lock's SWOpt is forbidden (§4.1)"
    );
}

#[test]
fn distinct_scopes_get_distinct_granules() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(2, 2));
    let lock = ale.new_lock("ctx", SpinLock::new());
    for _ in 0..10 {
        lock.cs_plain(scope!("path_a"), CsOptions::new(), |_| ());
        lock.cs_plain(scope!("path_b"), CsOptions::new(), |_| ());
        ale_core::with_scope(scope!("wrapper"), || {
            lock.cs_plain(scope!("path_a_nested"), CsOptions::new(), |_| ());
        });
    }
    let report = ale.report();
    let lr = report.lock("ctx").unwrap();
    assert_eq!(lr.granules.len(), 3, "{report}");
    let contexts: Vec<_> = lr.granules.iter().map(|g| g.context.clone()).collect();
    assert!(
        contexts.iter().any(|c| c.contains("wrapper")),
        "{contexts:?}"
    );
}

/// The labels of every granule registered under the lock called `label`.
fn granule_names(ale: &Ale, label: &str) -> Vec<String> {
    let meta = ale.lock_metas().into_iter().find(|m| m.label() == label);
    let granules = meta.expect("lock is registered").granules.all();
    granules.iter().map(|g| g.describe()).collect()
}

#[test]
fn a_section_nested_in_lock_mode_is_named_by_both_scopes() {
    // A Lock-mode body pushes its section's scope, so the inner section's
    // granule (computed without a push of its own) carries both labels.
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(0, 0));
    let outer = ale.new_lock("outer", SpinLock::new());
    let inner = ale.new_lock("inner", SpinLock::new());
    let modes = outer.cs_plain(scope!("outer"), CsOptions::new(), |cs| {
        (
            cs.mode(),
            inner.cs_plain(scope!("inner"), CsOptions::new(), |ics| ics.mode()),
        )
    });
    assert_eq!(modes, (ExecMode::Lock, ExecMode::Lock));
    assert_eq!(granule_names(&ale, "inner"), ["outer / inner"]);
    assert_eq!(granule_names(&ale, "outer"), ["outer"]);
}

#[test]
fn a_section_nested_in_an_htm_commit_creates_no_granule() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(3, 0));
    let outer = ale.new_lock("outer", SpinLock::new());
    let inner = ale.new_lock("inner", SpinLock::new());
    for _ in 0..10 {
        let mode = outer.cs_plain(scope!("outer"), CsOptions::new(), |cs| {
            inner.cs_plain(scope!("inner"), CsOptions::new(), |_| ());
            cs.mode()
        });
        assert_eq!(mode, ExecMode::Htm);
    }
    assert_eq!(granule_names(&ale, "inner"), Vec::<String>::new());
    assert_eq!(granule_names(&ale, "outer"), ["outer"]);
}

#[test]
fn a_lock_mode_body_runs_inside_its_own_scope() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(0, 0));
    let lock = ale.new_lock("ctx", SpinLock::new());
    let own = scope!("own");
    let inside = lock.cs_plain(own, CsOptions::new(), |_| ale_core::current_context());
    assert_eq!(inside, ale_core::with_scope(own, ale_core::current_context));
    assert_ne!(inside, ale_core::current_context());
}

#[test]
fn lock_held_aborts_are_classified() {
    // One lane camps on the lock in Lock mode while another tries HTM;
    // the HTM lane's aborts should be classified as lock-held.
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(5),
        StaticPolicy::new(2, 0),
    );
    let lock = ale.new_lock("camped", SpinLock::new());
    let cell = HtmCell::new(0u64);
    Sim::new(Platform::testbed(), 2).run(|lane| {
        if lane.id() == 0 {
            // Long Lock-mode critical sections.
            for _ in 0..20 {
                lock.raw().acquire();
                for _ in 0..50 {
                    ale_vtime::tick(ale_vtime::Event::LocalWork(100));
                    cell.set(cell.get() + 1);
                }
                lock.raw().release();
            }
        } else {
            for _ in 0..50 {
                lock.cs_plain(scope!("htm_side"), CsOptions::new(), |_| {
                    cell.set(cell.get() + 1);
                });
            }
        }
    });
    let report = ale.report();
    let g = &report.lock("camped").unwrap().granules[0];
    assert!(
        g.lock_held_aborts > 0 || g.successes[ExecMode::Htm.index()] == g.executions,
        "camping must surface as lock-held aborts: {report}"
    );
}

#[test]
fn adaptive_policy_converges_to_a_final_configuration() {
    use ale_core::AdaptivePolicy;
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(11),
        AdaptivePolicy::new(),
    );
    let bank = Bank::new(&ale);
    // Drive enough executions through both granules to finish learning
    // (4 progressions × ≤900 + custom 600) under simulated contention on
    // the HTM testbed, where eliding beats the lock in virtual time.
    // (Single-threaded and uncontended, Lock would genuinely be fastest —
    // the paper's 1-thread curves show exactly that.)
    Sim::new(Platform::testbed(), 4).with_seed(2).run(|lane| {
        for i in 0..2500 {
            if (i + lane.id()) % 10 == 0 {
                bank.transfer(1);
            } else {
                assert_eq!(bank.sum(), 100);
            }
        }
    });
    let report = ale.report();
    let lr = report.lock("bank").unwrap();
    assert!(
        lr.policy.starts_with("final"),
        "adaptive learning must converge: {}",
        lr.policy
    );
    // On the generous testbed HTM, the final choice must elide (HTM and/or
    // SWOpt), not fall back to Lock-only.
    assert_ne!(lr.policy, "final: uniform Lock", "{report}");
}

#[test]
fn adaptive_policy_avoids_htm_on_non_htm_platform() {
    use ale_core::AdaptivePolicy;
    let ale = Ale::new(
        AleConfig::new(Platform::t2()).with_seed(12),
        AdaptivePolicy::new(),
    );
    let bank = Bank::new(&ale);
    for _ in 0..4000 {
        assert_eq!(bank.sum(), 100);
    }
    let report = ale.report();
    let lr = report.lock("bank").unwrap();
    let htm_attempts: u64 = lr
        .granules
        .iter()
        .map(|g| g.attempts[ExecMode::Htm.index()])
        .sum();
    assert_eq!(
        htm_attempts, 0,
        "no HTM attempts may happen on T2-2: {report}"
    );
    assert!(lr.policy.starts_with("final"), "{}", lr.policy);
}

#[test]
fn report_renders_and_exports_csv() {
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(3, 3));
    let bank = Bank::new(&ale);
    for _ in 0..50 {
        bank.transfer(1);
        bank.sum();
    }
    let report = ale.report();
    let text = format!("{report}");
    assert!(text.contains("bank"), "{text}");
    assert!(text.contains("Bank::transfer"), "{text}");
    let csv = report.to_csv();
    assert!(csv.lines().count() >= 3, "{csv}");
    assert!(csv.starts_with("lock,context,executions"));
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = || {
        let ale = Ale::new(
            AleConfig::new(Platform::haswell()).with_seed(99),
            StaticPolicy::new(3, 8),
        );
        let bank = Bank::new(&ale);
        let report = Sim::new(Platform::haswell(), 4).with_seed(21).run(|lane| {
            for _ in 0..200 {
                if lane.id() == 0 {
                    bank.transfer(1);
                } else {
                    bank.sum();
                }
            }
        });
        (report.makespan_ns, report.switches, bank.sum())
    };
    assert_eq!(run(), run(), "same seeds must replay identically");
}

#[test]
fn adaptive_relearns_when_the_workload_changes() {
    use ale_core::policy::adaptive::{AdaptiveConfig, AdaptivePolicy};

    // A platform whose HTM dies of capacity beyond 4 writes.
    let mut platform = Platform::testbed();
    platform.htm.as_mut().unwrap().max_write_set = 4;

    let policy = AdaptivePolicy::with_config(AdaptiveConfig {
        phase_len: 200,
        sub_lens: [80, 120, 80],
        custom_len: 150,
        relearn_after: Some(800),
        ..AdaptiveConfig::default()
    });
    let ale = Ale::new(AleConfig::new(platform.clone()).with_seed(31), policy);
    let lock = ale.new_lock("shifting", SpinLock::new());
    let cells: Vec<HtmCell<u64>> = (0..8).map(|_| HtmCell::new(0)).collect();

    let stage = |ale: &std::sync::Arc<Ale>| ale.report().lock("shifting").unwrap().policy.clone();

    let run_phase = |writes_per_cs: usize, iters: usize| {
        Sim::new(platform.clone(), 4).with_seed(7).run(|lane| {
            for i in 0..iters {
                lock.cs_plain(scope!("shifting_cs"), CsOptions::new(), |_| {
                    if writes_per_cs == 1 {
                        // Disjoint per-lane cells: elision-friendly.
                        let c = &cells[lane.id() % 4];
                        c.set(c.get() + 1);
                    } else {
                        for c in cells.iter().take(writes_per_cs) {
                            c.set(c.get() + 1);
                        }
                    }
                    ale_vtime::tick(ale_vtime::Event::LocalWork(50 + (i + lane.id()) as u64 % 7));
                });
            }
        });
    };

    // Phase A: tiny, disjoint write sets — HTM elision wins.
    run_phase(1, 600);
    let first = stage(&ale);
    assert_eq!(
        first, "final: uniform HL",
        "phase A should pick HTM: {first}"
    );

    // Phase B: every critical section overflows the write budget — HTM is
    // hopeless, and re-learning must discover that.
    run_phase(8, 2500);
    let second = stage(&ale);
    assert_eq!(
        second, "final: uniform Lock",
        "after the shift, re-learning should abandon HTM: {second}"
    );
}

#[test]
fn lock_upgrade_is_rejected_not_deadlocked() {
    use ale_sync::RwLock;
    let ale = Ale::new(
        AleConfig::new(Platform::testbed())
            .without_htm()
            .without_swopt(),
        StaticPolicy::new(0, 0),
    );
    let rw = ale.new_rw_lock("upgradable", RwLock::new());
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rw.shared_cs(scope!("outer_shared"), CsOptions::new(), |_| {
            // Upgrading shared -> exclusive on the same lock must panic
            // with a clear message instead of deadlocking.
            rw.excl_cs(scope!("inner_excl"), CsOptions::new(), |_| {
                CsOutcome::Done(())
            });
            CsOutcome::Done(())
        });
    }));
    let payload = caught.unwrap_err();
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("improper nesting"), "{msg}");
    assert!(
        !rw.raw().is_any_locked(),
        "the unwind must release the shared hold"
    );
}

#[test]
fn shared_under_exclusive_is_fine() {
    use ale_sync::RwLock;
    let ale = Ale::new(
        AleConfig::new(Platform::testbed())
            .without_htm()
            .without_swopt(),
        StaticPolicy::new(0, 0),
    );
    let rw = ale.new_rw_lock("downgradable", RwLock::new());
    let v = rw.excl_cs(scope!("outer_excl"), CsOptions::new(), |_| {
        // A shared CS nested under an exclusive hold needs no acquisition.
        let inner = rw.shared_cs(scope!("inner_shared"), CsOptions::new(), |ics| {
            CsOutcome::Done(ics.mode())
        });
        CsOutcome::Done(inner)
    });
    assert_eq!(v, ExecMode::Lock);
    assert!(!rw.raw().is_any_locked());
}

#[test]
fn hostile_htm_profile_still_yields_correct_results() {
    // Failure injection: a platform whose HTM aborts constantly (50 % per
    // txn, 5 % per access, capacity 4). Everything must still be correct,
    // with the lock soaking up the failures.
    let mut platform = Platform::testbed();
    {
        let htm = platform.htm.as_mut().unwrap();
        htm.spurious_abort_per_txn = 0.5;
        htm.spurious_abort_per_access = 0.05;
        htm.max_write_set = 4;
        htm.max_read_set = 16;
    }
    let ale = Ale::new(
        AleConfig::new(platform.clone()).with_seed(13),
        StaticPolicy::new(6, 8),
    );
    let bank = Bank::new(&ale);
    Sim::new(platform, 4).with_seed(14).run(|lane| {
        for _ in 0..400 {
            if lane.id() == 0 {
                bank.transfer(1);
            } else {
                assert_eq!(bank.sum(), 100);
            }
        }
    });
    assert_eq!(bank.sum(), 100);
    let report = ale.report();
    let lr = report.lock("bank").unwrap();
    let spurious: u64 = lr.granules.iter().map(|g| g.spurious_aborts).sum();
    let lock_succ: u64 = lr
        .granules
        .iter()
        .map(|g| g.successes[ExecMode::Lock.index()])
        .sum();
    assert!(
        spurious > 50,
        "the hostile profile must actually fire: {report}"
    );
    assert!(
        lock_succ > 0,
        "the lock must absorb hopeless cases: {report}"
    );
}

#[test]
fn capacity_abort_stops_htm_retries_immediately() {
    let mut platform = Platform::testbed();
    platform.htm.as_mut().unwrap().max_write_set = 2;
    let ale = Ale::new(
        AleConfig::new(platform).with_seed(15),
        StaticPolicy::new(10, 0),
    );
    let lock = ale.new_lock("cap", SpinLock::new());
    let cells: Vec<HtmCell<u64>> = (0..8).map(|_| HtmCell::new(0)).collect();
    lock.cs_plain(scope!("too_big"), CsOptions::new(), |_| {
        for c in &cells {
            c.set(1);
        }
    });
    let report = ale.report();
    let g = &report.lock("cap").unwrap().granules[0];
    assert_eq!(
        g.attempts[ExecMode::Htm.index()],
        1,
        "capacity is terminal: one attempt, no blind retries: {report}"
    );
    assert_eq!(g.capacity_aborts, 1);
    assert_eq!(g.successes[ExecMode::Lock.index()], 1);
    assert!(cells.iter().all(|c| c.get() == 1));
}

/// The statistics flush is exact below the counters' threshold: N sections
/// that each commit on their first HTM attempt leave exactly N executions,
/// N HTM attempts and N HTM successes in their granule, and nothing else.
#[test]
fn first_attempt_commits_flush_exact_counts() {
    const N: u64 = 3000;
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(3, 8));
    let lock = ale.new_lock("flush", SpinLock::new());
    let cell = HtmCell::new(0u64);
    for _ in 0..N {
        lock.cs_plain(scope!("flush_cs"), CsOptions::new(), |_| {
            cell.set(cell.get() + 1);
        });
    }
    assert_eq!(cell.get(), N);
    let report = ale.report();
    let granules = &report.lock("flush").unwrap().granules;
    assert_eq!(granules.len(), 1, "{report}");
    let g = &granules[0];
    assert_eq!(g.executions, N);
    assert_eq!(g.attempts, [N, 0, 0]);
    assert_eq!(g.successes, [N, 0, 0]);
    let aborts = [
        g.lock_held_aborts,
        g.conflict_aborts,
        g.capacity_aborts,
        g.spurious_aborts,
        g.swopt_fails,
    ];
    assert_eq!(aborts, [0; 5], "{report}");
}

#[test]
fn probabilistic_grouping_defers_sometimes() {
    // With defer probability 0‰ conflicting executions never wait; with
    // 1000‰ they always do. Compare deferral behaviour via makespans of a
    // scenario with a permanently-retrying SWOpt reader.
    use ale_core::policy::StaticPolicy;
    let run = |permille: u64| {
        let ale = Ale::new(
            AleConfig::new(Platform::t2())
                .with_seed(17)
                .with_probabilistic_grouping(permille),
            StaticPolicy::new(0, 6).with_grouping(),
        );
        let bank = Bank::new(&ale);
        Sim::new(Platform::t2(), 4)
            .with_seed(18)
            .run(|lane| {
                for _ in 0..150 {
                    if lane.id() < 2 {
                        bank.transfer(1);
                    } else {
                        bank.sum();
                    }
                }
            })
            .makespan_ns
    };
    let always = run(1000);
    let never = run(0);
    // Both complete (no livelock either way); deferral costs time here.
    assert!(always > 0 && never > 0);
}

#[test]
fn learning_report_exposes_phase_measurements() {
    use ale_core::policy::adaptive::AdaptivePolicy;
    let policy_probe = AdaptivePolicy::new();
    let ale = Ale::new(
        AleConfig::new(Platform::testbed()).with_seed(41),
        AdaptivePolicy::new(),
    );
    let bank = Bank::new(&ale);
    Sim::new(Platform::testbed(), 4).with_seed(42).run(|lane| {
        for i in 0..2500 {
            if (i + lane.id()) % 10 == 0 {
                bank.transfer(1);
            } else {
                bank.sum();
            }
        }
    });
    let meta = &ale.lock_metas()[0];
    let report = policy_probe.learning_report(meta);
    assert!(report.stage.starts_with("final"), "{}", report.stage);
    assert!(
        report.lock_avg.len() >= 3,
        "one lock-wide average per learned progression: {report}"
    );
    let sum_granule = report
        .granules
        .iter()
        .find(|g| g.context.contains("Bank::sum"))
        .expect("sum granule");
    let learned: usize = sum_granule.avg_ns.iter().flatten().count();
    assert!(learned >= 3, "per-progression averages recorded: {report}");
    let text = format!("{report}");
    assert!(text.contains("Bank::sum"), "{text}");
}

#[test]
fn allocating_critical_sections_fall_back_from_htm() {
    // A nested ALE operation that must take an internal data mutex (the
    // node slab's free list) aborts the enclosing transaction with
    // TX_UNFRIENDLY, and the driver falls straight back without burning
    // the whole HTM budget.
    use ale_sync::TickMutex;
    let ale = ale_with(Platform::testbed(), StaticPolicy::new(8, 0));
    let lock = ale.new_lock("allocish", SpinLock::new());
    let shared = TickMutex::new(0u64);
    let mode = lock.cs_plain(scope!("alloc_cs"), CsOptions::new(), |cs| {
        *shared.lock() += 1;
        cs.mode()
    });
    assert_eq!(mode, ExecMode::Lock, "mutex-taking bodies cannot elide");
    assert_eq!(*shared.lock(), 1);
    let report = ale.report();
    let g = &report.lock("allocish").unwrap().granules[0];
    assert_eq!(
        g.attempts[ExecMode::Htm.index()],
        1,
        "TX_UNFRIENDLY must stop HTM retries after one attempt: {report}"
    );
}

#[test]
fn custom_phase_keeps_heterogeneous_per_granule_choices() {
    // Two critical sections under ONE lock with opposite HTM affinity:
    // one writes a single cell (elides beautifully), the other overflows
    // the write budget every time (HTM is hopeless). The §4.2 custom phase
    // should discover per-granule choices and keep them.
    use ale_core::policy::adaptive::{AdaptiveConfig, AdaptivePolicy};
    let mut platform = Platform::testbed();
    platform.htm.as_mut().unwrap().max_write_set = 4;
    let probe = AdaptivePolicy::new();
    let ale = Ale::new(
        AleConfig::new(platform.clone())
            .with_seed(51)
            .without_swopt(),
        AdaptivePolicy::with_config(AdaptiveConfig {
            phase_len: 300,
            sub_lens: [120, 180, 120],
            custom_len: 300,
            ..AdaptiveConfig::default()
        }),
    );
    let lock = ale.new_lock("hetero", SpinLock::new());
    let cells: Vec<HtmCell<u64>> = (0..8).map(|_| HtmCell::new(0)).collect();
    let (lock, cells) = (&lock, &cells);
    // One lane: no cross-granule contention coupling (the §4.2 effect the
    // custom phase exists to re-measure), so the per-granule winners are
    // strict and the test is deterministic: HTM for the tiny section,
    // Lock for the capacity-doomed one.
    Sim::new(platform, 1).with_seed(52).run(|_| {
        for i in 0..8_000 {
            if i % 2 == 0 {
                lock.cs_plain(scope!("tiny_cs"), CsOptions::new(), |_| {
                    let c = &cells[0];
                    c.set(c.get() + 1);
                    ale_vtime::tick(ale_vtime::Event::LocalWork(40));
                });
            } else {
                lock.cs_plain(scope!("huge_cs"), CsOptions::new(), |_| {
                    for c in cells.iter() {
                        c.set(c.get() + 1);
                    }
                    ale_vtime::tick(ale_vtime::Event::LocalWork(40));
                });
            }
        }
    });
    let meta = &ale.lock_metas()[0];
    let report = probe.learning_report(meta);
    assert!(report.stage.starts_with("final"), "{}", report.stage);
    let choice = |name: &str| {
        report
            .granules
            .iter()
            .find(|g| g.context.contains(name))
            .unwrap_or_else(|| panic!("granule {name} missing"))
            .chosen
    };
    let tiny = choice("tiny_cs");
    let huge = choice("huge_cs");
    assert_eq!(tiny, ale_core::Progression::HtmLock, "{report}");
    assert_eq!(huge, ale_core::Progression::LockOnly, "{report}");
    assert_eq!(
        report.stage, "final: custom per-granule progressions",
        "distinct winners must survive the custom phase: {report}"
    );
}

#[test]
fn report_records_time_spent_per_mode() {
    // §3.4: "how much time was spent in each mode". A mixed run must show
    // nonzero time shares for the modes that actually ran.
    let ale = ale_with(Platform::t2(), StaticPolicy::new(0, 4));
    let lock = ale.new_lock("timed", SpinLock::new());
    let mut flip = false;
    for _ in 0..2_000 {
        lock.cs(scope!("timed_cs"), CsOptions::new().with_swopt(), |cs| {
            if cs.is_swopt() {
                flip = !flip;
                if flip {
                    CsOutcome::Done(())
                } else {
                    CsOutcome::SwOptFail
                }
            } else {
                CsOutcome::Done(())
            }
        });
    }
    let report = ale.report();
    let g = &report.lock("timed").unwrap().granules[0];
    let swopt_share = g.time_share(ExecMode::SwOpt).expect("time recorded");
    let lock_share = g.time_share(ExecMode::Lock).unwrap_or(0.0);
    assert!(swopt_share > 0.0, "{report}");
    assert!(
        (swopt_share + lock_share - 1.0).abs() < 1e-9,
        "HTM never ran: {report}"
    );
    assert!(report.to_string().contains("time share"), "{report}");
}
