//! Resilience tests: panic-safe critical sections in all three modes, lock
//! poisoning and explicit recovery, typed mode-protocol errors, the
//! abort-storm circuit breaker, startup HTM capability probing, and the
//! Lock-mode stall watchdog.
//!
//! These tests manipulate process-global state (the fault-injection plan,
//! the critical-section observer), so they live in their own integration
//! test binary and serialise through a local mutex.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use ale_core::{
    scope, Ale, AleConfig, CsEvent, CsOptions, CsOutcome, CsProtocolError, ExecMode, LockPoison,
    StaticPolicy,
};
use ale_htm::{
    BreakerConfig, BreakerState, HtmCell, InjectKind, InjectPlan, InjectPoint, InjectRule,
    InjectedPanic,
};
use ale_sync::{RawLock, SeqVersion, SpinLock};
use ale_vtime::{Event, Platform, Sim};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn lock_mode_panic_closes_regions_poisons_and_recovers() {
    let _g = serial();
    ale_core::init_panic_hook();
    // T2 has no HTM and the policy requests no SWOpt: pure Lock mode.
    let ale = Ale::new(AleConfig::new(Platform::t2()), StaticPolicy::new(0, 0));
    let lock = ale.new_lock("poisonable", SpinLock::new());
    let ver = SeqVersion::new();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        lock.cs_plain(scope!("boom"), CsOptions::new(), |_| -> u64 {
            // Panic with a conflicting region open: the driver must close
            // it (restoring parity for SWOpt readers) before releasing.
            ver.begin_conflicting_action();
            std::panic::panic_any(InjectedPanic)
        })
    }));
    let payload = unwound.expect_err("the body's panic must propagate");
    assert!(payload.downcast_ref::<InjectedPanic>().is_some());

    assert_eq!(ale_sync::open_region_count(), 0, "region must be closed");
    assert_eq!(ver.read(false) % 2, 0, "version parity must be restored");
    assert!(!lock.raw().is_locked(), "the lock must be released");
    assert!(lock.is_poisoned(), "a Lock-mode panic must poison");

    // While poisoned, entry raises the typed LockPoison payload.
    let refused = catch_unwind(AssertUnwindSafe(|| {
        lock.cs_plain(scope!("refused"), CsOptions::new(), |_| 1u64)
    }));
    let payload = refused.expect_err("a poisoned lock must refuse entry");
    assert_eq!(
        payload.downcast_ref::<LockPoison>(),
        Some(&LockPoison { lock: "poisonable" })
    );

    // Explicit recovery re-enables the lock.
    lock.clear_poison();
    assert!(!lock.is_poisoned());
    let v = lock.cs_plain(scope!("recovered"), CsOptions::new(), |_| 2u64);
    assert_eq!(v, 2);
}

#[test]
fn reentrant_lock_mode_panic_poisons_once_before_the_outer_release() {
    let _g = serial();
    ale_core::init_panic_hook();
    let ale = Ale::new(AleConfig::new(Platform::t2()), StaticPolicy::new(0, 0));
    let lock = Arc::new(ale.new_lock("nested_poison", SpinLock::new()));
    let ver = SeqVersion::new();

    // Each Panicked/Poisoned event of this lock, with whether the lock was
    // held when the observer saw it.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (sink, held) = (Arc::clone(&seen), Arc::clone(&lock));
    ale_core::set_cs_observer(Arc::new(move |ev| match *ev {
        CsEvent::Panicked {
            lock: "nested_poison",
            mode,
        } => sink
            .lock()
            .unwrap()
            .push((Some(mode), held.raw().is_locked())),
        CsEvent::Poisoned {
            lock: "nested_poison",
        } => sink.lock().unwrap().push((None, held.raw().is_locked())),
        _ => {}
    }));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        lock.cs_plain(scope!("outer"), CsOptions::new(), |_| -> u64 {
            // Re-entrant: this thread already holds the lock, so the nested
            // section runs in Lock mode without acquiring it.
            lock.cs_plain(scope!("inner"), CsOptions::new(), |cs| -> u64 {
                assert_eq!(cs.mode(), ExecMode::Lock);
                ver.begin_conflicting_action();
                std::panic::panic_any(InjectedPanic)
            })
        })
    }));
    ale_core::clear_cs_observer();
    let payload = unwound.expect_err("the nested body's panic must propagate");
    assert!(payload.downcast_ref::<InjectedPanic>().is_some());

    assert_eq!(
        ale_sync::open_region_count(),
        0,
        "inner region must be closed"
    );
    assert_eq!(ver.read(false) % 2, 0, "version parity must be restored");
    assert!(!lock.raw().is_locked(), "the outer section must release");
    assert!(lock.is_poisoned());
    assert_eq!(
        seen.lock().unwrap().as_slice(),
        &[
            (Some(ExecMode::Lock), true),
            (Some(ExecMode::Lock), true),
            (None, true),
        ],
        "inner then outer Panicked, one Poisoned, all before the release"
    );

    lock.clear_poison();
    let v = lock.cs_plain(scope!("after_nested"), CsOptions::new(), |_| 5u64);
    assert_eq!(v, 5);
}

#[test]
fn htm_mode_panic_discards_writes_and_leaves_no_residue() {
    let _g = serial();
    ale_core::init_panic_hook();
    let platform = Platform::haswell();
    Sim::new(platform.clone(), 1).run(|_| {
        let ale = Ale::new(AleConfig::new(platform.clone()), StaticPolicy::new(10, 0));
        let lock = ale.new_lock("htm_panic", SpinLock::new());
        let cell = HtmCell::new(5u64);
        let modes = RefCell::new(Vec::new());

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            lock.cs_plain(scope!("hboom"), CsOptions::new(), |cs| -> u64 {
                modes.borrow_mut().push(cs.mode());
                cell.set(99);
                std::panic::panic_any(InjectedPanic)
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(
            modes.borrow().as_slice(),
            &[ExecMode::Htm],
            "the panicking attempt must have run in HTM mode (no retries)"
        );
        assert!(!ale_htm::in_txn(), "the transaction must be torn down");
        assert_eq!(cell.get(), 5, "speculative writes must be discarded");
        assert!(!lock.is_poisoned(), "HTM mode holds no lock to poison");
        assert!(!lock.raw().is_locked());

        // The lock keeps working, still eliding.
        let v = lock.cs_plain(scope!("after_hboom"), CsOptions::new(), |_| {
            cell.set(6);
            cell.get()
        });
        assert_eq!(v, 6);
    });
}

#[test]
fn swopt_mode_panic_closes_regions_and_propagates() {
    let _g = serial();
    ale_core::init_panic_hook();
    // T2: no HTM; policy requests SWOpt first.
    let ale = Ale::new(AleConfig::new(Platform::t2()), StaticPolicy::new(0, 5));
    let lock = ale.new_lock("swopt_panic", SpinLock::new());
    let ver = SeqVersion::new();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        lock.cs(
            scope!("sboom"),
            CsOptions::new().with_swopt(),
            |cs| -> CsOutcome<u64> {
                assert!(cs.is_swopt());
                ver.begin_conflicting_action();
                std::panic::panic_any(InjectedPanic)
            },
        )
    }));
    let payload = unwound.expect_err("the body's panic must propagate");
    assert!(payload.downcast_ref::<InjectedPanic>().is_some());
    assert_eq!(ale_sync::open_region_count(), 0, "region must be closed");
    assert_eq!(ver.read(false) % 2, 0, "version parity must be restored");
    assert!(!lock.is_poisoned(), "SWOpt mode holds no lock to poison");
    let v = lock.cs_plain(scope!("after_sboom"), CsOptions::new(), |_| 4u64);
    assert_eq!(v, 4);
}

#[test]
fn lock_mode_protocol_error_is_typed_and_does_not_poison() {
    let _g = serial();
    let ale = Ale::new(AleConfig::new(Platform::t2()), StaticPolicy::new(0, 0));
    let lock = ale.new_lock("proto", SpinLock::new());
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        lock.cs(scope!("bad"), CsOptions::new(), |_| -> CsOutcome<u64> {
            CsOutcome::SwOptFail
        })
    }));
    let payload = unwound.expect_err("a Lock-mode SWOpt outcome must raise");
    if !cfg!(debug_assertions) {
        // Release builds recover with the typed payload; debug builds keep
        // the fail-fast assertion (whose payload is the message string).
        assert_eq!(
            payload.downcast_ref::<CsProtocolError>(),
            Some(&CsProtocolError::SwOptOutcomeInLock)
        );
    }
    assert!(!lock.raw().is_locked(), "the lock must be released");
    assert!(!lock.is_poisoned(), "protocol errors must not poison");
    let v = lock.cs_plain(scope!("good"), CsOptions::new(), |_| 3u64);
    assert_eq!(v, 3);
}

// Debug builds keep the fail-fast debug_assert at the protocol sites, so
// graceful HTM fallback is observable only in release builds (CI runs the
// release test suite too).
#[cfg(not(debug_assertions))]
#[test]
fn htm_mode_protocol_error_falls_back_gracefully() {
    let _g = serial();
    let platform = Platform::haswell();
    Sim::new(platform.clone(), 1).run(|_| {
        let ale = Ale::new(AleConfig::new(platform.clone()), StaticPolicy::new(5, 0));
        let lock = ale.new_lock("proto_htm", SpinLock::new());
        let v = lock.cs(scope!("bad_htm"), CsOptions::new(), |cs| {
            if cs.mode() == ExecMode::Htm {
                // Protocol violation: the committed transaction claims a
                // SWOpt outcome. The driver must abandon HTM and re-run.
                CsOutcome::SwOptFail
            } else {
                assert_eq!(cs.mode(), ExecMode::Lock);
                CsOutcome::Done(11u64)
            }
        });
        assert_eq!(v, 11);
        assert!(!lock.is_poisoned());
    });
}

#[test]
fn breaker_trips_under_abort_storm_and_restores_after() {
    let _g = serial();
    let platform = Platform::haswell();
    Sim::new(platform.clone(), 1).run(|_| {
        let cfg = BreakerConfig {
            window_ns: 50_000,
            trip_permille: 700,
            min_samples: 8,
            cooldown_ns: 20_000,
            max_cooldown_ns: 100_000,
        };
        // Build the library BEFORE installing the injection plan, so the
        // startup HTM capability probe sees healthy hardware.
        let ale = Ale::new(
            AleConfig::new(platform.clone()).with_breaker(cfg),
            StaticPolicy::new(4, 0),
        );
        let lock = ale.new_lock("storm", SpinLock::new());
        let c = HtmCell::new(0u64);
        let run_one = || {
            lock.cs_plain(scope!("inc"), CsOptions::new(), |_| {
                c.set(c.get() + 1);
            })
        };

        // Storm phase: every transaction begin aborts with a conflict.
        ale_htm::inject::install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Begin,
            every: 1,
            kind: InjectKind::Conflict,
        }]));
        for _ in 0..20 {
            run_one();
        }
        let granules = lock.meta().granules.all();
        let b = granules[0].breaker.as_ref().expect("breaker configured");
        assert_eq!(b.trips(), 1, "the storm must trip the breaker once");
        assert_ne!(b.state(), BreakerState::Closed, "circuit must be open");
        assert_eq!(c.get(), 20, "every execution still completes (via Lock)");

        // Storm ends; wait out the (deepened) cool-down in virtual time.
        ale_htm::inject::clear();
        ale_vtime::tick(Event::LocalWork(300_000));
        for _ in 0..10 {
            run_one();
        }
        assert_eq!(b.state(), BreakerState::Closed, "probe must restore HTM");
        assert!(b.restores() >= 1);
        assert_eq!(c.get(), 30);
        let stats = &granules[0].stats;
        assert!(
            stats.successes[ExecMode::Htm.index()].read() > 0,
            "post-storm executions must commit in HTM again"
        );
    });
}

#[test]
fn startup_probe_degrades_broken_htm_to_fallback() {
    let _g = serial();
    let mut platform = Platform::testbed();
    // HTM that can never commit even an empty transaction.
    platform.htm.as_mut().unwrap().spurious_abort_per_txn = 1.0;
    let ale = Ale::new(AleConfig::new(platform), StaticPolicy::new(5, 0));
    let lock = ale.new_lock("no_htm", SpinLock::new());
    let v = lock.cs_plain(scope!("degraded"), CsOptions::new(), |cs| {
        assert_ne!(cs.mode(), ExecMode::Htm, "HTM must be disabled at startup");
        1u64
    });
    assert_eq!(v, 1);
    let report = ale.report();
    let g = &report.lock("no_htm").unwrap().granules[0];
    assert_eq!(
        g.attempts[ExecMode::Htm.index()],
        0,
        "no retry budget may be burned on unusable HTM"
    );
}

#[test]
fn stall_watchdog_reports_slow_lock_acquisitions() {
    let _g = serial();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    ale_core::set_cs_observer(Arc::new(move |ev| {
        if let CsEvent::LockStall { lock, waited_ns } = ev {
            sink.lock().unwrap().push((*lock, *waited_ns));
        }
    }));
    let platform = Platform::t2();
    let ale = Ale::new(
        AleConfig::new(platform.clone()).with_stall_watchdog(10_000),
        StaticPolicy::new(0, 0),
    );
    let lock = ale.new_lock("stalled", SpinLock::new());
    let done = Sim::new(platform, 2).run(|lane| {
        if lane.id() == 0 {
            lock.cs_plain(scope!("holder"), CsOptions::new(), |_| {
                ale_vtime::tick(Event::LocalWork(100_000)); // stalled holder
                1u64
            })
        } else {
            ale_vtime::tick(Event::LocalWork(500));
            lock.cs_plain(scope!("waiter"), CsOptions::new(), |_| 2u64)
        }
    });
    ale_core::clear_cs_observer();
    assert_eq!(done.results, vec![1, 2], "both sections must complete");
    let seen = seen.lock().unwrap();
    assert!(
        seen.iter().any(|(l, w)| *l == "stalled" && *w >= 10_000),
        "the watchdog must report the stalled acquisition: {seen:?}"
    );
}
