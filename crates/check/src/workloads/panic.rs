//! Panicking critical sections in all three modes: after every caught
//! unwind the runtime must have closed the panicker's conflicting regions
//! (seqlock parity restored), left no transaction open, and — for Lock
//! mode — poisoned the lock until explicit recovery.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, ExecMode, LockPoison, StaticPolicy};
use ale_htm::{HtmCell, InjectedPanic};
use ale_sync::{SeqVersion, SpinLock};
use ale_vtime::{tick, Event};

use super::{lane_rng, sim_for, Violations, WorkloadOutcome, INITIAL_BALANCE};
use crate::{CheckConfig, Fnv};

/// Which mode a panic op targets, rotating over the run.
fn panic_target(op: u64) -> ExecMode {
    match (op / 16) % 3 {
        0 => ExecMode::Lock,
        1 => ExecMode::Htm,
        _ => ExecMode::SwOpt,
    }
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    ale_core::init_panic_hook();
    let total = 2 * INITIAL_BALANCE;
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform())
            .with_seed(cfg.seed)
            .with_stall_watchdog(50_000),
        StaticPolicy::new(3, 3),
    );
    let lock = ale.new_lock("panicLock", SpinLock::new());
    let ver = SeqVersion::new();
    let a = HtmCell::new(INITIAL_BALANCE);
    let b = HtmCell::new(INITIAL_BALANCE);

    let violations = Violations::new();
    let v = &violations;
    let lock_ref = &lock;
    let (ver_ref, a_ref, b_ref) = (&ver, &a, &b);
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut panics = 0u64;
        for op in 0..cfg.ops {
            // Only lane 0 throws Lock-mode panics: a Lock-mode panic poisons
            // the lock, and a single poisoner makes the poisoned-then-
            // recovered oracle sound (nobody else clears the flag).
            let target = panic_target(op);
            let boom =
                op % 16 == 7 && !(target == ExecMode::Lock && id != 0) && rng.gen_ratio(3, 4);
            let ran = catch_unwind(AssertUnwindSafe(|| match target {
                ExecMode::Lock => {
                    // Lock-mode transfer with a panic window *inside* the
                    // conflicting region (worst case for seqlock parity).
                    let amount = 1 + rng.gen_range(5);
                    lock_ref.cs_plain(
                        scope!("panic::transfer"),
                        CsOptions::new().without_htm(),
                        |_| {
                            ver_ref.begin_conflicting_action();
                            if boom {
                                std::panic::panic_any(InjectedPanic);
                            }
                            let from = a_ref.get();
                            if from >= amount {
                                a_ref.set(from - amount);
                                tick(Event::LocalWork(200));
                                b_ref.set(b_ref.get() + amount);
                            }
                            ver_ref.end_conflicting_action();
                        },
                    );
                }
                ExecMode::Htm => {
                    // Audit, preferably in HTM; a panicking attempt first
                    // dirties an account so a surviving speculative write
                    // would break the conservation oracle.
                    let sum = lock_ref.cs_plain(scope!("panic::audit"), CsOptions::new(), |cs| {
                        if boom && cs.mode() == ExecMode::Htm {
                            a_ref.set(0);
                            std::panic::panic_any(InjectedPanic);
                        }
                        a_ref.get() + b_ref.get()
                    });
                    if sum != total {
                        v.record(format!("panic: audit observed sum {sum}, expected {total}"));
                    }
                }
                ExecMode::SwOpt => {
                    // Versioned optimistic read with bounded retries (an odd
                    // version fails the attempt instead of spinning, so a
                    // leaked region degrades throughput, never liveness).
                    lock_ref.cs(
                        scope!("panic::read"),
                        CsOptions::new().with_swopt().non_conflicting(),
                        |cs| -> CsOutcome<u64> {
                            if cs.is_swopt() {
                                let v0 = ver_ref.read(false);
                                if v0 % 2 == 1 {
                                    return CsOutcome::SwOptFail;
                                }
                                if boom {
                                    std::panic::panic_any(InjectedPanic);
                                }
                                let sum = a_ref.get() + b_ref.get();
                                if ver_ref.read(false) != v0 {
                                    return CsOutcome::SwOptFail;
                                }
                                if sum != total {
                                    v.record(format!(
                                        "panic: validated SWOpt read saw sum {sum}, expected {total}"
                                    ));
                                }
                                CsOutcome::Done(sum)
                            } else {
                                CsOutcome::Done(a_ref.get() + b_ref.get())
                            }
                        },
                    );
                }
            }));

            if let Err(payload) = ran {
                if payload.downcast_ref::<InjectedPanic>().is_some() {
                    panics += 1;
                    // Unwind-safety oracles, sound lane-locally: whatever
                    // regions THIS lane's panicking body left open must have
                    // been closed on the way out.
                    let open = ale_sync::open_region_count();
                    if open != 0 {
                        v.record(format!(
                            "panic: {open} conflicting region(s) leaked across a caught panic"
                        ));
                    }
                    if target == ExecMode::Lock {
                        if !lock_ref.is_poisoned() {
                            v.record("panic: Lock-mode panic did not poison the lock".into());
                        }
                        lock_ref.clear_poison();
                        // Recovery must actually work: a follow-up section
                        // (any mode) has to complete.
                        let redo = catch_unwind(AssertUnwindSafe(|| {
                            lock_ref.cs_plain(scope!("panic::recover"), CsOptions::new(), |_| {
                                a_ref.get() + b_ref.get()
                            })
                        }));
                        match redo {
                            Ok(sum) if sum != total => v.record(format!(
                                "panic: post-recovery audit saw sum {sum}, expected {total}"
                            )),
                            Err(p) if p.downcast_ref::<LockPoison>().is_none() => {
                                v.record("panic: post-recovery section panicked".into())
                            }
                            _ => {}
                        }
                    }
                } else if payload.downcast_ref::<LockPoison>().is_some() {
                    // Another lane's Lock-mode panic poisoned the lock while
                    // we were entering; skip the op and let it recover.
                    tick(Event::LocalWork(100));
                } else {
                    v.record("panic: unexpected panic payload escaped a critical section".into());
                }
            }
            tick(Event::LocalWork(1 + rng.gen_range(120)));
        }
        // Nothing this lane opened may outlive it.
        if ale_sync::open_region_count() != 0 {
            v.record(format!(
                "panic: lane {id} ended with conflicting regions still open"
            ));
        }
        panics
    });

    let final_sum = a.get() + b.get();
    if final_sum != total {
        violations.record(format!(
            "panic: final sum {final_sum} != {total} (partial transfer survived a panic)"
        ));
    }
    if ver.read(false) % 2 == 1 {
        violations.record("panic: version word left odd after quiescence".into());
    }
    if lock.is_poisoned() {
        violations.record("panic: lock left poisoned after every panic was recovered".into());
    }

    let mut h = Fnv::new();
    for panics in &report.results {
        h.write_u64(*panics);
    }
    h.write_u64(final_sum);
    h.write_u64(ver.read(false));
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
