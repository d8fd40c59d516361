//! Shrinking: reduce a failing schedule to its smallest reproducer.
//!
//! The adversarial scheduler counts every decision it takes and stops
//! deviating from lowest-clock order once `perturb_limit` decisions are
//! spent — so the *perturbation prefix length* is a single scalar that
//! bounds how much of the schedule is adversarial. Shrinking bisects it:
//! find the smallest limit whose run still violates an oracle. The fault
//! budget (`max_hits`) shrinks the same way. Failure is not guaranteed
//! monotonic in either knob, so this is a greedy delta-debugging pass, not
//! an exact minimum — every candidate is re-executed, and the final config
//! is verified to still fail before it is reported.

use crate::{run_once, CheckConfig, RunOutcome};

/// Outcome of a shrink pass.
#[derive(Debug)]
pub struct Minimized {
    /// The reduced config (still failing — verified).
    pub config: CheckConfig,
    /// The outcome of the final verification run.
    pub outcome: RunOutcome,
    /// Schedules executed while shrinking.
    pub runs: u64,
}

/// Smallest value in `[lo, hi]` for which `fails` holds, assuming it holds
/// at `hi`. Bisection against a non-monotone predicate: each probe
/// re-executes the schedule, and a non-failing midpoint moves `lo` up, so
/// the result always satisfies `fails` even if it is not globally minimal.
fn bisect(mut lo: u64, mut hi: u64, mut fails: impl FnMut(u64) -> bool) -> (u64, u64) {
    let mut runs = 0;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        runs += 1;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (hi, runs)
}

/// Shrink `cfg` (known to fail with `witness`) and verify the result.
///
/// Returns `None` if even re-running the original config no longer fails —
/// which would mean the run was not deterministic and is itself a bug.
///
/// `fails` decides what counts as "still failing" — any violation
/// ([`RunOutcome::failed`]) for a sweep, one particular oracle for a
/// self-test lane.
pub fn minimize(
    cfg: &CheckConfig,
    witness: &RunOutcome,
    fails: impl Fn(&RunOutcome) -> bool,
) -> Option<Minimized> {
    let mut runs = 0u64;
    let mut cfg = cfg.clone();

    // Pin the open-ended knobs to what the witness actually consumed, so
    // the bisection ranges are finite.
    if cfg.perturb_limit == u64::MAX {
        cfg.perturb_limit = witness.decisions;
    }
    if let Some(fault) = cfg.fault.as_mut() {
        if fault.max_hits == u64::MAX {
            fault.max_hits = witness.injected;
        }
    }
    runs += 1;
    if !fails(&run_once(&cfg)) {
        return None;
    }

    // Shrink the perturbation prefix.
    let (limit, n) = bisect(0, cfg.perturb_limit, |limit| {
        fails(&run_once(&CheckConfig {
            perturb_limit: limit,
            ..cfg.clone()
        }))
    });
    runs += n;
    cfg.perturb_limit = limit;

    // Shrink the weak-memory reorder window (a smaller window means fewer
    // and narrower delayed-visibility gaps in the replayed schedule).
    if cfg.reorder_ns > 0 {
        let (window, n) = bisect(0, cfg.reorder_ns, |reorder_ns| {
            fails(&run_once(&CheckConfig {
                reorder_ns,
                ..cfg.clone()
            }))
        });
        runs += n;
        cfg.reorder_ns = window;
    }

    // Shrink the read skew: a failing schedule that still fails at lower
    // (or zero) Zipf skew is easier to reason about — hot-key pile-ups are
    // one less ingredient in the repro.
    if cfg.workload == crate::Workload::Shard && cfg.zipf_milli > 0 {
        let (zipf, n) = bisect(0, cfg.zipf_milli, |zipf_milli| {
            fails(&run_once(&CheckConfig {
                zipf_milli,
                ..cfg.clone()
            }))
        });
        runs += n;
        cfg.zipf_milli = zipf;
    }

    // Shrink the crash consult index: an earlier crash means a shorter
    // pre-crash prefix to read in the replay (1 = crash at the very first
    // consult of the planned point).
    if let Some(crash) = cfg.crash {
        let (after, n) = bisect(1, crash.after, |after| {
            let mut candidate = cfg.clone();
            candidate.crash = Some(crate::CrashSpec { after, ..crash });
            fails(&run_once(&candidate))
        });
        runs += n;
        cfg.crash = Some(crate::CrashSpec { after, ..crash });
    }

    // Shrink the fault budget.
    if let Some(fault) = cfg.fault {
        let (hits, n) = bisect(0, fault.max_hits, |max_hits| {
            let mut candidate = cfg.clone();
            candidate.fault = Some(crate::FaultSpec { max_hits, ..fault });
            fails(&run_once(&candidate))
        });
        runs += n;
        cfg.fault = Some(crate::FaultSpec {
            max_hits: hits,
            ..fault
        });
    }

    // Final verification run: the reported config must fail as-is.
    runs += 1;
    let outcome = run_once(&cfg);
    if !fails(&outcome) {
        return None;
    }
    Some(Minimized {
        config: cfg,
        outcome,
        runs,
    })
}
