//! Multi-key transfers: every mutation moves value across *three*
//! accounts (two debtors fund a creditor at 2×), so any torn or partial
//! application breaks conservation by a detectable amount.
//!
//! The invariant oracle is total balance: SWOpt audits sum every account
//! under a validated version snapshot mid-run, and the quiescent check
//! re-sums directly. [`BalanceShadow`] is the sequential model the
//! property tests pin the transfer rule against (distinct accounts,
//! sufficient funds, exact conservation).

use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, StaticPolicy};
use ale_htm::HtmCell;
use ale_sync::{SeqVersion, SpinLock};
use ale_vtime::{tick, Event};

use super::{lane_rng, sim_for, Violations, WorkloadOutcome};
use crate::{CheckConfig, Fnv};

/// More accounts than the bank workload so three distinct picks rarely
/// collide, but few enough that lanes still contend.
const XFER_ACCOUNTS: usize = 16;
const XFER_INITIAL: u64 = 1000;
const TOTAL: u64 = XFER_ACCOUNTS as u64 * XFER_INITIAL;

#[derive(Clone, Copy, Default)]
struct LaneOut {
    applied: u64,
    audits: u64,
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(4, 4),
    );
    let lock = ale.new_lock("transferLock", SpinLock::new());
    let ver = SeqVersion::new();
    let accounts: Vec<HtmCell<u64>> = (0..XFER_ACCOUNTS)
        .map(|_| HtmCell::new(XFER_INITIAL))
        .collect();

    let violations = Violations::new();
    let v = &violations;
    let (lock_ref, ver_ref, acct_ref) = (&lock, &ver, &accounts);
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut out = LaneOut::default();
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=5 => {
                    // Three-account move: debit a and b, credit c with the
                    // combined amount. Skipped (not an error) when the picks
                    // collide or a debtor is short.
                    let a = rng.gen_range(XFER_ACCOUNTS as u64) as usize;
                    let b = rng.gen_range(XFER_ACCOUNTS as u64) as usize;
                    let c = rng.gen_range(XFER_ACCOUNTS as u64) as usize;
                    let amount = 1 + rng.gen_range(4);
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let applied =
                        lock_ref.cs_plain(scope!("transfer::move3"), CsOptions::new(), |_| {
                            ver_ref.begin_conflicting_action();
                            let fa = acct_ref[a].get();
                            let fb = acct_ref[b].get();
                            let done = if fa >= amount && fb >= amount {
                                acct_ref[a].set(fa - amount);
                                // A stall between the debits and the credit
                                // widens the torn-state window audits must
                                // never observe.
                                tick(Event::LocalWork(300));
                                acct_ref[b].set(fb - amount);
                                acct_ref[c].set(acct_ref[c].get() + 2 * amount);
                                true
                            } else {
                                false
                            };
                            ver_ref.end_conflicting_action();
                            done
                        });
                    out.applied += applied as u64;
                }
                6..=8 => {
                    // Conservation audit: a validated snapshot of all
                    // accounts must sum to TOTAL, no matter how many
                    // transfers raced it.
                    let sum = lock_ref.cs(
                        scope!("transfer::audit"),
                        CsOptions::new().with_swopt().non_conflicting(),
                        |cs| -> CsOutcome<u64> {
                            if cs.is_swopt() {
                                let s = ver_ref.read(false);
                                if s % 2 == 1 {
                                    return CsOutcome::SwOptFail;
                                }
                                let sum: u64 = acct_ref.iter().map(|c| c.get()).sum();
                                if !ver_ref.validate(s) {
                                    return CsOutcome::SwOptFail;
                                }
                                CsOutcome::Done(sum)
                            } else {
                                CsOutcome::Done(acct_ref.iter().map(|c| c.get()).sum())
                            }
                        },
                    );
                    if sum != TOTAL {
                        v.record(format!(
                            "transfer: audit observed total {sum}, expected {TOTAL} \
                             (partial three-way move leaked)"
                        ));
                    }
                    out.audits += 1;
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(250))),
            }
        }
        out
    });

    let final_sum: u64 = accounts.iter().map(|c| c.get()).sum();
    if final_sum != TOTAL {
        violations.record(format!(
            "transfer: final total {final_sum} != {TOTAL} (conservation broken)"
        ));
    }
    if ver.read(false) % 2 == 1 {
        violations.record("transfer: version word left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    for cell in &accounts {
        h.write_u64(cell.get());
    }
    for out in &report.results {
        h.write_u64(out.applied);
        h.write_u64(out.audits);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
