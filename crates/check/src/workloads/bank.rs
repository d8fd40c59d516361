//! Transfer/audit bank on raw `HtmCell`s: the TLE lock-subscription
//! soundness test (HTM auditors vs Lock-mode writers).

use ale_core::{scope, Ale, AleConfig, CsOptions, StaticPolicy};
use ale_htm::HtmCell;
use ale_sync::SpinLock;
use ale_vtime::{tick, Event};

use super::{lane_rng, sim_for, Violations, WorkloadOutcome, ACCOUNTS, INITIAL_BALANCE};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let total = ACCOUNTS as u64 * INITIAL_BALANCE;
    let accounts: Vec<HtmCell<u64>> = (0..ACCOUNTS)
        .map(|_| HtmCell::new(INITIAL_BALANCE))
        .collect();
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform())
            .without_swopt()
            .with_seed(cfg.seed),
        StaticPolicy::new(4, 0),
    );
    let lock = ale.new_lock("bankLock", SpinLock::new());

    let violations = Violations::new();
    let v = &violations;
    let accounts_ref = &accounts;
    let lock_ref = &lock;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut audits = 0u64;
        for _ in 0..cfg.ops {
            if id % 2 == 0 {
                // Writer: Lock-mode transfer with a wide window between the
                // debit and the credit. An HTM auditor that fails to
                // subscribe to the lock can commit a sum from inside this
                // window.
                let a = rng.gen_range(ACCOUNTS as u64) as usize;
                let b = (a + 1 + rng.gen_range(ACCOUNTS as u64 - 1) as usize) % ACCOUNTS;
                let amount = 1 + rng.gen_range(5);
                lock_ref.cs_plain(
                    scope!("bank::transfer"),
                    CsOptions::new().without_htm(),
                    |_| {
                        let from = accounts_ref[a].get();
                        if from >= amount {
                            accounts_ref[a].set(from - amount);
                            tick(Event::LocalWork(500));
                            let to = accounts_ref[b].get();
                            accounts_ref[b].set(to + amount);
                        }
                    },
                );
            } else {
                // Auditor: sums every account, preferably in HTM mode.
                let sum = lock_ref.cs_plain(scope!("bank::audit"), CsOptions::new(), |_| {
                    accounts_ref.iter().map(|c| c.get()).sum::<u64>()
                });
                audits += 1;
                if sum != total {
                    v.record(format!(
                        "bank: audit observed sum {sum}, expected {total} (torn read of a Lock-mode transfer)"
                    ));
                }
                tick(Event::LocalWork(1 + rng.gen_range(200)));
            }
        }
        audits
    });

    let final_sum: u64 = accounts.iter().map(|c| c.get()).sum();
    if final_sum != total {
        violations.record(format!(
            "bank: final sum {final_sum} != {total} (lost update)"
        ));
    }

    let mut h = Fnv::new();
    for audits in &report.results {
        h.write_u64(*audits);
    }
    h.write_u64(final_sum);
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
