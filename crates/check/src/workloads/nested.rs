//! Nested compound operations: a transfer *inside* a cache fill, i.e. an
//! inner critical section on a second lock opened while the outer one is
//! held, with conflicting regions open on both layers at once.
//!
//! This is the workload that leans on the grouping SNZI and the nesting
//! rules: the outer section's conflicting region (cache version) must
//! stay open across the inner section (account version), and unwinding
//! either must restore both parities. Lock order is strictly outer →
//! inner, so the schedule adversary can't manufacture a deadlock.
//!
//! Oracles: SWOpt audits of the inner accounts (conservation), SWOpt
//! reads of the outer cache slots (integrity + generation monotonicity
//! via the owner shadow at quiescence), and both version words even at
//! the end.

use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, StaticPolicy};
use ale_htm::HtmCell;
use ale_sync::{SeqVersion, SpinLock};
use ale_vtime::{tick, Event};

use super::{
    encode, integrity_ok, lane_rng, sim_for, Violations, WorkloadOutcome, INITIAL_BALANCE,
};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let total = 2 * INITIAL_BALANCE;
    // Grouping stays on (default config): the nested sections are exactly
    // what the grouping SNZI exists to arbitrate.
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(2, 4),
    );
    let cache_lock = ale.new_lock("nestedCacheLock", SpinLock::new());
    let acct_lock = ale.new_lock("nestedAcctLock", SpinLock::new());
    let ver_cache = SeqVersion::new();
    let ver_acct = SeqVersion::new();
    // One cache slot per lane (owner-shadowed: each lane writes only its own).
    let slots: Vec<HtmCell<u64>> = (0..cfg.threads)
        .map(|id| HtmCell::new(encode(id as u64, 0)))
        .collect();
    let x = HtmCell::new(INITIAL_BALANCE);
    let y = HtmCell::new(INITIAL_BALANCE);

    let violations = Violations::new();
    let v = &violations;
    let (outer, inner) = (&cache_lock, &acct_lock);
    let (vc, va) = (&ver_cache, &ver_acct);
    let (slots_ref, x_ref, y_ref) = (&slots, &x, &y);
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut gen = 0u64;
        let threads = cfg.threads as u64;
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=3 => {
                    // Compound op: refresh our cache slot, and while the
                    // outer section (and its conflicting region) is still
                    // open, run a transfer in an inner section on the
                    // second lock.
                    let amount = 1 + rng.gen_range(3);
                    outer.cs_plain(scope!("nested::fill"), CsOptions::new(), |_| {
                        vc.begin_conflicting_action();
                        slots_ref[id].set(encode(id as u64, gen + 1));
                        inner.cs_plain(scope!("nested::transfer"), CsOptions::new(), |_| {
                            va.begin_conflicting_action();
                            let (from, to) = if x_ref.get() >= amount {
                                (x_ref, y_ref)
                            } else {
                                (y_ref, x_ref)
                            };
                            let f = from.get();
                            if f >= amount {
                                from.set(f - amount);
                                tick(Event::LocalWork(150));
                                to.set(to.get() + amount);
                            }
                            va.end_conflicting_action();
                        });
                        vc.end_conflicting_action();
                    });
                    gen += 1;
                }
                4..=6 => {
                    // Inner-layer audit: validated optimistic sum of the
                    // two accounts must conserve the total.
                    let sum = inner.cs(
                        scope!("nested::audit"),
                        CsOptions::new().with_swopt().non_conflicting(),
                        |cs| -> CsOutcome<u64> {
                            if cs.is_swopt() {
                                let s = va.read(false);
                                if s % 2 == 1 {
                                    return CsOutcome::SwOptFail;
                                }
                                let sum = x_ref.get() + y_ref.get();
                                if !va.validate(s) {
                                    return CsOutcome::SwOptFail;
                                }
                                CsOutcome::Done(sum)
                            } else {
                                CsOutcome::Done(x_ref.get() + y_ref.get())
                            }
                        },
                    );
                    if sum != total {
                        v.record(format!(
                            "nested: audit observed sum {sum}, expected {total} \
                             (inner transfer torn across the nesting)"
                        ));
                    }
                }
                7 | 8 => {
                    // Outer-layer read: a validated snapshot of any lane's
                    // cache slot must carry that lane's integrity bits.
                    let peer = rng.gen_range(threads) as usize;
                    let got = outer.cs(
                        scope!("nested::read"),
                        CsOptions::new().with_swopt().non_conflicting(),
                        |cs| -> CsOutcome<u64> {
                            if cs.is_swopt() {
                                let s = vc.read(false);
                                if s % 2 == 1 {
                                    return CsOutcome::SwOptFail;
                                }
                                let val = slots_ref[peer].get();
                                if !vc.validate(s) {
                                    return CsOutcome::SwOptFail;
                                }
                                CsOutcome::Done(val)
                            } else {
                                CsOutcome::Done(slots_ref[peer].get())
                            }
                        },
                    );
                    if !integrity_ok(peer as u64, got) {
                        v.record(format!(
                            "nested: slot {peer} read value {got:#x} belonging to slot {:#x}",
                            got & 0xFFFF
                        ));
                    }
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(250))),
            }
        }
        gen
    });

    // Quiescence: conservation, owner-shadowed slot generations, parity.
    let final_sum = x.get() + y.get();
    if final_sum != total {
        violations.record(format!(
            "nested: final sum {final_sum} != {total} (conservation broken)"
        ));
    }
    for (id, gen) in report.results.iter().enumerate() {
        let val = slots[id].get();
        if val != encode(id as u64, *gen) {
            violations.record(format!(
                "nested: slot {id} ended at {val:#x}, owner shadow says generation {gen}"
            ));
        }
    }
    if ver_cache.read(false) % 2 == 1 {
        violations.record("nested: cache version word left odd after quiescence".into());
    }
    if ver_acct.read(false) % 2 == 1 {
        violations.record("nested: account version word left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    h.write_u64(x.get());
    h.write_u64(y.get());
    for gen in &report.results {
        h.write_u64(*gen);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
