//! Writing your own ALE policy (§4: "a pluggable policy … can collect
//! various profiling information and statistics, and can use this
//! information to guide its decisions").
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```
//!
//! This example implements a small but genuinely adaptive policy from
//! scratch — a *success-rate throttle*: try HTM aggressively while it is
//! working, and back off (cheaply, without the full learning machinery of
//! [`AdaptivePolicy`]) when the recent success rate collapses. It then
//! races the custom policy against the built-ins on a workload whose HTM
//! friendliness differs per critical section.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ale_core::policy::{AttemptPlan, ExecRecord, ModeCaps, Policy};
use ale_core::{scope, Ale, AleConfig, CsOptions, ExecMode, Granule, LockMeta, StaticPolicy};
use ale_htm::HtmCell;
use ale_sync::SpinLock;
use ale_vtime::{Platform, Sim};

/// Per-granule state: a sliding window of recent HTM outcomes packed into
/// one atomic (successes in the low half, attempts in the high half).
#[derive(Default)]
struct Window {
    packed: AtomicU64,
}

impl Window {
    fn record(&self, success: bool) {
        let add = 1u64 << 32 | success as u64;
        let w = self.packed.fetch_add(add, Ordering::Relaxed) + add;
        // Periodically halve both counters so old history fades.
        if w >> 32 >= 256 {
            let succ = (w & 0xFFFF_FFFF) / 2;
            let att = (w >> 32) / 2;
            self.packed.store(att << 32 | succ, Ordering::Relaxed);
        }
    }

    fn success_rate(&self) -> f64 {
        let w = self.packed.load(Ordering::Relaxed);
        let att = w >> 32;
        if att < 16 {
            return 1.0; // optimistic until we have data
        }
        (w & 0xFFFF_FFFF) as f64 / att as f64
    }
}

/// Try HTM hard while it works; give up fast when it stops working.
struct ThrottlePolicy;

impl Policy for ThrottlePolicy {
    fn name(&self) -> String {
        "Throttle".into()
    }

    fn make_lock_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(())
    }

    fn make_granule_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(Window::default())
    }

    fn plan(&self, _m: &LockMeta, g: &Granule, caps: ModeCaps) -> AttemptPlan {
        let window = g.policy_state.downcast_ref::<Window>().unwrap();
        let rate = window.success_rate();
        let x = if !caps.htm {
            0
        } else if rate > 0.5 {
            6 // HTM is paying: retry generously
        } else if rate > 0.1 {
            2
        } else {
            0 // hopeless: go straight to SWOpt/Lock
        };
        AttemptPlan {
            htm_attempts: x,
            swopt_attempts: if caps.swopt { 10 } else { 0 },
            use_grouping: false,
            measure: false,
        }
    }

    fn on_complete(&self, _m: &LockMeta, g: &Granule, rec: &ExecRecord) {
        if rec.htm_attempts > 0 {
            let window = g.policy_state.downcast_ref::<Window>().unwrap();
            window.record(rec.mode == Some(ExecMode::Htm));
        }
    }

    fn describe_granule(&self, _m: &LockMeta, g: &Granule) -> String {
        let w = g.policy_state.downcast_ref::<Window>().unwrap();
        format!("recent HTM success rate {:.0} %", w.success_rate() * 100.0)
    }
}

/// Workload: one HTM-friendly critical section (tiny) and one HTM-hostile
/// one (overflows the write budget every time).
fn run(ale: &Arc<Ale>, platform: &Platform) -> f64 {
    let lock = ale.new_lock("mixed", SpinLock::new());
    let small = HtmCell::new(0u64);
    let big: Vec<HtmCell<u64>> = (0..64).map(|_| HtmCell::new(0)).collect();
    let (lock, small, big) = (&lock, &small, &big);
    let ops = 1_500u64;
    let report = Sim::new(platform.clone(), 8).with_seed(3).run(|lane| {
        let mut rng = lane.rng().clone();
        for _ in 0..ops {
            if rng.gen_ratio(7, 10) {
                lock.cs_plain(scope!("small_cs"), CsOptions::new(), |_| {
                    small.set(small.get() + 1);
                });
            } else {
                lock.cs_plain(scope!("big_cs"), CsOptions::new(), |_| {
                    for c in big {
                        c.set(c.get() + 1);
                    }
                });
            }
        }
    });
    report.throughput(ops * 8) / 1e6
}

fn main() {
    // Haswell-like HTM, but with a small write budget so `big_cs` always
    // dies of capacity.
    let mut platform = Platform::haswell();
    platform.htm.as_mut().unwrap().max_write_set = 32;

    println!("workload: 70 % HTM-friendly CS, 30 % capacity-overflowing CS\n");
    for (name, ale) in [
        (
            "Static-HL-6 (tuned for the small CS)",
            Ale::new(
                AleConfig::new(platform.clone()).without_swopt(),
                StaticPolicy::new(6, 0),
            ),
        ),
        (
            "Throttle (this example's custom policy)",
            Ale::new(
                AleConfig::new(platform.clone()).without_swopt(),
                ThrottlePolicy,
            ),
        ),
    ] {
        let mops = run(&ale, &platform);
        println!("  {name:<42} {mops:>7.3} M ops/s");
        for lockrep in &ale.report().locks {
            for g in &lockrep.granules {
                if !g.policy.is_empty() {
                    println!("      {:<18} {}", g.context, g.policy);
                }
            }
        }
        println!();
    }
    println!(
        "The throttle learns per granule: the small critical section keeps a big\n\
         HTM budget while the overflowing one stops attempting HTM entirely —\n\
         without any of the built-in adaptive policy's machinery."
    );
}
