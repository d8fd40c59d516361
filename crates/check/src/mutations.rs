//! The self-test mutation table: the harness proving it can catch bugs.
//!
//! [`MUTATIONS`] is the only per-mutation list in the workspace. Each row
//! names one re-introduced bug ([`ale_htm::Mutation`] guards its site),
//! the workload that hunts it, how the schedule is armed, and the oracle
//! that must fire. `ale-check selftest`, `tests/selftest.rs` and the
//! README lane table ([`readme_table`]) are all read off it.
//!
//! Built with `--features selftest-mutations`, [`Lane::activate`] switches
//! a row's bug on at run time and [`Lane::hunt`] sweeps for it; without
//! the feature the table is documentation and neither exists.

use ale_htm::{CrashPoint, Mutation, TornMode};

use crate::{replay, CheckConfig, CrashSpec, RunOutcome, Workload};

/// How a lane arms [`CheckConfig`] beyond picking its workload. A knob the
/// caller already set is left alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The workload's own oracles see the bug unaided.
    Nothing,
    /// Record the trace stream: only the trace oracle can see the bug.
    Trace,
    /// Hold stores in a reorder window of this many ns: the bug only tears
    /// observably under the weak-memory adversary.
    Reorder(u64),
    /// Kill the process at a WAL crash point: the bug only loses or
    /// invents data across a recovery.
    Crash(CrashSpec, Option<TornMode>),
}

impl Arm {
    pub fn apply(self, cfg: &mut CheckConfig) {
        match self {
            Arm::Nothing => {}
            Arm::Trace => cfg.trace = true,
            Arm::Reorder(ns) => {
                if cfg.reorder_ns == 0 {
                    cfg.reorder_ns = ns;
                }
            }
            Arm::Crash(crash, torn) => {
                if cfg.crash.is_none() {
                    cfg.crash = Some(crash);
                    cfg.torn = torn;
                }
            }
        }
    }

    /// The equivalent command-line flags (the README's "armed with").
    pub fn flags(self) -> String {
        match self {
            Arm::Nothing => "—".into(),
            Arm::Trace => "`--trace`".into(),
            Arm::Reorder(ns) => format!("`--reorder {ns}`"),
            Arm::Crash(crash, None) => format!("`--crash {}`", replay::crash_string(&crash)),
            Arm::Crash(crash, Some(torn)) => format!(
                "`--crash {} --torn {}`",
                replay::crash_string(&crash),
                replay::torn_name(torn)
            ),
        }
    }
}

/// One self-test lane.
#[derive(Debug)]
pub struct Lane {
    pub mutation: Mutation,
    /// Lane name, as printed, as the replay file's stem and as its
    /// `mutation=` key.
    pub name: &'static str,
    /// The bug the mutation re-introduces.
    pub bug: &'static str,
    pub workload: Workload,
    pub arm: Arm,
    /// The violation prefix that counts as detection. Any other failure of
    /// the schedule — a lane panic, an unrelated oracle — is not this
    /// lane's oracle firing, and does not count.
    pub oracle: &'static str,
}

const fn crash(point: CrashPoint, after: u64) -> CrashSpec {
    CrashSpec { point, after }
}

/// Every self-test lane, in CI order.
pub static MUTATIONS: [Lane; 13] = [
    Lane {
        mutation: Mutation::LazySubscription,
        name: "mut-lazy-subscription",
        bug: "an HTM section runs without subscribing to the lock inside the transaction",
        workload: Workload::Bank,
        arm: Arm::Nothing,
        oracle: "bank:",
    },
    Lane {
        mutation: Mutation::SkipVersionBump,
        name: "mut-skip-version-bump",
        bug: "a map remove unlinks without bumping the bucket's seqlock version",
        workload: Workload::HashMap,
        arm: Arm::Nothing,
        oracle: "hashmap:",
    },
    Lane {
        mutation: Mutation::SkipValidate,
        name: "mut-skip-validate",
        bug: "a SWOpt get returns the value it copied without validating after the read",
        workload: Workload::HashMap,
        arm: Arm::Nothing,
        oracle: "hashmap:",
    },
    Lane {
        mutation: Mutation::SnziSkipHalf,
        name: "mut-snzi-skip-half",
        bug: "a SNZI arrival skips the parent on the ½ transition, so the root under-counts",
        workload: Workload::Snzi,
        arm: Arm::Nothing,
        oracle: "snzi:",
    },
    Lane {
        mutation: Mutation::LeakRegionOnPanic,
        name: "mut-leak-region-on-panic",
        bug: "a panicking body's open conflicting regions are not closed on unwind",
        workload: Workload::Panic,
        arm: Arm::Nothing,
        oracle: "panic:",
    },
    Lane {
        mutation: Mutation::TraceDropEvent,
        name: "mut-trace-drop-event",
        bug: "SWOpt completions skip their mode-decision trace event",
        workload: Workload::HashMap,
        arm: Arm::Trace,
        oracle: "trace oracle",
    },
    Lane {
        mutation: Mutation::TtlStaleRead,
        name: "mut-ttl-stale-read",
        bug: "the TTL cache serves an entry without revalidating its deadline",
        workload: Workload::Ttl,
        arm: Arm::Nothing,
        oracle: "ttl:",
    },
    Lane {
        mutation: Mutation::ReorderPublish,
        name: "mut-reorder-publish",
        bug: "`SeqBuffer::store` writes its data ahead of the version bump",
        workload: Workload::Registry,
        arm: Arm::Reorder(400),
        oracle: "registry:",
    },
    Lane {
        mutation: Mutation::WalAckBeforeDurable,
        name: "mut-wal-ack-before-durable",
        bug: "the WAL acknowledges a record still parked in a volatile buffer",
        workload: Workload::Durable,
        arm: Arm::Crash(crash(CrashPoint::WalAppend, 40), None),
        oracle: "durable:",
    },
    Lane {
        mutation: Mutation::RecoverySkipChecksum,
        name: "mut-recovery-skip-checksum",
        bug: "recovery applies a complete tail frame whose checksum fails",
        workload: Workload::Durable,
        arm: Arm::Crash(crash(CrashPoint::MidRecord, 30), Some(TornMode::Flip)),
        oracle: "durable:",
    },
    Lane {
        mutation: Mutation::ResizeSkipRepublish,
        name: "mut-resize-skip-republish",
        bug: "a shard migration splices chains before bumping the table-pointer version",
        workload: Workload::Shard,
        arm: Arm::Nothing,
        oracle: "shard:",
    },
    Lane {
        mutation: Mutation::ShardRouteStale,
        name: "mut-shard-route-stale",
        bug: "the insert router masks with the pre-resize table's mask mid-migration",
        workload: Workload::Shard,
        arm: Arm::Nothing,
        oracle: "shard:",
    },
    Lane {
        mutation: Mutation::StatBatchLost,
        name: "mut-stat-batch-lost",
        bug: "the statistics flush drops its executions delta",
        workload: Workload::HashMap,
        arm: Arm::Nothing,
        oracle: "stat parity oracle",
    },
];

impl Lane {
    pub fn by_name(name: &str) -> Option<&'static Lane> {
        MUTATIONS.iter().find(|l| l.name == name)
    }

    /// Did this lane's own oracle fire in `outcome`?
    pub fn detected_by(&self, outcome: &RunOutcome) -> bool {
        outcome
            .violations
            .iter()
            .any(|v| v.starts_with(self.oracle))
    }
}

/// The README "Testing" lane table, rendered from [`MUTATIONS`] (a unit
/// test pins the committed text to it).
pub fn readme_table() -> String {
    let mut out = String::from(
        "| Lane | Re-introduced bug | Workload | Armed with | Oracle that must fire |\n\
         |---|---|---|---|---|\n",
    );
    for l in &MUTATIONS {
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} | `{}` |\n",
            l.name,
            l.bug,
            l.workload.name(),
            l.arm.flags(),
            l.oracle
        ));
    }
    out
}

#[cfg(feature = "selftest-mutations")]
pub use hunting::*;

#[cfg(feature = "selftest-mutations")]
mod hunting {
    use super::Lane;
    use crate::{run_once, CheckConfig, RunOutcome, StrategyKind};

    /// Keeps a lane's mutation active; dropping it restores the shipped
    /// behaviour. The selector is process-global: one at a time.
    pub struct Active(());

    impl Drop for Active {
        fn drop(&mut self) {
            ale_htm::inject::set_mutation(None);
        }
    }

    /// How a [`Lane::hunt`] ended.
    #[derive(Debug)]
    pub struct Hunt {
        /// Schedules run, up to and including a detecting one.
        pub schedules: u64,
        /// The first schedule on which the lane's own oracle fired; `None`
        /// = the mutation escaped the budget.
        pub found: Option<(CheckConfig, RunOutcome)>,
        /// The first violation some *other* check raised along the way: on
        /// an escape, the bug showed, but not to the oracle that claims it.
        pub stray: Option<String>,
    }

    impl Lane {
        /// Switch this lane's bug on until the guard drops.
        pub fn activate(&self) -> Active {
            ale_htm::inject::set_mutation(Some(self.mutation));
            Active(())
        }

        /// Sweep `seeds` × every strategy — a detector that only works
        /// under one scheduler is too fragile to trust — on the lane's
        /// armed workload, until its oracle fires. The caller holds the
        /// [`Active`] guard (and keeps it while minimising).
        pub fn hunt(&self, base: &CheckConfig, seeds: std::ops::Range<u64>) -> Hunt {
            let mut base = base.clone();
            self.arm.apply(&mut base);
            let mut hunt = Hunt {
                schedules: 0,
                found: None,
                stray: None,
            };
            for seed in seeds {
                for strategy in StrategyKind::ALL {
                    let config = base.for_schedule(self.workload, strategy, seed);
                    let outcome = run_once(&config);
                    hunt.schedules += 1;
                    if self.detected_by(&outcome) {
                        hunt.found = Some((config, outcome));
                        return hunt;
                    }
                    if hunt.stray.is_none() {
                        hunt.stray = outcome.violations.into_iter().next();
                    }
                }
            }
            hunt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_names_are_unique_and_resolve() {
        for (i, l) in MUTATIONS.iter().enumerate() {
            assert_eq!(Lane::by_name(l.name).map(|f| f.mutation), Some(l.mutation));
            assert!(
                MUTATIONS[..i].iter().all(|p| p.mutation != l.mutation),
                "{} is listed twice",
                l.name
            );
        }
        assert!(Lane::by_name("mut-nonsense").is_none());
    }

    #[test]
    fn readme_lane_table_matches_the_table() {
        assert!(
            include_str!("../../../README.md").contains(&readme_table()),
            "README.md \"Testing\" must carry this table verbatim:\n{}",
            readme_table()
        );
    }

    #[test]
    fn arming_respects_knobs_the_caller_set() {
        let mut cfg = CheckConfig {
            reorder_ns: 90,
            ..CheckConfig::default()
        };
        Arm::Reorder(400).apply(&mut cfg);
        assert_eq!(cfg.reorder_ns, 90);
        Arm::Crash(crash(CrashPoint::MidRecord, 30), Some(TornMode::Flip)).apply(&mut cfg);
        assert_eq!(cfg.crash, Some(crash(CrashPoint::MidRecord, 30)));
        assert_eq!(cfg.torn, Some(TornMode::Flip));
    }
}
