//! Pluggable policies (§4.2).
//!
//! "The ALE library separates common, policy-independent functionality from
//! a pluggable policy." The driver calls [`Policy::plan`] before each
//! critical-section execution to learn how many attempts to make in each
//! mode, and [`Policy::on_complete`] afterwards with what happened.
//! Per-lock and per-granule policy state is opaque to the library
//! ("their structure may be policy-dependent"): policies allocate it via
//! [`Policy::make_lock_state`] / [`Policy::make_granule_state`] and
//! downcast it back.

use std::any::Any;

use crate::granule::Granule;
use crate::meta::LockMeta;
use crate::mode::ExecMode;

pub mod adaptive;
pub mod static_;

pub use adaptive::{AdaptivePolicy, GranuleLearning, LearningReport};
pub use static_::StaticPolicy;

/// Which techniques are usable for this particular execution (platform
/// support ∧ critical-section options ∧ nesting rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeCaps {
    pub htm: bool,
    pub swopt: bool,
}

/// The policy's instructions for one critical-section execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptPlan {
    /// X: maximum HTM attempts before moving on (0 = skip HTM).
    pub htm_attempts: u32,
    /// Y: maximum SWOpt attempts before taking the lock (0 = skip SWOpt).
    pub swopt_attempts: u32,
    /// Engage the grouping mechanism (defer conflicting executions to
    /// retrying SWOpt paths).
    pub use_grouping: bool,
    /// Measure timing for 100 % of events (learning phases) instead of the
    /// default ~3 % sampling.
    pub measure: bool,
}

impl AttemptPlan {
    /// Lock-only plan (what `plan` returns when nothing else is capable).
    pub fn lock_only() -> Self {
        AttemptPlan {
            htm_attempts: 0,
            swopt_attempts: 0,
            use_grouping: false,
            measure: false,
        }
    }

    /// Clamp the plan to the given capabilities.
    pub fn clamped(mut self, caps: ModeCaps) -> Self {
        if !caps.htm {
            self.htm_attempts = 0;
        }
        if !caps.swopt {
            self.swopt_attempts = 0;
        }
        self
    }
}

/// What actually happened during one critical-section execution.
#[derive(Debug, Clone, Default)]
pub struct ExecRecord {
    /// Mode in which the execution finally succeeded.
    pub mode: Option<ExecMode>,
    /// HTM attempts made (including the successful one, if any).
    pub htm_attempts: u32,
    /// How many of the failed HTM attempts were (estimated to be) caused by
    /// a concurrent lock acquisition — these are budgeted lightly (§4).
    pub lock_held_aborts: u32,
    /// Whether any HTM attempt died of capacity (retrying is futile).
    pub capacity_abort: bool,
    /// SWOpt attempts made (including the successful one, if any).
    pub swopt_attempts: u32,
    /// Whether HTM exhausted its budget and fell back.
    pub htm_gave_up: bool,
    /// Whether the abort-storm circuit breaker denied HTM for this
    /// execution. Such executions are not representative of HTM behaviour
    /// and the adaptive policy ignores them.
    pub breaker_tripped: bool,
    /// Whole-execution duration, when measured.
    pub exec_ns: Option<u64>,
    /// Total time burned in *failed* HTM attempts, when measured.
    pub htm_fail_ns: u64,
    /// Time from abandoning HTM to completion (the adaptive policy's
    /// "time taken after failing the maximum number of HTM attempts"
    /// lower-bound sample), when measured.
    pub fallback_ns: Option<u64>,
}

impl ExecRecord {
    /// A blank record, to be filled in as the execution progresses. The
    /// result must reach [`Policy::on_complete`]; a dropped record means a
    /// whole execution goes unobserved by the adaptive policy.
    #[must_use = "an unrecorded execution is invisible to the policy"]
    pub fn new() -> Self {
        Self::default()
    }

    /// A record for an execution that succeeded immediately in `mode` with
    /// no failed attempts (used by tests and simple fast paths).
    #[must_use = "an unrecorded execution is invisible to the policy"]
    pub fn succeeded_in(mode: ExecMode) -> Self {
        let mut rec = Self {
            mode: Some(mode),
            ..Self::default()
        };
        match mode {
            ExecMode::Htm => rec.htm_attempts = 1,
            ExecMode::SwOpt => rec.swopt_attempts = 1,
            ExecMode::Lock => {}
        }
        rec
    }
}

/// A mode-selection policy. Implementations must be cheap in `plan` — it
/// runs on every critical-section execution.
pub trait Policy: Send + Sync + 'static {
    /// Human-readable name for reports (e.g. `Static-All-10:10`).
    fn name(&self) -> String;

    /// Allocate per-lock policy state.
    fn make_lock_state(&self) -> Box<dyn Any + Send + Sync>;

    /// Allocate per-granule policy state.
    fn make_granule_state(&self) -> Box<dyn Any + Send + Sync>;

    /// Decide the attempt budgets for the next execution.
    fn plan(&self, meta: &LockMeta, granule: &Granule, caps: ModeCaps) -> AttemptPlan;

    /// Observe a completed execution.
    fn on_complete(&self, meta: &LockMeta, granule: &Granule, rec: &ExecRecord);

    /// May the driver cache [`plan`](Policy::plan)'s result in the
    /// granule's packed plan word and skip `plan` on the fast path?
    ///
    /// A policy may opt in only if all three hold:
    ///
    /// 1. `plan` is deterministic in (policy state, granule, caps) — no
    ///    `tick`s, so a skipped call is invisible to the virtual-time
    ///    schedule;
    /// 2. for capability sets `B ⊆ A`:
    ///    `plan(A).clamped(B) == plan(B).clamped(B)` (the cached word
    ///    stores the unclamped plan and clamps per execution);
    /// 3. every state change that can alter `plan`'s result also calls
    ///    [`GranuleTable::invalidate_plans`](crate::granule::GranuleTable::invalidate_plans)
    ///    on the affected lock's granules (capability *side effects* — the
    ///    adaptive policy's sticky seen-caps marks — are instead covered
    ///    by the per-capability absorbed bits in the word itself).
    ///
    /// Defaults to `false`: a policy that never opts in never gets a valid
    /// plan word and runs exactly the pre-cache protocol.
    fn plan_cacheable(&self) -> bool {
        false
    }

    /// Forget all learned state for a lock (restart learning from scratch).
    /// Called by `Ale::reset_statistics`, e.g. after benchmark prefill.
    fn reset(&self, _meta: &LockMeta) {}

    /// Describe the policy's current decisions for a lock (reports).
    fn describe_lock(&self, _meta: &LockMeta) -> String {
        String::new()
    }

    /// Describe the policy's current decisions for a granule (reports).
    fn describe_granule(&self, _meta: &LockMeta, _granule: &Granule) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_clamp_to_caps() {
        let p = AttemptPlan {
            htm_attempts: 5,
            swopt_attempts: 7,
            use_grouping: true,
            measure: false,
        };
        let c = p.clamped(ModeCaps {
            htm: false,
            swopt: true,
        });
        assert_eq!(c.htm_attempts, 0);
        assert_eq!(c.swopt_attempts, 7);
        let c2 = p.clamped(ModeCaps {
            htm: true,
            swopt: false,
        });
        assert_eq!(c2.htm_attempts, 5);
        assert_eq!(c2.swopt_attempts, 0);
        let l = AttemptPlan::lock_only();
        assert_eq!((l.htm_attempts, l.swopt_attempts), (0, 0));
    }
}
