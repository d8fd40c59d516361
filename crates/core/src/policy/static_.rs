//! The static policy (§4.2): fixed X and Y for all critical sections.
//!
//! "The static policy uses fixed values of X and Y for all critical section
//! executions. It makes up to X attempts using HTM (if available). If
//! unsuccessful it then makes up to Y attempts using the SWOpt path (if
//! available). It resorts to acquiring the lock if these attempts are also
//! unsuccessful."
//!
//! Naming matches the paper's figures: `StaticPolicy::new(10, 10)` with
//! both techniques enabled is `Static-All-10:10`; disable SWOpt at the
//! [`AleConfig`](crate::AleConfig) level to get `Static-HL-10`, etc.

use std::any::Any;

use crate::granule::Granule;
use crate::meta::LockMeta;
use crate::policy::{AttemptPlan, ExecRecord, ModeCaps, Policy};

/// Fixed-parameter policy.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    x: u32,
    y: u32,
    grouping: bool,
}

impl StaticPolicy {
    /// Up to `x` HTM attempts, then up to `y` SWOpt attempts, then Lock.
    pub fn new(x: u32, y: u32) -> Self {
        StaticPolicy {
            x,
            y,
            grouping: false,
        }
    }

    /// Enable the grouping mechanism under this static policy (off by
    /// default; the paper describes grouping as part of the adaptive
    /// policy, but the ablation harness wants it separable).
    pub fn with_grouping(mut self) -> Self {
        self.grouping = true;
        self
    }

    pub fn x(&self) -> u32 {
        self.x
    }

    pub fn y(&self) -> u32 {
        self.y
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> String {
        format!("Static-{}:{}", self.x, self.y)
    }

    fn make_lock_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(())
    }

    fn make_granule_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(())
    }

    fn plan(&self, _meta: &LockMeta, _granule: &Granule, caps: ModeCaps) -> AttemptPlan {
        AttemptPlan {
            htm_attempts: if caps.htm { self.x } else { 0 },
            swopt_attempts: if caps.swopt { self.y } else { 0 },
            use_grouping: self.grouping,
            measure: false,
        }
    }

    fn on_complete(&self, _meta: &LockMeta, _granule: &Granule, _rec: &ExecRecord) {}

    /// `plan` is a pure function of `(self, caps)` — no RNG, no ticks, no
    /// mutable state — and its caps-dependence is exactly `clamped`, so
    /// the subset property holds and nothing ever needs invalidating.
    fn plan_cacheable(&self) -> bool {
        true
    }

    fn describe_lock(&self, _meta: &LockMeta) -> String {
        format!("X={} Y={}", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> LockMeta {
        LockMeta::new("test", Box::new(()))
    }

    fn granule(meta: &LockMeta) -> &Granule {
        meta.granules
            .lookup(crate::scope::current_context(), Vec::new, || Box::new(()))
    }

    #[test]
    fn plan_respects_caps() {
        let p = StaticPolicy::new(10, 7);
        let m = meta();
        let g = granule(&m);
        let full = p.plan(
            &m,
            g,
            ModeCaps {
                htm: true,
                swopt: true,
            },
        );
        assert_eq!((full.htm_attempts, full.swopt_attempts), (10, 7));
        assert!(!full.measure);
        let none = p.plan(
            &m,
            g,
            ModeCaps {
                htm: false,
                swopt: false,
            },
        );
        assert_eq!((none.htm_attempts, none.swopt_attempts), (0, 0));
    }

    #[test]
    fn name_and_describe() {
        let p = StaticPolicy::new(2, 3);
        assert_eq!(p.name(), "Static-2:3");
        assert_eq!(p.describe_lock(&meta()), "X=2 Y=3");
        assert!(
            !p.plan(
                &meta(),
                granule(&meta()),
                ModeCaps {
                    htm: true,
                    swopt: true
                },
            )
            .use_grouping
        );
        assert!(
            StaticPolicy::new(1, 1)
                .with_grouping()
                .plan(
                    &meta(),
                    granule(&meta()),
                    ModeCaps {
                        htm: true,
                        swopt: true
                    },
                )
                .use_grouping
        );
    }
}
