//! The adaptive policy (§4.2): learns mode progressions and retry
//! parameters per granule from the library's statistics.
//!
//! Per lock, the policy walks through one **learning phase** per available
//! mode progression — `Lock`, `SWOpt+Lock`, `HTM+Lock`, `HTM+SWOpt+Lock` —
//! measuring each granule's average execution time. Phases transition when
//! *some* context completes a configured number of executions (not all:
//! rarely-used contexts must not stall learning).
//!
//! Progressions that include HTM comprise three **sub-phases** that learn
//! the X parameter (HTM attempt budget) per granule:
//!
//! 1. start with a large X and record the maximum attempts any successful
//!    execution needed; X₁ = max-seen + a small constant;
//! 2. run with X₁; build a histogram of attempts-to-success and count
//!    HTM give-ups, plus attempt-level timing; then estimate the expected
//!    execution time for every candidate X ≤ X₁ — interpolating the
//!    fallback (non-HTM) time linearly between a measured lower bound
//!    (time after failing X₁ attempts) and upper bound (the best non-HTM
//!    phase average) — and pick the minimiser;
//! 3. measure actual performance with the chosen X.
//!
//! After all progression phases a **custom phase** runs each granule with
//! its own best progression; the per-granule choices are kept only if the
//! lock-wide average beats every uniform progression, "because the
//! per-granule mode progression choices … are based on measurements taken
//! when all granules used the same mode progression."
//!
//! Y (the SWOpt budget) stays large throughout: with the grouping
//! mechanism, SWOpt "always succeeds with much fewer than Y attempts", and
//! the large value is only a livelock backstop.

use std::any::Any;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ale_sync::TickMutex;

use crate::granule::Granule;
use crate::meta::LockMeta;
use crate::mode::{ExecMode, Progression};
use crate::policy::{AttemptPlan, ExecRecord, ModeCaps, Policy};

/// Hard ceiling on X (histogram size).
pub const X_MAX: u32 = 32;

/// Tuning knobs; defaults follow the narrative in §4.2 and are deliberately
/// platform-independent (that is the point of the adaptive policy).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Executions (by some granule) per non-HTM learning phase.
    pub phase_len: u64,
    /// Lengths of the three X-learning sub-phases.
    pub sub_lens: [u64; 3],
    /// Length of the custom measurement phase.
    pub custom_len: u64,
    /// The "large value" Y is set to (livelock backstop).
    pub y: u32,
    /// X used during sub-phase 1 ("start with X set to a large number").
    pub initial_x: u32,
    /// The "small constant" added to the observed maximum in sub-phase 1.
    pub x_slack: u32,
    /// Re-learning interval: after convergence, restart learning once some
    /// granule completes this many further executions. `None` (the paper's
    /// behaviour) learns once and stays. This implements the paper's
    /// stated future work — "adapt to workloads that change over time"
    /// (§6) — by periodically re-running the learning phases.
    pub relearn_after: Option<u64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            phase_len: 600,
            sub_lens: [250, 400, 250],
            custom_len: 600,
            y: 64,
            initial_x: X_MAX,
            x_slack: 2,
            relearn_after: None,
        }
    }
}

/// Where a lock is in its learning lifecycle. Packed into one atomic word
/// so the per-execution `plan` never takes a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Warmup while capabilities are being discovered (runs Lock-only;
    /// doubles as the LockOnly learning phase).
    Learn { prog: Progression, sub: u8 },
    /// Custom measurement phase: each granule runs its own best choice.
    Custom,
    /// Finalised: per-granule custom choices.
    FinalCustom,
    /// Finalised: one uniform progression for every granule.
    FinalUniform(Progression),
}

fn pack_stage(s: Stage) -> u64 {
    match s {
        Stage::Learn { prog, sub } => (prog.index() as u64) << 2 | (sub as u64) << 6,
        Stage::Custom => 1,
        Stage::FinalCustom => 2,
        Stage::FinalUniform(p) => 3 | (p.index() as u64) << 2,
    }
}

fn unpack_stage(w: u64) -> Stage {
    let prog = Progression::ALL_PROGRESSIONS[((w >> 2) & 0xF) as usize];
    match w & 0b11 {
        0 => Stage::Learn {
            prog,
            sub: ((w >> 6) & 0b11) as u8,
        },
        1 => Stage::Custom,
        2 => Stage::FinalCustom,
        _ => Stage::FinalUniform(prog),
    }
}

/// Per-lock adaptive state.
struct AdaptiveLock {
    stage: AtomicU64,
    /// Union of capabilities observed during the first (LockOnly) phase.
    seen_htm: AtomicU32,
    seen_swopt: AtomicU32,
    inner: TickMutex<LockLearn>,
}

#[derive(Default)]
struct LockLearn {
    /// Progressions left to learn after the current one, in paper order.
    remaining: Vec<Progression>,
    /// Lock-wide average execution time per finished progression phase.
    lock_avg: Vec<(Progression, f64)>,
    /// Lock-wide average of the custom phase.
    custom_avg: Option<f64>,
    /// Guards against double transitions.
    epoch: u64,
}

/// Per-granule adaptive state.
struct AdaptiveGranule {
    /// Executions completed in the current (sub-)phase.
    phase_execs: AtomicU64,
    /// Whole-execution time accumulated this (sub-)phase.
    sum_ns: AtomicU64,
    cnt: AtomicU64,
    /// Sub-phase 1: maximum attempts a successful HTM execution needed.
    max_attempts_seen: AtomicU32,
    /// Sub-phase 2: histogram of attempts-to-success (index = attempts).
    hist: Vec<AtomicU64>,
    /// Sub-phase 2: executions that exhausted the HTM budget.
    htm_give_ups: AtomicU64,
    /// Sub-phase 2: total ns across failed HTM attempts / their count.
    fail_ns: AtomicU64,
    fail_attempts: AtomicU64,
    /// Sub-phase 2: successful-attempt time (exec minus failed attempts).
    succ_ns: AtomicU64,
    succ_cnt: AtomicU64,
    /// Sub-phase 2: measured time after giving up on HTM (lower bound).
    fallback_ns: AtomicU64,
    fallback_cnt: AtomicU64,
    /// X to use in the current phase (hot; read by `plan`).
    phase_x: AtomicU32,
    /// Learned results per progression index.
    learned_avg_bits: [AtomicU64; 4], // f64 bits; MAX = "no data"
    learned_x: [AtomicU32; 4],
    /// This granule's choice for the custom/final-custom stages.
    custom_prog: AtomicU32,
}

impl AdaptiveGranule {
    fn new(initial_x: u32) -> Self {
        AdaptiveGranule {
            phase_execs: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            cnt: AtomicU64::new(0),
            max_attempts_seen: AtomicU32::new(0),
            hist: (0..=X_MAX as usize).map(|_| AtomicU64::new(0)).collect(),
            htm_give_ups: AtomicU64::new(0),
            fail_ns: AtomicU64::new(0),
            fail_attempts: AtomicU64::new(0),
            succ_ns: AtomicU64::new(0),
            succ_cnt: AtomicU64::new(0),
            fallback_ns: AtomicU64::new(0),
            fallback_cnt: AtomicU64::new(0),
            phase_x: AtomicU32::new(initial_x),
            learned_avg_bits: Default::default(),
            learned_x: Default::default(),
            custom_prog: AtomicU32::new(Progression::LockOnly.index() as u32),
        }
    }

    fn reset_phase(&self, initial_x_for_phase: u32) {
        self.phase_execs.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.cnt.store(0, Ordering::Relaxed);
        self.max_attempts_seen.store(0, Ordering::Relaxed);
        for h in &self.hist {
            h.store(0, Ordering::Relaxed);
        }
        self.htm_give_ups.store(0, Ordering::Relaxed);
        self.fail_ns.store(0, Ordering::Relaxed);
        self.fail_attempts.store(0, Ordering::Relaxed);
        self.succ_ns.store(0, Ordering::Relaxed);
        self.succ_cnt.store(0, Ordering::Relaxed);
        self.fallback_ns.store(0, Ordering::Relaxed);
        self.fallback_cnt.store(0, Ordering::Relaxed);
        self.phase_x.store(initial_x_for_phase, Ordering::Relaxed);
    }

    fn phase_avg(&self) -> Option<f64> {
        let c = self.cnt.load(Ordering::Relaxed);
        if c == 0 {
            return None;
        }
        Some(self.sum_ns.load(Ordering::Relaxed) as f64 / c as f64)
    }

    fn learned_avg(&self, p: Progression) -> Option<f64> {
        let bits = self.learned_avg_bits[p.index()].load(Ordering::Relaxed);
        if bits == 0 {
            None
        } else {
            Some(f64::from_bits(bits))
        }
    }

    fn set_learned(&self, p: Progression, avg: f64, x: u32) {
        self.learned_avg_bits[p.index()].store(avg.to_bits(), Ordering::Relaxed);
        self.learned_x[p.index()].store(x, Ordering::Relaxed);
    }

    /// The granule's best progression by learned average (ties to the
    /// simpler progression); defaults to LockOnly with no data.
    fn best_progression(&self) -> Progression {
        let mut best = Progression::LockOnly;
        let mut best_avg = f64::INFINITY;
        for p in Progression::ALL_PROGRESSIONS {
            if let Some(a) = self.learned_avg(p) {
                if a < best_avg {
                    best_avg = a;
                    best = p;
                }
            }
        }
        best
    }
}

/// Snapshot of what the adaptive policy has learned for one granule
/// (diagnostics; §3.4: the reports "have been invaluable in understanding
/// and improving behavior of adaptive policies").
#[derive(Debug, Clone)]
pub struct GranuleLearning {
    /// Context description (scope labels).
    pub context: String,
    /// Measured average execution time per progression (ns), where a
    /// learning phase has completed.
    pub avg_ns: [Option<f64>; 4],
    /// Learned X per progression.
    pub x: [u32; 4],
    /// The granule's current choice (custom/final stages).
    pub chosen: Progression,
    /// Attempts-to-success histogram from the most recent sub-phase 2
    /// (index = attempts; 0 unused).
    pub histogram: Vec<u64>,
}

/// Snapshot of a lock's learning state (see [`AdaptivePolicy::learning_report`]).
#[derive(Debug, Clone)]
pub struct LearningReport {
    /// Human description of the stage ("learning HL (sub-phase 2)", …).
    pub stage: String,
    /// Lock-wide average execution time per completed progression phase.
    pub lock_avg: Vec<(Progression, f64)>,
    /// Lock-wide average of the custom phase, if measured.
    pub custom_avg: Option<f64>,
    pub granules: Vec<GranuleLearning>,
}

impl std::fmt::Display for LearningReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "stage: {}", self.stage)?;
        for (p, avg) in &self.lock_avg {
            writeln!(f, "  phase {p}: lock-wide avg {avg:.0} ns")?;
        }
        if let Some(c) = self.custom_avg {
            writeln!(f, "  custom phase: lock-wide avg {c:.0} ns")?;
        }
        for g in &self.granules {
            writeln!(
                f,
                "  granule {}: chose {} (X={})",
                g.context,
                g.chosen,
                g.x[g.chosen.index()]
            )?;
            for p in Progression::ALL_PROGRESSIONS {
                if let Some(a) = g.avg_ns[p.index()] {
                    writeln!(f, "    {p}: avg {a:.0} ns (X={})", g.x[p.index()])?;
                }
            }
        }
        Ok(())
    }
}

/// The adaptive policy.
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptivePolicy {
    pub fn new() -> Self {
        AdaptivePolicy {
            cfg: AdaptiveConfig::default(),
        }
    }

    pub fn with_config(cfg: AdaptiveConfig) -> Self {
        AdaptivePolicy { cfg }
    }

    /// Restart learning every `executions` completions after convergence
    /// (the §6 future-work behaviour: adapt to changing workloads).
    pub fn with_relearning(mut self, executions: u64) -> Self {
        self.cfg.relearn_after = Some(executions);
        self
    }

    /// Diagnostics: what has been learned for `meta` so far. Panics if the
    /// lock was registered under a different policy.
    pub fn learning_report(&self, meta: &LockMeta) -> LearningReport {
        let state = self.lock_state(meta);
        let inner = state.inner.lock();
        let granules = meta
            .granules
            .all()
            .iter()
            .map(|g| {
                let ag = self.granule_state(g);
                let chosen =
                    Progression::ALL_PROGRESSIONS[ag.custom_prog.load(Ordering::Relaxed) as usize];
                GranuleLearning {
                    context: g.describe(),
                    avg_ns: std::array::from_fn(|i| {
                        ag.learned_avg(Progression::ALL_PROGRESSIONS[i])
                    }),
                    x: std::array::from_fn(|i| ag.learned_x[i].load(Ordering::Relaxed)),
                    chosen,
                    histogram: ag.hist.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
                }
            })
            .collect();
        LearningReport {
            stage: self.describe_lock(meta),
            lock_avg: inner.lock_avg.clone(),
            custom_avg: inner.custom_avg,
            granules,
        }
    }

    fn lock_state<'a>(&self, meta: &'a LockMeta) -> &'a AdaptiveLock {
        meta.policy_state
            .downcast_ref::<AdaptiveLock>()
            .expect("lock registered under a different policy")
    }

    fn granule_state<'a>(&self, granule: &'a Granule) -> &'a AdaptiveGranule {
        granule
            .policy_state
            .downcast_ref::<AdaptiveGranule>()
            .expect("granule created under a different policy")
    }

    fn stage_target(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Learn { prog, sub } if prog.uses_htm() => self.cfg.sub_lens[sub as usize],
            Stage::Learn { .. } => self.cfg.phase_len,
            Stage::Custom => self.cfg.custom_len,
            Stage::FinalCustom | Stage::FinalUniform(_) => {
                self.cfg.relearn_after.unwrap_or(u64::MAX)
            }
        }
    }

    /// §4.2's expected-execution-time model: choose X minimising the
    /// estimate built from the sub-phase-2 histogram and timing.
    fn choose_x(&self, g: &AdaptiveGranule, x1: u32, upper: f64) -> u32 {
        let succ_cnt = g.succ_cnt.load(Ordering::Relaxed);
        let give_ups = g.htm_give_ups.load(Ordering::Relaxed);
        let total = succ_cnt + give_ups;
        if total == 0 {
            return x1.max(1);
        }
        let t_fail = {
            let a = g.fail_attempts.load(Ordering::Relaxed);
            if a == 0 {
                0.0
            } else {
                g.fail_ns.load(Ordering::Relaxed) as f64 / a as f64
            }
        };
        let t_succ = if succ_cnt == 0 {
            upper
        } else {
            g.succ_ns.load(Ordering::Relaxed) as f64 / succ_cnt as f64
        };
        let lower = {
            let c = g.fallback_cnt.load(Ordering::Relaxed);
            if c == 0 {
                upper
            } else {
                g.fallback_ns.load(Ordering::Relaxed) as f64 / c as f64
            }
        };
        let hist: Vec<u64> = g.hist.iter().map(|h| h.load(Ordering::Relaxed)).collect();

        let mut best_x = 1;
        let mut best_est = f64::INFINITY;
        for x in 1..=x1.max(1) {
            // Successes within x attempts, at their empirical frequencies.
            let mut est = 0.0;
            let mut succ_within = 0u64;
            for (k, &n) in hist.iter().enumerate().take(x as usize + 1).skip(1) {
                est += n as f64 * ((k as f64 - 1.0) * t_fail + t_succ);
                succ_within += n;
            }
            // Everything else burns x failed attempts then falls back; the
            // fallback time interpolates linearly between the measured
            // bounds as x shrinks from x1 to 0.
            let fail_frac_time = lower + (upper - lower) * (x1 - x) as f64 / x1.max(1) as f64;
            let failures = total - succ_within.min(total);
            est += failures as f64 * (x as f64 * t_fail + fail_frac_time);
            est /= total as f64;
            if est < best_est {
                best_est = est;
                best_x = x;
            }
        }
        best_x
    }

    /// Try to advance the lock's learning state machine. Called when a
    /// granule hits the current stage's execution target.
    fn try_transition(&self, meta: &LockMeta, expected_stage_word: u64) {
        let state = self.lock_state(meta);
        let mut inner = state.inner.lock();
        if state.stage.load(Ordering::Acquire) != expected_stage_word {
            return; // someone else already transitioned
        }
        let stage = unpack_stage(expected_stage_word);
        let granules = meta.granules.all();

        // Helper: lock-wide weighted average of the current phase.
        let lock_wide_avg = |granules: &[std::sync::Arc<Granule>]| -> Option<f64> {
            let (mut s, mut c) = (0u128, 0u64);
            for g in granules {
                let ag = self.granule_state(g);
                s += ag.sum_ns.load(Ordering::Relaxed) as u128;
                c += ag.cnt.load(Ordering::Relaxed);
            }
            (c > 0).then(|| s as f64 / c as f64)
        };

        let next_stage = match stage {
            Stage::Learn { prog, sub } => {
                if prog.uses_htm() && sub == 0 {
                    // sub1 -> sub2: X₁ = max seen + slack, per granule.
                    for g in &granules {
                        let ag = self.granule_state(g);
                        let seen = ag.max_attempts_seen.load(Ordering::Relaxed);
                        let x1 = (seen + self.cfg.x_slack).clamp(1, X_MAX);
                        ag.reset_phase(x1);
                    }
                    Stage::Learn { prog, sub: 1 }
                } else if prog.uses_htm() && sub == 1 {
                    // sub2 -> sub3: pick X per granule via the cost model.
                    for g in &granules {
                        let ag = self.granule_state(g);
                        let x1 = ag.phase_x.load(Ordering::Relaxed);
                        let upper = self.upper_bound_ns(ag);
                        let x = self.choose_x(ag, x1, upper);
                        ag.reset_phase(x);
                    }
                    Stage::Learn { prog, sub: 2 }
                } else {
                    // A measurement (sub)phase finished: record results.
                    for g in &granules {
                        let ag = self.granule_state(g);
                        if let Some(avg) = ag.phase_avg() {
                            let x = ag.phase_x.load(Ordering::Relaxed);
                            ag.set_learned(prog, avg, x);
                        }
                    }
                    if let Some(avg) = lock_wide_avg(&granules) {
                        inner.lock_avg.push((prog, avg));
                    }
                    // First phase over: fix the remaining progression list
                    // from the capabilities seen so far.
                    if prog == Progression::LockOnly {
                        let htm = state.seen_htm.load(Ordering::Relaxed) != 0;
                        let swopt = state.seen_swopt.load(Ordering::Relaxed) != 0;
                        inner.remaining = Progression::available(htm, swopt)
                            .into_iter()
                            .filter(|&p| p != Progression::LockOnly)
                            .collect();
                    }
                    match inner.remaining.first().copied() {
                        Some(next) => {
                            inner.remaining.remove(0);
                            for g in &granules {
                                self.granule_state(g).reset_phase(self.cfg.initial_x);
                            }
                            Stage::Learn { prog: next, sub: 0 }
                        }
                        None => {
                            // All progressions learned: enter the custom
                            // phase with per-granule best choices.
                            let mut distinct = std::collections::HashSet::new();
                            for g in &granules {
                                let ag = self.granule_state(g);
                                let best = ag.best_progression();
                                ag.custom_prog.store(best.index() as u32, Ordering::Relaxed);
                                distinct.insert(best);
                                ag.reset_phase(ag.learned_x[best.index()].load(Ordering::Relaxed));
                            }
                            if distinct.len() <= 1 {
                                // Uniform anyway: finalise immediately.
                                self.finalise(&mut inner, &granules, None)
                            } else {
                                Stage::Custom
                            }
                        }
                    }
                }
            }
            Stage::Custom => {
                let custom = lock_wide_avg(&granules);
                inner.custom_avg = custom;
                self.finalise(&mut inner, &granules, custom)
            }
            s @ (Stage::FinalCustom | Stage::FinalUniform(_)) => s,
        };

        inner.epoch += 1;
        state.stage.store(pack_stage(next_stage), Ordering::Release);
        // The stage (and the per-granule phase_x/custom_prog written above)
        // feed `plan`, so every cached plan word is now stale. The sweep is
        // tick-free and must follow the stage store: a plan published from
        // pre-transition state lands before the sweep (cleared by it) or
        // races it and loses via the epoch check.
        meta.granules.invalidate_plans();
        if ale_trace::is_enabled() {
            ale_trace::emit(ale_trace::TraceEvent::phase_transition(
                ale_trace::label_id(meta.label()),
                expected_stage_word,
                pack_stage(next_stage),
            ));
        }
    }

    /// Upper bound for the §4.2 interpolation: the best measured non-HTM
    /// phase average for this granule (Lock or SWOpt+Lock), as the paper
    /// specifies.
    fn upper_bound_ns(&self, ag: &AdaptiveGranule) -> f64 {
        let lock = ag.learned_avg(Progression::LockOnly);
        let sl = ag.learned_avg(Progression::SwOptLock);
        match (lock, sl) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 10_000.0, // no data yet: a loose default
        }
    }

    /// Decide the final configuration: per-granule custom choices iff the
    /// measured custom average beats every uniform progression.
    fn finalise(
        &self,
        inner: &mut LockLearn,
        granules: &[std::sync::Arc<Granule>],
        custom_avg: Option<f64>,
    ) -> Stage {
        let best_uniform = inner
            .lock_avg
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(p, a)| (p, a));
        match (custom_avg, best_uniform) {
            (Some(c), Some((_, u))) if c < u => Stage::FinalCustom,
            (_, Some((p, _))) => {
                // Uniform: every granule runs `p` with its learned X.
                for g in granules {
                    let ag = self.granule_state(g);
                    ag.custom_prog.store(p.index() as u32, Ordering::Relaxed);
                }
                Stage::FinalUniform(p)
            }
            (Some(_), None) => Stage::FinalCustom,
            (None, None) => Stage::FinalUniform(Progression::LockOnly),
        }
    }
}

impl Policy for AdaptivePolicy {
    fn name(&self) -> String {
        "Adaptive".to_string()
    }

    fn make_lock_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(AdaptiveLock {
            stage: AtomicU64::new(pack_stage(Stage::Learn {
                prog: Progression::LockOnly,
                sub: 0,
            })),
            seen_htm: AtomicU32::new(0),
            seen_swopt: AtomicU32::new(0),
            inner: TickMutex::new(LockLearn::default()),
        })
    }

    fn make_granule_state(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(AdaptiveGranule::new(self.cfg.initial_x))
    }

    fn plan(&self, meta: &LockMeta, granule: &Granule, caps: ModeCaps) -> AttemptPlan {
        let state = self.lock_state(meta);
        // Capability discovery (used when the LockOnly phase ends).
        if caps.htm {
            state.seen_htm.store(1, Ordering::Relaxed);
        }
        if caps.swopt {
            state.seen_swopt.store(1, Ordering::Relaxed);
        }
        let ag = self.granule_state(granule);
        let stage = unpack_stage(state.stage.load(Ordering::Acquire));
        let (prog, x, measure) = match stage {
            Stage::Learn { prog, .. } => (prog, ag.phase_x.load(Ordering::Relaxed), true),
            Stage::Custom | Stage::FinalCustom => {
                let p =
                    Progression::ALL_PROGRESSIONS[ag.custom_prog.load(Ordering::Relaxed) as usize];
                (
                    p,
                    ag.learned_x[p.index()].load(Ordering::Relaxed),
                    stage == Stage::Custom,
                )
            }
            Stage::FinalUniform(p) => (p, ag.learned_x[p.index()].load(Ordering::Relaxed), false),
        };
        AttemptPlan {
            htm_attempts: if prog.uses_htm() { x.max(1) } else { 0 },
            swopt_attempts: if prog.uses_swopt() { self.cfg.y } else { 0 },
            use_grouping: prog.uses_swopt(),
            measure,
        }
    }

    fn on_complete(&self, meta: &LockMeta, granule: &Granule, rec: &ExecRecord) {
        if rec.breaker_tripped {
            // The circuit breaker forced this execution to skip HTM; its
            // timings say nothing about the modes under comparison and
            // would poison the learned X values.
            return;
        }
        let state = self.lock_state(meta);
        let stage_word = state.stage.load(Ordering::Acquire);
        let stage = unpack_stage(stage_word);
        if matches!(stage, Stage::FinalCustom | Stage::FinalUniform(_)) {
            // Converged. With re-learning enabled, keep counting and
            // restart from scratch once the interval elapses (§6).
            if self.cfg.relearn_after.is_some() {
                let ag = self.granule_state(granule);
                let execs = ag.phase_execs.fetch_add(1, Ordering::AcqRel) + 1;
                if execs >= self.stage_target(stage)
                    && state.stage.load(Ordering::Acquire) == stage_word
                {
                    self.reset(meta);
                }
            }
            return;
        }
        let ag = self.granule_state(granule);

        if let Some(ns) = rec.exec_ns {
            ag.sum_ns.fetch_add(ns, Ordering::Relaxed);
            ag.cnt.fetch_add(1, Ordering::Relaxed);
            if rec.mode == Some(ExecMode::Htm) {
                let succ_attempt = ns.saturating_sub(rec.htm_fail_ns);
                ag.succ_ns.fetch_add(succ_attempt, Ordering::Relaxed);
                ag.succ_cnt.fetch_add(1, Ordering::Relaxed);
            }
        }
        if rec.htm_attempts > 0 {
            if rec.mode == Some(ExecMode::Htm) {
                ag.max_attempts_seen
                    .fetch_max(rec.htm_attempts, Ordering::Relaxed);
                let k = rec.htm_attempts.min(X_MAX) as usize;
                ag.hist[k].fetch_add(1, Ordering::Relaxed);
                let fails = rec.htm_attempts - 1;
                if fails > 0 {
                    ag.fail_ns.fetch_add(rec.htm_fail_ns, Ordering::Relaxed);
                    ag.fail_attempts.fetch_add(fails as u64, Ordering::Relaxed);
                }
            } else if rec.htm_gave_up {
                ag.htm_give_ups.fetch_add(1, Ordering::Relaxed);
                ag.fail_ns.fetch_add(rec.htm_fail_ns, Ordering::Relaxed);
                ag.fail_attempts
                    .fetch_add(rec.htm_attempts as u64, Ordering::Relaxed);
                if let Some(fb) = rec.fallback_ns {
                    ag.fallback_ns.fetch_add(fb, Ordering::Relaxed);
                    ag.fallback_cnt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let execs = ag.phase_execs.fetch_add(1, Ordering::AcqRel) + 1;
        if execs >= self.stage_target(stage) {
            self.try_transition(meta, stage_word);
        }
    }

    fn reset(&self, meta: &LockMeta) {
        let state = self.lock_state(meta);
        let from_word = state.stage.load(Ordering::Acquire);
        let mut inner = state.inner.lock();
        inner.remaining.clear();
        inner.lock_avg.clear();
        inner.custom_avg = None;
        inner.epoch += 1;
        state.seen_htm.store(0, Ordering::Relaxed);
        state.seen_swopt.store(0, Ordering::Relaxed);
        for g in meta.granules.all() {
            let ag = self.granule_state(&g);
            ag.reset_phase(self.cfg.initial_x);
            for (bits, x) in ag.learned_avg_bits.iter().zip(ag.learned_x.iter()) {
                bits.store(0, Ordering::Relaxed);
                x.store(0, Ordering::Relaxed);
            }
            ag.custom_prog
                .store(Progression::LockOnly.index() as u32, Ordering::Relaxed);
        }
        let fresh = Stage::Learn {
            prog: Progression::LockOnly,
            sub: 0,
        };
        state.stage.store(pack_stage(fresh), Ordering::Release);
        meta.granules.invalidate_plans();
        if ale_trace::is_enabled() {
            ale_trace::emit(ale_trace::TraceEvent::phase_transition(
                ale_trace::label_id(meta.label()),
                from_word,
                pack_stage(fresh),
            ));
        }
    }

    /// `plan` reads only atomics (stage word, `phase_x`, `custom_prog`,
    /// `learned_x`) with no RNG draws or ticks, ignores `caps` for its
    /// *output* (clamping is the driver's job, so the subset property holds
    /// trivially), and every writer of those atomics —
    /// [`try_transition`](Self::try_transition) and [`reset`](Policy::reset)
    /// — sweeps the lock's plan words. The sticky `seen_htm`/`seen_swopt`
    /// capability marks are the one side effect; the per-capability
    /// absorbed bits force a slow-path `plan` call (which records them)
    /// the first time each capability shows up.
    fn plan_cacheable(&self) -> bool {
        true
    }

    fn describe_lock(&self, meta: &LockMeta) -> String {
        let state = self.lock_state(meta);
        match unpack_stage(state.stage.load(Ordering::Acquire)) {
            Stage::Learn { prog, sub } => format!("learning {prog} (sub-phase {})", sub + 1),
            Stage::Custom => "measuring custom per-granule choices".to_string(),
            Stage::FinalCustom => "final: custom per-granule progressions".to_string(),
            Stage::FinalUniform(p) => format!("final: uniform {p}"),
        }
    }

    fn describe_granule(&self, _meta: &LockMeta, granule: &Granule) -> String {
        let ag = self.granule_state(granule);
        let p = Progression::ALL_PROGRESSIONS[ag.custom_prog.load(Ordering::Relaxed) as usize];
        let x = ag.learned_x[p.index()].load(Ordering::Relaxed);
        if p.uses_htm() {
            format!("{p} X={x}")
        } else {
            format!("{p}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_packing_roundtrips() {
        for s in [
            Stage::Learn {
                prog: Progression::LockOnly,
                sub: 0,
            },
            Stage::Learn {
                prog: Progression::HtmLock,
                sub: 2,
            },
            Stage::Learn {
                prog: Progression::All,
                sub: 1,
            },
            Stage::Custom,
            Stage::FinalCustom,
            Stage::FinalUniform(Progression::SwOptLock),
            Stage::FinalUniform(Progression::All),
        ] {
            assert_eq!(unpack_stage(pack_stage(s)), s, "{s:?}");
        }
    }

    #[test]
    fn choose_x_prefers_one_attempt_when_htm_always_wins_first_try() {
        let p = AdaptivePolicy::new();
        let g = AdaptiveGranule::new(X_MAX);
        // 100 successes, all on the first attempt; cheap successes.
        g.hist[1].store(100, Ordering::Relaxed);
        g.succ_cnt.store(100, Ordering::Relaxed);
        g.succ_ns.store(100 * 500, Ordering::Relaxed);
        let x = p.choose_x(&g, 10, 5_000.0);
        assert_eq!(x, 1, "no failures ever → one attempt suffices");
    }

    #[test]
    fn choose_x_extends_budget_when_retries_pay_off() {
        let p = AdaptivePolicy::new();
        let g = AdaptiveGranule::new(X_MAX);
        // Successes spread over 1..=4 attempts; fallback is very expensive.
        for (k, n) in [(1, 40u64), (2, 30), (3, 20), (4, 10)] {
            g.hist[k].store(n, Ordering::Relaxed);
        }
        g.succ_cnt.store(100, Ordering::Relaxed);
        g.succ_ns.store(100 * 500, Ordering::Relaxed);
        g.fail_ns.store(90 * 300, Ordering::Relaxed);
        g.fail_attempts.store(90, Ordering::Relaxed);
        g.fallback_ns.store(10 * 50_000, Ordering::Relaxed);
        g.fallback_cnt.store(10, Ordering::Relaxed);
        g.htm_give_ups.store(10, Ordering::Relaxed);
        let x = p.choose_x(&g, 8, 50_000.0);
        assert!(x >= 4, "expensive fallback must buy more attempts, got {x}");
    }

    #[test]
    fn choose_x_shrinks_budget_when_fallback_is_cheap() {
        let p = AdaptivePolicy::new();
        let g = AdaptiveGranule::new(X_MAX);
        // Nearly everything fails; the lock path is fast.
        g.hist[1].store(2, Ordering::Relaxed);
        g.succ_cnt.store(2, Ordering::Relaxed);
        g.succ_ns.store(2 * 400, Ordering::Relaxed);
        g.htm_give_ups.store(98, Ordering::Relaxed);
        g.fail_ns.store((98 * 8) * 600, Ordering::Relaxed);
        g.fail_attempts.store(98 * 8, Ordering::Relaxed);
        g.fallback_ns.store(98 * 800, Ordering::Relaxed);
        g.fallback_cnt.store(98, Ordering::Relaxed);
        let x = p.choose_x(&g, 8, 900.0);
        assert_eq!(
            x, 1,
            "hopeless HTM with a cheap fallback → minimal budget, got {x}"
        );
    }

    #[test]
    fn best_progression_picks_minimum() {
        let g = AdaptiveGranule::new(X_MAX);
        assert_eq!(
            g.best_progression(),
            Progression::LockOnly,
            "no data defaults"
        );
        g.set_learned(Progression::LockOnly, 1000.0, 0);
        g.set_learned(Progression::SwOptLock, 400.0, 0);
        g.set_learned(Progression::HtmLock, 600.0, 3);
        assert_eq!(g.best_progression(), Progression::SwOptLock);
        g.set_learned(Progression::All, 300.0, 2);
        assert_eq!(g.best_progression(), Progression::All);
    }

    #[test]
    fn upper_bound_prefers_best_non_htm_phase() {
        let p = AdaptivePolicy::new();
        let g = AdaptiveGranule::new(X_MAX);
        assert_eq!(p.upper_bound_ns(&g), 10_000.0, "loose default with no data");
        g.set_learned(Progression::LockOnly, 2_000.0, 0);
        assert_eq!(p.upper_bound_ns(&g), 2_000.0);
        g.set_learned(Progression::SwOptLock, 900.0, 0);
        assert_eq!(p.upper_bound_ns(&g), 900.0);
    }
}
