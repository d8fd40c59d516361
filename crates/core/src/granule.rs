//! Granules: per-(lock, context) metadata and statistics (§3.4, §4).
//!
//! "The library associates granule metadata with each ⟨lock, context⟩ pair
//! with which a critical section is executed, which is used to record
//! information and statistics about these executions." Policies read these
//! statistics to choose execution modes; reports render them for humans.
//!
//! The granule table is append-only with a lock-free read path (an array of
//! `AtomicPtr` slots scanned linearly): granule lookup happens on *every*
//! critical-section execution, so it must not serialise threads.

use std::any::Any;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use ale_htm::{mutated, BreakerConfig, Mutation, StormBreaker};
use ale_sync::{CachePadded, SampledTime, StatCounter, TickMutex};
use ale_vtime::{tick, Event};

use crate::mode::ExecMode;
use crate::policy::{AttemptPlan, ModeCaps};
use crate::scope::ContextId;

/// Maximum distinct contexts per lock. Contexts are static program
/// structure (scope stacks), so a small fixed budget is plenty; overflow
/// falls back to the last slot's granule (merging statistics, which is
/// benign and reported).
pub const MAX_GRANULES_PER_LOCK: usize = 64;

/// Statistics the library records per granule (§3.4): execution counts,
/// per-mode attempt/success counts, abort breakdown, and timing.
#[derive(Debug, Default)]
pub struct GranuleStats {
    /// Completed critical-section executions.
    pub executions: StatCounter,
    /// Attempts per mode (HTM / SWOpt / Lock), indexed by `ExecMode::index`.
    pub attempts: [StatCounter; 3],
    /// Successes per mode.
    pub successes: [StatCounter; 3],
    /// HTM aborts attributed to a concurrent lock acquisition — accounted
    /// "in a much lighter way than others" by the retry budget (§4).
    pub lock_held_aborts: StatCounter,
    /// HTM aborts by data conflict.
    pub conflict_aborts: StatCounter,
    /// HTM aborts by capacity overflow.
    pub capacity_aborts: StatCounter,
    /// HTM aborts by micro-architectural noise.
    pub spurious_aborts: StatCounter,
    /// SWOpt attempts that detected interference and retried.
    pub swopt_fails: StatCounter,
    /// Mean successful-execution time per mode (sampled ~3 %, or 100 %
    /// during adaptive learning phases).
    pub success_time: [SampledTime; 3],
    /// Mean whole-execution time (including failed attempts).
    pub exec_time: SampledTime,
}

impl GranuleStats {
    /// Clear all recorded statistics (used with `Ale::reset_statistics`).
    pub fn reset(&self) {
        self.executions.reset();
        for c in self.attempts.iter().chain(self.successes.iter()) {
            c.reset();
        }
        self.lock_held_aborts.reset();
        self.conflict_aborts.reset();
        self.capacity_aborts.reset();
        self.spurious_aborts.reset();
        self.swopt_fails.reset();
        for t in &self.success_time {
            t.reset();
        }
        self.exec_time.reset();
    }

    /// Success ratio for a mode, if any attempts were recorded.
    pub fn success_ratio(&self, mode: ExecMode) -> Option<f64> {
        let a = self.attempts[mode.index()].read();
        if a == 0 {
            return None;
        }
        Some(self.successes[mode.index()].read() as f64 / a as f64)
    }
}

/// One critical-section execution's statistic events, counted in plain
/// `u32` fields on the driver's stack (a register increment: no shared
/// cache line, no tick, no RNG).
#[derive(Debug, Default)]
struct StatDelta {
    executions: u32,
    attempts: [u32; 3],
    successes: [u32; 3],
    lock_held_aborts: u32,
    conflict_aborts: u32,
    capacity_aborts: u32,
    spurious_aborts: u32,
    swopt_fails: u32,
}

/// Where the critical-section driver records statistic events — the one
/// statistics path, under the simulator and on real threads alike.
///
/// Events bump a stack-local delta; dropping the sink (normal exit or
/// unwind) folds each nonzero field into the shared [`GranuleStats`]
/// counter with one [`StatCounter::add_drawn`], all rounding from one
/// [`fold_draw`](ale_sync::fold_draw). The flush is tick- and
/// RNG-free: recording statistics adds no yield point and draws nothing
/// from the lane's stream (DESIGN.md §14). `run_cs` keeps the sink where
/// it was built and lets it drop there: moving it would copy the delta
/// with wide loads over the narrow stores that had just written it, a
/// store-forwarding stall.
#[derive(Debug)]
pub struct StatSink<'a> {
    stats: &'a GranuleStats,
    delta: StatDelta,
}

impl<'a> StatSink<'a> {
    /// Does nothing: there is one statistics path now.
    /// `benchmark/src/cells.rs:219,229` still calls it; the follow-up
    /// `[benchmark]` PR of ROADMAP item 3(a) deletes both calls and this fn.
    #[doc(hidden)]
    pub fn force_batched(_on: bool) {}

    #[inline]
    pub fn new(stats: &'a GranuleStats) -> Self {
        StatSink {
            stats,
            delta: StatDelta::default(),
        }
    }

    #[inline]
    fn bump(v: &mut u32) {
        *v = v.saturating_add(1);
    }

    #[inline]
    pub fn record_execution(&mut self) {
        Self::bump(&mut self.delta.executions);
    }

    #[inline]
    pub fn record_attempt(&mut self, mode: ExecMode) {
        Self::bump(&mut self.delta.attempts[mode.index()]);
    }

    #[inline]
    pub fn record_success(&mut self, mode: ExecMode) {
        Self::bump(&mut self.delta.successes[mode.index()]);
    }

    #[inline]
    pub fn record_lock_held_abort(&mut self) {
        Self::bump(&mut self.delta.lock_held_aborts);
    }

    #[inline]
    pub fn record_conflict_abort(&mut self) {
        Self::bump(&mut self.delta.conflict_aborts);
    }

    #[inline]
    pub fn record_capacity_abort(&mut self) {
        Self::bump(&mut self.delta.capacity_aborts);
    }

    #[inline]
    pub fn record_spurious_abort(&mut self) {
        Self::bump(&mut self.delta.spurious_aborts);
    }

    #[inline]
    pub fn record_swopt_fail(&mut self) {
        Self::bump(&mut self.delta.swopt_fails);
    }
}

impl Drop for StatSink<'_> {
    /// The flush: at most one shared update per nonzero field, and one
    /// rounding draw for the whole flush (each counter takes its own
    /// rotation of it).
    #[inline]
    fn drop(&mut self) {
        let (s, d) = (self.stats, &self.delta);
        // Self-test mutation (`StatBatchLost`): the flush silently drops
        // the executions delta — completed critical sections vanish from
        // the statistics. The stat-parity oracle (executions count vs
        // observed completions) must catch this.
        let executions = if mutated(Mutation::StatBatchLost) {
            0
        } else {
            d.executions
        };
        let mut draw = ale_sync::fold_draw();
        let mut fold = |counter: &StatCounter, n: u32| {
            counter.add_drawn(n as u64, draw);
            draw = draw.rotate_left(5);
        };
        fold(&s.executions, executions);
        for i in 0..3 {
            fold(&s.attempts[i], d.attempts[i]);
            fold(&s.successes[i], d.successes[i]);
        }
        fold(&s.lock_held_aborts, d.lock_held_aborts);
        fold(&s.conflict_aborts, d.conflict_aborts);
        fold(&s.capacity_aborts, d.capacity_aborts);
        fold(&s.spurious_aborts, d.spurious_aborts);
        fold(&s.swopt_fails, d.swopt_fails);
    }
}

/// Plan-word bit layout (see DESIGN.md §14): budgets in the low half,
/// plan flags at 32/33, absorbed-capability bits and the valid bit at the
/// top. Budgets above [`PLAN_ATTEMPT_MAX`] are never cached.
const PLAN_VALID: u64 = 1 << 63;
const PLAN_CAP_HTM: u64 = 1 << 62;
const PLAN_CAP_SWOPT: u64 = 1 << 61;
const PLAN_GROUPING: u64 = 1 << 32;
const PLAN_MEASURE: u64 = 1 << 33;
const PLAN_ATTEMPT_MAX: u32 = 0x3FFF;

/// The capability bits an execution with `caps` needs to find absorbed in
/// a cached word before trusting it (a capability the policy has not yet
/// *seen* may carry plan-changing side effects — the adaptive policy's
/// sticky `seen_htm`/`seen_swopt` marks — so it must take the slow path).
#[inline]
fn caps_bits(caps: ModeCaps) -> u64 {
    (if caps.htm { PLAN_CAP_HTM } else { 0 }) | (if caps.swopt { PLAN_CAP_SWOPT } else { 0 })
}

/// The precomputed "current mode + budget" word behind the one-branch
/// mode decision. The fast path is a single relaxed-ish load plus one
/// predictable branch ([`PlanCache::cached`]); the slow path re-runs
/// `Policy::plan` and republishes ([`PlanCache::publish`]). Invalidation
/// (phase transitions, breaker edges, `reset`) bumps the epoch *then*
/// clears the word; publishers verify the epoch after their store and
/// self-invalidate on a lost race, so a stale plan can never stick.
#[derive(Debug, Default)]
pub struct PlanCache {
    word: AtomicU64,
    epoch: AtomicU64,
}

impl PlanCache {
    /// The one-branch fast path: returns the cached plan iff the word is
    /// valid *and* every capability of this execution has been absorbed by
    /// a previous slow-path `plan` call. No ticks, no RNG — skipping the
    /// policy call is invisible to the simulator (both policies' `plan`
    /// is tick- and RNG-free), so cached and uncached executions schedule
    /// identically.
    #[inline]
    pub fn cached(&self, caps: ModeCaps) -> Option<AttemptPlan> {
        let word = self.word.load(Ordering::Acquire);
        let need = PLAN_VALID | caps_bits(caps);
        if word & need == need {
            Some(
                AttemptPlan {
                    htm_attempts: (word as u32) & PLAN_ATTEMPT_MAX,
                    swopt_attempts: ((word >> 16) as u32) & PLAN_ATTEMPT_MAX,
                    use_grouping: word & PLAN_GROUPING != 0,
                    measure: word & PLAN_MEASURE != 0,
                }
                .clamped(caps),
            )
        } else {
            None
        }
    }

    /// Start a publish attempt: snapshot the epoch *before* computing the
    /// plan, so a concurrent invalidation anywhere in between is detected.
    #[inline]
    pub fn begin_publish(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Publish a freshly-computed (unclamped) plan for the capabilities it
    /// was computed under, unless an invalidation raced us — then the word
    /// is re-cleared and the next execution replans.
    pub fn publish(&self, plan: AttemptPlan, caps: ModeCaps, epoch: u64) {
        if plan.htm_attempts > PLAN_ATTEMPT_MAX || plan.swopt_attempts > PLAN_ATTEMPT_MAX {
            return;
        }
        let word = PLAN_VALID
            | caps_bits(caps)
            | if plan.use_grouping { PLAN_GROUPING } else { 0 }
            | if plan.measure { PLAN_MEASURE } else { 0 }
            | ((plan.swopt_attempts as u64) << 16)
            | plan.htm_attempts as u64;
        self.word.store(word, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) != epoch {
            self.invalidate();
        }
    }

    /// Drop the cached word: the next execution takes the slow path. The
    /// epoch bump comes first so an in-flight publisher that computed its
    /// plan from pre-invalidation state cannot survive the race.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.word.store(0, Ordering::SeqCst);
    }
}

/// Per-(lock, context) metadata: statistics plus a policy-owned state blob.
pub struct Granule {
    pub context: ContextId,
    /// Scope labels of the context at creation time (outermost first).
    pub labels: Vec<&'static str>,
    /// Padded (DESIGN.md §14): the stat block is written by every
    /// completing execution's flush and must not share a line with the
    /// plan word read on every entry.
    pub stats: CachePadded<GranuleStats>,
    /// The packed mode-decision word, on its own line: read-mostly, and a
    /// neighbour's flush must not invalidate it.
    pub plan_cache: CachePadded<PlanCache>,
    /// Opaque per-granule policy state (e.g. the adaptive policy's learned
    /// X values and histograms), created by `Policy::make_granule_state`.
    pub policy_state: Box<dyn Any + Send + Sync>,
    /// Abort-storm circuit breaker (present when
    /// [`AleConfig::with_breaker`](crate::AleConfig::with_breaker) is set).
    pub breaker: Option<StormBreaker>,
}

impl Granule {
    pub fn describe(&self) -> String {
        if self.labels.is_empty() {
            "<root>".to_string()
        } else {
            self.labels.join(" / ")
        }
    }
}

impl std::fmt::Debug for Granule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Granule")
            .field("context", &self.context)
            .field("labels", &self.labels)
            .finish()
    }
}

/// Append-only granule table with lock-free lookup.
pub struct GranuleTable {
    slots: Vec<AtomicPtr<Granule>>,
    /// Owns the granules; also serialises insertion.
    owned: TickMutex<Vec<Arc<Granule>>>,
    /// When set, every granule created by this table gets its own
    /// [`StormBreaker`] with this configuration.
    breaker_cfg: Option<BreakerConfig>,
}

impl Default for GranuleTable {
    fn default() -> Self {
        Self::new()
    }
}

impl GranuleTable {
    pub fn new() -> Self {
        Self::with_breaker_config(None)
    }

    /// A table whose granules each carry an abort-storm circuit breaker.
    pub fn with_breaker_config(breaker_cfg: Option<BreakerConfig>) -> Self {
        GranuleTable {
            slots: (0..MAX_GRANULES_PER_LOCK)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            owned: TickMutex::new(Vec::new()),
            breaker_cfg,
        }
    }

    /// Find the granule for `context`, creating it on first sight (named by
    /// the scope labels from `labels`, with policy state from
    /// `make_state`). The reference borrows from the
    /// table: no reference count moves, so the elided path writes no word
    /// that other threads using the lock share. Callers that need to own
    /// a granule take it from [`GranuleTable::all`].
    pub fn lookup(
        &self,
        context: ContextId,
        labels: impl FnOnce() -> Vec<&'static str>,
        make_state: impl FnOnce() -> Box<dyn Any + Send + Sync>,
    ) -> &Granule {
        tick(Event::SharedLoad);
        for slot in &self.slots {
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                break;
            }
            // SAFETY: slot pointers reference granules owned (and never
            // dropped) by `self.owned` for the table's lifetime, which the
            // returned borrow of `self` cannot outlive.
            let g = unsafe { &*p };
            if g.context == context {
                return g;
            }
        }
        self.insert(context, labels, make_state)
    }

    fn insert(
        &self,
        context: ContextId,
        labels: impl FnOnce() -> Vec<&'static str>,
        make_state: impl FnOnce() -> Box<dyn Any + Send + Sync>,
    ) -> &Granule {
        let mut owned = self.owned.lock();
        // Re-scan under the lock (we may have raced another inserter); a
        // full table merges the context into the last granule rather than
        // grow — checked before anything is built, because an overflowed
        // context comes back here on every one of its lookups.
        let existing = match owned.iter().find(|g| g.context == context) {
            Some(g) => Some(g),
            None if owned.len() >= MAX_GRANULES_PER_LOCK => owned.last(),
            None => None,
        };
        if let Some(g) = existing {
            // SAFETY: `owned` never drops or moves a granule out for the
            // table's lifetime (the `Arc` keeps the allocation in place
            // when the `Vec` reallocates), and the returned borrow of
            // `self` cannot outlive the table.
            return unsafe { &*Arc::as_ptr(g) };
        }
        let granule = Arc::new(Granule {
            context,
            labels: labels(),
            stats: CachePadded::new(GranuleStats::default()),
            plan_cache: CachePadded::new(PlanCache::default()),
            policy_state: make_state(),
            breaker: self.breaker_cfg.clone().map(StormBreaker::new),
        });
        if let Some(b) = &granule.breaker {
            // Granule creation is once per (lock, context); interning here
            // keeps label lookups off the breaker's edge paths.
            if ale_trace::is_enabled() {
                b.set_trace_label(ale_trace::label_id(&granule.describe()));
            }
        }
        let p = Arc::as_ptr(&granule);
        let idx = owned.len();
        owned.push(granule);
        self.slots[idx].store(p as *mut Granule, Ordering::Release);
        // SAFETY: as above — `owned` now keeps this granule alive for the
        // table's lifetime.
        unsafe { &*p }
    }

    /// Snapshot of all granules (for reports and phase transitions).
    pub fn all(&self) -> Vec<Arc<Granule>> {
        self.owned.lock().clone()
    }

    /// Invalidate every granule's cached plan word (phase transitions,
    /// policy resets). Deliberately tick-free — no `TickMutex`, no
    /// `tick` — so under the serialising simulator the sweep completes
    /// without a scheduler yield point: no lane can run a critical section
    /// between a policy's state change and the sweep and observe a stale
    /// plan. Granules inserted after the sweep started were created with
    /// an invalid word and replan from current state anyway.
    pub fn invalidate_plans(&self) {
        for slot in &self.slots {
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                break;
            }
            // SAFETY: slot pointers reference granules owned (and never
            // dropped) by `self.owned` for the table's lifetime.
            unsafe { &*p }.plan_cache.invalidate();
        }
    }

    pub fn len(&self) -> usize {
        self.owned.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_state() -> Box<dyn Any + Send + Sync> {
        Box::new(())
    }

    #[test]
    fn lookup_creates_once_and_finds_after() {
        let t = GranuleTable::new();
        let a = t.lookup(ContextId(1), Vec::new, no_state);
        let b = t.lookup(ContextId(1), Vec::new, no_state);
        assert!(std::ptr::eq(a, b));
        assert_eq!(t.len(), 1);
        let c = t.lookup(ContextId(2), Vec::new, no_state);
        assert!(!std::ptr::eq(a, c));
        assert_eq!(t.len(), 2);
        assert_eq!(t.all().len(), 2);
    }

    #[test]
    fn overflow_merges_into_last_granule() {
        let t = GranuleTable::new();
        for i in 0..MAX_GRANULES_PER_LOCK as u64 {
            t.lookup(ContextId(i), Vec::new, no_state);
        }
        assert_eq!(t.len(), MAX_GRANULES_PER_LOCK);
        // An overflowed context takes this path on every lookup, so it
        // must not build (and throw away) a granule each time.
        let mut built = 0;
        for _ in 0..3 {
            let extra = t.lookup(ContextId(10_000), Vec::new, || {
                built += 1;
                no_state()
            });
            assert_eq!(extra.context, ContextId(MAX_GRANULES_PER_LOCK as u64 - 1));
        }
        assert_eq!(built, 0, "a full table must not call make_state");
        assert_eq!(t.len(), MAX_GRANULES_PER_LOCK, "table must not grow");
    }

    #[test]
    fn concurrent_lookup_yields_one_granule_per_context() {
        let t = GranuleTable::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let g = t.lookup(ContextId(i % 10), Vec::new, no_state);
                        assert_eq!(g.context, ContextId(i % 10));
                    }
                });
            }
        });
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn stats_record_and_ratio() {
        let s = GranuleStats::default();
        assert_eq!(s.success_ratio(ExecMode::Htm), None);
        let mut sink = StatSink::new(&s);
        for _ in 0..10 {
            sink.record_attempt(ExecMode::Htm);
        }
        for _ in 0..7 {
            sink.record_success(ExecMode::Htm);
        }
        drop(sink);
        let r = s.success_ratio(ExecMode::Htm).unwrap();
        assert!((r - 0.7).abs() < 1e-9, "{r}");
        assert_eq!(s.success_ratio(ExecMode::SwOpt), None);
    }

    #[test]
    fn plan_cache_round_trips_and_gates_on_unabsorbed_caps() {
        let pc = PlanCache::default();
        let htm_only = ModeCaps {
            htm: true,
            swopt: false,
        };
        assert_eq!(pc.cached(htm_only), None, "fresh cache must miss");
        let plan = AttemptPlan {
            htm_attempts: 3,
            swopt_attempts: 0,
            use_grouping: false,
            measure: true,
        };
        let e = pc.begin_publish();
        pc.publish(plan, htm_only, e);
        assert_eq!(pc.cached(htm_only), Some(plan));
        // A capability no slow-path plan call has absorbed yet → miss (the
        // policy may have sticky per-capability side effects to run).
        let both = ModeCaps {
            htm: true,
            swopt: true,
        };
        assert_eq!(pc.cached(both), None, "unabsorbed capability must miss");
        // A subset of the absorbed capabilities hits, clamped.
        let neither = ModeCaps {
            htm: false,
            swopt: false,
        };
        let hit = pc.cached(neither).expect("subset caps must hit");
        assert_eq!((hit.htm_attempts, hit.swopt_attempts), (0, 0));
        assert!(hit.measure, "non-budget plan bits survive the clamp");
        pc.invalidate();
        assert_eq!(pc.cached(htm_only), None, "invalidation must clear");
    }

    #[test]
    fn plan_cache_publish_loses_to_a_racing_invalidation() {
        let pc = PlanCache::default();
        let caps = ModeCaps {
            htm: true,
            swopt: true,
        };
        let e = pc.begin_publish();
        pc.invalidate(); // a phase transition lands mid-publish
        pc.publish(AttemptPlan::lock_only(), caps, e);
        assert_eq!(pc.cached(caps), None, "a stale publish must not stick");
    }

    #[test]
    fn oversized_budgets_are_never_cached() {
        let pc = PlanCache::default();
        let caps = ModeCaps {
            htm: true,
            swopt: true,
        };
        let e = pc.begin_publish();
        pc.publish(
            AttemptPlan {
                htm_attempts: 0x4000,
                swopt_attempts: 1,
                use_grouping: false,
                measure: false,
            },
            caps,
            e,
        );
        assert_eq!(
            pc.cached(caps),
            None,
            "unpackable budget must stay slow-path"
        );
    }

    #[test]
    fn stat_sink_publishes_exact_totals_on_drop() {
        let s = GranuleStats::default();
        let mut sink = StatSink::new(&s);
        for _ in 0..9 {
            sink.record_attempt(ExecMode::Htm);
        }
        for _ in 0..4 {
            sink.record_success(ExecMode::SwOpt);
        }
        sink.record_execution();
        sink.record_conflict_abort();
        sink.record_swopt_fail();
        assert_eq!(s.executions.read(), 0, "nothing is shared before the flush");
        drop(sink);
        assert_eq!(s.executions.read(), 1);
        assert_eq!(s.attempts[ExecMode::Htm.index()].read(), 9);
        assert_eq!(s.successes[ExecMode::SwOpt.index()].read(), 4);
        assert_eq!(s.conflict_aborts.read(), 1);
        assert_eq!(s.swopt_fails.read(), 1);
        assert_eq!(s.spurious_aborts.read(), 0);
        // A sink that recorded nothing publishes nothing.
        drop(StatSink::new(&s));
        assert_eq!(s.executions.read(), 1);
        assert_eq!(s.attempts[ExecMode::Htm.index()].read(), 9);
    }

    /// A body that panics mid-section still leaves its attempts in the
    /// granule: the sink flushes as the unwind drops it.
    #[test]
    fn stat_sink_dropped_by_an_unwind_publishes_its_delta() {
        let s = GranuleStats::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = StatSink::new(&s);
            sink.record_attempt(ExecMode::Htm);
            sink.record_conflict_abort();
            sink.record_attempt(ExecMode::Lock);
            panic!("body panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(s.attempts[ExecMode::Htm.index()].read(), 1);
        assert_eq!(s.attempts[ExecMode::Lock.index()].read(), 1);
        assert_eq!(s.conflict_aborts.read(), 1);
        assert_eq!(s.executions.read(), 0, "the section never completed");
    }

    #[test]
    fn invalidate_plans_sweeps_every_slot() {
        let t = GranuleTable::new();
        let caps = ModeCaps {
            htm: true,
            swopt: true,
        };
        let mut granules = Vec::new();
        for i in 0..5u64 {
            let g = t.lookup(ContextId(i), Vec::new, no_state);
            let e = g.plan_cache.begin_publish();
            g.plan_cache.publish(AttemptPlan::lock_only(), caps, e);
            assert!(g.plan_cache.cached(caps).is_some());
            granules.push(g);
        }
        t.invalidate_plans();
        for g in &granules {
            assert_eq!(g.plan_cache.cached(caps), None);
        }
    }

    #[test]
    fn granule_describe_uses_labels() {
        let t = GranuleTable::new();
        let g = t.lookup(ContextId(9), Vec::new, no_state);
        assert_eq!(g.describe(), "<root>", "no scopes entered in this test");
    }
}
