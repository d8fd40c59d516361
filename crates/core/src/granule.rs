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
use ale_vtime::{tick, Event, Rng};

use crate::mode::ExecMode;
use crate::policy::{AttemptPlan, ModeCaps};
use crate::scope::{current_context_labels, ContextId};

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
    pub fn record_attempt(&self, mode: ExecMode, rng: &mut Rng) {
        self.attempts[mode.index()].inc(rng);
    }

    pub fn record_success(&self, mode: ExecMode, rng: &mut Rng) {
        self.successes[mode.index()].inc(rng);
    }

    /// Fold a batched per-execution delta in: at most one shared update per
    /// nonzero field, instead of one per recorded event, and one rounding
    /// draw for the whole flush (each counter takes its own rotation of
    /// it). Tick- and RNG-free; the batched path only runs outside the
    /// simulator (see [`StatSink`]), so no virtual-time schedule ever
    /// depends on it.
    pub fn apply_delta(&self, d: &StatDelta) {
        // Self-test mutation (`StatBatchLost`): the flush silently drops
        // the batched executions delta — completed critical sections vanish
        // from the statistics. The stat-parity oracle (executions count vs
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
        fold(&self.executions, executions);
        for i in 0..3 {
            fold(&self.attempts[i], d.attempts[i]);
            fold(&self.successes[i], d.successes[i]);
        }
        fold(&self.lock_held_aborts, d.lock_held_aborts);
        fold(&self.conflict_aborts, d.conflict_aborts);
        fold(&self.capacity_aborts, d.capacity_aborts);
        fold(&self.spurious_aborts, d.spurious_aborts);
        fold(&self.swopt_fails, d.swopt_fails);
    }

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

/// Stack-local batch of statistic events for one critical-section
/// execution — the batched arm of [`StatSink`]. The driver bumps plain
/// `u32` fields (a register increment, no shared cache line, no tick, no
/// RNG) and the exit flush folds each nonzero field into the shared
/// [`GranuleStats`] counters with a single [`StatCounter::add`]
/// (normal exit or panic). Only selected where `tick` is a no-op — real
/// hardware, or the forced-batch self-test mutation — so recording has no
/// simulator side effects at all.
#[derive(Debug, Default)]
pub struct StatDelta {
    pub executions: u32,
    pub attempts: [u32; 3],
    pub successes: [u32; 3],
    pub lock_held_aborts: u32,
    pub conflict_aborts: u32,
    pub capacity_aborts: u32,
    pub spurious_aborts: u32,
    pub swopt_fails: u32,
}

impl StatDelta {
    #[inline]
    fn bump(v: &mut u32) {
        *v = v.saturating_add(1);
    }

    #[inline]
    pub fn record_execution(&mut self) {
        Self::bump(&mut self.executions);
    }

    #[inline]
    pub fn record_attempt(&mut self, mode: ExecMode) {
        Self::bump(&mut self.attempts[mode.index()]);
    }

    #[inline]
    pub fn record_success(&mut self, mode: ExecMode) {
        Self::bump(&mut self.successes[mode.index()]);
    }

    #[inline]
    pub fn record_lock_held_abort(&mut self) {
        Self::bump(&mut self.lock_held_aborts);
    }

    #[inline]
    pub fn record_conflict_abort(&mut self) {
        Self::bump(&mut self.conflict_aborts);
    }

    #[inline]
    pub fn record_capacity_abort(&mut self) {
        Self::bump(&mut self.capacity_aborts);
    }

    #[inline]
    pub fn record_spurious_abort(&mut self) {
        Self::bump(&mut self.spurious_aborts);
    }

    #[inline]
    pub fn record_swopt_fail(&mut self) {
        Self::bump(&mut self.swopt_fails);
    }
}

/// Where the critical-section driver records statistic events.
///
/// * **Direct** — one shared [`StatCounter::inc`] per event, the legacy
///   path, selected under the deterministic simulator. `inc`'s tick inside
///   its CAS loop is a scheduler yield point, and a contended retry ticks
///   again (plus a backoff tick), so the *number* of ticks depends on
///   cross-lane timing. Batching those events would delete yield points
///   and shift every simulated schedule — pinned ale-check digests would
///   drift. Keeping the per-event path under sim makes same-seed digest
///   bit-identity hold by construction.
/// * **Batched** — events bump a stack-local [`StatDelta`] and the exit
///   flush publishes the whole batch with one [`StatCounter::add`] per
///   nonzero field. Selected on real hardware, where `tick` is a no-op
///   and eliminating the per-event shared CAS is the entire win.
///
/// The `StatBatchLost` self-test mutation forces the batched path
/// even under simulation so ale-check can exercise the flush and prove
/// the stat-parity oracle notices a dropped executions delta.
#[derive(Debug)]
pub enum StatSink<'a> {
    Direct {
        stats: &'a GranuleStats,
    },
    Batched {
        stats: &'a GranuleStats,
        delta: StatDelta,
    },
}

/// Bench-only override: when set, simulated lanes also use the batched
/// sink (see [`StatSink::force_batched`]).
static FORCE_BATCHED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

impl<'a> StatSink<'a> {
    /// Opt simulated lanes into the **batched** sink, process-wide.
    ///
    /// The Direct arm exists purely to keep pinned ale-check digests
    /// bit-identical; it charges one `tick(Event::Cas)` per recorded event
    /// that the shipped (real-hardware) fast path no longer pays.
    /// Benchmarks that want the simulator to price the *shipped* path —
    /// e.g. the `per_cs_overhead` trajectory cell — set this around their
    /// measurement and restore it after. ale-check must never set it:
    /// batching deletes yield points and would drift every pinned digest.
    pub fn force_batched(on: bool) {
        FORCE_BATCHED.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Pick the arm for this execution: batched wherever ticks are no-ops
    /// (outside a simulated lane), per-event under the simulator.
    #[inline]
    pub fn new(stats: &'a GranuleStats) -> Self {
        if mutated(Mutation::StatBatchLost)
            || !ale_vtime::is_simulated()
            || FORCE_BATCHED.load(std::sync::atomic::Ordering::Relaxed)
        {
            StatSink::Batched {
                stats,
                delta: StatDelta::default(),
            }
        } else {
            StatSink::Direct { stats }
        }
    }

    #[inline]
    pub fn record_execution(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.executions.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_execution(),
        }
    }

    #[inline]
    pub fn record_attempt(&mut self, mode: ExecMode, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.record_attempt(mode, rng),
            StatSink::Batched { delta, .. } => delta.record_attempt(mode),
        }
    }

    #[inline]
    pub fn record_success(&mut self, mode: ExecMode, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.record_success(mode, rng),
            StatSink::Batched { delta, .. } => delta.record_success(mode),
        }
    }

    #[inline]
    pub fn record_lock_held_abort(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.lock_held_aborts.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_lock_held_abort(),
        }
    }

    #[inline]
    pub fn record_conflict_abort(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.conflict_aborts.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_conflict_abort(),
        }
    }

    #[inline]
    pub fn record_capacity_abort(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.capacity_aborts.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_capacity_abort(),
        }
    }

    #[inline]
    pub fn record_spurious_abort(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.spurious_aborts.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_spurious_abort(),
        }
    }

    #[inline]
    pub fn record_swopt_fail(&mut self, rng: &mut Rng) {
        match self {
            StatSink::Direct { stats } => stats.swopt_fails.inc(rng),
            StatSink::Batched { delta, .. } => delta.record_swopt_fail(),
        }
    }

    /// Publish any pending batched delta to the shared counters and clear
    /// it. Direct mode has nothing pending.
    pub fn flush(&mut self) {
        if let StatSink::Batched { stats, delta } = self {
            stats.apply_delta(delta);
            *delta = StatDelta::default();
        }
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

    /// Find the granule for `context`, creating it on first sight (with
    /// policy state from `make_state`). The reference borrows from the
    /// table: no reference count moves, so the elided path writes no word
    /// that other threads using the lock share. Callers that need to own
    /// a granule take it from [`GranuleTable::all`].
    pub fn lookup(
        &self,
        context: ContextId,
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
        self.insert(context, make_state)
    }

    fn insert(
        &self,
        context: ContextId,
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
            labels: current_context_labels(),
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
        let a = t.lookup(ContextId(1), no_state);
        let b = t.lookup(ContextId(1), no_state);
        assert!(std::ptr::eq(a, b));
        assert_eq!(t.len(), 1);
        let c = t.lookup(ContextId(2), no_state);
        assert!(!std::ptr::eq(a, c));
        assert_eq!(t.len(), 2);
        assert_eq!(t.all().len(), 2);
    }

    #[test]
    fn overflow_merges_into_last_granule() {
        let t = GranuleTable::new();
        for i in 0..MAX_GRANULES_PER_LOCK as u64 {
            t.lookup(ContextId(i), no_state);
        }
        assert_eq!(t.len(), MAX_GRANULES_PER_LOCK);
        // An overflowed context takes this path on every lookup, so it
        // must not build (and throw away) a granule each time.
        let mut built = 0;
        for _ in 0..3 {
            let extra = t.lookup(ContextId(10_000), || {
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
                        let g = t.lookup(ContextId(i % 10), no_state);
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
        let mut rng = Rng::new(1);
        assert_eq!(s.success_ratio(ExecMode::Htm), None);
        for _ in 0..10 {
            s.record_attempt(ExecMode::Htm, &mut rng);
        }
        for _ in 0..7 {
            s.record_success(ExecMode::Htm, &mut rng);
        }
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
    fn stat_delta_flush_matches_per_event_totals() {
        let batched = GranuleStats::default();
        let reference = GranuleStats::default();
        let mut rng = Rng::new(5);
        let mut d = StatDelta::default();
        for _ in 0..9 {
            d.record_attempt(ExecMode::Htm);
            reference.record_attempt(ExecMode::Htm, &mut rng);
        }
        for _ in 0..4 {
            d.record_success(ExecMode::SwOpt);
            reference.record_success(ExecMode::SwOpt, &mut rng);
        }
        d.record_execution();
        reference.executions.inc(&mut rng);
        d.record_conflict_abort();
        reference.conflict_aborts.inc(&mut rng);
        d.record_swopt_fail();
        reference.swopt_fails.inc(&mut rng);
        batched.apply_delta(&d);
        assert_eq!(batched.executions.read(), reference.executions.read());
        for i in 0..3 {
            assert_eq!(batched.attempts[i].read(), reference.attempts[i].read());
            assert_eq!(batched.successes[i].read(), reference.successes[i].read());
        }
        assert_eq!(
            batched.conflict_aborts.read(),
            reference.conflict_aborts.read()
        );
        assert_eq!(batched.swopt_fails.read(), reference.swopt_fails.read());
        // Flushing a default (all-zero) delta is free and exact.
        batched.apply_delta(&StatDelta::default());
        assert_eq!(batched.executions.read(), reference.executions.read());
    }

    #[test]
    fn stat_sink_arms_agree_on_totals() {
        let direct_stats = GranuleStats::default();
        let batched_stats = GranuleStats::default();
        let mut rng = Rng::new(9);
        let mut direct = StatSink::Direct {
            stats: &direct_stats,
        };
        let mut batched = StatSink::Batched {
            stats: &batched_stats,
            delta: StatDelta::default(),
        };
        for sink in [&mut direct, &mut batched] {
            for _ in 0..6 {
                sink.record_attempt(ExecMode::Htm, &mut rng);
            }
            sink.record_conflict_abort(&mut rng);
            sink.record_success(ExecMode::Htm, &mut rng);
            sink.record_execution(&mut rng);
            sink.flush();
            sink.flush(); // idempotent: the delta cleared on first flush
        }
        assert_eq!(
            direct_stats.attempts[ExecMode::Htm.index()].read(),
            batched_stats.attempts[ExecMode::Htm.index()].read()
        );
        assert_eq!(
            direct_stats.conflict_aborts.read(),
            batched_stats.conflict_aborts.read()
        );
        assert_eq!(
            direct_stats.executions.read(),
            batched_stats.executions.read()
        );
        assert_eq!(batched_stats.executions.read(), 1);
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
            let g = t.lookup(ContextId(i), no_state);
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
        let g = t.lookup(ContextId(9), no_state);
        assert_eq!(g.describe(), "<root>", "no scopes entered in this test");
    }
}
