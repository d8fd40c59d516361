//! Targeted fault injection for the transaction engine.
//!
//! `ale-check` (the dynamic-checking harness) installs an [`InjectPlan`]
//! before a run; the engine then consults [`check`] at four transaction
//! points — begin, transactional read, transactional write, and commit —
//! and aborts with the planned [`AbortStatus`] when a rule fires. This is
//! how the harness steers executions down the rarely-taken paths (capacity
//! fallback, lock-held cascades, commit-time conflicts) that real
//! best-effort HTM produces only probabilistically.
//!
//! The plan is process-global, behind an atomic fast-path flag so the
//! transaction hot path pays one relaxed load when injection is off.
//! Counters advance under a mutex, which is deterministic under the
//! simulator (exactly one lane runs at a time) — the same plan, seed and
//! schedule replay the same injected aborts.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::abort::{AbortCode, AbortStatus};

/// A transaction lifecycle point where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectPoint {
    /// Right after the transaction begins (before the body runs).
    Begin,
    /// On a transactional read.
    Read,
    /// On a transactional (buffered) write.
    Write,
    /// At commit entry (after the body, before publication).
    Commit,
}

impl InjectPoint {
    fn index(self) -> usize {
        match self {
            InjectPoint::Begin => 0,
            InjectPoint::Read => 1,
            InjectPoint::Write => 2,
            InjectPoint::Commit => 3,
        }
    }
}

/// The fault class a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// A data conflict (retryable).
    Conflict,
    /// A capacity overflow (not retryable).
    Capacity,
    /// A spurious micro-architectural abort (retry hint set).
    Spurious,
    /// The explicit "elided lock was held" abort.
    LockHeld,
    /// A panic unwinding out of the critical-section body (with the
    /// [`InjectedPanic`] payload), exercising the runtime's unwind-safety
    /// paths instead of the abort protocol.
    Panic,
}

/// Unwind payload for [`InjectKind::Panic`] faults. Public so harnesses can
/// raise (`std::panic::panic_any(InjectedPanic)`) and catch the same typed
/// payload outside transactions too; the process panic hook (see
/// [`init_panic_hook`](crate::txn::init_panic_hook)) keeps these unwinds
/// silent, since they are planned control flow, not bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic;

/// What an injection point must do when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    Abort(AbortStatus),
    Panic,
}

impl InjectKind {
    /// The action an injected fault of this kind performs.
    pub(crate) fn injected(self) -> Injected {
        match self {
            InjectKind::Conflict => Injected::Abort(AbortStatus::conflict()),
            InjectKind::Capacity => Injected::Abort(AbortStatus::capacity()),
            InjectKind::Spurious => Injected::Abort(AbortStatus::spurious(true)),
            InjectKind::LockHeld => Injected::Abort(AbortStatus::explicit(AbortCode::LOCK_HELD)),
            InjectKind::Panic => Injected::Panic,
        }
    }
}

/// One injection rule: at `point`, abort with `kind` every `every`-th
/// event (period-based, so one rule covers a whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectRule {
    pub point: InjectPoint,
    /// Fire when the point's event counter is a multiple of this. 0 never
    /// fires.
    pub every: u64,
    pub kind: InjectKind,
}

/// A full injection plan: rules plus a global hit budget (the replay
/// minimiser bisects `max_hits` to find the smallest failing fault count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectPlan {
    pub rules: Vec<InjectRule>,
    /// Stop injecting after this many hits. `u64::MAX` = unlimited.
    pub max_hits: u64,
    /// Virtual-time activity window `[start, end)`: rules only fire while
    /// `ale_vtime::now()` is inside it. `None` = always active. This is how
    /// the storm-recovery scenario confines an abort storm to one phase of
    /// a deterministic run.
    pub window: Option<(u64, u64)>,
    /// Thread-scope token: rules only fire on threads that hold an
    /// [`enter_scope`] guard for the same token. `None` = all threads.
    /// Lets a scenario inject faults into its own simulator lanes without
    /// perturbing unrelated work in the same process (e.g. other tests).
    pub scope: Option<u64>,
}

impl InjectPlan {
    pub fn new(rules: Vec<InjectRule>) -> Self {
        InjectPlan {
            rules,
            max_hits: u64::MAX,
            window: None,
            scope: None,
        }
    }

    /// Cap the number of injected aborts.
    pub fn limited(mut self, max_hits: u64) -> Self {
        self.max_hits = max_hits;
        self
    }

    /// Confine the plan to the virtual-time window `[start_ns, end_ns)`.
    pub fn windowed(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.window = Some((start_ns, end_ns));
        self
    }

    /// Confine the plan to threads holding an [`enter_scope`] guard for
    /// `token`.
    pub fn scoped(mut self, token: u64) -> Self {
        self.scope = Some(token);
        self
    }
}

// ---------------------------------------------------------------------------
// Self-test mutations (the `selftest-mutations` build)
// ---------------------------------------------------------------------------

/// A deliberately re-introduced bug that `ale-check selftest` must catch.
/// Each variant guards one or two sites behind [`mutated`]; what the bug
/// is, which workload hunts it and which oracle must fire is one row of
/// `ale_check::MUTATIONS` — the only per-mutation list in the workspace.
///
/// The selector lives here because this crate is the fault-injection home
/// and the lowest one every mutated crate (sync, core, hashmap, kyoto,
/// check) already depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    LazySubscription,
    SkipVersionBump,
    SkipValidate,
    SnziSkipHalf,
    LeakRegionOnPanic,
    TraceDropEvent,
    TtlStaleRead,
    ReorderPublish,
    WalAckBeforeDurable,
    RecoverySkipChecksum,
    ResizeSkipRepublish,
    ShardRouteStale,
    StatBatchLost,
}

/// The active mutation as `variant + 1`; 0 = none. Written only between
/// schedules (no lane is running), so `Relaxed` suffices: spawning the
/// lanes orders the store before every load.
#[cfg(feature = "selftest-mutations")]
static MUTATION: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Activate `m` process-wide (`None` = the shipped behaviour). Exists only
/// in the `selftest-mutations` build.
#[cfg(feature = "selftest-mutations")]
pub fn set_mutation(m: Option<Mutation>) {
    MUTATION.store(m.map_or(0, |m| m as u8 + 1), Ordering::Relaxed);
}

/// Is mutation `m` active? A constant `false` — the guarded arm compiles
/// out and no selector exists — unless the crate is built with
/// `selftest-mutations`, where it is one relaxed load: no tick, no draw,
/// so that build with nothing active runs the shipped schedules bit for
/// bit (pinned by `ale-check`'s `digest_regressions`).
#[inline(always)]
pub fn mutated(m: Mutation) -> bool {
    #[cfg(feature = "selftest-mutations")]
    {
        MUTATION.load(Ordering::Relaxed) == m as u8 + 1
    }
    #[cfg(not(feature = "selftest-mutations"))]
    {
        let _ = m;
        false
    }
}

// ---------------------------------------------------------------------------
// Crash-point injection (process-death simulation)
// ---------------------------------------------------------------------------

/// A durability boundary where a simulated process death can be planted.
///
/// Unlike the abort faults above, a crash is not an event the program
/// recovers from in place: once it fires, the "process" is dead — the
/// durable-medium freeze in `ale-kyoto`'s WAL refuses further appends, the
/// harness tears the in-memory state down, and only what the log had
/// absorbed survives into recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Entry of a WAL append: the record is not yet durable.
    WalAppend,
    /// After the record is durable, before the in-memory commit.
    PreCommit,
    /// After the in-memory commit, before the caller is acknowledged.
    PostCommit,
    /// In the middle of writing the record bytes: the tail record is torn
    /// (truncated or bit-flipped, per [`TornMode`]).
    MidRecord,
}

/// What a [`CrashPoint::MidRecord`] crash leaves behind in the tail record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornMode {
    /// Only a prefix of the record's bytes reached the medium.
    Truncate,
    /// All bytes landed, but some were corrupted in flight.
    Flip,
}

/// A crash plan: die at the `after`-th consultation of `point`. Fires at
/// most once process-wide (a process only dies once per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    pub point: CrashPoint,
    /// Fire on the `after`-th consult of `point` (1 = the first). 0 never
    /// fires.
    pub after: u64,
    /// Tail-record damage for [`CrashPoint::MidRecord`] (`None` defaults
    /// to [`TornMode::Truncate`]); ignored at the other points.
    pub torn: Option<TornMode>,
    /// Thread-scope token (see [`enter_scope`]). `None` = all threads.
    pub scope: Option<u64>,
}

impl CrashPlan {
    pub fn new(point: CrashPoint, after: u64) -> Self {
        CrashPlan {
            point,
            after,
            torn: None,
            scope: None,
        }
    }

    /// Choose the torn-write damage mode for mid-record crashes.
    pub fn with_torn(mut self, torn: TornMode) -> Self {
        self.torn = Some(torn);
        self
    }

    /// Confine the plan to threads holding an [`enter_scope`] guard for
    /// `token`.
    pub fn scoped(mut self, token: u64) -> Self {
        self.scope = Some(token);
        self
    }
}

/// Unwind payload for injected crashes. Raised by [`crash_at`] /
/// [`crash_now`]; silenced by the process panic hook like
/// [`InjectedPanic`]. Everything that catches it must treat the run's
/// volatile state as lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash;

struct CrashState {
    plan: CrashPlan,
    /// Consults of the planned point so far.
    count: u64,
}

static CRASH_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Sticky "the process is dead" flag: set when the plan fires (or by
/// [`crash_now`]), cleared only by [`install_crash`]/[`clear_crash`].
static CRASHED: AtomicBool = AtomicBool::new(false);
static CRASH_STATE: Mutex<Option<CrashState>> = Mutex::new(None);

/// Install a crash plan process-wide, replacing any previous plan and
/// clearing the [`crashed`] flag.
pub fn install_crash(plan: CrashPlan) {
    let mut g = CRASH_STATE.lock().unwrap_or_else(|p| p.into_inner());
    *g = Some(CrashState { plan, count: 0 });
    CRASHED.store(false, Ordering::Release);
    CRASH_ACTIVE.store(plan.after > 0, Ordering::Release);
}

/// Remove the active crash plan and reset the [`crashed`] flag. Returns
/// whether the plan fired.
pub fn clear_crash() -> bool {
    CRASH_ACTIVE.store(false, Ordering::Release);
    let mut g = CRASH_STATE.lock().unwrap_or_else(|p| p.into_inner());
    g.take();
    CRASHED.swap(false, Ordering::AcqRel)
}

/// Has the planned crash fired? After this turns true the simulated
/// process is dead: the WAL freezes, and harness lanes stop issuing work.
#[inline]
pub fn crashed() -> bool {
    CRASHED.load(Ordering::Acquire)
}

/// Die now: mark the process crashed and unwind with [`InjectedCrash`].
pub fn crash_now() -> ! {
    CRASHED.store(true, Ordering::Release);
    std::panic::panic_any(InjectedCrash)
}

/// Consult the plan at `point`; fires at most once. `Some(torn)` = the
/// plan fires *here*: the state is already marked crashed, and the caller
/// must apply the torn damage (mid-record only) and then [`crash_now`].
fn crash_fire(point: CrashPoint) -> Option<Option<TornMode>> {
    let mut g = CRASH_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let st = g.as_mut()?;
    if CRASHED.load(Ordering::Relaxed) || st.plan.point != point {
        return None;
    }
    if let Some(token) = st.plan.scope {
        if SCOPE.with(|s| s.get()) != token {
            return None;
        }
    }
    st.count += 1;
    if st.count >= st.plan.after {
        CRASHED.store(true, Ordering::Release);
        return Some(st.plan.torn);
    }
    None
}

/// Consult the crash plan at a whole-record boundary
/// ([`CrashPoint::WalAppend`], [`CrashPoint::PreCommit`],
/// [`CrashPoint::PostCommit`]). Does not return if the plan fires.
#[inline]
pub fn crash_at(point: CrashPoint) {
    if !CRASH_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if crash_fire(point).is_some() {
        std::panic::panic_any(InjectedCrash)
    }
}

/// Consult the crash plan mid-record-write. `Some(mode)` = the plan fires:
/// the caller must write the torn bytes (per `mode`) to the durable medium
/// and then call [`crash_now`].
#[inline]
pub fn crash_at_mid_record() -> Option<TornMode> {
    if !CRASH_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    crash_fire(CrashPoint::MidRecord).map(|t| t.unwrap_or(TornMode::Truncate))
}

thread_local! {
    /// The calling thread's ambient injection scope (0 = unscoped).
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard from [`enter_scope`]: restores the previous scope on drop.
pub struct ScopeGuard {
    prev: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Tag the calling thread with injection-scope `token` until the guard
/// drops. Plans built with [`InjectPlan::scoped`] fire only on threads
/// holding a matching tag.
pub fn enter_scope(token: u64) -> ScopeGuard {
    let prev = SCOPE.with(|s| {
        let p = s.get();
        s.set(token);
        p
    });
    ScopeGuard { prev }
}

struct PlanState {
    plan: InjectPlan,
    /// Per-point event counters (Begin/Read/Write/Commit).
    counts: [u64; 4],
    hits: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<PlanState>> = Mutex::new(None);

/// Install `plan` process-wide. Replaces any previous plan and resets the
/// counters. The caller (ale-check) serialises runs, so there is exactly
/// one plan per schedule.
pub fn install(plan: InjectPlan) {
    let mut g = STATE.lock().unwrap();
    *g = Some(PlanState {
        plan,
        counts: [0; 4],
        hits: 0,
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the active plan, returning how many aborts it injected.
pub fn clear() -> u64 {
    ACTIVE.store(false, Ordering::Release);
    let mut g = STATE.lock().unwrap();
    g.take().map_or(0, |st| st.hits)
}

/// Aborts injected by the active plan so far (0 when none is installed).
pub fn hits() -> u64 {
    STATE.lock().unwrap().as_ref().map_or(0, |st| st.hits)
}

/// Consult the plan at `point`. `Some(action)` means the caller must abort
/// the current transaction (or unwind with [`InjectedPanic`]).
#[inline]
pub(crate) fn check(point: InjectPoint) -> Option<Injected> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(point)
}

#[cold]
fn check_slow(point: InjectPoint) -> Option<Injected> {
    let mut g = STATE.lock().unwrap();
    let st = g.as_mut()?;
    let idx = point.index();
    st.counts[idx] += 1;
    let c = st.counts[idx];
    if st.hits >= st.plan.max_hits {
        return None;
    }
    if let Some((start, end)) = st.plan.window {
        let t = ale_vtime::now();
        if t < start || t >= end {
            return None;
        }
    }
    if let Some(token) = st.plan.scope {
        if SCOPE.with(|s| s.get()) != token {
            return None;
        }
    }
    for r in &st.plan.rules {
        if r.point == point && r.every > 0 && c.is_multiple_of(r.every) {
            st.hits += 1;
            return Some(r.kind.injected());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::HtmCell;
    use crate::txn::attempt;
    use ale_vtime::{Platform, Rng};
    use std::sync::{Mutex as StdMutex, MutexGuard};

    /// Injection state is process-global; tests must not overlap.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn profile() -> ale_vtime::HtmProfile {
        Platform::testbed().htm.unwrap()
    }

    #[test]
    fn begin_injection_aborts_before_the_body() {
        let _g = serial();
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Begin,
            every: 1,
            kind: InjectKind::Conflict,
        }]));
        let mut ran = false;
        let r = attempt(&profile(), &mut Rng::new(1), || ran = true);
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert!(!ran, "the body must not run past an injected begin abort");
        assert_eq!(clear(), 1);
    }

    #[test]
    fn read_injection_counts_and_respects_period() {
        let _g = serial();
        let cells: Vec<HtmCell<u64>> = (0..6).map(HtmCell::new).collect();
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Read,
            every: 4,
            kind: InjectKind::Capacity,
        }]));
        let r = attempt(&profile(), &mut Rng::new(1), || {
            cells.iter().map(|c| c.get()).sum::<u64>()
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
        assert_eq!(hits(), 1);
        assert_eq!(clear(), 1);
        // With the plan cleared the same body commits.
        let r = attempt(&profile(), &mut Rng::new(1), || {
            cells.iter().map(|c| c.get()).sum::<u64>()
        });
        assert_eq!(r.unwrap(), 15);
    }

    #[test]
    fn commit_injection_discards_writes() {
        let _g = serial();
        let a = HtmCell::new(0u64);
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Commit,
            every: 1,
            kind: InjectKind::LockHeld,
        }]));
        let r = attempt(&profile(), &mut Rng::new(1), || a.set(9));
        assert!(r.unwrap_err().code.is_lock_held());
        clear();
        assert_eq!(a.get(), 0, "injected commit abort must discard writes");
    }

    #[test]
    fn hit_budget_caps_injection() {
        let _g = serial();
        install(
            InjectPlan::new(vec![InjectRule {
                point: InjectPoint::Begin,
                every: 1,
                kind: InjectKind::Spurious,
            }])
            .limited(2),
        );
        let mut aborts = 0;
        for _ in 0..5 {
            if attempt(&profile(), &mut Rng::new(1), || ()).is_err() {
                aborts += 1;
            }
        }
        assert_eq!(aborts, 2, "only max_hits aborts may fire");
        assert_eq!(clear(), 2);
    }

    #[test]
    fn write_injection_fires_on_stores() {
        let _g = serial();
        let a = HtmCell::new(0u64);
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Write,
            every: 1,
            kind: InjectKind::Conflict,
        }]));
        let r = attempt(&profile(), &mut Rng::new(1), || a.set(1));
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        clear();
    }

    #[test]
    fn panic_injection_unwinds_with_typed_payload_and_discards_writes() {
        let _g = serial();
        crate::txn::init_panic_hook();
        let a = HtmCell::new(0u64);
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Write,
            every: 1,
            kind: InjectKind::Panic,
        }]));
        // AssertUnwindSafe: the engine discards speculative writes on
        // unwind, so the cell is consistent after the catch.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = attempt(&profile(), &mut Rng::new(1), || a.set(7));
        }));
        clear();
        let payload = unwound.expect_err("an injected panic must unwind out of attempt");
        assert!(
            payload.downcast_ref::<InjectedPanic>().is_some(),
            "payload must be the typed InjectedPanic"
        );
        assert!(!crate::txn::in_txn(), "unwind must tear the txn down");
        assert_eq!(a.get(), 0, "speculative writes must be discarded");
        // The engine is reusable after the unwind.
        assert_eq!(attempt(&profile(), &mut Rng::new(2), || a.set(3)), Ok(()));
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn commit_point_panic_keeps_writes_private() {
        let _g = serial();
        crate::txn::init_panic_hook();
        let a = HtmCell::new(0u64);
        install(InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Commit,
            every: 1,
            kind: InjectKind::Panic,
        }]));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = attempt(&profile(), &mut Rng::new(1), || a.set(9));
        }));
        clear();
        assert!(unwound.is_err());
        assert!(!crate::txn::in_txn());
        assert_eq!(a.get(), 0, "a panic at commit entry must not publish");
    }

    /// The transaction state is armed in place, so every way out of an
    /// attempt — conflict abort, injected abort at commit, panicking body —
    /// must leave it idle for the next attempt on the same thread.
    #[test]
    fn attempt_is_rearmable_after_every_way_out() {
        use crate::txn::{in_txn, read_set_len, write_set_len};
        let _g = serial();
        crate::txn::init_panic_hook();
        let (a, b) = (HtmCell::new(0u64), HtmCell::new(0u64));
        let profile = profile();
        let mut rng = Rng::new(1);
        let mut next_attempt_works = |after: &str| {
            assert!(!in_txn(), "{after}: still in a transaction");
            assert_eq!((read_set_len(), write_set_len()), (0, 0), "{after}");
            let r = attempt(&profile, &mut rng, || {
                assert_eq!((read_set_len(), write_set_len()), (0, 0), "{after}");
                let v = a.get();
                b.set(v + 1);
                (read_set_len(), write_set_len())
            });
            assert_eq!(r, Ok((1, 1)), "{after}: sets must start empty");
            assert!(!in_txn(), "{after}");
        };

        let r = attempt(&profile, &mut Rng::new(2), || {
            let v = a.get();
            b.set(v);
            a.plain_store(v + 1); // a concurrent writer lands
            a.get()
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        next_attempt_works("conflict abort");

        const TOKEN: u64 = 0xA77E;
        let _scope = enter_scope(TOKEN);
        install(
            InjectPlan::new(vec![InjectRule {
                point: InjectPoint::Commit,
                every: 1,
                kind: InjectKind::Conflict,
            }])
            .scoped(TOKEN)
            .limited(1),
        );
        let r = attempt(&profile, &mut Rng::new(3), || {
            b.set(a.get());
        });
        assert_eq!(clear(), 1);
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        next_attempt_works("injected abort at commit");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = attempt(&profile, &mut Rng::new(4), || {
                b.set(a.get());
                std::panic::panic_any(InjectedPanic);
            });
        }));
        assert!(unwound.is_err());
        next_attempt_works("panicking body");
    }

    #[test]
    fn scoped_plan_only_fires_inside_matching_scope() {
        let _g = serial();
        install(
            InjectPlan::new(vec![InjectRule {
                point: InjectPoint::Begin,
                every: 1,
                kind: InjectKind::Conflict,
            }])
            .scoped(0xDEAD),
        );
        let profile = profile();
        let mut rng = Rng::new(1);
        assert!(
            attempt(&profile, &mut rng, || ()).is_ok(),
            "unscoped thread must not be hit"
        );
        {
            let _scope = enter_scope(0xDEAD);
            assert_eq!(
                attempt(&profile, &mut rng, || ()).unwrap_err().code,
                AbortCode::Conflict,
                "matching scope must be hit"
            );
            let _inner = enter_scope(0xBEEF);
            assert!(
                attempt(&profile, &mut rng, || ()).is_ok(),
                "a different scope must not be hit"
            );
        }
        assert!(
            attempt(&profile, &mut rng, || ()).is_ok(),
            "dropping the guard must restore the previous scope"
        );
        assert_eq!(clear(), 1);
    }

    #[test]
    fn crash_plan_fires_once_at_the_planned_consult() {
        let _g = serial();
        crate::txn::init_panic_hook();
        install_crash(CrashPlan::new(CrashPoint::PreCommit, 3));
        assert!(!crashed());
        crash_at(CrashPoint::PreCommit); // 1
        crash_at(CrashPoint::WalAppend); // other points don't count
        crash_at(CrashPoint::PreCommit); // 2
        assert!(!crashed());
        let died = std::panic::catch_unwind(|| crash_at(CrashPoint::PreCommit)); // 3
        let payload = died.expect_err("the third consult must fire");
        assert!(payload.downcast_ref::<InjectedCrash>().is_some());
        assert!(crashed(), "firing must mark the process dead");
        // One-shot: further consults are inert on the dead process.
        crash_at(CrashPoint::PreCommit);
        assert!(clear_crash(), "clear must report the plan fired");
        assert!(!crashed());
        crash_at(CrashPoint::PreCommit); // no plan installed: inert
        assert!(!clear_crash());
    }

    #[test]
    fn mid_record_crash_returns_torn_mode_for_the_caller() {
        let _g = serial();
        crate::txn::init_panic_hook();
        install_crash(CrashPlan::new(CrashPoint::MidRecord, 1).with_torn(TornMode::Flip));
        let mode = crash_at_mid_record();
        assert_eq!(mode, Some(TornMode::Flip));
        assert!(
            crashed(),
            "a firing mid-record consult marks the process dead before the caller corrupts"
        );
        let died = std::panic::catch_unwind(|| crash_now());
        assert!(died
            .expect_err("crash_now must unwind")
            .downcast_ref::<InjectedCrash>()
            .is_some());
        assert!(clear_crash());
        // Default damage mode is Truncate.
        install_crash(CrashPlan::new(CrashPoint::MidRecord, 1));
        assert_eq!(crash_at_mid_record(), Some(TornMode::Truncate));
        assert!(clear_crash());
    }

    #[test]
    fn scoped_crash_only_fires_inside_matching_scope() {
        let _g = serial();
        crate::txn::init_panic_hook();
        install_crash(CrashPlan::new(CrashPoint::WalAppend, 1).scoped(0xD1E));
        crash_at(CrashPoint::WalAppend); // unscoped thread: not counted
        assert!(!crashed());
        {
            let _scope = enter_scope(0xD1E);
            let died = std::panic::catch_unwind(|| crash_at(CrashPoint::WalAppend));
            assert!(died.is_err(), "matching scope must die");
        }
        assert!(clear_crash());
    }

    #[test]
    fn zero_after_never_fires() {
        let _g = serial();
        install_crash(CrashPlan::new(CrashPoint::PostCommit, 0));
        for _ in 0..10 {
            crash_at(CrashPoint::PostCommit);
        }
        assert!(!crashed());
        assert!(!clear_crash());
    }

    #[test]
    fn window_confines_rules_to_virtual_time_range() {
        use ale_vtime::{Event, Platform, Sim};
        let _g = serial();
        let aborts = Sim::new(Platform::testbed(), 1).run(|_| {
            install(
                InjectPlan::new(vec![InjectRule {
                    point: InjectPoint::Begin,
                    every: 1,
                    kind: InjectKind::Conflict,
                }])
                .windowed(1_000, 2_000),
            );
            let profile = profile();
            let mut rng = Rng::new(1);
            let mut aborts = [0u32; 3];
            // Phase 0: before the window opens.
            if attempt(&profile, &mut rng, || ()).is_err() {
                aborts[0] += 1;
            }
            ale_vtime::tick(Event::LocalWork(1_500)); // now inside [1000, 2000)
            if attempt(&profile, &mut rng, || ()).is_err() {
                aborts[1] += 1;
            }
            ale_vtime::tick(Event::LocalWork(1_000)); // past the window
            if attempt(&profile, &mut rng, || ()).is_err() {
                aborts[2] += 1;
            }
            clear();
            aborts
        });
        assert_eq!(
            aborts.results[0],
            [0, 1, 0],
            "the rule must fire only inside the vtime window"
        );
    }
}
