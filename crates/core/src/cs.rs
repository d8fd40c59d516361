//! The critical-section driver (§4): the policy-independent engine that
//! executes one ALE-enabled critical section in HTM, SWOpt, or Lock mode.
//!
//! "Each time a critical section is attempted, the library invokes the
//! policy to determine the mode in which it should be executed … and
//! executes appropriate critical section preamble code accordingly. For
//! Lock mode, it acquires the lock. For HTM mode, it first waits for the
//! lock to be free, then begins a hardware transaction, and then checks
//! that the lock is not held … For SWOpt execution, the library returns to
//! user code without acquiring the lock."
//!
//! The body closure receives a [`CsCtx`] (the `GET_EXEC_MODE` analogue) and
//! returns a [`CsOutcome`]: `Done(value)`, or `SwOptFail` when a SWOpt
//! execution detected interference and wants the driver to retry (§3.2's
//! loop around `GetImp<true>`).

use std::mem::ManuallyDrop;

use ale_htm::{mutated, AbortCode, BreakerTransition, Mutation, StormBreaker};
use ale_sync::Backoff;
use ale_vtime::now;

use crate::check_hooks::{emit, CsEvent};
use crate::frame::HeldKind;
use crate::granule::{Granule, StatSink};
use crate::meta::LockMeta;
use crate::mode::ExecMode;
use crate::policy::{ExecRecord, ModeCaps};
use crate::scope::ScopeId;
use crate::thread::{self, CsThread, SectionRng};
use crate::Ale;

/// Explicit-abort code for "a nested critical section does not allow HTM"
/// (§4.1: the enclosing hardware transaction must abort).
pub const ABORT_NESTED_NO_HTM: u8 = 0xFE;

/// Explicit-abort code for a mode-protocol violation detected inside a
/// hardware transaction (a body signalled a SWOpt outcome while flattened
/// into an enclosing HTM execution). The enclosing driver stops retrying
/// HTM and falls back to a mode where the body's answer is meaningful.
pub const ABORT_PROTOCOL: u8 = 0xFC;

/// A mode-protocol violation: the body returned a SWOpt outcome
/// ([`CsOutcome::SwOptFail`] / [`CsOutcome::SwOptSelfAbort`]) from a mode
/// where that answer is meaningless. Debug builds still assert (the old
/// fail-fast behaviour); release builds recover — HTM executions fall back
/// (per the `SwOptFail` no-harmful-side-effects contract re-running is
/// safe), and Lock-mode executions release the lock, then raise this type
/// as a typed panic payload since no value exists to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsProtocolError {
    /// A SWOpt outcome was signalled by a body running in HTM mode.
    SwOptOutcomeInHtm,
    /// A SWOpt outcome was signalled by a body running in Lock mode.
    SwOptOutcomeInLock,
}

impl std::fmt::Display for CsProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsProtocolError::SwOptOutcomeInHtm => {
                write!(f, "SWOpt failure signalled while in HTM mode")
            }
            CsProtocolError::SwOptOutcomeInLock => {
                write!(f, "a Lock-mode execution cannot fail")
            }
        }
    }
}

impl std::error::Error for CsProtocolError {}

/// How much budget a "real" HTM abort consumes relative to a lock-held
/// abort ("the library accounts for such aborts in a much lighter way than
/// for others", §4).
const LOCK_HELD_WEIGHT: u32 = 4;

/// Per-critical-section options (the choice of `BEGIN_CS` variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsOptions {
    /// HTM mode is allowed for this critical section.
    pub htm: bool,
    /// A SWOpt path exists (the `BEGIN_CS` "SWOpt variant").
    pub swopt: bool,
    /// The critical section may execute a conflicting region, i.e. it can
    /// interfere with SWOpt readers. Drives the grouping mechanism's
    /// deferral. Pure readers should clear this.
    pub conflicting: bool,
}

impl Default for CsOptions {
    fn default() -> Self {
        CsOptions {
            htm: true,
            swopt: false,
            conflicting: true,
        }
    }
}

impl CsOptions {
    /// Defaults: HTM allowed, no SWOpt path, may conflict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a SWOpt path.
    pub fn with_swopt(mut self) -> Self {
        self.swopt = true;
        self
    }

    /// Forbid HTM for this critical section.
    pub fn without_htm(mut self) -> Self {
        self.htm = false;
        self
    }

    /// Declare that this critical section never interferes with SWOpt
    /// readers (it has no conflicting region).
    pub fn non_conflicting(mut self) -> Self {
        self.conflicting = false;
        self
    }
}

/// Result of one body invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsOutcome<T> {
    /// The critical section completed with this value.
    Done(T),
    /// (SWOpt mode only.) Interference was detected; the attempt had no
    /// harmful side effects and the driver should retry per policy.
    SwOptFail,
    /// (SWOpt mode only.) The "self abort" idiom (§3.3): the body reached a
    /// conflicting region it cannot perform optimistically; retry the
    /// critical section *without* the SWOpt path.
    SwOptSelfAbort,
}

/// Execution context handed to the body (the `GET_EXEC_MODE` /
/// `COULD_SWOPT_BE_RUNNING` surface).
pub struct CsCtx<'a> {
    mode: ExecMode,
    meta: &'a LockMeta,
    force_bump: bool,
}

impl CsCtx<'_> {
    /// Which mode this attempt is executing in.
    #[inline]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// In SWOpt mode, sugar for `self.mode() == ExecMode::SwOpt`.
    #[inline]
    pub fn is_swopt(&self) -> bool {
        self.mode == ExecMode::SwOpt
    }

    /// The `COULD_SWOPT_BE_RUNNING` query (§3.3): may a SWOpt execution of
    /// a critical section under this lock be running right now?
    ///
    /// * **HTM mode**: reads the striped indicator *transactionally*, so
    ///   eliding the version bump on a `false` answer is sound — a SWOpt
    ///   path starting later aborts this transaction.
    /// * **Lock mode**: always `true`. A Lock-mode execution cannot
    ///   subscribe, so it must bump its version unconditionally.
    /// * **SWOpt mode**: trivially `true`.
    pub fn could_swopt_be_running(&self) -> bool {
        if self.force_bump {
            return true;
        }
        match self.mode {
            ExecMode::Htm => self.meta.grouping.could_swopt_be_running(),
            ExecMode::Lock | ExecMode::SwOpt => true,
        }
    }
}

/// Internal adapter over the concrete lock flavour (mutex, RW-shared,
/// RW-exclusive); the driver is generic over this.
pub(crate) trait LockOps {
    /// Acquire; returns how the hold should be recorded.
    fn acquire(&self) -> HeldKind;
    /// Deadline acquisition for the stall watchdog: `None` when the budget
    /// expired without acquiring.
    fn acquire_for(&self, budget_ns: u64) -> Option<HeldKind>;
    fn release(&self);
    /// Is the lock held in a way that conflicts with eliding this critical
    /// section? Reads through `HtmCell::get`, so inside a transaction it
    /// subscribes and outside it is a consistent plain read.
    fn is_conflicting_locked(&self) -> bool;
    /// The hold kind this critical section needs for re-entrancy checks.
    fn required_hold(&self) -> HeldKind;
}

/// Probabilistic SNZI respect (§4.2): defer with the configured
/// probability; 1000‰ is the paper's always-defer behaviour, which draws
/// nothing.
fn defer_now(ale: &Ale, rng: &mut SectionRng<'_>) -> bool {
    let p = ale.config().grouping_defer_permille;
    p >= 1000 || rng.get().gen_ratio(p, 1000)
}

/// Trace hook: one `ModeDecision` record per completed execution `rec`.
/// The enabled-check keeps label interning (a mutex) and the reason off
/// the disabled path; the `TraceDropEvent` self-test mutation skips SWOpt
/// completions so ale-check can prove the trace-digest oracle notices a
/// dropped emit.
#[inline]
fn trace_mode_decision(meta: &LockMeta, rec: &ExecRecord, reentrant: bool) {
    if !ale_trace::is_enabled() {
        return;
    }
    let Some(mode) = rec.mode else { return };
    if mutated(Mutation::TraceDropEvent) && mode == ExecMode::SwOpt {
        return;
    }
    let tried = rec.htm_attempts + rec.swopt_attempts;
    let why = match mode {
        ExecMode::Htm => ale_trace::reason::HTM_COMMIT,
        ExecMode::SwOpt => ale_trace::reason::SWOPT_COMMIT,
        ExecMode::Lock if reentrant => ale_trace::reason::LOCK_REENTRANT,
        ExecMode::Lock if tried > 0 || rec.breaker_tripped => ale_trace::reason::LOCK_FALLBACK,
        ExecMode::Lock => ale_trace::reason::LOCK_PLANNED,
    };
    ale_trace::emit(ale_trace::TraceEvent::mode_decision(
        ale_trace::label_id(meta.label()),
        mode.index() as u8,
        why,
        (tried + u32::from(mode == ExecMode::Lock)) as u64,
    ));
}

/// Can an existing hold satisfy a nested requirement?
fn hold_satisfies(held: HeldKind, required: HeldKind) -> bool {
    match (held, required) {
        (HeldKind::Excl, _) => true,
        (HeldKind::Shared, HeldKind::Shared) => true,
        (HeldKind::Shared, HeldKind::Excl) => false,
    }
}

/// The whole `BEGIN_CS … END_CS` bracket: look the thread's block up (the
/// one thread-local access this crate makes per critical section) and run
/// the driver.
pub(crate) fn bracket<T, O: LockOps + ?Sized>(
    ale: &Ale,
    meta: &LockMeta,
    scope: &'static ScopeId,
    ops: &O,
    opts: CsOptions,
    body: &mut dyn FnMut(&CsCtx<'_>) -> CsOutcome<T>,
) -> T {
    thread::with(|t| run_cs(t, ale, meta, scope, ops, opts, body))
}

/// Execute one ALE critical section in `scope` on the thread whose block is
/// `t`. The scope is pushed only around a SWOpt or Lock body, whose nested
/// sections need it; the granule's context is computed without a push.
fn run_cs<T, O: LockOps + ?Sized>(
    t: &CsThread,
    ale: &Ale,
    meta: &LockMeta,
    scope: &'static ScopeId,
    ops: &O,
    opts: CsOptions,
    body: &mut dyn FnMut(&CsCtx<'_>) -> CsOutcome<T>,
) -> T {
    let lock_key = meta.key();

    if meta.is_poisoned() {
        // A previous Lock-mode execution panicked while holding this lock;
        // refuse with a typed, catchable payload until explicit recovery.
        std::panic::panic_any(crate::LockPoison { lock: meta.label() });
    }

    // --- Flattened nesting inside an HTM execution (§4.1) ---------------
    if ale_htm::in_txn() {
        if !opts.htm {
            ale_htm::explicit_abort(ABORT_NESTED_NO_HTM);
        }
        let held_ok = t
            .held_kind(lock_key)
            .is_some_and(|h| hold_satisfies(h, ops.required_hold()));
        if !held_ok && ops.is_conflicting_locked() {
            // Transactional read: we are now subscribed; abort since held.
            ale_htm::explicit_abort(AbortCode::LOCK_HELD);
        }
        return match body(&CsCtx {
            mode: ExecMode::Htm,
            meta,
            force_bump: ale.config().force_version_bump,
        }) {
            CsOutcome::Done(v) => v,
            CsOutcome::SwOptFail | CsOutcome::SwOptSelfAbort => {
                // Mode-protocol violation while flattened into an enclosing
                // hardware transaction: abort it so the enclosing driver
                // falls back to a mode where the body's answer makes sense.
                debug_assert!(false, "{}", CsProtocolError::SwOptOutcomeInHtm);
                ale_htm::explicit_abort(ABORT_PROTOCOL)
            }
        };
    }

    let granule = meta.granules.lookup(
        t.context_in(scope),
        || t.labels_in(scope),
        || ale.policy().make_granule_state(),
    );
    let mut rng = t.section_rng(ale.config().seed);

    let held = t.held_kind(lock_key);
    let reentrant = held.is_some_and(|h| hold_satisfies(h, ops.required_hold()));
    // A shared holder opening an exclusive critical section on the same
    // lock is a lock upgrade: unsupported (like the paper's library, ALE
    // requires proper nesting) and guaranteed to deadlock — fail loudly.
    assert!(
        !(held == Some(HeldKind::Shared) && ops.required_hold() == HeldKind::Excl),
        "improper nesting: exclusive critical section on a lock this thread          holds shared (lock upgrade is not supported)"
    );

    let caps = ModeCaps {
        htm: opts.htm && ale.htm_enabled(),
        swopt: opts.swopt
            && ale.swopt_enabled()
            && !reentrant
            && !t.in_swopt_for_other_lock(lock_key),
    };
    // One-branch mode decision: a valid plan word whose absorbed bits
    // cover `caps` decides the whole execution with a single load+branch.
    // Misses (cold granule, phase transition, breaker edge, new
    // capability) take the slow path — run the policy, republish. Both
    // policies' `plan` is tick-free, so hit and miss schedule identically
    // under the simulator.
    let plan = match granule.plan_cache.cached(caps) {
        Some(p) => p,
        None => {
            let epoch = ale
                .policy()
                .plan_cacheable()
                .then(|| granule.plan_cache.begin_publish());
            let fresh = ale.policy().plan(meta, granule, caps);
            if let Some(e) = epoch {
                granule.plan_cache.publish(fresh, caps, e);
            }
            fresh.clamped(caps)
        }
    };
    let use_grouping = plan.use_grouping && ale.grouping_enabled();

    // Measure 100 % during learning, ~3 % otherwise. A measured section
    // reads the clock twice on a first-attempt success: here, which is also
    // the first attempt's start, and at the success, which is also the
    // execution's end.
    let measure = plan.measure || t.sample_due(&mut rng);
    let exec_start = measure.then(now);

    let mut rec = ExecRecord::new();
    let (value, exec_end) = {
        // Flushed where it lives, never moved: at the end of this block on
        // completion, or by a panicking body's unwind.
        let mut sink = StatSink::new(&granule.stats);
        let out = run_protocol(
            t,
            ale,
            meta,
            scope,
            ops,
            opts,
            body,
            granule,
            &mut rng,
            plan,
            use_grouping,
            reentrant,
            exec_start,
            lock_key,
            &mut rec,
            &mut sink,
        );
        sink.record_execution();
        out
    };
    if let (Some(start), Some(end)) = (exec_start, exec_end) {
        let total = end.saturating_sub(start);
        granule.stats.exec_time.add_duration(total);
        rec.exec_ns = Some(total);
    }
    ale.policy().on_complete(meta, granule, &rec);
    value
}

/// Run the attempts `plan` allows until one succeeds; returns the value
/// and, when measured, the success time (the execution's end).
#[allow(clippy::too_many_arguments)]
fn run_protocol<T, O: LockOps + ?Sized>(
    t: &CsThread,
    ale: &Ale,
    meta: &LockMeta,
    scope: &'static ScopeId,
    ops: &O,
    opts: CsOptions,
    body: &mut dyn FnMut(&CsCtx<'_>) -> CsOutcome<T>,
    granule: &Granule,
    rng: &mut SectionRng<'_>,
    plan: crate::policy::AttemptPlan,
    use_grouping: bool,
    reentrant: bool,
    exec_start: Option<u64>,
    lock_key: usize,
    rec: &mut ExecRecord,
    sink: &mut StatSink<'_>,
) -> (T, Option<u64>) {
    // The one attempt path, in three pieces every mode shares: `begin`
    // counts and reports the attempt, `guard` arms its unwind path, and
    // `run_body` runs the body — a SWOpt or Lock body inside the section's
    // scope and under a frame recording (lock, mode); an HTM body bare.
    let force_bump = ale.config().force_version_bump;
    let measure = exec_start.is_some();
    let mut first_start = exec_start;
    let mut begin = |sink: &mut StatSink<'_>, mode| {
        sink.record_attempt(mode);
        emit(CsEvent::Attempt {
            lock: meta.label(),
            mode,
        });
        first_start.take().or_else(|| measure.then(now))
    };
    let guard = |mode, breaker, owns_lock| Unwind {
        t,
        meta,
        ops,
        lock_key,
        mode,
        region_mark: (mode != ExecMode::Htm).then(ale_sync::open_region_count),
        breaker,
        owns_lock,
    };
    let mut run_body = |mode| {
        let ctx = CsCtx {
            mode,
            meta,
            force_bump,
        };
        if mode == ExecMode::Htm {
            body(&ctx)
        } else {
            t.with_frame(scope, lock_key, mode, || body(&ctx))
        }
    };
    // SWOpt's registrations live out here so that a SWOpt success keeps
    // them until after the success tail; a fall-through to Lock mode drops
    // them first.
    let mut swopt_active = None;
    let mut retry_guard = None;
    let mut fallback_start = None;
    let (mode, t0, value) = 'done: {
        // --------------------------- HTM mode ---------------------------
        let breaker = granule.breaker.as_ref();
        let htm_denied = plan.htm_attempts > 0 && breaker.is_some_and(|b| !b.allow());
        if htm_denied {
            // The circuit is open after an abort storm: go straight to the
            // fallback modes; once the cool-down expires a later execution
            // flips the circuit half-open and the cohort probes HTM again.
            rec.breaker_tripped = true;
        }
        if plan.htm_attempts > 0 && !htm_denied {
            let mut budget = plan.htm_attempts.saturating_mul(LOCK_HELD_WEIGHT);
            let mut backoff = Backoff::with_max_exp(8);
            let profile = ale
                .htm_profile()
                .expect("plan.htm_attempts > 0 without HTM");
            while budget > 0 {
                // Preamble: wait for the lock to be free (unless we hold it —
                // then the check is skipped entirely, §4.1).
                if !reentrant {
                    let mut wait = Backoff::with_max_exp(8);
                    while ops.is_conflicting_locked() {
                        wait.spin();
                    }
                }
                if opts.conflicting && use_grouping && defer_now(ale, rng) {
                    meta.grouping.wait_for_swopt_retries();
                }

                rec.htm_attempts += 1;
                let t0 = begin(sink, ExecMode::Htm);
                let seed = &mut *rng;
                let result = guard(ExecMode::Htm, breaker, false).run(|mode| {
                    ale_htm::attempt_seeded(
                        profile,
                        || seed.get().next_u64(),
                        || {
                            // Self-test mutation (`LazySubscription`): skipping
                            // the in-transaction lock subscription is the
                            // classic unsafe-TLE bug (Dice et al.) — ale-check's
                            // oracles must catch it.
                            if !mutated(Mutation::LazySubscription)
                                && !reentrant
                                && ops.is_conflicting_locked()
                            {
                                // Subscribed and held: abort, possibly retry.
                                ale_htm::explicit_abort(AbortCode::LOCK_HELD);
                            }
                            run_body(mode)
                        },
                    )
                });
                match result {
                    Ok(CsOutcome::Done(v)) => {
                        if let Some(b) = breaker {
                            if b.record_commit() == BreakerTransition::Restored {
                                // Breaker edge: force a replan (harmless —
                                // the plan itself never reads breaker state,
                                // but an edge must repack the word).
                                granule.plan_cache.invalidate();
                                emit(CsEvent::BreakerRestore { lock: meta.label() });
                            }
                        }
                        break 'done (ExecMode::Htm, t0, v);
                    }
                    Ok(CsOutcome::SwOptFail | CsOutcome::SwOptSelfAbort) => {
                        // Mode-protocol violation: the transaction committed,
                        // yet the body claimed a SWOpt outcome. `SwOptFail`
                        // promises the attempt had no harmful side effects, so
                        // abandoning HTM and re-running via the fallback path
                        // is safe.
                        debug_assert!(false, "{}", CsProtocolError::SwOptOutcomeInHtm);
                        emit(CsEvent::ProtocolError {
                            lock: meta.label(),
                            error: CsProtocolError::SwOptOutcomeInHtm,
                        });
                        break;
                    }
                    Err(status) => {
                        emit(CsEvent::HtmAbort {
                            lock: meta.label(),
                            code: status.code,
                        });
                        if ale_trace::is_enabled() {
                            ale_trace::emit(ale_trace::TraceEvent::htm_abort(
                                ale_trace::label_id(meta.label()),
                                status.code.class(),
                                status.code.detail(),
                                status.may_retry,
                                rec.htm_attempts as u64,
                            ));
                        }
                        if let Some(t0) = t0 {
                            rec.htm_fail_ns += now().saturating_sub(t0);
                        }
                        // Classify the abort; lock-held aborts are budgeted
                        // lightly to avoid the cascade effect (§4).
                        let lock_held = status.code.is_lock_held()
                            || (status.code == AbortCode::Conflict && ops.is_conflicting_locked());
                        if lock_held {
                            sink.record_lock_held_abort();
                            rec.lock_held_aborts += 1;
                            budget = budget.saturating_sub(1);
                        } else {
                            match status.code {
                                AbortCode::Capacity => {
                                    sink.record_capacity_abort();
                                    rec.capacity_abort = true;
                                    budget = 0; // retrying cannot help
                                }
                                AbortCode::Explicit(ABORT_NESTED_NO_HTM) => {
                                    budget = 0; // a nested CS forbids HTM
                                }
                                AbortCode::Explicit(ABORT_PROTOCOL) => {
                                    // A flattened nested critical section hit a
                                    // mode-protocol violation: retrying in HTM
                                    // would just hit it again.
                                    emit(CsEvent::ProtocolError {
                                        lock: meta.label(),
                                        error: CsProtocolError::SwOptOutcomeInHtm,
                                    });
                                    budget = 0;
                                }
                                AbortCode::Explicit(AbortCode::TX_UNFRIENDLY) => {
                                    // The body needs something transactions
                                    // cannot do (an internal mutex, allocation
                                    // fallback): no point retrying in HTM.
                                    budget = 0;
                                }
                                AbortCode::Conflict => {
                                    sink.record_conflict_abort();
                                    budget = budget.saturating_sub(LOCK_HELD_WEIGHT);
                                }
                                _ => {
                                    sink.record_spurious_abort();
                                    budget = budget.saturating_sub(LOCK_HELD_WEIGHT);
                                }
                            }
                        }
                        // Feed the breaker: conflict/capacity aborts that are
                        // not attributable to a lock acquisition are what a
                        // storm is made of.
                        if let Some(b) = breaker {
                            let storm = !lock_held
                                && matches!(status.code, AbortCode::Conflict | AbortCode::Capacity);
                            if b.record_abort(storm, rng.get()) == BreakerTransition::Tripped {
                                granule.plan_cache.invalidate();
                                emit(CsEvent::BreakerTrip { lock: meta.label() });
                            }
                            // An Open breaker ends this execution's HTM
                            // attempts: whether a fresh trip or a failed probe
                            // cohort, go straight to the fallback — a commit
                            // while the circuit is open would count nowhere
                            // and never restore HTM.
                            if b.state() == ale_htm::BreakerState::Open {
                                budget = 0;
                            }
                        }
                        backoff.spin();
                    }
                }
            }
            rec.htm_gave_up = true;
        }
        fallback_start = (measure && rec.htm_gave_up).then(now);

        // -------------------------- SWOpt mode --------------------------
        if plan.swopt_attempts > 0 {
            // Register as an active SWOpt executor for the whole execution
            // so COULD_SWOPT_BE_RUNNING covers us (§3.3).
            swopt_active = Some(meta.grouping.swopt_active());
            let mut backoff = Backoff::with_max_exp(6);
            for _ in 0..plan.swopt_attempts {
                rec.swopt_attempts += 1;
                let t0 = begin(sink, ExecMode::SwOpt);
                match guard(ExecMode::SwOpt, None, false).run(&mut run_body) {
                    CsOutcome::Done(v) => break 'done (ExecMode::SwOpt, t0, v),
                    CsOutcome::SwOptFail => {
                        sink.record_swopt_fail();
                        emit(CsEvent::SwOptFail { lock: meta.label() });
                        if use_grouping && retry_guard.is_none() {
                            // Announce "SWOpt retrying" so conflicting
                            // executions defer to us (§4.2 grouping).
                            retry_guard = Some(meta.grouping.swopt_retrying());
                        }
                        backoff.spin();
                    }
                    CsOutcome::SwOptSelfAbort => {
                        // Self abort (§3.3): stop optimistic attempts and
                        // fall through to Lock mode immediately.
                        sink.record_swopt_fail();
                        emit(CsEvent::SwOptFail { lock: meta.label() });
                        break;
                    }
                }
            }
            retry_guard = None;
            swopt_active = None;
        }

        // --------------------------- Lock mode --------------------------
        if opts.conflicting && use_grouping && defer_now(ale, rng) {
            meta.grouping.wait_for_swopt_retries();
        }
        let t0 = begin(sink, ExecMode::Lock);
        // A thread already holding a satisfying lock runs the body without
        // re-acquiring; the enclosing Lock-mode execution poisons and
        // releases.
        if !reentrant {
            let kind = acquire_with_watchdog(ale, meta, ops);
            t.note_acquired(lock_key, kind);
        }
        match guard(ExecMode::Lock, None, !reentrant).run(&mut run_body) {
            CsOutcome::Done(v) => (ExecMode::Lock, t0, v),
            CsOutcome::SwOptFail | CsOutcome::SwOptSelfAbort => {
                // The body ran to completion under the lock (released by
                // now) yet claimed a SWOpt outcome. No value exists to
                // return, so raise the typed error as a catchable panic
                // payload. The lock is NOT poisoned: the body did not
                // unwind, so the protected data saw a complete execution.
                debug_assert!(false, "{}", CsProtocolError::SwOptOutcomeInLock);
                emit(CsEvent::ProtocolError {
                    lock: meta.label(),
                    error: CsProtocolError::SwOptOutcomeInLock,
                });
                std::panic::panic_any(CsProtocolError::SwOptOutcomeInLock)
            }
        }
    };

    // ------------------------- the success tail -------------------------
    sink.record_success(mode);
    let end = t0.map(|t0| {
        let end = now();
        granule.stats.success_time[mode.index()].add_duration(end.saturating_sub(t0));
        end
    });
    rec.mode = Some(mode);
    emit(CsEvent::Complete {
        lock: meta.label(),
        mode,
    });
    trace_mode_decision(meta, rec, reentrant);
    if let (Some(fs), Some(end)) = (fallback_start, end) {
        rec.fallback_ns = Some(end.saturating_sub(fs));
    }
    // A SWOpt success leaves its registrations here, after the tail.
    drop((retry_guard, swopt_active));
    (value, end)
}

/// The exit path of a body that unwinds, in any mode: [`Unwind::run`] arms
/// it before the body runs and disarms it (`ManuallyDrop`) when the body
/// returns, so `Drop` runs only on unwind. It repairs what the body may
/// have left broken and the panic carries on to the caller untouched. An
/// HTM body's panic is caught once, by `ale_htm::attempt`, which tears the
/// transaction down (buffered writes and region bumps discarded) and
/// re-raises it.
struct Unwind<'a, O: LockOps + ?Sized> {
    t: &'a CsThread,
    meta: &'a LockMeta,
    ops: &'a O,
    lock_key: usize,
    mode: ExecMode,
    /// Regions open before the body ran; `None` in HTM mode, whose region
    /// bumps are buffered and die with the transaction.
    region_mark: Option<usize>,
    /// HTM mode: a panicking probe still counts as a failed attempt.
    breaker: Option<&'a StormBreaker>,
    /// This execution acquired the lock (Lock mode, not re-entered), so it
    /// releases it on either way out.
    owns_lock: bool,
}

impl<O: LockOps + ?Sized> Unwind<'_, O> {
    /// Run `f` (the body, or a transaction around it) in this guard's mode.
    #[inline]
    fn run<R>(self, f: impl FnOnce(ExecMode) -> R) -> R {
        let r = f(self.mode);
        let this = ManuallyDrop::new(self);
        if this.owns_lock {
            this.t.note_released(this.lock_key);
            this.ops.release();
        }
        r
    }
}

impl<O: LockOps + ?Sized> Drop for Unwind<'_, O> {
    /// The body unwound. Order matters: restore seqlock parity while still
    /// holding the lock, and poison *before* releasing, so a racing entrant
    /// either blocks on the lock or sees the poison flag.
    #[cold]
    fn drop(&mut self) {
        if let Some(mark) = self.region_mark {
            close_regions_after_panic(mark);
        }
        if let Some(b) = self.breaker {
            b.record_benign_abort();
        }
        let lock = self.meta.label();
        if self.owns_lock {
            self.meta.poison();
        }
        emit(CsEvent::Panicked {
            lock,
            mode: self.mode,
        });
        if self.owns_lock {
            emit(CsEvent::Poisoned { lock });
            // `note_released` panics on broken bookkeeping, and a second
            // panic while unwinding aborts the process.
            self.t.note_released_on_unwind(self.lock_key);
            self.ops.release();
        }
    }
}

/// Restore seqlock parity after a panicking body: close every conflicting
/// region this critical section opened and left open (outermost mark
/// captured before the body ran). The `LeakRegionOnPanic` self-test
/// mutation skips the repair — ale-check's oracles must then observe the
/// stuck-odd version / leaked region.
fn close_regions_after_panic(mark: usize) {
    if !mutated(Mutation::LeakRegionOnPanic) {
        ale_sync::close_open_regions(mark);
    }
}

/// Lock-mode acquisition under the optional stall watchdog: with a
/// non-zero budget, acquire with a deadline and emit a
/// [`CsEvent::LockStall`] at every expiry, then keep waiting — the
/// watchdog reports stalls, it does not break mutual exclusion.
fn acquire_with_watchdog<O: LockOps + ?Sized>(ale: &Ale, meta: &LockMeta, ops: &O) -> HeldKind {
    let budget = ale.config().stall_watchdog_ns;
    if budget == 0 {
        return ops.acquire();
    }
    let start = now();
    let mut expiries = 0u64;
    loop {
        if let Some(kind) = ops.acquire_for(budget) {
            if expiries > 0 && ale_trace::is_enabled() {
                // A previously stalled acquisition eventually succeeded.
                ale_trace::emit(ale_trace::TraceEvent::stall_clear(
                    ale_trace::label_id(meta.label()),
                    expiries.min(u8::MAX as u64) as u8,
                    now().saturating_sub(start),
                ));
            }
            return kind;
        }
        expiries += 1;
        emit(CsEvent::LockStall {
            lock: meta.label(),
            waited_ns: now().saturating_sub(start),
        });
    }
}
