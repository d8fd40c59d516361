//! # ale-core — the Adaptive Lock Elision library (SPAA 2014)
//!
//! A from-scratch Rust reproduction of the ALE library of Dice, Kogan, Lev,
//! Merrifield, and Moir: *Adaptive Integration of Hardware and Software
//! Lock Elision Techniques*, SPAA 2014.
//!
//! ALE executes each lock-based critical section in one of three modes —
//! **HTM** (Transactional Lock Elision), **SWOpt** (optimistic software
//! execution validated by explicit version numbers), or **Lock** — chosen
//! at runtime by a pluggable [`Policy`], per *(lock, context)* granule,
//! from fine-grained statistics the library collects.
//!
//! ## Mapping from the paper's C++ macros
//!
//! | Paper | Here |
//! |---|---|
//! | lock label + metadata declaration | [`Ale::new_lock`] returning [`AleLock`] |
//! | `BEGIN_CS` / `END_CS` | [`AleLock::cs`] with a closure body |
//! | `BEGIN_CS` SWOpt variant | [`CsOptions::with_swopt`] |
//! | `GET_EXEC_MODE` | [`CsCtx::mode`] |
//! | `COULD_SWOPT_BE_RUNNING` | [`CsCtx::could_swopt_be_running`] |
//! | `BEGIN_SCOPE("foo.CS1")` / `END_SCOPE` | [`with_scope`] |
//! | `BEGIN_CS_NAMED(cond-label)` | pass a different [`scope!`] per branch |
//! | `LockAPI` (acquire/release/is_locked) | [`ale_sync::RawLock`] / [`ale_sync::RawRwLock`] |
//!
//! ## Example
//!
//! ```
//! use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, ExecMode, StaticPolicy};
//! use ale_htm::HtmCell;
//! use ale_sync::SpinLock;
//! use ale_vtime::Platform;
//!
//! let ale = Ale::new(AleConfig::new(Platform::haswell()), StaticPolicy::new(3, 10));
//! let counter = HtmCell::new(0u64);
//! let lock = ale.new_lock("counter_lock", SpinLock::new());
//!
//! let v = lock.cs(scope!("increment"), CsOptions::new(), |cs| {
//!     // Runs in HTM mode (elided) or Lock mode, per policy.
//!     assert_ne!(cs.mode(), ExecMode::SwOpt, "no SWOpt path declared");
//!     let v = counter.get();
//!     counter.set(v + 1);
//!     CsOutcome::Done(v + 1)
//! });
//! assert_eq!(v, 1);
//! println!("{}", ale.report());
//! ```

use std::sync::Arc;

use ale_sync::{CachePadded, RawLock, RawRwLock, TickMutex};
use ale_vtime::{HtmProfile, Platform, Rng};

pub mod check_hooks;
pub mod cs;
pub mod frame;
pub mod granule;
pub mod grouping;
pub mod meta;
pub mod mode;
pub mod policy;
pub mod report;
pub mod scope;
mod thread;

pub use check_hooks::{clear_cs_observer, set_cs_observer, CsEvent};
pub use cs::{CsCtx, CsOptions, CsOutcome, CsProtocolError, ABORT_NESTED_NO_HTM, ABORT_PROTOCOL};
pub use granule::{Granule, GranuleStats, StatSink};
pub use grouping::Grouping;
pub use meta::LockMeta;
pub use mode::{ExecMode, Progression};
pub use policy::{AdaptivePolicy, AttemptPlan, ExecRecord, ModeCaps, Policy, StaticPolicy};
pub use report::{GranuleReport, LockReport, Report};
pub use scope::{current_context, ContextId, ScopeId};

use crate::cs::LockOps;
use crate::frame::HeldKind;

/// Library-wide configuration.
#[derive(Debug, Clone)]
pub struct AleConfig {
    /// The (simulated or real) platform; supplies the HTM profile.
    pub platform: Platform,
    /// Master switch for HTM mode ("enabling HTM mode … is as simple as
    /// using appropriate compilation flags", §3.1).
    pub enable_htm: bool,
    /// Master switch for SWOpt mode.
    pub enable_swopt: bool,
    /// Master switch for the grouping mechanism (ablation A2).
    pub grouping: bool,
    /// Force `CsCtx::could_swopt_be_running` to answer `true` in every
    /// mode, disabling the §3.3 version-bump elision (ablation A1).
    pub force_version_bump: bool,
    /// Probability (per mille) that a potentially-conflicting execution
    /// respects the grouping indicator and defers. 1000 (default) is the
    /// paper's behaviour; lower values implement its §4.2 suggestion that
    /// "concurrency could be increased by respecting the SNZI
    /// probabilistically, which would still ensure that potentially
    /// conflicting executions will eventually defer".
    pub grouping_defer_permille: u64,
    /// Seed for all library-internal randomness (sampling, HTM failure
    /// model); figures fix it for reproducibility.
    pub seed: u64,
    /// Per-granule abort-storm circuit breaker configuration. `None`
    /// (default) disables the breaker; the paper's figures run without it.
    pub breaker: Option<ale_htm::BreakerConfig>,
    /// Stall-watchdog budget for Lock-mode acquisitions, in (virtual)
    /// nanoseconds. When non-zero the driver acquires with a deadline and
    /// emits a [`CsEvent::LockStall`] each time the budget expires (it
    /// keeps waiting — the watchdog reports, it does not break mutual
    /// exclusion). 0 (default) disables the watchdog.
    pub stall_watchdog_ns: u64,
    /// Trace configuration. `None` (default) leaves the process-wide trace
    /// gate untouched; `Some` installs the configuration when the library
    /// instance is created (see [`ale_trace::configure`]). With tracing
    /// disabled every emit site costs one branch and runs are bit-identical
    /// to an uninstrumented build.
    pub trace: Option<ale_trace::TraceConfig>,
}

impl AleConfig {
    /// Everything enabled on the given platform.
    pub fn new(platform: Platform) -> Self {
        AleConfig {
            platform,
            enable_htm: true,
            enable_swopt: true,
            grouping: true,
            force_version_bump: false,
            grouping_defer_permille: 1000,
            seed: 0xA1E_5EED,
            breaker: None,
            stall_watchdog_ns: 0,
            trace: None,
        }
    }

    pub fn without_htm(mut self) -> Self {
        self.enable_htm = false;
        self
    }

    pub fn without_swopt(mut self) -> Self {
        self.enable_swopt = false;
        self
    }

    pub fn without_grouping(mut self) -> Self {
        self.grouping = false;
        self
    }

    /// Disable the §3.3 version-bump elision (ablation A1).
    pub fn with_forced_version_bump(mut self) -> Self {
        self.force_version_bump = true;
        self
    }

    /// Respect the grouping indicator only with the given probability
    /// (per mille) — the paper's probabilistic-SNZI suggestion (§4.2).
    pub fn with_probabilistic_grouping(mut self, permille: u64) -> Self {
        self.grouping_defer_permille = permille.min(1000);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Give every granule an abort-storm circuit breaker.
    pub fn with_breaker(mut self, cfg: ale_htm::BreakerConfig) -> Self {
        self.breaker = Some(cfg);
        self
    }

    /// [`AleConfig::with_breaker`] with the default thresholds.
    pub fn with_default_breaker(self) -> Self {
        self.with_breaker(ale_htm::BreakerConfig::default())
    }

    /// Enable the Lock-mode stall watchdog with the given budget.
    pub fn with_stall_watchdog(mut self, budget_ns: u64) -> Self {
        self.stall_watchdog_ns = budget_ns;
        self
    }

    /// Install a trace configuration when the library instance is created.
    pub fn with_trace(mut self, cfg: ale_trace::TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }
}

/// Panic payload raised when a critical section is entered under a
/// poisoned lock (a previous Lock-mode execution panicked while holding
/// it). Recover by catching the unwind, restoring the protected data's
/// invariants, and calling `clear_poison` on the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockPoison {
    /// The poisoned lock's registration label.
    pub lock: &'static str,
}

impl std::fmt::Display for LockPoison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ALE lock '{}' is poisoned by a panicked critical section",
            self.lock
        )
    }
}

/// Install (once) a panic hook that keeps ALE control-flow unwinds quiet:
/// the engine-level payloads silenced by
/// [`ale_htm::init_panic_hook`], plus [`LockPoison`] and
/// [`cs::CsProtocolError`] — both are raised to be *caught* by the caller,
/// and a backtrace per occurrence would drown harness output.
pub fn init_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        ale_htm::init_panic_hook();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<LockPoison>().is_none()
                && p.downcast_ref::<cs::CsProtocolError>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// An instance of the ALE library: configuration, policy, and the registry
/// of ALE-enabled locks (for reporting).
pub struct Ale {
    config: AleConfig,
    htm_profile: Option<HtmProfile>,
    policy: Arc<dyn Policy>,
    locks: TickMutex<Vec<Arc<LockMeta>>>,
}

impl Ale {
    /// Create a library instance with the given policy.
    pub fn new(config: AleConfig, policy: impl Policy) -> Arc<Ale> {
        if let Some(t) = &config.trace {
            ale_trace::configure(t);
        }
        let htm_profile = if config.enable_htm {
            config.platform.htm
        } else {
            None
        };
        // Startup capability probe: if the platform claims HTM but cannot
        // commit even an empty transaction, degrade to SWOpt+Lock instead
        // of burning a retry budget on every critical section.
        let htm_profile = htm_profile.filter(|p| {
            let mut rng = Rng::new(config.seed ^ 0x4854_4D50_524F_4245);
            ale_htm::htm_supported(p, &mut rng)
        });
        Arc::new(Ale {
            config,
            htm_profile,
            policy: Arc::new(policy),
            locks: TickMutex::new(Vec::new()),
        })
    }

    /// Register a mutual-exclusion lock with ALE (declares + initialises
    /// the lock metadata, §3.1).
    pub fn new_lock<L: RawLock>(self: &Arc<Self>, label: &'static str, lock: L) -> AleLock<L> {
        let meta = Arc::new(self.make_meta(label));
        self.locks.lock().push(Arc::clone(&meta));
        AleLock {
            ale: Arc::clone(self),
            meta,
            lock: CachePadded::new(lock),
        }
    }

    /// Register a readers-writer lock with ALE.
    pub fn new_rw_lock<L: RawRwLock>(
        self: &Arc<Self>,
        label: &'static str,
        lock: L,
    ) -> AleRwLock<L> {
        let meta = Arc::new(self.make_meta(label));
        self.locks.lock().push(Arc::clone(&meta));
        AleRwLock {
            ale: Arc::clone(self),
            meta,
            lock: CachePadded::new(lock),
        }
    }

    /// Lock metadata sized for this platform: the active-SWOpt indicator
    /// gets ~one stripe per 8 hardware threads (clamped 4..=16), balancing
    /// SWOpt registration contention against HTM elision-scan cost.
    fn make_meta(&self, label: &'static str) -> LockMeta {
        let stripes = (self.config.platform.logical_threads() as usize / 8).clamp(4, 16);
        LockMeta::with_grouping_stripes_and_breaker(
            label,
            self.policy.make_lock_state(),
            stripes,
            self.config.breaker.clone(),
        )
    }

    /// The library's statistics/profiling report (§3.4).
    pub fn report(&self) -> Report {
        report::build(self, &self.locks.lock())
    }

    /// Clear all collected statistics and restart policy learning from
    /// scratch for every registered lock. Benchmarks call this after
    /// prefilling data structures so setup traffic (single-threaded,
    /// uncontended) does not pollute what the policy learns.
    pub fn reset_statistics(&self) {
        for meta in self.locks.lock().iter() {
            for g in meta.granules.all() {
                g.stats.reset();
            }
            self.policy.reset(meta);
        }
    }

    /// All registered lock metadata (report internals, tests).
    pub fn lock_metas(&self) -> Vec<Arc<LockMeta>> {
        self.locks.lock().clone()
    }

    pub fn config(&self) -> &AleConfig {
        &self.config
    }

    pub(crate) fn policy(&self) -> &dyn Policy {
        &*self.policy
    }

    /// Policy name + configuration for report headers.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    pub(crate) fn htm_enabled(&self) -> bool {
        self.htm_profile.is_some()
    }

    pub(crate) fn swopt_enabled(&self) -> bool {
        self.config.enable_swopt
    }

    pub(crate) fn grouping_enabled(&self) -> bool {
        self.config.grouping
    }

    pub(crate) fn htm_profile(&self) -> Option<&HtmProfile> {
        self.htm_profile.as_ref()
    }
}

impl std::fmt::Debug for Ale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ale")
            .field("policy", &self.policy.name())
            .field("platform", &self.config.platform.kind.name())
            .field("htm", &self.htm_enabled())
            .field("swopt", &self.swopt_enabled())
            .finish()
    }
}

/// Run `f` inside an explicit scope (the paper's `BEGIN_SCOPE`/`END_SCOPE`,
/// §3.4) so critical sections inside `f` get a distinct context.
pub fn with_scope<R>(scope: &'static ScopeId, f: impl FnOnce() -> R) -> R {
    scope::enter_scope(scope, f)
}

// ---------------------------------------------------------------------------
// Mutual-exclusion lock wrapper
// ---------------------------------------------------------------------------

/// An ALE-enabled mutual-exclusion lock.
pub struct AleLock<L: RawLock> {
    ale: Arc<Ale>,
    meta: Arc<LockMeta>,
    /// On its own cache line: every acquire and release writes the lock
    /// word, while every section — elided ones included — reads `ale` and
    /// `meta` beside it, and the owner's neighbouring fields (a table's
    /// bucket and slab pointers) are read by every operation. The padding
    /// also aligns the owner, so what shares a line with what does not
    /// depend on where the owner is allocated.
    lock: CachePadded<L>,
}

struct MutexOps<'a, L: RawLock>(&'a L);

impl<L: RawLock> LockOps for MutexOps<'_, L> {
    fn acquire(&self) -> HeldKind {
        self.0.acquire();
        HeldKind::Excl
    }
    fn acquire_for(&self, budget_ns: u64) -> Option<HeldKind> {
        self.0.try_acquire_for(budget_ns).then_some(HeldKind::Excl)
    }
    fn release(&self) {
        self.0.release();
    }
    // The in-transaction lock-subscription check: it runs inside every
    // elided section, so it must stay alloc/IO/park-free.
    fn is_conflicting_locked(&self) -> bool {
        self.0.is_locked()
    }
    fn required_hold(&self) -> HeldKind {
        HeldKind::Excl
    }
}

impl<L: RawLock> AleLock<L> {
    /// Execute a critical section (the `BEGIN_CS … END_CS` bracket). The
    /// body runs in the mode the policy chose — query it via
    /// [`CsCtx::mode`] — and may return [`CsOutcome::SwOptFail`] from SWOpt
    /// mode to request a retry.
    pub fn cs<T>(
        &self,
        scope: &'static ScopeId,
        opts: CsOptions,
        mut body: impl FnMut(&CsCtx<'_>) -> CsOutcome<T>,
    ) -> T {
        cs::bracket(
            &self.ale,
            &self.meta,
            scope,
            &MutexOps(self.raw()),
            opts,
            &mut body,
        )
    }

    /// Sugar for critical sections without a SWOpt path: the body returns
    /// its value directly.
    pub fn cs_plain<T>(
        &self,
        scope: &'static ScopeId,
        opts: CsOptions,
        mut body: impl FnMut(&CsCtx<'_>) -> T,
    ) -> T {
        let opts = CsOptions {
            swopt: false,
            ..opts
        };
        self.cs(scope, opts, |ctx| CsOutcome::Done(body(ctx)))
    }

    /// This lock's ALE metadata (granule statistics etc.).
    pub fn meta(&self) -> &Arc<LockMeta> {
        &self.meta
    }

    /// The underlying lock (e.g. for uninstrumented baseline runs).
    pub fn raw(&self) -> &L {
        &self.lock
    }

    /// The owning library instance.
    pub fn ale(&self) -> &Arc<Ale> {
        &self.ale
    }

    /// Did a Lock-mode critical section panic while holding this lock?
    /// While poisoned, entering a critical section raises [`LockPoison`].
    pub fn is_poisoned(&self) -> bool {
        self.meta.is_poisoned()
    }

    /// Explicit recovery from a poisoned state: the caller asserts the
    /// protected data's invariants hold again.
    pub fn clear_poison(&self) {
        self.meta.clear_poison();
    }
}

// ---------------------------------------------------------------------------
// Readers-writer lock wrapper
// ---------------------------------------------------------------------------

/// An ALE-enabled readers-writer lock (the Kyoto Cabinet experiments'
/// outer lock).
pub struct AleRwLock<L: RawRwLock> {
    ale: Arc<Ale>,
    meta: Arc<LockMeta>,
    /// On its own cache line, as in [`AleLock`].
    lock: CachePadded<L>,
}

struct SharedOps<'a, L: RawRwLock>(&'a L);

impl<L: RawRwLock> LockOps for SharedOps<'_, L> {
    fn acquire(&self) -> HeldKind {
        self.0.acquire_shared();
        HeldKind::Shared
    }
    fn acquire_for(&self, budget_ns: u64) -> Option<HeldKind> {
        self.0
            .try_acquire_shared_for(budget_ns)
            .then_some(HeldKind::Shared)
    }
    fn release(&self) {
        self.0.release_shared();
    }
    // In-transaction subscription check (see above).
    fn is_conflicting_locked(&self) -> bool {
        // An elided *reader* conflicts only with writers.
        self.0.is_excl_locked()
    }
    fn required_hold(&self) -> HeldKind {
        HeldKind::Shared
    }
}

struct ExclOps<'a, L: RawRwLock>(&'a L);

impl<L: RawRwLock> LockOps for ExclOps<'_, L> {
    fn acquire(&self) -> HeldKind {
        self.0.acquire_excl();
        HeldKind::Excl
    }
    fn acquire_for(&self, budget_ns: u64) -> Option<HeldKind> {
        self.0
            .try_acquire_excl_for(budget_ns)
            .then_some(HeldKind::Excl)
    }
    fn release(&self) {
        self.0.release_excl();
    }
    // In-transaction subscription check (see above).
    fn is_conflicting_locked(&self) -> bool {
        // An elided *writer* conflicts with any holder.
        self.0.is_any_locked()
    }
    fn required_hold(&self) -> HeldKind {
        HeldKind::Excl
    }
}

impl<L: RawRwLock> AleRwLock<L> {
    /// Execute a critical section that would acquire the lock **shared**.
    pub fn shared_cs<T>(
        &self,
        scope: &'static ScopeId,
        opts: CsOptions,
        mut body: impl FnMut(&CsCtx<'_>) -> CsOutcome<T>,
    ) -> T {
        cs::bracket(
            &self.ale,
            &self.meta,
            scope,
            &SharedOps(self.raw()),
            opts,
            &mut body,
        )
    }

    /// Execute a critical section that would acquire the lock **exclusive**.
    pub fn excl_cs<T>(
        &self,
        scope: &'static ScopeId,
        opts: CsOptions,
        mut body: impl FnMut(&CsCtx<'_>) -> CsOutcome<T>,
    ) -> T {
        cs::bracket(
            &self.ale,
            &self.meta,
            scope,
            &ExclOps(self.raw()),
            opts,
            &mut body,
        )
    }

    pub fn meta(&self) -> &Arc<LockMeta> {
        &self.meta
    }

    pub fn raw(&self) -> &L {
        &self.lock
    }

    pub fn ale(&self) -> &Arc<Ale> {
        &self.ale
    }

    /// See [`AleLock::is_poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.meta.is_poisoned()
    }

    /// See [`AleLock::clear_poison`].
    pub fn clear_poison(&self) {
        self.meta.clear_poison();
    }
}
