//! # ale-check — dynamic checking harness for the ALE runtime
//!
//! Systematic testing in three moves (DESIGN.md §9):
//!
//! 1. **Schedule exploration** — every run executes under the deterministic
//!    simulator with one of the adversarial
//!    [`SchedStrategy`](ale_vtime::SchedStrategy)s (random-walk
//!    tie-breaking, preemption-point perturbation, most-conflicting-thread)
//!    and a fresh scheduler seed per iteration, so a seed sweep explores
//!    many distinct interleavings while each one stays bit-for-bit
//!    replayable.
//! 2. **Fault injection** — an [`InjectPlan`](ale_htm::InjectPlan) steers
//!    transactions down the rarely-taken abort paths (conflict, capacity,
//!    spurious, lock-held), and the seqlock *chaos mode* stretches
//!    odd-version windows so schedules land inside them.
//! 3. **Oracles + shrinking** — after every schedule the workload's
//!    invariants are checked (per-key linearizability against owner
//!    shadows, value integrity, bank-sum conservation, SNZI
//!    never-under-counts, version words never left odd). A failing run is
//!    shrunk by bisecting the scheduler's perturbation budget (and the
//!    fault budget) and written as a replay file that
//!    `ale-check --replay FILE` reproduces exactly.
//!
//! The harness proves itself against [`MUTATIONS`]: built with the
//! `selftest-mutations` feature, `ale-check selftest` re-introduces each
//! classic elision bug in turn, in one process, and each must be caught by
//! its own oracle within a bounded schedule budget.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ale_core::CsEvent;
use ale_htm::{CrashPlan, CrashPoint, InjectKind, InjectPlan, InjectPoint, InjectRule, TornMode};
use ale_vtime::{PlatformKind, SchedStrategy};

pub mod minimize;
pub mod mutations;
pub mod replay;
pub mod workloads;

pub use mutations::{Lane, MUTATIONS};
pub use workloads::Workload;

/// Which scheduler drives a run (a CLI/replay-friendly mirror of
/// [`SchedStrategy`], which carries its parameters inline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Exact conservative lowest-clock order (the figures' scheduler).
    LowestClock,
    /// Uniform choice among near-tied runnable lanes.
    #[default]
    RandomWalk,
    /// Lowest-clock order with probabilistic perturbed preemptions.
    Preempt,
    /// Greedy "schedule the most-conflicting thread".
    MostConflicting,
    /// Weak-memory visibility-delay adversary: always hand off to a random
    /// peer at every decision point (maximal preemption), pairing with the
    /// reorder fences at seqlock publish/subscribe boundaries.
    Reorder,
}

impl StrategyKind {
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::LowestClock,
        StrategyKind::RandomWalk,
        StrategyKind::Preempt,
        StrategyKind::MostConflicting,
        StrategyKind::Reorder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::LowestClock => "lowest-clock",
            StrategyKind::RandomWalk => "random-walk",
            StrategyKind::Preempt => "preempt",
            StrategyKind::MostConflicting => "most-conflicting",
            StrategyKind::Reorder => "reorder",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lowest-clock" => Some(StrategyKind::LowestClock),
            "random-walk" => Some(StrategyKind::RandomWalk),
            "preempt" => Some(StrategyKind::Preempt),
            "most-conflicting" => Some(StrategyKind::MostConflicting),
            "reorder" => Some(StrategyKind::Reorder),
            _ => None,
        }
    }

    /// The concrete scheduler this kind selects, with the run's parameters.
    pub fn to_strategy(self, window_ns: u64, permille: u64) -> SchedStrategy {
        match self {
            StrategyKind::LowestClock => SchedStrategy::LowestClock,
            StrategyKind::RandomWalk => SchedStrategy::RandomWalk { window_ns },
            StrategyKind::Preempt => SchedStrategy::Preempt {
                window_ns,
                permille,
            },
            StrategyKind::MostConflicting => SchedStrategy::MostConflicting { window_ns },
            StrategyKind::Reorder => SchedStrategy::Reorder { window_ns },
        }
    }
}

/// One fault-injection rule plus its budget, as configured from the CLI or
/// a replay file (`point:kind:every:max_hits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub point: InjectPoint,
    pub kind: InjectKind,
    /// Fire on every `every`-th event at `point`.
    pub every: u64,
    /// Total injected-abort budget (the minimiser bisects this).
    pub max_hits: u64,
}

impl FaultSpec {
    pub fn to_plan(self) -> InjectPlan {
        InjectPlan::new(vec![InjectRule {
            point: self.point,
            every: self.every,
            kind: self.kind,
        }])
        .limited(self.max_hits)
    }
}

/// A planned process crash, as configured from the CLI or a replay file
/// (`point:after`). Consulted by the durable CacheDB's WAL code paths; the
/// durable workload arms it after its init phase so `after` counts
/// workload-phase consults only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    pub point: CrashPoint,
    /// Fire on the `after`-th consult of `point` (1 = the first); the
    /// minimiser bisects this to find the shortest failing prefix.
    pub after: u64,
}

impl CrashSpec {
    pub fn to_plan(self, torn: Option<TornMode>) -> CrashPlan {
        let plan = CrashPlan::new(self.point, self.after);
        match torn {
            Some(mode) => plan.with_torn(mode),
            None => plan,
        }
    }
}

/// Everything that determines one schedule, exactly — the unit of replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    pub workload: Workload,
    pub platform: PlatformKind,
    pub threads: usize,
    /// Operations per lane.
    pub ops: u64,
    /// Workload seed (per-lane random streams).
    pub seed: u64,
    /// Scheduler decision-stream seed.
    pub sched_seed: u64,
    pub strategy: StrategyKind,
    /// Eligibility window for adversarial strategies.
    pub window_ns: u64,
    /// Perturbation probability for [`StrategyKind::Preempt`], in permille.
    pub permille: u64,
    /// Adversarial-decision budget (`u64::MAX` = unlimited); the minimiser
    /// bisects this to find the shortest failing perturbation prefix.
    pub perturb_limit: u64,
    /// Seqlock/grouping chaos: stretch conflicting regions by this many
    /// virtual nanoseconds (0 = off).
    pub chaos_ns: u64,
    /// Weak-memory reorder fences: charge this many virtual nanoseconds at
    /// every seqlock publish/subscribe boundary (0 = off), so adversarial
    /// schedules — especially [`StrategyKind::Reorder`] — run whole
    /// conflicting regions inside the "store still in flight" window.
    pub reorder_ns: u64,
    /// Entry lifetime base for the TTL-cache workload, in virtual
    /// nanoseconds (each fill adds a seeded jitter on top).
    pub ttl_ns: u64,
    /// Zipfian read-skew for the sharded-map workload, as `theta * 1000`
    /// (`1100` = the benchmarks' Zipf(1.1); `0` = uniform). Stored in
    /// permille so replay files round-trip exactly and the minimiser can
    /// bisect the skew like any other integer knob.
    pub zipf_milli: u64,
    /// Shard count for the sharded-map workload (rounded up to a power of
    /// two by the map itself).
    pub shards: usize,
    pub fault: Option<FaultSpec>,
    /// Run with `ale-trace` event recording on (full sampling). Adds the
    /// trace oracle — every completed critical section must have emitted a
    /// mode-decision event — and folds the merged stream's digest into the
    /// run digest. `false` (the default) leaves digests bit-identical to a
    /// harness without tracing compiled in.
    pub trace: bool,
    /// Kill the simulated process at a WAL crash point and verify recovery
    /// (the durable workload's oracle; inert for workloads that never
    /// touch the WAL). `None` leaves digests untouched.
    pub crash: Option<CrashSpec>,
    /// Tail-record damage when the crash lands mid-record (`None` =
    /// truncate). Requires `crash`.
    pub torn: Option<TornMode>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            workload: Workload::HashMap,
            platform: PlatformKind::Testbed,
            threads: 4,
            ops: 300,
            seed: 0,
            sched_seed: 0,
            strategy: StrategyKind::RandomWalk,
            // 2000 ns covers a whole Lock-mode unlink + slab free + realloc
            // sequence on the testbed cost model, so a parked SWOpt reader
            // can stay parked across node recycling — the window the seqlock
            // validation exists to close.
            window_ns: 2000,
            permille: 120,
            perturb_limit: u64::MAX,
            chaos_ns: 120,
            reorder_ns: 0,
            // 800 ns ≈ a handful of ops on the testbed cost model: entries
            // expire mid-run, so reads race eviction instead of always
            // hitting fresh or always hitting dead state.
            ttl_ns: 800,
            // Zipf(1.1) by default: skew is what makes per-shard routing
            // interesting, and uniform remains reachable with --zipf 0.
            zipf_milli: 1100,
            shards: 4,
            fault: None,
            trace: false,
            crash: None,
            torn: None,
        }
    }
}

impl CheckConfig {
    /// Config for one schedule of a sweep: workload seed and scheduler seed
    /// both derived from `seed`, so every iteration is a distinct,
    /// individually replayable schedule.
    pub fn for_schedule(&self, workload: Workload, strategy: StrategyKind, seed: u64) -> Self {
        CheckConfig {
            workload,
            strategy,
            seed,
            sched_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_5EED,
            ..self.clone()
        }
    }
}

/// The outcome of one schedule.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Oracle violations (empty = the schedule is clean). Lane panics are
    /// reported here too, not propagated.
    pub violations: Vec<String>,
    /// Deterministic digest of the run: critical-section event stream,
    /// per-lane results, makespan, decisions. Identical configs produce
    /// identical digests, bit for bit.
    pub digest: u64,
    /// Adversarial scheduling decisions the run consumed.
    pub decisions: u64,
    /// Virtual makespan of the run.
    pub makespan_ns: u64,
    /// Faults the injection plan actually fired.
    pub injected: u64,
    /// Whether the planned crash fired (always `false` without
    /// [`CheckConfig::crash`]).
    pub crashed: bool,
    /// The merged trace stream, when [`CheckConfig::trace`] was set.
    pub trace: Option<ale_trace::Drained>,
}

impl RunOutcome {
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// FNV-1a, the harness's digest function (stable, dependency-free).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The injection plan, chaos delay and CS observer are process-global, so
/// runs must not overlap — everything goes through this lock.
static RUN_GUARD: Mutex<()> = Mutex::new(());

fn run_guard() -> MutexGuard<'static, ()> {
    RUN_GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// Execute one schedule under `cfg` and check every oracle.
///
/// Deterministic: the same config yields the same [`RunOutcome`] (same
/// violations, same digest) on every call.
pub fn run_once(cfg: &CheckConfig) -> RunOutcome {
    let _serial = run_guard();

    // Arm the global hooks for this schedule.
    ale_sync::chaos::set_publication_delay(cfg.chaos_ns);
    ale_sync::reorder::set_window(cfg.reorder_ns);
    if let Some(fault) = cfg.fault {
        ale_htm::inject::install(fault.to_plan());
    } else {
        ale_htm::inject::clear();
    }
    if let Some(crash) = cfg.crash {
        // The durable workload re-arms this after its init phase (so the
        // plan's consult budget counts workload-phase appends only), but
        // installing here keeps a stale plan from a panicked previous run
        // from leaking in.
        ale_htm::inject::install_crash(crash.to_plan(cfg.torn));
    } else {
        ale_htm::inject::clear_crash();
    }
    if cfg.trace {
        // Full sampling (the determinism oracle needs every record) and a
        // ring deep enough that no schedule in the harness's range drops.
        ale_trace::configure(&ale_trace::TraceConfig::enabled().with_ring_capacity(1 << 16));
        // Stamp mode-decision events with the workload, so the exported
        // mode mix breaks down per scenario.
        ale_trace::set_scenario(cfg.workload.name());
    } else if ale_trace::is_enabled() {
        // A previous caller left tracing on; a trace-off run must behave
        // exactly like one where tracing never existed.
        ale_trace::reset();
    }
    let events = Arc::new(Mutex::new(Fnv::new()));
    let sink = Arc::clone(&events);
    let completes = Arc::new(AtomicU64::new(0));
    let completes_sink = Arc::clone(&completes);
    ale_core::set_cs_observer(Arc::new(move |ev: &CsEvent| {
        let mut h = sink.lock().unwrap_or_else(|p| p.into_inner());
        match *ev {
            CsEvent::Attempt { lock, mode } => {
                h.write(&[1, mode.index() as u8]);
                h.write(lock.as_bytes());
            }
            CsEvent::HtmAbort { lock, code } => {
                let (tag, detail) = match code {
                    ale_htm::AbortCode::Conflict => (0u8, 0u8),
                    ale_htm::AbortCode::Capacity => (1, 0),
                    ale_htm::AbortCode::Explicit(c) => (2, c),
                    ale_htm::AbortCode::Spurious => (3, 0),
                };
                h.write(&[2, tag, detail]);
                h.write(lock.as_bytes());
            }
            CsEvent::SwOptFail { lock } => {
                h.write(&[3]);
                h.write(lock.as_bytes());
            }
            CsEvent::Complete { lock, mode } => {
                completes_sink.fetch_add(1, Ordering::Relaxed);
                h.write(&[4, mode.index() as u8]);
                h.write(lock.as_bytes());
            }
            CsEvent::Panicked { lock, mode } => {
                h.write(&[5, mode.index() as u8]);
                h.write(lock.as_bytes());
            }
            CsEvent::Poisoned { lock } => {
                h.write(&[6]);
                h.write(lock.as_bytes());
            }
            CsEvent::ProtocolError { lock, error } => {
                h.write(&[7, error as u8]);
                h.write(lock.as_bytes());
            }
            CsEvent::BreakerTrip { lock } => {
                h.write(&[8]);
                h.write(lock.as_bytes());
            }
            CsEvent::BreakerRestore { lock } => {
                h.write(&[9]);
                h.write(lock.as_bytes());
            }
            CsEvent::LockStall { lock, waited_ns } => {
                // The wait length depends on scheduling alone; the digest
                // keeps only the fact that a stall was reported.
                let _ = waited_ns;
                h.write(&[10]);
                h.write(lock.as_bytes());
            }
        }
    }));

    // Lane panics (oracle debug-asserts, poisoned invariants) count as
    // violations; they must not take the harness down.
    let result = catch_unwind(AssertUnwindSafe(|| workloads::run(cfg)));

    // Disarm, whatever happened.
    ale_core::clear_cs_observer();
    ale_sync::chaos::set_publication_delay(0);
    ale_sync::reorder::set_window(0);
    ale_trace::clear_scenario();
    let injected = ale_htm::inject::clear();
    let crashed = ale_htm::inject::clear_crash();
    let trace = if cfg.trace {
        let drained = ale_trace::drain();
        ale_trace::reset();
        Some(drained)
    } else {
        None
    };

    let mut digest = Fnv::new();
    digest.write_u64(events.lock().unwrap_or_else(|p| p.into_inner()).finish());
    // Folded only when tracing was requested, so trace-off digests stay
    // bit-identical to a harness without tracing at all.
    if let Some(t) = &trace {
        digest.write_u64(t.digest());
    }
    // Same contract for the crash knob: folded only when a crash was
    // planned, so crash-off digests match a harness without the knob.
    if cfg.crash.is_some() {
        digest.write_u64(crashed as u64);
    }

    match result {
        Ok(out) => {
            digest.write_u64(out.digest);
            digest.write_u64(out.makespan_ns);
            digest.write_u64(out.decisions);
            digest.write_u64(injected);
            let mut violations = out.violations;
            if let Some((executions, exact)) = out.stat_parity {
                // The stat-parity oracle: every completed critical section
                // bumps its granule's executions counter exactly once, via
                // the exit flush, so while the counters are still in the
                // BFP exact regime the totals must agree. A flush that
                // drops its delta (the `StatBatchLost` mutation) shows up
                // here.
                let completed = completes.load(Ordering::Relaxed);
                if exact && executions != completed {
                    violations.push(format!(
                        "stat parity oracle: granule stats record {executions} \
                         execution(s) for {completed} completed critical section(s)"
                    ));
                }
            }
            if let Some(t) = &trace {
                // The trace oracle: every completed critical section emits
                // exactly one mode-decision event, so at full sampling with
                // no ring drops the two counts must agree. A skipped or
                // duplicated emit (the `TraceDropEvent` mutation)
                // shows up here.
                let traced = t
                    .events
                    .iter()
                    .filter(|e| e.kind() == Some(ale_trace::EventKind::ModeDecision))
                    .count() as u64;
                let completed = completes.load(Ordering::Relaxed);
                if t.dropped == 0 && traced != completed {
                    violations.push(format!(
                        "trace oracle: {traced} mode-decision event(s) for \
                         {completed} completed critical section(s)"
                    ));
                }
            }
            RunOutcome {
                violations,
                digest: digest.finish(),
                decisions: out.decisions,
                makespan_ns: out.makespan_ns,
                injected,
                crashed,
                trace,
            }
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            RunOutcome {
                violations: vec![format!("lane panic: {msg}")],
                digest: digest.finish(),
                decisions: 0,
                makespan_ns: 0,
                injected,
                crashed,
                trace,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_round_trips() {
        for k in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(k.name()), Some(k));
        }
        assert_eq!(StrategyKind::parse("nonsense"), None);
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::new();
        h.write(b"ale-check");
        let a = h.finish();
        let mut h2 = Fnv::new();
        h2.write(b"ale-check");
        assert_eq!(a, h2.finish());
        assert_ne!(a, Fnv::new().finish());
    }

    #[test]
    fn run_once_is_deterministic_and_clean() {
        let cfg = CheckConfig {
            ops: 60,
            seed: 7,
            sched_seed: 9,
            ..CheckConfig::default()
        };
        let a = run_once(&cfg);
        let b = run_once(&cfg);
        assert_eq!(
            a.digest, b.digest,
            "same config must replay bit-identically"
        );
        assert_eq!(a.violations, b.violations);
        assert!(
            !a.failed(),
            "with no mutation active the oracles must pass: {:?}",
            a.violations
        );
    }

    #[test]
    fn different_sched_seeds_give_different_schedules() {
        let base = CheckConfig {
            ops: 60,
            seed: 7,
            ..CheckConfig::default()
        };
        let a = run_once(&CheckConfig {
            sched_seed: 1,
            ..base.clone()
        });
        let b = run_once(&CheckConfig {
            sched_seed: 2,
            ..base.clone()
        });
        assert_ne!(
            a.digest, b.digest,
            "distinct scheduler seeds should explore distinct interleavings"
        );
    }
}
