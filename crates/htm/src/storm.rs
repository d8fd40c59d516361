//! Abort-storm circuit breaker and startup HTM capability probing.
//!
//! Best-effort HTM has a pathological failure mode the paper's retry
//! budgets alone do not contain: when many threads conflict on the same
//! cache lines, every transaction aborts, every thread retries on a
//! near-synchronised schedule, and the machine burns its entire HTM budget
//! in lockstep before each execution falls back to the lock anyway — an
//! *abort storm*. The breaker in this module gives each granule a cheap
//! sliding-window abort-rate estimate and a three-state circuit:
//!
//! * **Closed** — HTM allowed. Storm-class aborts (conflict, capacity) and
//!   commits are counted in two half-window buckets; when the abort rate
//!   over the window reaches `trip_permille` (with at least `min_samples`
//!   events) the breaker trips.
//! * **Open** — HTM denied; executions go straight to their fallback. The
//!   circuit stays open for a cool-down of `cooldown_ns × 2^(level−1)`
//!   (capped at `max_cooldown_ns`), jittered to ±50 % so granules that
//!   tripped together do not probe together.
//! * **Half-open** — the cool-down elapsed; the whole cohort may attempt
//!   HTM again, over a freshly reset rate window. One committed
//!   transaction closes the circuit (restoring HTM and resetting the
//!   level); the abort rate re-crossing the threshold reopens it one
//!   level deeper. Probing as a cohort rather than via a single winner
//!   matters: while the circuit is open every execution runs the lock,
//!   and that convoy churns the lock word so continuously that a lone
//!   probe transaction almost always conflicts with it — recovery would
//!   never happen. When everyone probes at once the lock falls quiet,
//!   exactly like the storm-free steady state the probe is detecting.
//!
//! # Orderings
//!
//! Nothing is published through the breaker: every field is a value in its
//! own right, and every decision taken from one tolerates a stale read. A
//! stale Closed admits one more HTM attempt, which its own lock
//! subscription keeps safe; a stale Open sends one execution to the
//! fallback. Races between concurrent recorders can at worst delay a trip
//! by a few events. Under the simulator lanes switch only at ticks, and the
//! only tick here is an edge's trace event, emitted after the edge's
//! writes, so the whole machine is exactly reproducible.
//!
//! | Access | Ordering | Reason |
//! |---|---|---|
//! | `state` loads (`allow`, `state`, `record_commit`, `record_abort`) | `Relaxed` | a hint for the admission check and the edge CAS, which re-checks it |
//! | `state` edge CAS (Open→HalfOpen, HalfOpen→Closed, →Open) | `AcqRel` / `Relaxed` on failure | elects the one thread that acts on an edge; stronger than needed (no load of `state` acquires, so nothing pairs with the release), free on x86 where the CAS is a locked RMW anyway |
//! | `open_until` store (`arm_cooldown`) and loads (`allow`, `trace_edge`) | `Relaxed` | a deadline; see the note below |
//! | `trip_level` store / `fetch_add` / load | `Relaxed` | written only by an edge CAS's winner; sizes the next cool-down and labels a trace event |
//! | `window.bucket_start` load | `Relaxed` | a hint; the CAS re-checks it |
//! | `window.bucket_start` CAS (`roll_window`) | `AcqRel` / `Relaxed` on failure | elects the one thread that shifts the buckets; as strong as the state CAS, for the same non-reason |
//! | `window.bucket_start` store (`reset_buckets`) | `Relaxed` | only an edge CAS's winner resets |
//! | `window` counters: `fetch_add`, loads, stores | `Relaxed` | statistics; the rate estimate tolerates a lost or stale count |
//! | `trips`, `restores` | `Relaxed` | monotonic counters read by tests and reports |
//! | `trace_label` store / load | `Relaxed` | stored before the granule is published (`GranuleTable`'s `Release` slot store), so every reader sees it |
//!
//! The note: `arm_cooldown` stores `open_until` *after* the CAS that opened
//! the circuit, so another thread can see Open with the previous deadline
//! and flip the circuit half-open early. No ordering closes that window,
//! because it comes from the order of the two writes, not from their
//! visibility. An early probe costs one half-open round: if the storm is
//! still blowing, the cohort reopens the circuit one level deeper. No
//! ordering here is wrong, so none was changed.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ale_vtime::{now, HtmProfile, Rng};

/// Circuit-breaker thresholds. The defaults suit the simulated platforms'
/// nanosecond scales; real deployments would widen the windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Width of the sliding abort-rate window (two half-window buckets).
    pub window_ns: u64,
    /// Storm-class abort rate (per mille of attempts in the window) at
    /// which the circuit trips.
    pub trip_permille: u32,
    /// Minimum attempts in the window before the rate is believed.
    pub min_samples: u32,
    /// Base cool-down after a trip; doubles per consecutive failed probe.
    pub cooldown_ns: u64,
    /// Cool-down growth cap.
    pub max_cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window_ns: 20_000,
            trip_permille: 800,
            min_samples: 16,
            cooldown_ns: 100_000,
            max_cooldown_ns: 800_000,
        }
    }
}

/// The circuit's current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// A state change worth reporting (drives `check_hooks` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    None,
    /// Closed → Open: HTM is now denied for this granule.
    Tripped,
    /// Half-open probe committed: HTM is restored.
    Restored,
}

const CLOSED: u32 = 0;
const OPEN: u32 = 1;
const HALF_OPEN: u32 = 2;

/// The sliding-window half-buckets, grouped and aligned onto their own
/// cache line (DESIGN.md §14 false-sharing audit). Every commit and abort
/// writes these counters, while `state`/`open_until` are only *read* on
/// the hot `allow()` admission check; without the separation each bucket
/// write would invalidate the line the whole cohort polls.
#[derive(Debug, Default)]
#[repr(align(128))]
struct RateWindow {
    /// Virtual-time start of the current half-bucket.
    bucket_start: AtomicU64,
    cur_aborts: AtomicU32,
    cur_attempts: AtomicU32,
    prev_aborts: AtomicU32,
    prev_attempts: AtomicU32,
}

/// Per-granule abort-storm circuit breaker. See the module docs.
#[derive(Debug)]
pub struct StormBreaker {
    cfg: BreakerConfig,
    state: AtomicU32,
    /// Virtual-time instant the current cool-down expires.
    open_until: AtomicU64,
    /// Consecutive failed probes + 1 while open (drives cool-down growth).
    trip_level: AtomicU32,
    /// Sliding abort-rate window, padded onto its own cache line.
    window: RateWindow,
    trips: AtomicU64,
    restores: AtomicU64,
    /// Interned trace label for breaker-edge events (0 = unlabelled).
    trace_label: AtomicU32,
}

impl StormBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        StormBreaker {
            cfg,
            state: AtomicU32::new(CLOSED),
            open_until: AtomicU64::new(0),
            trip_level: AtomicU32::new(0),
            window: RateWindow::default(),
            trips: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            trace_label: AtomicU32::new(0),
        }
    }

    /// Attach an interned `ale_trace` label id; breaker-edge trace events
    /// carry it so the merged stream attributes edges to a granule.
    pub fn set_trace_label(&self, id: u16) {
        self.trace_label.store(id as u32, Ordering::Relaxed);
    }

    /// Trace hook for a circuit edge `from` → `to` (0 Closed, 1 Open,
    /// 2 HalfOpen). `ale_trace::emit` self-gates to one branch when
    /// tracing is disabled; the extra loads here only run on edges, which
    /// are rare by construction.
    fn trace_edge(&self, from: u8, to: u8, level: u32) {
        if !ale_trace::is_enabled() {
            return;
        }
        let cooldown = if to == OPEN as u8 {
            self.open_until
                .load(Ordering::Relaxed)
                .saturating_sub(now())
        } else {
            0
        };
        ale_trace::emit(ale_trace::TraceEvent::breaker_edge(
            self.trace_label.load(Ordering::Relaxed) as u16,
            from,
            to,
            level.min(u8::MAX as u32) as u8,
            cooldown,
        ));
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Relaxed) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Closed→Open transitions so far (deepening re-opens not counted).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Successful probe restorations so far.
    pub fn restores(&self) -> u64 {
        self.restores.load(Ordering::Relaxed)
    }

    /// May this execution attempt HTM right now? While open, the first
    /// caller past the cool-down flips the circuit half-open; from then on
    /// the *whole cohort* may probe until a commit closes the circuit or
    /// the abort rate re-trips it. A single-winner probe cannot work here:
    /// while the circuit is open every other execution runs the lock, and
    /// that convoy churns the lock word continuously, so a lone probe
    /// transaction almost always conflicts with it — the all-lock state
    /// would be self-sustaining. Letting everyone probe at once drains the
    /// lock traffic exactly like the storm-free steady state the probe is
    /// trying to detect.
    #[inline]
    pub fn allow(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            CLOSED => true,
            OPEN => {
                if now() < self.open_until.load(Ordering::Relaxed) {
                    return false;
                }
                // Cool-down over: flip half-open. The winner resets the
                // rate window so the cohort's verdict is based on fresh
                // samples only; losers just join the probing cohort.
                if self
                    .state
                    .compare_exchange(OPEN, HALF_OPEN, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.reset_buckets();
                    self.trace_edge(1, 2, self.trip_level.load(Ordering::Relaxed));
                }
                true
            }
            _ => true, // half-open: the probing cohort
        }
    }

    /// Record an HTM commit. Closes the circuit if a probe cohort is in
    /// flight: one genuine commit proves the storm has passed.
    pub fn record_commit(&self) -> BreakerTransition {
        self.roll_window();
        self.window.cur_attempts.fetch_add(1, Ordering::Relaxed);
        if self.state.load(Ordering::Relaxed) == HALF_OPEN
            && self
                .state
                .compare_exchange(HALF_OPEN, CLOSED, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.reset_buckets();
            self.trip_level.store(0, Ordering::Relaxed);
            self.restores.fetch_add(1, Ordering::Relaxed);
            self.trace_edge(2, 0, 0);
            return BreakerTransition::Restored;
        }
        BreakerTransition::None
    }

    /// Record an HTM abort; `storm_class` marks conflict/capacity aborts
    /// (the kinds a storm is made of — lock-held and spurious aborts don't
    /// count toward tripping). Trips the circuit when the windowed rate
    /// crosses the threshold: from closed that is a fresh (counted) trip
    /// at the base cool-down; from half-open it is a failed probe cohort,
    /// reopening one level deeper (uncounted).
    pub fn record_abort(&self, storm_class: bool, rng: &mut Rng) -> BreakerTransition {
        self.record_benign_abort();
        if !storm_class {
            return BreakerTransition::None;
        }
        self.window.cur_aborts.fetch_add(1, Ordering::Relaxed);
        let from = self.state.load(Ordering::Relaxed);
        if from == OPEN {
            return BreakerTransition::None;
        }
        let (aborts, attempts) = self.window_counts();
        if attempts >= self.cfg.min_samples
            && aborts.saturating_mul(1000) >= attempts.saturating_mul(self.cfg.trip_permille)
            && self
                .state
                .compare_exchange(from, OPEN, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            if from == CLOSED {
                self.trip_level.store(1, Ordering::Relaxed);
                self.arm_cooldown(1, rng);
                self.trips.fetch_add(1, Ordering::Relaxed);
                self.trace_edge(0, 1, 1);
                return BreakerTransition::Tripped;
            }
            // A probe cohort re-confirmed the storm: deepen, don't count.
            let level = self.trip_level.fetch_add(1, Ordering::Relaxed) + 1;
            self.arm_cooldown(level, rng);
            self.trace_edge(2, 1, level);
        }
        BreakerTransition::None
    }

    /// Record an abort that is not storm-class (lock-held, spurious, a
    /// panicking body): it counts as an attempt in the window and never
    /// moves the circuit, so it needs no jitter and no `Rng`.
    pub fn record_benign_abort(&self) {
        self.roll_window();
        self.window.cur_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cool-down for `level` consecutive failures: exponential growth,
    /// capped, with ±50 % decorrelation jitter.
    fn arm_cooldown(&self, level: u32, rng: &mut Rng) {
        let base = self
            .cfg
            .cooldown_ns
            .saturating_mul(1u64 << (level - 1).min(6))
            .min(self.cfg.max_cooldown_ns)
            .max(1);
        let jittered = base / 2 + rng.gen_range(base / 2 + 1);
        self.open_until
            .store(now().saturating_add(jittered), Ordering::Relaxed);
    }

    fn window_counts(&self) -> (u32, u32) {
        let aborts = self.window.cur_aborts.load(Ordering::Relaxed)
            + self.window.prev_aborts.load(Ordering::Relaxed);
        let attempts = self.window.cur_attempts.load(Ordering::Relaxed)
            + self.window.prev_attempts.load(Ordering::Relaxed);
        (aborts, attempts)
    }

    fn reset_buckets(&self) {
        self.window.cur_aborts.store(0, Ordering::Relaxed);
        self.window.cur_attempts.store(0, Ordering::Relaxed);
        self.window.prev_aborts.store(0, Ordering::Relaxed);
        self.window.prev_attempts.store(0, Ordering::Relaxed);
        self.window.bucket_start.store(now(), Ordering::Relaxed);
    }

    /// Advance the two half-window buckets. One racing recorder wins the
    /// shift via CAS on the bucket start; losers just record into whichever
    /// bucket is current — at worst the window is a half-bucket stale.
    fn roll_window(&self) {
        let half = (self.cfg.window_ns / 2).max(1);
        let t = now();
        let start = self.window.bucket_start.load(Ordering::Relaxed);
        if t < start.saturating_add(half) {
            return;
        }
        if self
            .window
            .bucket_start
            .compare_exchange(start, t, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if t >= start.saturating_add(half * 2) {
            // Idle gap longer than the whole window: both buckets are stale.
            self.window.prev_aborts.store(0, Ordering::Relaxed);
            self.window.prev_attempts.store(0, Ordering::Relaxed);
        } else {
            self.window.prev_aborts.store(
                self.window.cur_aborts.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            self.window.prev_attempts.store(
                self.window.cur_attempts.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        self.window.cur_aborts.store(0, Ordering::Relaxed);
        self.window.cur_attempts.store(0, Ordering::Relaxed);
    }
}

/// Startup HTM capability probe: can this profile commit an empty
/// transaction at all? A few attempts absorb spurious aborts; `false`
/// means HTM is effectively unavailable (e.g. no RTM on the host) and the
/// runtime should degrade to SWOpt+Lock instead of burning a retry budget
/// on every critical section.
pub fn htm_supported(profile: &HtmProfile, rng: &mut Rng) -> bool {
    const PROBE_ATTEMPTS: u32 = 8;
    for _ in 0..PROBE_ATTEMPTS {
        if crate::txn::attempt(profile, rng, || ()).is_ok() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_vtime::Platform;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window_ns: 1_000,
            trip_permille: 500,
            min_samples: 4,
            cooldown_ns: 10_000,
            max_cooldown_ns: 80_000,
        }
    }

    #[test]
    fn trips_on_abort_storm_and_denies_htm() {
        use ale_vtime::Sim;
        Sim::new(Platform::testbed(), 1).run(|_| {
            let b = StormBreaker::new(cfg());
            let mut rng = Rng::new(1);
            assert!(b.allow());
            let mut tripped = false;
            for _ in 0..8 {
                tripped |= b.record_abort(true, &mut rng) == BreakerTransition::Tripped;
            }
            assert!(tripped, "sustained storm-class aborts must trip");
            assert_eq!(b.state(), BreakerState::Open);
            assert_eq!(b.trips(), 1);
            assert!(!b.allow(), "open circuit denies HTM during cool-down");
        });
    }

    #[test]
    fn benign_aborts_do_not_trip() {
        let b = StormBreaker::new(cfg());
        let mut rng = Rng::new(2);
        for _ in 0..64 {
            assert_eq!(b.record_abort(false, &mut rng), BreakerTransition::None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn commits_keep_rate_below_threshold() {
        use ale_vtime::Sim;
        Sim::new(Platform::testbed(), 1).run(|_| {
            let b = StormBreaker::new(cfg());
            let mut rng = Rng::new(3);
            for _ in 0..32 {
                b.record_commit();
                b.record_abort(true, &mut rng);
                b.record_commit();
            }
            assert_eq!(b.state(), BreakerState::Closed, "1/3 abort rate < 50%");
        });
    }

    #[test]
    fn probe_after_cooldown_restores_or_deepens() {
        use ale_vtime::Sim;
        let report = Sim::new(Platform::testbed(), 1).run(|_| {
            let b = StormBreaker::new(cfg());
            let mut rng = Rng::new(4);
            while b.record_abort(true, &mut rng) != BreakerTransition::Tripped {}
            assert!(!b.allow());
            // Sit out the cool-down in virtual time.
            ale_vtime::tick(ale_vtime::Event::LocalWork(200_000));
            assert!(b.allow(), "cool-down over: the circuit flips half-open");
            assert_eq!(b.state(), BreakerState::HalfOpen);
            assert!(b.allow(), "the whole cohort may probe");
            // The cohort's verdict is rate-based over a fresh window: the
            // storm is still blowing, so aborts re-trip it one level
            // deeper (uncounted in `trips`).
            let mut reopened = false;
            for _ in 0..8 {
                b.record_abort(true, &mut rng);
                reopened |= b.state() == BreakerState::Open;
            }
            assert!(reopened, "a storming probe cohort must reopen");
            assert_eq!(b.trips(), 1, "deepening re-opens are not counted");
            assert!(!b.allow());
            ale_vtime::tick(ale_vtime::Event::LocalWork(400_000));
            assert!(b.allow());
            // A probe commits: restored.
            assert_eq!(b.record_commit(), BreakerTransition::Restored);
            assert_eq!(b.state(), BreakerState::Closed);
            assert!(b.allow());
            b.restores()
        });
        assert_eq!(report.results[0], 1);
    }

    #[test]
    fn benign_probe_aborts_do_not_reopen_the_circuit() {
        use ale_vtime::Sim;
        Sim::new(Platform::testbed(), 1).run(|_| {
            let b = StormBreaker::new(cfg());
            let mut rng = Rng::new(7);
            while b.record_abort(true, &mut rng) != BreakerTransition::Tripped {}
            ale_vtime::tick(ale_vtime::Event::LocalWork(20_000));
            assert!(b.allow(), "cool-down over: half-open");
            // Probes losing benign rounds to the lock convoy (lock-held,
            // spurious) say nothing about the storm: the circuit stays
            // half-open and the cohort keeps probing.
            for _ in 0..32 {
                b.record_abort(false, &mut rng);
                assert_eq!(b.state(), BreakerState::HalfOpen);
                assert!(b.allow(), "cohort keeps probing");
            }
            assert_eq!(b.record_commit(), BreakerTransition::Restored);
            assert_eq!(b.state(), BreakerState::Closed);
        });
    }

    #[test]
    fn idle_gap_decays_the_window() {
        use ale_vtime::Sim;
        Sim::new(Platform::testbed(), 1).run(|_| {
            let b = StormBreaker::new(cfg());
            let mut rng = Rng::new(5);
            // Aborts just below the sample threshold, then a long gap.
            for _ in 0..3 {
                b.record_abort(true, &mut rng);
            }
            ale_vtime::tick(ale_vtime::Event::LocalWork(10_000));
            // Old aborts decayed out: these three alone cannot trip either.
            for _ in 0..3 {
                assert_eq!(b.record_abort(true, &mut rng), BreakerTransition::None);
            }
            assert_eq!(b.state(), BreakerState::Closed);
        });
    }

    #[test]
    fn htm_probe_reports_capability() {
        let mut rng = Rng::new(6);
        let p = Platform::testbed().htm.unwrap();
        assert!(htm_supported(&p, &mut rng));
    }
}
