//! The deterministic lowest-clock-first lane scheduler.
//!
//! A [`Sim`] runs `n` *lanes* (simulated hardware threads). Each lane is a
//! real OS thread, but the scheduler admits exactly one at a time: the lane
//! with the lowest virtual clock (ties broken by lane id). A running lane
//! executes freely — without touching the scheduler lock — until its clock
//! passes the lowest clock of any parked lane, at which point it hands the
//! CPU over. This is conservative discrete-event simulation: the committed
//! event order is identical to a parallel execution in virtual time, and is
//! bit-for-bit reproducible.
//!
//! Lanes must never block on OS primitives (they would park the whole
//! simulation); every wait in the ALE stack is a spin that calls
//! [`tick`](crate::tick) each iteration, so waiting lanes keep advancing
//! their clocks and the scheduler keeps rotating.
//!
//! ## Adversarial strategies
//!
//! The default [`SchedStrategy::LowestClock`] is the exact conservative
//! simulation described above, and its event order is untouched by the
//! strategy machinery (the figures depend on that). The other strategies
//! turn the scheduler into a schedule-exploration engine for `ale-check`:
//! every costed tick becomes a *decision point*, and the scheduler picks
//! the next lane among all runnable lanes whose clock lies within a bounded
//! window of the minimum. The window is what keeps every lane live — a
//! starved minimum-clock lane eventually becomes the only candidate.
//! Decisions draw from a dedicated scheduler [`Rng`], and an optional
//! *perturbation limit* caps how many decisions deviate from lowest-clock
//! order, which is the knob replay minimisation bisects.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex};

use crate::clock::{clear_lane, install_lane, Event};
use crate::platform::Platform;
use crate::rng::Rng;

/// How the scheduler picks the next lane at each decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedStrategy {
    /// Conservative lowest-clock-first (the default). Event order is
    /// identical to a parallel execution in virtual time and bit-for-bit
    /// reproducible; all figures use this.
    #[default]
    LowestClock,
    /// Random-walk tie-breaking: at every costed tick, pick uniformly among
    /// runnable lanes within `window_ns` of the lowest runnable clock.
    RandomWalk {
        /// Eligibility window above the minimum runnable clock.
        window_ns: u64,
    },
    /// Preemption-point perturbation: follow lowest-clock order, but with
    /// probability `permille`/1000 per decision take a random eligible lane
    /// instead (a perturbed preemption point).
    Preempt {
        /// Eligibility window above the minimum runnable clock.
        window_ns: u64,
        /// Per-decision perturbation probability, in permille.
        permille: u64,
    },
    /// Conflict heuristic: prefer the eligible lane with the highest recent
    /// shared-memory traffic (CASes, shared stores, HTM events), decayed on
    /// every yield. Greedy "pick the most-conflicting thread".
    MostConflicting {
        /// Eligibility window above the minimum runnable clock.
        window_ns: u64,
    },
    /// Weak-memory visibility-delay adversary: at every decision point,
    /// hand the CPU to a *different* eligible lane whenever one exists
    /// (uniformly among the peers), continuing only when the current lane
    /// is alone in the window. Paired with the `ale-sync` reorder fences —
    /// which charge virtual time exactly at seqlock publish/subscription
    /// boundaries — this parks a publishing lane mid-publication while
    /// every other lane runs, the deterministic analogue of a store
    /// sitting in a store buffer past the version bump.
    Reorder {
        /// Eligibility window above the minimum runnable clock.
        window_ns: u64,
    },
}

impl SchedStrategy {
    /// Does this strategy take over lane selection (vs. the exact default)?
    #[inline]
    pub fn is_adversarial(&self) -> bool {
        !matches!(self, SchedStrategy::LowestClock)
    }

    /// The eligibility window (0 for the default strategy).
    pub fn window_ns(&self) -> u64 {
        match *self {
            SchedStrategy::LowestClock => 0,
            SchedStrategy::RandomWalk { window_ns }
            | SchedStrategy::Preempt { window_ns, .. }
            | SchedStrategy::MostConflicting { window_ns }
            | SchedStrategy::Reorder { window_ns } => window_ns,
        }
    }
}

/// Conflict-score weight of an event (adversarial strategies only): how
/// strongly it suggests the lane is racing on shared state.
fn conflict_weight(ev: Event) -> u64 {
    match ev {
        Event::Cas | Event::LockHandoff => 4,
        Event::SharedStore => 3,
        Event::HtmBegin | Event::HtmCommit | Event::HtmAbort => 2,
        Event::SharedLoad => 1,
        _ => 0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked, waiting to be scheduled.
    Runnable,
    /// The single lane currently on the (real) CPU.
    Running,
    /// Finished its body.
    Done,
}

/// Outcome of one scheduling decision.
enum Pick {
    /// Keep running the current lane until its clock passes the horizon.
    Continue(u64),
    /// Hand the CPU to this lane.
    HandOff(usize),
}

struct SchedState {
    clocks: Vec<u64>,
    status: Vec<Status>,
    live: usize,
    switches: u64,
    /// Decision stream for adversarial strategies (under the state mutex;
    /// exactly one lane runs at a time, so draws are deterministic).
    srng: Rng,
    /// Adversarial decisions taken so far.
    decisions: u64,
    /// Decisions beyond this fall back to lowest-clock order.
    perturb_limit: u64,
    /// Per-lane decayed conflict scores (MostConflicting).
    scores: Vec<u64>,
}

pub(crate) struct SimShared {
    state: Mutex<SchedState>,
    cvs: Vec<Condvar>,
    platform: Platform,
    slack_ns: u64,
    strategy: SchedStrategy,
    /// Cached `strategy.is_adversarial()` for the tick fast path.
    adversarial: bool,
}

/// Per-lane context installed in thread-local storage while the lane runs.
pub(crate) struct LaneCtx {
    shared: Arc<SimShared>,
    id: usize,
    clock: Cell<u64>,
    /// The lane may keep running lock-free while `clock <= limit`.
    limit: Cell<u64>,
    /// Conflict weight accumulated since the last yield (adversarial only).
    conflict: Cell<u64>,
}

impl LaneCtx {
    #[inline]
    pub(crate) fn clock(&self) -> u64 {
        self.clock.get()
    }

    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    #[inline]
    pub(crate) fn tick(&self, ev: Event) {
        let cost = self.shared.platform.costs.cost(ev);
        if self.shared.adversarial {
            self.conflict
                .set(self.conflict.get().saturating_add(conflict_weight(ev)));
        }
        let c = self.clock.get().saturating_add(cost);
        self.clock.set(c);
        if c > self.limit.get() {
            self.yield_slow();
        }
    }

    #[inline]
    pub(crate) fn tick_n(&self, ev: Event, n: u64) {
        let cost = self.shared.platform.costs.cost(ev).saturating_mul(n);
        if self.shared.adversarial {
            self.conflict
                .set(self.conflict.get().saturating_add(conflict_weight(ev)));
        }
        let c = self.clock.get().saturating_add(cost);
        self.clock.set(c);
        if c > self.limit.get() {
            self.yield_slow();
        }
    }

    /// Lowest clock among *other* runnable lanes, with its id.
    fn min_runnable_other(state: &SchedState, me: usize) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (i, (&c, &s)) in state.clocks.iter().zip(state.status.iter()).enumerate() {
            if i != me && s == Status::Runnable {
                match best {
                    Some((_, bc)) if bc <= c => {}
                    _ => best = Some((i, c)),
                }
            }
        }
        best
    }

    /// The horizon a freshly-scheduled lane may run to. Adversarial modes
    /// pin it to the lane's own clock so every costed tick re-decides.
    fn wake_horizon(shared: &SimShared, state: &SchedState, me: usize) -> u64 {
        if shared.adversarial {
            state.clocks[me]
        } else {
            Self::min_runnable_other(state, me)
                .map(|(_, c)| c.saturating_add(shared.slack_ns))
                .unwrap_or(u64::MAX)
        }
    }

    /// One scheduling decision for lane `me` (which is currently Running and
    /// just passed its horizon).
    fn pick_next(shared: &SimShared, state: &mut SchedState, me: usize) -> Pick {
        let my_clock = state.clocks[me];
        let conservative = |state: &SchedState| match Self::min_runnable_other(state, me) {
            None => Pick::Continue(u64::MAX),
            Some((_, mc)) if mc >= my_clock => Pick::Continue(mc.saturating_add(shared.slack_ns)),
            Some((m, _)) => Pick::HandOff(m),
        };
        if !shared.adversarial {
            return conservative(state);
        }
        if Self::min_runnable_other(state, me).is_none() {
            // Alone: no decision to make, run unthrottled.
            return Pick::Continue(u64::MAX);
        }
        if state.decisions >= state.perturb_limit {
            // Past the perturbation budget: exact lowest-clock order (the
            // replay minimiser bisects this boundary). Keep the horizon
            // tight anyway so the decision count stays comparable.
            return match conservative(state) {
                Pick::Continue(_) => Pick::Continue(my_clock),
                h => h,
            };
        }
        state.decisions += 1;
        let window = shared.strategy.window_ns();
        // Eligible lanes: runnable peers (and this lane) within `window` of
        // the lowest such clock.
        let eligible =
            |state: &SchedState, i: usize| state.status[i] == Status::Runnable || i == me;
        let floor = (0..state.clocks.len())
            .filter(|&i| eligible(state, i))
            .map(|i| state.clocks[i])
            .min()
            .unwrap_or(my_clock);
        let cand: Vec<usize> = (0..state.clocks.len())
            .filter(|&i| eligible(state, i) && state.clocks[i] <= floor.saturating_add(window))
            .collect();
        let lowest =
            |state: &SchedState| *cand.iter().min_by_key(|&&i| (state.clocks[i], i)).unwrap();
        let random =
            |state: &mut SchedState| cand[state.srng.gen_range(cand.len() as u64) as usize];
        let pick = match shared.strategy {
            SchedStrategy::LowestClock => unreachable!("not adversarial"),
            SchedStrategy::RandomWalk { .. } => random(state),
            SchedStrategy::Preempt { permille, .. } => {
                if state.srng.gen_ratio(permille, 1000) {
                    random(state)
                } else {
                    lowest(state)
                }
            }
            SchedStrategy::MostConflicting { .. } => *cand
                .iter()
                .max_by_key(|&&i| {
                    (
                        state.scores[i],
                        std::cmp::Reverse(state.clocks[i]),
                        std::cmp::Reverse(i),
                    )
                })
                .unwrap(),
            SchedStrategy::Reorder { .. } => {
                // Maximal preemption: always switch away when a peer is
                // eligible, so a lane parked at a reorder fence stays
                // parked while every other lane observes the half-published
                // state it left behind.
                let peers: Vec<usize> = cand.iter().copied().filter(|&i| i != me).collect();
                if peers.is_empty() {
                    me
                } else {
                    peers[state.srng.gen_range(peers.len() as u64) as usize]
                }
            }
        };
        if pick == me {
            Pick::Continue(my_clock)
        } else {
            Pick::HandOff(pick)
        }
    }

    #[cold]
    fn yield_slow(&self) {
        let shared = &*self.shared;
        let mut state = shared.state.lock().unwrap();
        state.clocks[self.id] = self.clock.get();
        if shared.adversarial {
            // Decay the old score and fold in traffic since the last yield.
            let fresh = self.conflict.replace(0);
            state.scores[self.id] = state.scores[self.id] / 2 + fresh;
        }
        match Self::pick_next(shared, &mut state, self.id) {
            Pick::Continue(horizon) => self.limit.set(horizon),
            Pick::HandOff(m) => {
                state.status[self.id] = Status::Runnable;
                state.status[m] = Status::Running;
                state.switches += 1;
                shared.cvs[m].notify_one();
                while state.status[self.id] != Status::Running {
                    state = shared.cvs[self.id].wait(state).unwrap();
                }
                let horizon = Self::wake_horizon(shared, &state, self.id);
                self.limit.set(horizon);
            }
        }
    }

    /// Park until the scheduler marks this lane `Running` (start-of-run gate).
    fn wait_until_scheduled(&self) {
        let shared = &*self.shared;
        let mut state = shared.state.lock().unwrap();
        while state.status[self.id] != Status::Running {
            state = shared.cvs[self.id].wait(state).unwrap();
        }
        let horizon = Self::wake_horizon(shared, &state, self.id);
        self.limit.set(horizon);
    }
}

/// Runs on scope exit (including unwinds) so a panicking lane still hands
/// the CPU to the next lane instead of deadlocking the simulation.
struct FinishGuard {
    ctx: Rc<LaneCtx>,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let ctx = &*self.ctx;
        let shared = &*ctx.shared;
        // Runs during unwinds too: never double-panic on a poisoned mutex.
        let mut state = shared
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.clocks[ctx.id] = ctx.clock.get();
        state.status[ctx.id] = Status::Done;
        state.live -= 1;
        if let Some((m, _)) = LaneCtx::min_runnable_other(&state, ctx.id) {
            state.status[m] = Status::Running;
            state.switches += 1;
            shared.cvs[m].notify_one();
        }
        drop(state);
        clear_lane();
    }
}

/// Handle given to each lane body: identity, deterministic randomness, and
/// the platform being simulated.
pub struct Lane {
    ctx: Rc<LaneCtx>,
    rng: Rng,
}

impl Lane {
    /// This lane's id in `0..n`.
    pub fn id(&self) -> usize {
        self.ctx.id()
    }

    /// The lane's virtual clock, in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ctx.clock()
    }

    /// Deterministic per-lane random stream (seeded from the run seed and
    /// the lane id).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The platform this simulation models.
    pub fn platform(&self) -> &Platform {
        &self.ctx.shared.platform
    }
}

/// Result of a simulation run.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-lane return values, indexed by lane id.
    pub results: Vec<T>,
    /// Virtual makespan: the largest lane clock at completion.
    pub makespan_ns: u64,
    /// Final virtual clock of each lane.
    pub lane_clocks: Vec<u64>,
    /// Number of lane-to-lane handoffs the scheduler performed.
    pub switches: u64,
    /// Adversarial scheduling decisions taken (0 under
    /// [`SchedStrategy::LowestClock`]). Replay minimisation bisects a
    /// perturbation limit against this count.
    pub decisions: u64,
}

impl<T> SimReport<T> {
    /// Operations per second in virtual time, given a total operation count.
    pub fn throughput(&self, total_ops: u64) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        total_ops as f64 * 1e9 / self.makespan_ns as f64
    }
}

/// A configured simulation, ready to [`run`](Sim::run).
pub struct Sim {
    platform: Platform,
    n: usize,
    slack_ns: u64,
    seed: u64,
    strategy: SchedStrategy,
    sched_seed: Option<u64>,
    perturb_limit: u64,
}

impl Sim {
    /// A simulation of `n` hardware threads of `platform`.
    ///
    /// `n` may exceed the platform's logical thread count (the scheduler
    /// does not model timeslicing); the benchmark harness keeps `n` within
    /// the machine budget as the paper does.
    pub fn new(platform: Platform, n: usize) -> Self {
        assert!(n >= 1, "a simulation needs at least one lane");
        // SMT sharing: running more lanes than physical cores inflates
        // per-lane compute costs (see `Platform::occupied_by`).
        let platform = platform.occupied_by(n as u32);
        Sim {
            platform,
            n,
            slack_ns: 0,
            seed: 0x9E3779B97F4A7C15,
            strategy: SchedStrategy::LowestClock,
            sched_seed: None,
            perturb_limit: u64::MAX,
        }
    }

    /// Allow a running lane to race ahead of the lowest parked clock by up
    /// to `ns`. Zero (the default) is exact conservative simulation; small
    /// positive values trade scheduling fidelity for fewer handoffs.
    pub fn with_slack(mut self, ns: u64) -> Self {
        self.slack_ns = ns;
        self
    }

    /// Seed for all per-lane random streams (figures fix this for
    /// reproducibility).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scheduling strategy. The default, [`SchedStrategy::LowestClock`], is
    /// exact conservative simulation; the others explore adversarial
    /// interleavings (see the module docs) and ignore `with_slack`.
    pub fn with_strategy(mut self, strategy: SchedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Separate seed for the scheduler's decision stream, so the same
    /// workload (same `with_seed`) can run under many distinct schedules.
    /// Defaults to a stream derived from the run seed.
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = Some(seed);
        self
    }

    /// Cap the number of adversarial decisions; later ones fall back to
    /// lowest-clock order. `u64::MAX` (the default) is unlimited. Replay
    /// minimisation bisects this to find the shortest failing prefix.
    pub fn with_perturb_limit(mut self, limit: u64) -> Self {
        self.perturb_limit = limit;
        self
    }

    /// Run `body` once per lane and collect the report.
    ///
    /// `body` is shared by all lanes; lane-specific state comes from the
    /// [`Lane`] handle. The closure may borrow from the caller's stack
    /// (lanes run under `std::thread::scope`).
    pub fn run<T, F>(self, body: F) -> SimReport<T>
    where
        T: Send,
        F: Fn(&mut Lane) -> T + Sync,
    {
        let n = self.n;
        let sched_seed = self.sched_seed.unwrap_or(self.seed ^ 0x5C4E_D01E_AD5E_ED00);
        let shared = Arc::new(SimShared {
            state: Mutex::new(SchedState {
                clocks: vec![0; n],
                status: {
                    let mut s = vec![Status::Runnable; n];
                    s[0] = Status::Running; // lane 0 has the lowest (tied) clock
                    s
                },
                live: n,
                switches: 0,
                srng: Rng::new(sched_seed),
                decisions: 0,
                perturb_limit: self.perturb_limit,
                scores: vec![0; n],
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            platform: self.platform,
            slack_ns: self.slack_ns,
            strategy: self.strategy,
            adversarial: self.strategy.is_adversarial(),
        });

        let body = &body;
        let results: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let shared = Arc::clone(&shared);
                    let seed = self.seed;
                    scope.spawn(move || {
                        let ctx = Rc::new(LaneCtx {
                            shared,
                            id,
                            clock: Cell::new(0),
                            limit: Cell::new(0),
                            conflict: Cell::new(0),
                        });
                        install_lane(Rc::clone(&ctx));
                        ctx.wait_until_scheduled();
                        let _guard = FinishGuard {
                            ctx: Rc::clone(&ctx),
                        };
                        let mut lane = Lane {
                            ctx,
                            rng: Rng::new(seed ^ (id as u64).wrapping_mul(0xA24BAED4963EE407)),
                        };
                        body(&mut lane)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulated lane panicked"))
                .collect()
        });

        let state = shared.state.lock().unwrap();
        SimReport {
            results,
            makespan_ns: state.clocks.iter().copied().max().unwrap_or(0),
            lane_clocks: state.clocks.clone(),
            switches: state.switches,
            decisions: state.decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{is_simulated, lane_id, now, stripe_hint, tick};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn testbed() -> Platform {
        Platform::testbed()
    }

    #[test]
    fn single_lane_runs_and_ticks() {
        let report = Sim::new(testbed(), 1).run(|lane| {
            assert!(is_simulated());
            assert_eq!(lane_id(), Some(0));
            assert_eq!(stripe_hint(), 0, "a lane's stripe is its lane id");
            for _ in 0..10 {
                tick(Event::LocalWork(100));
            }
            (lane.id(), now())
        });
        assert_eq!(report.results, vec![(0, 1000)]);
        assert_eq!(report.makespan_ns, 1000);
    }

    #[test]
    fn lanes_overlap_in_virtual_time() {
        // 8 lanes × 1000 ns of independent work: virtual makespan must be
        // ~1000 ns (parallel), not ~8000 ns (serial).
        let report = Sim::new(testbed(), 8).run(|_lane| {
            for _ in 0..10 {
                tick(Event::LocalWork(100));
            }
        });
        assert_eq!(report.makespan_ns, 1000);
        assert!(report.lane_clocks.iter().all(|&c| c == 1000));
    }

    #[test]
    fn interleaving_is_deterministic() {
        // Record the global order of (lane, step) events across two runs.
        fn trace() -> Vec<(usize, u64)> {
            let order = Mutex::new(Vec::new());
            Sim::new(testbed(), 4).run(|lane| {
                for step in 0..50u64 {
                    // Uneven costs exercise the scheduler.
                    tick(Event::LocalWork(10 + (lane.id() as u64) * 7 + step % 3));
                    order.lock().unwrap().push((lane.id(), step));
                }
            });
            order.into_inner().unwrap()
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn lowest_clock_runs_first() {
        // Lane 1 does tiny steps, lane 0 does huge ones; completions of
        // lane 1's steps must come before lane 0's clock passes them.
        let log = Mutex::new(Vec::new());
        Sim::new(testbed(), 2).run(|lane| {
            let cost = if lane.id() == 0 { 1000 } else { 10 };
            for _ in 0..5 {
                tick(Event::LocalWork(cost));
                log.lock().unwrap().push((lane.id(), now()));
            }
        });
        let log = log.into_inner().unwrap();
        // Verify global virtual-time order of logged completions is sorted.
        let times: Vec<u64> = log.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(
            times, sorted,
            "events must commit in virtual-time order: {log:?}"
        );
    }

    #[test]
    fn shared_counter_sees_all_increments() {
        let counter = AtomicU64::new(0);
        let report = Sim::new(testbed(), 16).run(|_| {
            for _ in 0..100 {
                tick(Event::Cas);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
        assert!(report.switches > 0);
    }

    #[test]
    fn throughput_uses_virtual_time() {
        let report = Sim::new(testbed(), 4).run(|_| {
            for _ in 0..1000 {
                tick(Event::LocalWork(1000)); // 1 µs per op
            }
        });
        // 4 lanes × 1000 ops in ~1 ms → ~4M ops/s.
        let tp = report.throughput(4000);
        assert!((3.9e6..=4.1e6).contains(&tp), "throughput {tp}");
    }

    #[test]
    fn slack_trades_switches_for_speed() {
        let run = |slack| {
            Sim::new(testbed(), 8)
                .with_slack(slack)
                .run(|_| {
                    for _ in 0..200 {
                        tick(Event::LocalWork(25));
                    }
                })
                .switches
        };
        let exact = run(0);
        let relaxed = run(10_000);
        assert!(
            relaxed <= exact,
            "slack must not increase handoffs ({relaxed} vs {exact})"
        );
    }

    #[test]
    fn per_lane_rng_streams_differ_and_reproduce() {
        let draw = || {
            Sim::new(testbed(), 4)
                .with_seed(42)
                .run(|lane| lane.rng().next_u64())
                .results
        };
        let a = draw();
        let b = draw();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "lanes must get distinct streams: {a:?}");
    }

    #[test]
    fn spin_wait_on_atomic_makes_progress() {
        // Lane 1 spins until lane 0 sets the flag. Under lowest-clock-first
        // scheduling the spinner keeps ticking so lane 0 eventually runs.
        let flag = AtomicU64::new(0);
        let report = Sim::new(testbed(), 2).run(|lane| {
            if lane.id() == 0 {
                for _ in 0..100 {
                    tick(Event::LocalWork(100));
                }
                flag.store(1, Ordering::Release);
                tick(Event::SharedStore);
            } else {
                let mut spins = 0u64;
                while flag.load(Ordering::Acquire) == 0 {
                    tick(Event::SharedLoad);
                    spins += 1;
                    assert!(spins < 1_000_000, "spinner starved");
                }
            }
        });
        assert!(report.makespan_ns >= 10_000);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Sim::new(testbed(), 0);
    }

    fn strategy_trace(strategy: SchedStrategy, sched_seed: u64) -> Vec<(usize, u64)> {
        let order = Mutex::new(Vec::new());
        Sim::new(testbed(), 4)
            .with_strategy(strategy)
            .with_sched_seed(sched_seed)
            .run(|lane| {
                for step in 0..40u64 {
                    tick(Event::LocalWork(10 + (lane.id() as u64) * 7 + step % 3));
                    order.lock().unwrap().push((lane.id(), step));
                }
            });
        order.into_inner().unwrap()
    }

    #[test]
    fn adversarial_strategies_are_deterministic() {
        for strategy in [
            SchedStrategy::RandomWalk { window_ns: 500 },
            SchedStrategy::Preempt {
                window_ns: 500,
                permille: 300,
            },
            SchedStrategy::MostConflicting { window_ns: 500 },
            SchedStrategy::Reorder { window_ns: 500 },
        ] {
            assert_eq!(
                strategy_trace(strategy, 7),
                strategy_trace(strategy, 7),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn reorder_strategy_preempts_and_terminates() {
        // The reorder adversary must deviate from lowest-clock order, keep
        // every lane live, and run every step exactly once.
        let base = {
            let order = Mutex::new(Vec::new());
            Sim::new(testbed(), 4).run(|lane| {
                for step in 0..40u64 {
                    tick(Event::LocalWork(10 + (lane.id() as u64) * 7 + step % 3));
                    order.lock().unwrap().push((lane.id(), step));
                }
            });
            order.into_inner().unwrap()
        };
        let reorder = strategy_trace(SchedStrategy::Reorder { window_ns: 500 }, 11);
        assert_ne!(base, reorder, "reorder adversary must deviate");
        let mut sorted = reorder.clone();
        sorted.sort_unstable();
        let mut expect: Vec<(usize, u64)> =
            (0..4).flat_map(|l| (0..40).map(move |s| (l, s))).collect();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "no step may be lost or duplicated");
    }

    #[test]
    fn sched_seed_changes_random_walk_interleaving() {
        let strategy = SchedStrategy::RandomWalk { window_ns: 500 };
        let a = strategy_trace(strategy, 1);
        let b = strategy_trace(strategy, 2);
        assert_ne!(a, b, "different sched seeds must explore new schedules");
        // Every schedule still runs every step of every lane exactly once.
        let mut sa = a.clone();
        sa.sort_unstable();
        let mut expect: Vec<(usize, u64)> =
            (0..4).flat_map(|l| (0..40).map(move |s| (l, s))).collect();
        expect.sort_unstable();
        assert_eq!(sa, expect);
    }

    #[test]
    fn random_walk_differs_from_lowest_clock() {
        let base = {
            let order = Mutex::new(Vec::new());
            Sim::new(testbed(), 4).run(|lane| {
                for step in 0..40u64 {
                    tick(Event::LocalWork(10 + (lane.id() as u64) * 7 + step % 3));
                    order.lock().unwrap().push((lane.id(), step));
                }
            });
            order.into_inner().unwrap()
        };
        let walk = strategy_trace(SchedStrategy::RandomWalk { window_ns: 500 }, 3);
        assert_ne!(base, walk, "adversarial schedule must deviate");
    }

    #[test]
    fn perturb_limit_zero_recovers_lowest_clock_order() {
        // With the perturbation budget exhausted from the start, an
        // adversarial run commits events in exact lowest-clock order.
        let trace = |strategy: Option<SchedStrategy>| {
            let order = Mutex::new(Vec::new());
            let mut sim = Sim::new(testbed(), 4);
            if let Some(s) = strategy {
                sim = sim.with_strategy(s).with_perturb_limit(0);
            }
            sim.run(|lane| {
                for step in 0..40u64 {
                    tick(Event::LocalWork(10 + (lane.id() as u64) * 7 + step % 3));
                    order.lock().unwrap().push((lane.id(), step));
                }
            });
            order.into_inner().unwrap()
        };
        assert_eq!(
            trace(None),
            trace(Some(SchedStrategy::RandomWalk { window_ns: 500 })),
        );
    }

    #[test]
    fn decisions_are_counted_and_bounded_runs_terminate() {
        let r = Sim::new(testbed(), 4)
            .with_strategy(SchedStrategy::MostConflicting { window_ns: 200 })
            .run(|_| {
                for _ in 0..50 {
                    tick(Event::Cas);
                    tick(Event::LocalWork(30));
                }
            });
        assert!(r.decisions > 0, "adversarial runs must record decisions");
        let base = Sim::new(testbed(), 4).run(|_| {
            for _ in 0..50 {
                tick(Event::Cas);
                tick(Event::LocalWork(30));
            }
        });
        assert_eq!(base.decisions, 0, "default scheduling takes no decisions");
    }

    #[test]
    fn adversarial_spin_waits_still_make_progress() {
        // The bounded window guarantees a starved lane eventually runs even
        // under random scheduling: lane 1 spins until lane 0 sets the flag.
        let flag = AtomicU64::new(0);
        Sim::new(testbed(), 2)
            .with_strategy(SchedStrategy::RandomWalk { window_ns: 300 })
            .run(|lane| {
                if lane.id() == 0 {
                    for _ in 0..100 {
                        tick(Event::LocalWork(100));
                    }
                    flag.store(1, Ordering::Release);
                    tick(Event::SharedStore);
                } else {
                    let mut spins = 0u64;
                    while flag.load(Ordering::Acquire) == 0 {
                        tick(Event::SharedLoad);
                        spins += 1;
                        assert!(spins < 1_000_000, "spinner starved");
                    }
                }
            });
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;
    use crate::clock::{tick, Event};
    use crate::platform::PlatformKind;

    #[test]
    fn lane_panic_propagates_without_deadlock() {
        // A panicking lane must hand the CPU to its peers (FinishGuard) so
        // the run ends with a propagated panic instead of hanging.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Sim::new(Platform::testbed(), 4).run(|lane| {
                for _ in 0..20 {
                    tick(Event::LocalWork(50));
                }
                if lane.id() == 2 {
                    panic!("lane 2 exploded");
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // And the simulator remains usable afterwards.
        let r = Sim::new(Platform::testbed(), 2).run(|_| {
            tick(Event::LocalWork(10));
        });
        assert_eq!(r.makespan_ns, 10);
    }

    #[test]
    fn tick_n_batches_cost() {
        let r = Sim::new(Platform::testbed(), 1).run(|_| {
            crate::clock::tick_n(Event::LocalWork(7), 100);
            crate::clock::now()
        });
        assert_eq!(r.results[0], 700);
    }

    #[test]
    fn raw_event_charges_verbatim_on_every_platform() {
        for kind in [PlatformKind::Rock, PlatformKind::Haswell, PlatformKind::T2] {
            let r = Sim::new(kind.platform(), 1).run(|_| {
                tick(Event::Raw(123));
                crate::clock::now()
            });
            assert_eq!(r.results[0], 123, "{kind:?}");
        }
    }

    #[test]
    fn smt_penalty_slows_lanes_beyond_core_count() {
        // 8 lanes of independent work on Haswell (4 cores): virtual time
        // per lane must exceed the 4-lane case.
        let work = |n: usize| {
            Sim::new(Platform::haswell(), n)
                .run(|_| {
                    for _ in 0..100 {
                        tick(Event::LocalWork(100));
                    }
                })
                .makespan_ns
        };
        let at4 = work(4);
        let at8 = work(8);
        assert_eq!(at4, 10_000, "within cores: nominal cost");
        assert!(at8 > at4, "SMT sharing must slow per-lane progress: {at8}");
        assert!(at8 < at4 * 2, "but not to the point of negating SMT: {at8}");
    }
}
