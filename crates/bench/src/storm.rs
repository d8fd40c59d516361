//! Storm-recovery scenario: throughput through an injected abort storm.
//!
//! A counter workload runs through three virtual-time phases — clean,
//! storm, recovery. During the storm every transaction begin is aborted
//! with a conflict (a windowed, thread-scoped
//! [`InjectPlan`](ale_htm::InjectPlan), so the faults hit only this
//! scenario's lanes). The scenario reports per-phase throughput plus the
//! abort-storm circuit breaker's trip/restore counters, so a shape test
//! can assert the resilience story: with the breaker, the runtime stops
//! burning doomed HTM retries almost immediately and restores HTM once the
//! storm passes; without it, every execution pays the full retry budget
//! for the storm's whole duration.

use std::sync::Mutex;

use ale_core::{scope, Ale, AleConfig, CsOptions, ExecMode, StaticPolicy};
use ale_htm::{BreakerConfig, HtmCell, InjectKind, InjectPlan, InjectPoint, InjectRule};
use ale_sync::SpinLock;
use ale_vtime::{now, tick, Event, Platform, Sim};

/// One storm-recovery run's parameters.
#[derive(Debug, Clone)]
pub struct StormConfig {
    pub platform: Platform,
    pub threads: usize,
    /// Circuit-breaker configuration (`None` = the unprotected control).
    pub breaker: Option<BreakerConfig>,
    pub seed: u64,
    /// Phase boundaries in virtual ns: clean `[0, 0.0)`, storm
    /// `[storm_start, storm_end)`, recovery `[storm_end, run_end)`.
    pub storm_start_ns: u64,
    pub storm_end_ns: u64,
    pub run_end_ns: u64,
}

impl StormConfig {
    /// A quick, shape-test-sized run: three 200 µs phases, HTM retry
    /// budget 5, breaker tuned so cool-down probes fit inside the phases.
    pub fn quick(platform: Platform, threads: usize, with_breaker: bool, seed: u64) -> Self {
        StormConfig {
            platform,
            threads,
            breaker: with_breaker.then_some(BreakerConfig {
                window_ns: 20_000,
                trip_permille: 800,
                min_samples: 16,
                cooldown_ns: 10_000,
                max_cooldown_ns: 80_000,
            }),
            seed,
            storm_start_ns: 200_000,
            storm_end_ns: 400_000,
            run_end_ns: 600_000,
        }
    }
}

/// Per-phase throughput and breaker activity for one run.
#[derive(Debug, Clone)]
pub struct StormResult {
    /// Throughput (Mops of virtual time) before / during / after the storm.
    pub pre_mops: f64,
    pub storm_mops: f64,
    pub post_mops: f64,
    /// Throughput from `storm_end_ns + max_cooldown_ns` to the end (from
    /// `storm_end_ns` for the control): a cool-down never outlasts
    /// `max_cooldown_ns`, so by then the breaker has had its chance to
    /// restore HTM, wherever its last jittered cool-down landed. This is
    /// the rate the breaker promises to recover; `post_mops` also counts
    /// the cool-down tail.
    pub recovered_mops: f64,
    /// Breaker trips and restores over the whole run (0 for the control).
    pub trips: u64,
    pub restores: u64,
    /// Operations the recovery phase completed in HTM mode — nonzero iff
    /// hardware elision actually came back after the storm.
    pub post_htm_ops: u64,
}

/// The inject-plan slot is process-global; storm runs must not overlap.
static STORM_SERIAL: Mutex<()> = Mutex::new(());

const CELLS: usize = 16;

/// Execute one storm-recovery run. Deterministic for a fixed config.
pub fn run_storm(cfg: &StormConfig) -> StormResult {
    let _serial = STORM_SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scope_token = 0x53_54_4F_52_4D ^ cfg.seed; // lanes opt in below

    let mut ale_cfg = AleConfig::new(cfg.platform.clone()).with_seed(cfg.seed);
    if let Some(b) = cfg.breaker.clone() {
        ale_cfg = ale_cfg.with_breaker(b);
    }
    // Build before arming the plan so the startup HTM probe sees healthy
    // hardware (the storm models a conflict storm, not broken HTM).
    let ale = Ale::new(ale_cfg, StaticPolicy::new(5, 0));
    let lock = ale.new_lock("stormLock", SpinLock::new());
    let cells: Vec<HtmCell<u64>> = (0..CELLS as u64).map(HtmCell::new).collect();

    ale_htm::inject::install(
        InjectPlan::new(vec![InjectRule {
            point: InjectPoint::Begin,
            every: 1,
            kind: InjectKind::Conflict,
        }])
        .windowed(cfg.storm_start_ns, cfg.storm_end_ns)
        .scoped(scope_token),
    );

    let settled_ns = cfg.storm_end_ns + cfg.breaker.as_ref().map_or(0, |b| b.max_cooldown_ns);
    let (lock_ref, cells_ref) = (&lock, &cells);
    let report = Sim::new(cfg.platform.clone(), cfg.threads)
        .with_seed(cfg.seed)
        .run(|lane| {
            let _scope = ale_htm::inject::enter_scope(scope_token);
            let mut rng = lane.rng().clone();
            let mut ops = [0u64; 3];
            let mut htm_post = 0u64;
            let mut settled = 0u64;
            while now() < cfg.run_end_ns {
                let mode = lock_ref.cs_plain(scope!("storm::inc"), CsOptions::new(), |cs| {
                    let c = &cells_ref[rng.gen_range(CELLS as u64) as usize];
                    c.set(c.get() + 1);
                    cs.mode()
                });
                let t = now();
                let phase = if t < cfg.storm_start_ns {
                    0
                } else if t < cfg.storm_end_ns {
                    1
                } else {
                    2
                };
                ops[phase] += 1;
                if phase == 2 && mode == ExecMode::Htm {
                    htm_post += 1;
                }
                settled += u64::from(t >= settled_ns);
                tick(Event::LocalWork(1 + rng.gen_range(40)));
            }
            (ops, htm_post, settled)
        });
    ale_htm::inject::clear();

    let mut ops = [0u64; 3];
    let (mut post_htm_ops, mut settled_ops) = (0, 0);
    for (lane_ops, htm_post, settled) in &report.results {
        for (total, n) in ops.iter_mut().zip(lane_ops) {
            *total += n;
        }
        post_htm_ops += htm_post;
        settled_ops += settled;
    }
    let durations = [
        cfg.storm_start_ns,
        cfg.storm_end_ns - cfg.storm_start_ns,
        cfg.run_end_ns - cfg.storm_end_ns,
    ];
    let mops = |phase: usize| ops[phase] as f64 / durations[phase] as f64 * 1_000.0;

    let (mut trips, mut restores) = (0, 0);
    for g in lock.meta().granules.all() {
        if let Some(b) = &g.breaker {
            trips += b.trips();
            restores += b.restores();
        }
    }
    StormResult {
        pre_mops: mops(0),
        storm_mops: mops(1),
        post_mops: mops(2),
        recovered_mops: settled_ops as f64 / (cfg.run_end_ns - settled_ns) as f64 * 1_000.0,
        trips,
        restores,
        post_htm_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_run_is_deterministic() {
        let cfg = StormConfig::quick(Platform::haswell(), 2, true, 5);
        let a = run_storm(&cfg);
        let b = run_storm(&cfg);
        assert_eq!(a.pre_mops, b.pre_mops);
        assert_eq!(a.storm_mops, b.storm_mops);
        assert_eq!(a.post_mops, b.post_mops);
        assert_eq!((a.trips, a.restores), (b.trips, b.restores));
    }

    #[test]
    fn breaker_trips_and_restores_through_the_storm() {
        let r = run_storm(&StormConfig::quick(Platform::haswell(), 4, true, 7));
        assert!(r.trips >= 1, "the storm must trip the breaker: {r:?}");
        assert!(r.restores >= 1, "HTM must be restored after it: {r:?}");
        assert!(r.post_htm_ops > 0, "recovery must run in HTM again: {r:?}");
    }

    #[test]
    fn control_without_breaker_reports_no_breaker_activity() {
        let r = run_storm(&StormConfig::quick(Platform::haswell(), 2, false, 7));
        assert_eq!((r.trips, r.restores), (0, 0), "{r:?}");
        assert!(r.pre_mops > 0.0 && r.storm_mops > 0.0 && r.post_mops > 0.0);
    }
}
