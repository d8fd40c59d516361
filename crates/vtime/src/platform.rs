//! Simulated platform profiles.
//!
//! The paper evaluates ALE on three machines; each is modelled here as a
//! [`Platform`]: a logical-thread budget, a [`CostModel`] translating
//! abstract [`Event`](crate::Event)s into virtual nanoseconds, and an
//! optional [`HtmProfile`] describing the machine's best-effort HTM.
//!
//! * **Rock** — 1-socket, 16-core SPARC with an early best-effort HTM whose
//!   transactions fail for many restrictive reasons (tiny store queue,
//!   TLB misses, function calls…). Modelled with a very small write-set
//!   capacity and a high spurious-abort rate.
//! * **Haswell** — 1-socket, 4-core × 2-SMT x86 with Intel TSX/RTM:
//!   read set tracked in L3-ish structures (large), write set bounded by
//!   L1 (moderate), low spurious-abort rate.
//! * **T2-2** — 2-socket, 128-thread SPARC T2+: no HTM at all, slower
//!   single-thread clock, higher coherence costs (two sockets).
//!
//! Absolute numbers are order-of-magnitude estimates; the reproduction
//! targets the *shape* of the paper's curves (who wins, where crossovers
//! fall), which is governed by the ratios encoded here, not by the absolute
//! values.

use crate::clock::Event;

/// Virtual-nanosecond costs for each abstract event.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Atomic read-modify-write on shared data.
    pub cas_ns: u64,
    /// Load of potentially-shared data (blended hit/miss cost).
    pub shared_load_ns: u64,
    /// Store to potentially-shared data.
    pub shared_store_ns: u64,
    /// Entering a hardware transaction.
    pub htm_begin_ns: u64,
    /// Committing a hardware transaction.
    pub htm_commit_ns: u64,
    /// Aborting a hardware transaction.
    pub htm_abort_ns: u64,
    /// Handing a contended lock between threads (coherence + wakeup).
    pub lock_handoff_ns: u64,
    /// Base unit for exponential backoff; one backoff event at exponent `e`
    /// costs `backoff_unit_ns << e` (capped at [`CostModel::backoff_cap_ns`]).
    pub backoff_unit_ns: u64,
    /// Upper bound for a single backoff event.
    pub backoff_cap_ns: u64,
    /// Multiplier applied to `Event::LocalWork` (models slower cores; 1000 =
    /// 1.0×, fixed-point with three decimal places).
    pub local_work_permille: u64,
}

impl CostModel {
    /// Cost in virtual nanoseconds of a single event.
    #[inline]
    pub fn cost(&self, ev: Event) -> u64 {
        match ev {
            Event::Cas => self.cas_ns,
            Event::SharedLoad => self.shared_load_ns,
            Event::SharedStore => self.shared_store_ns,
            Event::LocalWork(ns) => ns * self.local_work_permille / 1000,
            Event::HtmBegin => self.htm_begin_ns,
            Event::HtmCommit => self.htm_commit_ns,
            Event::HtmAbort => self.htm_abort_ns,
            Event::LockHandoff => self.lock_handoff_ns,
            Event::Backoff(exp) => {
                let shifted = self.backoff_unit_ns.saturating_shl(exp.min(32));
                shifted.min(self.backoff_cap_ns)
            }
            Event::Raw(ns) => ns,
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}
impl SaturatingShl for u64 {
    #[inline]
    fn saturating_shl(self, by: u32) -> u64 {
        if by >= 64 || self.leading_zeros() < by {
            u64::MAX
        } else {
            self << by
        }
    }
}

/// Best-effort HTM characteristics of a platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmProfile {
    /// Maximum distinct cells a transaction may read before a capacity abort.
    pub max_read_set: usize,
    /// Maximum distinct cells a transaction may write before a capacity abort.
    pub max_write_set: usize,
    /// Probability that any single transactional access spuriously aborts
    /// (models TLB misses, interrupts, micro-architectural events).
    pub spurious_abort_per_access: f64,
    /// Probability that a transaction spuriously aborts at begin
    /// (models unfriendly events between begin and first access).
    pub spurious_abort_per_txn: f64,
    /// Whether an abort's status suggests a retry may succeed when the abort
    /// was spurious (Rock's status register was famously unhelpful).
    pub spurious_retry_hint: bool,
}

/// Identifies one of the built-in platforms (handy for CLI parsing and CSV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    Rock,
    Haswell,
    T2,
    /// Uniform-cost single-socket test machine with generous HTM.
    Testbed,
}

impl PlatformKind {
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::Rock => "rock",
            PlatformKind::Haswell => "haswell",
            PlatformKind::T2 => "t2",
            PlatformKind::Testbed => "testbed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rock" => Some(PlatformKind::Rock),
            "haswell" => Some(PlatformKind::Haswell),
            "t2" | "t2-2" => Some(PlatformKind::T2),
            "testbed" => Some(PlatformKind::Testbed),
            _ => None,
        }
    }

    pub fn platform(self) -> Platform {
        match self {
            PlatformKind::Rock => Platform::rock(),
            PlatformKind::Haswell => Platform::haswell(),
            PlatformKind::T2 => Platform::t2(),
            PlatformKind::Testbed => Platform::testbed(),
        }
    }
}

/// A simulated machine: thread budget, cost model, HTM profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    pub kind: PlatformKind,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads per core.
    pub smt: u32,
    /// Extra per-thread compute cost when hardware threads share cores,
    /// in permille at full SMT occupancy. Running `n > cores` simulated
    /// threads scales compute-bound costs by
    /// `1 + smt_penalty‰ × (n − cores)/(logical − cores)`: SMT siblings
    /// share pipelines, so per-thread speed drops even as aggregate
    /// throughput rises. Zero for non-SMT machines (Rock).
    pub smt_penalty_permille: u64,
    /// HTM support, if any.
    pub htm: Option<HtmProfile>,
    pub costs: CostModel,
}

impl Platform {
    /// Total logical hardware threads.
    pub fn logical_threads(&self) -> u32 {
        self.cores * self.smt
    }

    /// The platform as experienced by `n` concurrent threads: compute
    /// costs inflated by SMT sharing when `n` exceeds the core count.
    pub fn occupied_by(&self, n: u32) -> Platform {
        let logical = self.logical_threads().max(self.cores + 1);
        if n <= self.cores || self.smt_penalty_permille == 0 {
            return self.clone();
        }
        let oversub = (n.min(logical) - self.cores) as u64;
        let span = (logical - self.cores) as u64;
        let factor = 1000 + self.smt_penalty_permille * oversub / span;
        let mut p = self.clone();
        let scale = |v: u64| v * factor / 1000;
        p.costs.local_work_permille = scale(p.costs.local_work_permille);
        p.costs.shared_load_ns = scale(p.costs.shared_load_ns);
        p.costs.shared_store_ns = scale(p.costs.shared_store_ns);
        p.costs.cas_ns = scale(p.costs.cas_ns);
        p.costs.htm_begin_ns = scale(p.costs.htm_begin_ns);
        p.costs.htm_commit_ns = scale(p.costs.htm_commit_ns);
        p.costs.htm_abort_ns = scale(p.costs.htm_abort_ns);
        p
    }

    pub fn has_htm(&self) -> bool {
        self.htm.is_some()
    }

    /// Sun/Oracle Rock: 16 cores, early best-effort HTM with a tiny store
    /// buffer and many restrictive failure causes.
    pub fn rock() -> Self {
        Platform {
            kind: PlatformKind::Rock,
            cores: 16,
            smt: 1,
            smt_penalty_permille: 0,
            htm: Some(HtmProfile {
                max_read_set: 2048,
                max_write_set: 32,
                spurious_abort_per_access: 0.0012,
                spurious_abort_per_txn: 0.02,
                spurious_retry_hint: false,
            }),
            costs: CostModel {
                cas_ns: 40,
                shared_load_ns: 12,
                shared_store_ns: 16,
                htm_begin_ns: 40,
                htm_commit_ns: 40,
                htm_abort_ns: 250,
                lock_handoff_ns: 220,
                backoff_unit_ns: 60,
                backoff_cap_ns: 20_000,
                local_work_permille: 1400,
            },
        }
    }

    /// Intel Haswell: 4 cores × 2 SMT, TSX/RTM with a large read set and an
    /// L1-bounded write set.
    pub fn haswell() -> Self {
        Platform {
            kind: PlatformKind::Haswell,
            cores: 4,
            smt: 2,
            smt_penalty_permille: 550,
            htm: Some(HtmProfile {
                max_read_set: 4096,
                max_write_set: 448,
                spurious_abort_per_access: 0.00008,
                spurious_abort_per_txn: 0.004,
                spurious_retry_hint: true,
            }),
            costs: CostModel {
                cas_ns: 20,
                shared_load_ns: 6,
                shared_store_ns: 8,
                htm_begin_ns: 35,
                htm_commit_ns: 25,
                htm_abort_ns: 150,
                lock_handoff_ns: 120,
                backoff_unit_ns: 40,
                backoff_cap_ns: 12_000,
                local_work_permille: 1000,
            },
        }
    }

    /// SPARC T2+ (two sockets, 128 hardware threads): no HTM, modest
    /// single-thread performance, expensive cross-socket coherence.
    pub fn t2() -> Self {
        Platform {
            kind: PlatformKind::T2,
            cores: 16,
            smt: 8,
            smt_penalty_permille: 1000,
            htm: None,
            costs: CostModel {
                cas_ns: 90,
                shared_load_ns: 25,
                shared_store_ns: 30,
                htm_begin_ns: 0,
                htm_commit_ns: 0,
                htm_abort_ns: 0,
                lock_handoff_ns: 450,
                backoff_unit_ns: 120,
                backoff_cap_ns: 40_000,
                local_work_permille: 2500,
            },
        }
    }

    /// A uniform test machine: generous HTM, cheap everything. Used by unit
    /// tests that want HTM behaviour without platform-specific noise.
    pub fn testbed() -> Self {
        Platform {
            kind: PlatformKind::Testbed,
            cores: 8,
            smt: 1,
            smt_penalty_permille: 0,
            htm: Some(HtmProfile {
                max_read_set: 1 << 16,
                max_write_set: 1 << 16,
                spurious_abort_per_access: 0.0,
                spurious_abort_per_txn: 0.0,
                spurious_retry_hint: true,
            }),
            costs: CostModel {
                cas_ns: 10,
                shared_load_ns: 5,
                shared_store_ns: 5,
                htm_begin_ns: 10,
                htm_commit_ns: 10,
                htm_abort_ns: 50,
                lock_handoff_ns: 50,
                backoff_unit_ns: 20,
                backoff_cap_ns: 5_000,
                local_work_permille: 1000,
            },
        }
    }

    /// A copy of this platform without HTM (for ablations).
    pub fn without_htm(mut self) -> Self {
        self.htm = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_platforms_are_sane() {
        for kind in [
            PlatformKind::Rock,
            PlatformKind::Haswell,
            PlatformKind::T2,
            PlatformKind::Testbed,
        ] {
            let p = kind.platform();
            assert_eq!(p.kind, kind);
            assert!(p.logical_threads() >= 1);
            assert!(p.costs.cas_ns > 0);
            assert_eq!(PlatformKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Platform::t2().logical_threads(), 128);
        assert_eq!(Platform::haswell().logical_threads(), 8);
        assert_eq!(Platform::rock().logical_threads(), 16);
    }

    #[test]
    fn t2_has_no_htm_and_rock_has_small_write_set() {
        assert!(!Platform::t2().has_htm());
        let rock = Platform::rock();
        let haswell = Platform::haswell();
        assert!(
            rock.htm.as_ref().unwrap().max_write_set < haswell.htm.as_ref().unwrap().max_write_set
        );
    }

    #[test]
    fn cost_model_maps_events() {
        let m = Platform::testbed().costs;
        assert_eq!(m.cost(Event::Cas), m.cas_ns);
        assert_eq!(m.cost(Event::LocalWork(100)), 100);
        assert_eq!(m.cost(Event::Raw(7)), 7);
        // T2's slower cores scale local work up.
        let t2 = Platform::t2().costs;
        assert_eq!(t2.cost(Event::LocalWork(100)), 250);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let m = Platform::testbed().costs;
        let c0 = m.cost(Event::Backoff(0));
        let c3 = m.cost(Event::Backoff(3));
        assert_eq!(c3, c0 << 3);
        assert_eq!(m.cost(Event::Backoff(62)), m.backoff_cap_ns);
    }

    #[test]
    fn without_htm_strips_htm() {
        assert!(!Platform::haswell().without_htm().has_htm());
    }

    #[test]
    fn smt_occupancy_scales_compute_costs() {
        let p = Platform::haswell(); // 4 cores × 2 SMT, penalty 550‰
        let solo = p.occupied_by(4);
        assert_eq!(solo.costs, p.costs, "within the core budget: unchanged");
        let full = p.occupied_by(8);
        assert_eq!(
            full.costs.local_work_permille,
            p.costs.local_work_permille * 1550 / 1000
        );
        assert!(full.costs.shared_load_ns > p.costs.shared_load_ns);
        // Costs that model coherence/handoff are not inflated.
        assert_eq!(full.costs.lock_handoff_ns, p.costs.lock_handoff_ns);
        // Partial occupancy interpolates.
        let half = p.occupied_by(6);
        assert!(half.costs.cas_ns > p.costs.cas_ns);
        assert!(half.costs.cas_ns < full.costs.cas_ns);
        // Non-SMT platforms never scale.
        let rock = Platform::rock();
        assert_eq!(rock.occupied_by(16).costs, rock.costs);
        assert_eq!(rock.occupied_by(64).costs, rock.costs);
    }
}
