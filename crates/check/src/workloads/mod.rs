//! Model-checked workloads and their oracles.
//!
//! Each workload runs a fixed operation mix under the simulator and checks
//! invariants both *during* the run (from inside lanes, recorded — never
//! asserted — so one violation doesn't hide the rest) and *after* it
//! (quiescent-state oracles). The keyspace is partitioned so every mutable
//! key has exactly one writer lane: per-key final state is then fully
//! determined by that lane's operation sequence, which gives a sound
//! linearizability check (owner shadows) without a centralized model.
//!
//! Values embed their key in the low 16 bits, so a reader that lands on a
//! recycled node — the failure mode of a skipped version bump or a skipped
//! validation — returns a value whose embedded key disagrees with the one
//! requested, and the integrity oracle fires.
//!
//! The four map-shaped workloads (`hashmap`, `kyoto`, `durable`, `shard`)
//! share one key-value oracle, `kv.rs`.
//!
//! Two tiers of workloads share this module:
//!
//! * **Microbenchmark subjects** ([`Workload::HashMap`], [`Workload::Kyoto`],
//!   [`Workload::Bank`], [`Workload::Snzi`], [`Workload::Panic`]) — one
//!   mechanism each, from the paper's experiments.
//! * **The scenario pack** ([`Workload::SCENARIOS`]) — real-world shapes
//!   (TTL cache, bounded queue, multi-key transfers, read-mostly registry,
//!   nested compound ops), each paired with a sequential shadow model from
//!   [`shadow`] where single-writer ownership makes the comparison sound,
//!   and with invariant oracles (conservation, capacity, epoch coherence)
//!   where state is shared.

// Every workload ends its `WorkloadOutcome` in `..Default::default()`, also
// the two that name every field today: the next oracle input then touches
// only the workloads that feed it.
#![allow(clippy::needless_update)]

pub mod shadow;

mod bank;
mod durable;
mod hashmap;
mod kv;
mod kyoto;
mod nested;
mod panic;
mod queue;
mod registry;
mod shard;
mod snzi;
mod transfer;
mod ttl;

use std::sync::Mutex;

use ale_vtime::{Rng, Sim};

use crate::{CheckConfig, Fnv};

/// Which subject the schedule exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's chained HashMap: SWOpt readers vs Lock-mode mutators.
    HashMap,
    /// The Kyoto CacheDB: nested RW-lock + slot-lock critical sections,
    /// all three modes.
    Kyoto,
    /// Transfer/audit bank on raw `HtmCell`s: the TLE lock-subscription
    /// soundness test (HTM auditors vs Lock-mode writers).
    Bank,
    /// SNZI arrive/depart storm: the indicator must never read empty while
    /// a surplus exists.
    Snzi,
    /// Panicking critical sections in all three modes: after every caught
    /// unwind the runtime must have closed the panicker's conflicting
    /// regions (seqlock parity restored), left no transaction open, and —
    /// for Lock mode — poisoned the lock until explicit recovery.
    Panic,
    /// TTL cache with eviction: entries expire, readers must never be
    /// served a stale entry, sweeps evict lazily.
    Ttl,
    /// Bounded producer-consumer ring: FIFO per producer, capacity bound
    /// observed by SWOpt length probes, exact end-to-end item accounting.
    Queue,
    /// Multi-key transfers (two debtors, one creditor) with SWOpt
    /// conservation audits over all accounts.
    Transfer,
    /// Read-mostly registry with rare bulk updates publishing an epoch
    /// block through a [`ale_sync::SeqBuffer`]: epoch coherence and torn-
    /// publication oracles.
    Registry,
    /// Nested compound operations — a transfer *inside* a cache fill —
    /// exercising conflicting-region nesting and the grouping SNZI.
    Nested,
    /// The durable Kyoto CacheDB behind its write-ahead log, with
    /// crash-point fault injection: after a simulated crash the database
    /// is recovered from the log and checked against the acked-operation
    /// shadows — every acknowledged operation present, no unacknowledged
    /// operation observable, seqs gapless up to the truncation point.
    Durable,
    /// The sharded map with live incremental resize: SWOpt readers (Zipf-
    /// skewed via `--zipf`) race Lock-mode mutators and explicit migration
    /// steps across `--shards` shards; oracles cover torn lookups during
    /// chain splices, lost keys from misrouted inserts, migration-cursor
    /// monotonicity, and per-shard count-vs-enumeration parity.
    Shard,
}

impl Workload {
    pub const ALL: [Workload; 12] = [
        Workload::HashMap,
        Workload::Kyoto,
        Workload::Bank,
        Workload::Snzi,
        Workload::Panic,
        Workload::Ttl,
        Workload::Queue,
        Workload::Transfer,
        Workload::Registry,
        Workload::Nested,
        Workload::Durable,
        Workload::Shard,
    ];

    /// The real-world scenario pack (the `--workload scenarios` group).
    pub const SCENARIOS: [Workload; 5] = [
        Workload::Ttl,
        Workload::Queue,
        Workload::Transfer,
        Workload::Registry,
        Workload::Nested,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HashMap => "hashmap",
            Workload::Kyoto => "kyoto",
            Workload::Bank => "bank",
            Workload::Snzi => "snzi",
            Workload::Panic => "panic",
            Workload::Ttl => "ttl",
            Workload::Queue => "queue",
            Workload::Transfer => "transfer",
            Workload::Registry => "registry",
            Workload::Nested => "nested",
            Workload::Durable => "durable",
            Workload::Shard => "shard",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a workload reports back to [`crate::run_once`]. Workloads build it
/// with `..Default::default()`, so a new optional oracle input touches only
/// the workloads that feed it.
#[derive(Debug, Default)]
pub struct WorkloadOutcome {
    pub violations: Vec<String>,
    /// Workload-specific digest material (lane results, final state).
    pub digest: u64,
    pub decisions: u64,
    pub makespan_ns: u64,
    /// Granule statistics parity sample: `(total executions recorded
    /// across every granule, all counters still exact)`. `None` when the
    /// workload does not sample its runtime's granule stats. Compared by
    /// `run_once` against the observed completion count — never folded
    /// into the digest.
    pub stat_parity: Option<(u64, bool)>,
}

/// Recorded oracle violations. Capped so a hot oracle can't balloon the
/// report; the count is always exact.
pub(crate) struct Violations {
    inner: Mutex<(Vec<String>, u64)>,
}

const MAX_RECORDED: usize = 48;

impl Violations {
    pub(crate) fn new() -> Self {
        Violations {
            inner: Mutex::new((Vec::new(), 0)),
        }
    }

    pub(crate) fn record(&self, msg: String) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.1 += 1;
        if g.0.len() < MAX_RECORDED {
            g.0.push(msg);
        }
    }

    pub(crate) fn into_vec(self) -> Vec<String> {
        let (mut v, total) = self.inner.into_inner().unwrap_or_else(|p| p.into_inner());
        if total > v.len() as u64 {
            v.push(format!("… and {} more violations", total - v.len() as u64));
        }
        v
    }
}

pub(crate) fn sim_for(cfg: &CheckConfig) -> Sim {
    Sim::new(cfg.platform.platform(), cfg.threads)
        .with_seed(cfg.seed)
        .with_sched_seed(cfg.sched_seed)
        .with_strategy(cfg.strategy.to_strategy(cfg.window_ns, cfg.permille))
        .with_perturb_limit(cfg.perturb_limit)
}

/// Per-lane operation rng. An FNV sub-seed of the workload's *name* is
/// folded in, so each workload draws its op distribution from its own
/// stream: `--seed N` gives unrelated sequences across workloads, and
/// adding a workload can never shift an existing workload's stream (the
/// seed-stability contract pinned by `tests/digest_regressions.rs`).
pub(crate) fn lane_rng(cfg: &CheckConfig, lane: usize) -> Rng {
    let mut sub = Fnv::new();
    sub.write(cfg.workload.name().as_bytes());
    Rng::new(cfg.seed ^ sub.finish() ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sum the completed-execution statistic across every granule of `ale`'s
/// locks, plus whether all those counters are still in the BFP exact
/// regime (the comparison is only meaningful while they are). Called
/// after the simulation has drained, from the host thread — not a
/// simulated lane — so the counter reads tick nothing and pinned
/// schedule digests are unaffected.
pub(crate) fn granule_stat_parity(ale: &ale_core::Ale) -> (u64, bool) {
    let mut executions = 0u64;
    let mut exact = true;
    for meta in ale.lock_metas() {
        for g in meta.granules.all() {
            executions += g.stats.executions.read();
            exact &= g.stats.executions.is_exact();
        }
    }
    (executions, exact)
}

/// Dispatch to the configured workload.
pub fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    match cfg.workload {
        Workload::HashMap => hashmap::run(cfg),
        Workload::Kyoto => kyoto::run(cfg),
        Workload::Bank => bank::run(cfg),
        Workload::Snzi => snzi::run(cfg),
        Workload::Panic => panic::run(cfg),
        Workload::Ttl => ttl::run(cfg),
        Workload::Queue => queue::run(cfg),
        Workload::Transfer => transfer::run(cfg),
        Workload::Registry => registry::run(cfg),
        Workload::Nested => nested::run(cfg),
        Workload::Durable => durable::run(cfg),
        Workload::Shard => shard::run(cfg),
    }
}

// ---------------------------------------------------------------------------
// Shared key/value scheme
// ---------------------------------------------------------------------------

/// Value encoding shared by the map workloads: generation in the high
/// bits, the key's low 16 bits embedded for the integrity oracle.
pub(crate) fn encode(key: u64, generation: u64) -> u64 {
    (generation << 16) | (key & 0xFFFF)
}

pub(crate) fn integrity_ok(key: u64, val: u64) -> bool {
    val & 0xFFFF == key & 0xFFFF
}

pub(crate) const STABLE_KEYS: std::ops::Range<u64> = 1..9;
pub(crate) const STABLE_COUNT: usize = (STABLE_KEYS.end - STABLE_KEYS.start) as usize;
pub(crate) const CHURN_PER_LANE: usize = 4;
pub(crate) const CHURN_BASE: u64 = 0x100;

pub(crate) fn churn_key(lane: usize, j: usize) -> u64 {
    CHURN_BASE + (lane as u64) * CHURN_PER_LANE as u64 + j as u64
}

pub(crate) const ACCOUNTS: usize = 12;
pub(crate) const INITIAL_BALANCE: u64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nonsense"), None);
    }

    #[test]
    fn scenarios_are_a_subset_of_all() {
        for s in Workload::SCENARIOS {
            assert!(Workload::ALL.contains(&s));
        }
    }

    #[test]
    fn lane_rngs_differ_across_workloads_and_lanes() {
        let mk = |w: Workload, lane: usize| {
            let cfg = CheckConfig {
                workload: w,
                ..CheckConfig::default()
            };
            let mut r = lane_rng(&cfg, lane);
            (0..8).map(|_| r.gen_range(1000)).collect::<Vec<u64>>()
        };
        assert_ne!(mk(Workload::Ttl, 0), mk(Workload::Queue, 0));
        assert_ne!(mk(Workload::Ttl, 0), mk(Workload::Ttl, 1));
        assert_eq!(mk(Workload::Ttl, 0), mk(Workload::Ttl, 0));
    }
}
