//! Satellite: seed-stable operation sampling is a regression surface.
//!
//! Each lane's RNG is derived from `seed ^ FNV(workload name) ^ lane`, so
//! the op sequence a given (workload, seed, lane) draws is pinned forever.
//! These digests fail if anyone perturbs the sampling — reordering
//! `gen_range` calls, changing an op mix, touching the sub-seed derivation
//! — which would silently invalidate every replay file in the wild.
//!
//! If a change *means* to alter schedules (new op kind, retuned mix),
//! re-bless by updating the constants with the values the failure prints.
//!
//! These digests hold in debug *and* release builds: nothing may tick the
//! virtual clock from inside a `debug_assert!` (see `HtmCell::try_peek`),
//! so both profiles simulate the same schedule. The original constants
//! were blessed in a debug build back when `SpinLock::release`'s
//! assertion ticked; the current ones are the profile-independent values.

use ale_check::{run_once, CheckConfig, StrategyKind, Workload};

/// The pinned scenario-pack digests: (workload, digest).
///
/// Queue, Transfer and Nested were re-blessed once in PR 15 (DESIGN.md
/// §5.2 has the protocol and the old values): a transaction no longer
/// aborts on a cell that was plain-stored between its begin and its first
/// read of it, so their HTM attempts abort at different points. The other
/// two and every `SHARD_PINNED` digest did not move.
const PINNED: [(Workload, u64); 5] = [
    (Workload::Ttl, 0x8785_09cf_1f94_368f),
    (Workload::Queue, 0xd008_6cfb_376f_ff64),
    (Workload::Transfer, 0xb40f_002c_48eb_545c),
    (Workload::Registry, 0x1659_16f6_5014_8f81),
    (Workload::Nested, 0x0070_328f_5be3_e9f1),
];

/// The sharded-map workload pinned under *every* strategy: its op stream
/// feeds the shard router, the Zipf sampler, and the migration-step
/// driver, so a drift here also invalidates every `--workload shard`
/// replay file (including the `zipf_milli`/`shards` keys they carry).
const SHARD_PINNED: [(StrategyKind, u64); 5] = [
    (StrategyKind::LowestClock, 0x2578_e58d_a364_e8fa),
    (StrategyKind::RandomWalk, 0xd518_95d2_e380_c42c),
    (StrategyKind::Preempt, 0xa4f2_208d_0832_613b),
    (StrategyKind::MostConflicting, 0x21fb_057d_1356_f8a3),
    (StrategyKind::Reorder, 0x67e1_678c_27c6_7b93),
];

fn pinned_config(workload: Workload) -> CheckConfig {
    CheckConfig {
        workload,
        strategy: StrategyKind::Reorder,
        threads: 4,
        ops: 200,
        seed: 1,
        sched_seed: 0x5EED,
        reorder_ns: 250,
        ..CheckConfig::default()
    }
}

#[test]
fn scenario_digests_are_pinned() {
    // BLESS=1 prints the constants to paste into PINNED instead of failing.
    let bless = std::env::var_os("BLESS").is_some();
    for (workload, want) in PINNED {
        let outcome = run_once(&pinned_config(workload));
        if bless {
            println!("    (Workload::{:?}, {:#018x}),", workload, outcome.digest);
            continue;
        }
        assert!(
            outcome.violations.is_empty(),
            "{}: pinned schedule must be clean: {:?}",
            workload.name(),
            outcome.violations
        );
        assert_eq!(
            outcome.digest,
            want,
            "{}: digest drifted to {:#018x} — op sampling or oracles changed; \
             re-bless only if the change is intentional",
            workload.name(),
            outcome.digest
        );
    }
}

#[test]
fn shard_digests_are_pinned_across_all_strategies() {
    let bless = std::env::var_os("BLESS").is_some();
    for (strategy, want) in SHARD_PINNED {
        let cfg = CheckConfig {
            strategy,
            ..pinned_config(Workload::Shard)
        };
        let outcome = run_once(&cfg);
        if bless {
            println!(
                "    (StrategyKind::{:?}, {:#018x}),",
                strategy, outcome.digest
            );
            continue;
        }
        assert!(
            outcome.violations.is_empty(),
            "shard/{:?}: pinned schedule must be clean: {:?}",
            strategy,
            outcome.violations
        );
        assert_eq!(
            outcome.digest, want,
            "shard/{:?}: digest drifted to {:#018x} — op sampling, the Zipf \
             sampler, shard routing, or the oracles changed; re-bless only if \
             the change is intentional",
            strategy, outcome.digest
        );
    }
}

#[test]
fn pinned_schedules_replay_bit_identically() {
    let cfg = pinned_config(Workload::Registry);
    let a = run_once(&cfg);
    let b = run_once(&cfg);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.makespan_ns, b.makespan_ns);
}
