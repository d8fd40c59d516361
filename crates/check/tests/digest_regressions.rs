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
//!
//! Each test holds [`ale_trace::test_serial`]: one simulation at a time in
//! this binary, so none sees another's HTM clock traffic.

use ale_check::{run_once, CheckConfig, CrashSpec, StrategyKind, Workload};
use ale_htm::{CrashPoint, TornMode};

/// The pinned scenario-pack digests: (workload, digest).
///
/// Re-blessed under DESIGN.md §5.2, which lists every old value:
/// * PR 15 moved Queue, Transfer and Nested: a transaction no longer
///   aborts on a cell that was plain-stored between its begin and its
///   first read of it.
/// * PR 25 moved all five here and all five `SHARD_PINNED`: the simulator
///   now records statistics on the shipped path (a stack delta flushed
///   when the section ends, no tick), so the `tick(Event::Cas)` each
///   recorded event used to pay — a scheduler yield point — is gone.
///
/// The three map microbenchmarks (`hashmap`, `kyoto`, `durable`) joined in
/// PR 34, blessed at PR 33's tree before their oracles were merged into
/// `workloads/kv.rs`.
const PINNED: [(Workload, u64); 8] = [
    (Workload::HashMap, 0x6468_9b65_2ea3_d814),
    (Workload::Kyoto, 0x1d80_f7c0_c88d_1156),
    (Workload::Durable, 0xaba3_4586_91db_1d57),
    (Workload::Ttl, 0x413a_e78d_0ac6_6822),
    (Workload::Queue, 0x2d14_ab8c_9a60_08cd),
    (Workload::Transfer, 0xd97a_046b_883e_7db5),
    (Workload::Registry, 0x818a_5846_c58e_2ff1),
    (Workload::Nested, 0xa4bc_deae_a43a_870e),
];

/// The sharded-map workload pinned under *every* strategy: its op stream
/// feeds the shard router, the Zipf sampler, and the migration-step
/// driver, so a drift here also invalidates every `--workload shard`
/// replay file (including the `zipf_milli`/`shards` keys they carry).
const SHARD_PINNED: [(StrategyKind, u64); 5] = [
    (StrategyKind::LowestClock, 0xc5cd_6dba_01e5_83aa),
    (StrategyKind::RandomWalk, 0x000d_da34_ee68_2aa4),
    (StrategyKind::Preempt, 0x8caa_90c2_960e_7d5b),
    (StrategyKind::MostConflicting, 0xe0fd_516d_3196_6cfc),
    (StrategyKind::Reorder, 0xfd11_cdc1_cdaf_1b0a),
];

/// The durable workload killed mid-run: a crash before the slot commit of
/// the twelfth workload-phase append, with the tail record truncated. Pins
/// the crash stop, the in-flight record and recovery on top of the op
/// stream `PINNED` already covers.
const DURABLE_CRASH_PINNED: u64 = 0x67cb_9440_bfd6_99af;

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
    let _g = ale_trace::test_serial();
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
    let _g = ale_trace::test_serial();
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
fn durable_crash_digest_is_pinned() {
    let _g = ale_trace::test_serial();
    let cfg = CheckConfig {
        crash: Some(CrashSpec {
            point: CrashPoint::PreCommit,
            after: 12,
        }),
        torn: Some(TornMode::Truncate),
        ..pinned_config(Workload::Durable)
    };
    let outcome = run_once(&cfg);
    if std::env::var_os("BLESS").is_some() {
        println!(
            "const DURABLE_CRASH_PINNED: u64 = {:#018x};",
            outcome.digest
        );
        return;
    }
    assert!(outcome.crashed, "the pinned crash plan must fire");
    assert!(
        outcome.violations.is_empty(),
        "durable/crash: pinned schedule must be clean: {:?}",
        outcome.violations
    );
    assert_eq!(
        outcome.digest, DURABLE_CRASH_PINNED,
        "durable/crash: digest drifted to {:#018x} — the op stream, the crash \
         stop or recovery changed; re-bless only if the change is intentional",
        outcome.digest
    );
}

#[test]
fn pinned_schedules_replay_bit_identically() {
    let _g = ale_trace::test_serial();
    let cfg = pinned_config(Workload::Registry);
    let a = run_once(&cfg);
    let b = run_once(&cfg);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.makespan_ns, b.makespan_ns);
}
