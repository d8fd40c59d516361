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
/// * Per-thread draws later moved all eight here, all five
///   `SHARD_PINNED` and `DURABLE_CRASH_PINNED`: spurious HTM aborts come
///   from a per-thread clock of geometric gaps instead of a per-attempt
///   fork, and timing samples from a per-thread countdown instead of a
///   per-section draw — the same Bernoulli process and sampling rate,
///   drawn from other numbers. A sampled section's timing ticks, so
///   moving which sections are sampled moves the schedule.
///
/// * Writing commits that stop raising the version clock moved Kyoto,
///   Durable, Queue and Transfer: a transaction now meets more cells ahead
///   of its snapshot, so one whose read set was already overwritten finds
///   out at an earlier read. A Kyoto hit on the head of its chain that opens
///   no conflicting region (no indicator probe, no version bump: fewer
///   ticks) moved Kyoto, Durable and `DURABLE_CRASH_PINNED` again.
///
/// The three map microbenchmarks (`hashmap`, `kyoto`, `durable`) joined in
/// PR 34, blessed at PR 33's tree before their oracles were merged into
/// `workloads/kv.rs`.
const PINNED: [(Workload, u64); 8] = [
    (Workload::HashMap, 0x81ca_41ca_603b_65c6),
    (Workload::Kyoto, 0x4e98_7f5c_9648_ed71),
    (Workload::Durable, 0x2afd_5727_5929_3c1e),
    (Workload::Ttl, 0x6ee3_3dd2_dde3_8a13),
    (Workload::Queue, 0xf1f8_a636_f0b3_d704),
    (Workload::Transfer, 0xdccf_da06_fcab_d591),
    (Workload::Registry, 0x5d1d_75b9_6bed_efdb),
    (Workload::Nested, 0x4005_08b9_9a68_39f7),
];

/// The sharded-map workload pinned under *every* strategy: its op stream
/// feeds the shard router, the Zipf sampler, and the migration-step
/// driver, so a drift here also invalidates every `--workload shard`
/// replay file (including the `zipf_milli`/`shards` keys they carry).
const SHARD_PINNED: [(StrategyKind, u64); 5] = [
    (StrategyKind::LowestClock, 0x75d1_cbd3_079e_5afe),
    (StrategyKind::RandomWalk, 0xfac0_62b1_038b_7a51),
    (StrategyKind::Preempt, 0xf5df_1eaa_8107_0460),
    (StrategyKind::MostConflicting, 0x5335_bd4a_2eef_c284),
    (StrategyKind::Reorder, 0x8770_c1c9_7b0d_3d61),
];

/// The durable workload killed mid-run: a crash before the slot commit of
/// the twelfth workload-phase append, with the tail record truncated. Pins
/// the crash stop, the in-flight record and recovery on top of the op
/// stream `PINNED` already covers.
const DURABLE_CRASH_PINNED: u64 = 0xb039_0d60_e6e7_86c2;

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
