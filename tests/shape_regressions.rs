//! Cross-crate shape regressions: the paper's qualitative claims, asserted.
//!
//! These are miniature versions of the figures (small op budgets) that
//! check *who wins and by roughly what factor* — the reproduction's
//! success criterion — so a regression in any layer (HTM emulation, locks,
//! driver, policies, simulator) that bends a curve fails loudly here.
//!
//! Each simulating test holds [`ale_trace::test_serial`]: one simulation at
//! a time in this binary, so none sees another's HTM clock traffic.

use ale_bench::{run_hashmap, run_kyoto, HashMapWorkload, Variant};
use ale_kyoto::WickedConfig;
use ale_vtime::Platform;

fn mops_hashmap(platform: Platform, variant: Variant, threads: usize, w: &HashMapWorkload) -> f64 {
    let warm = if variant.is_ale() {
        6_000 / threads as u64
    } else {
        100
    };
    run_hashmap(platform, variant, threads, w, 2_000, warm, 99).mops
}

/// §5: TLE scales on HTM platforms while the plain lock stays flat.
#[test]
fn tle_scales_where_lock_does_not() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::read_heavy(16 * 1024);
    let lock1 = mops_hashmap(Platform::haswell(), Variant::Instrumented, 1, &w);
    let lock8 = mops_hashmap(Platform::haswell(), Variant::Instrumented, 8, &w);
    let hl1 = mops_hashmap(Platform::haswell(), Variant::StaticHl(5), 1, &w);
    let hl8 = mops_hashmap(Platform::haswell(), Variant::StaticHl(5), 8, &w);
    assert!(
        lock8 < lock1 * 2.0,
        "a single lock must not scale: {lock1} -> {lock8}"
    );
    assert!(
        hl8 > hl1 * 4.0,
        "TLE must scale with threads: {hl1} -> {hl8}"
    );
    assert!(
        hl8 > lock8 * 3.0,
        "TLE must beat the lock at 8 threads: {hl8} vs {lock8}"
    );
}

/// §2: optimistic software execution is highly scalable for read-heavy
/// workloads even with no HTM at all (T2-2).
#[test]
fn swopt_scales_without_htm() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::read_heavy(16 * 1024);
    let sl1 = mops_hashmap(Platform::t2(), Variant::StaticSl(10), 1, &w);
    let sl32 = mops_hashmap(Platform::t2(), Variant::StaticSl(10), 32, &w);
    let lock32 = mops_hashmap(Platform::t2(), Variant::Instrumented, 32, &w);
    assert!(sl32 > sl1 * 6.0, "SWOpt must scale: {sl1} -> {sl32}");
    assert!(
        sl32 > lock32 * 4.0,
        "SWOpt must beat the lock: {sl32} vs {lock32}"
    );
}

/// §2: SWOpt is "less effective with more frequent mutating operations" —
/// the HTM-vs-SWOpt gap must widen with the mutation rate.
#[test]
fn mutation_hurts_swopt_more_than_htm() {
    let _g = ale_trace::test_serial();
    // HL's advantage over SL must *widen* as the mutation rate grows.
    let read_heavy = HashMapWorkload::read_heavy(16 * 1024);
    let mutate_heavy = HashMapWorkload::mutate_heavy(16 * 1024);
    // Measured at 4 threads = the full-core count (at 8, SMT cost scaling
    // compresses the contrast; the figure grids still show it there).
    let gap_read = mops_hashmap(Platform::haswell(), Variant::StaticHl(5), 4, &read_heavy)
        / mops_hashmap(Platform::haswell(), Variant::StaticSl(10), 4, &read_heavy);
    let gap_mutate = mops_hashmap(Platform::haswell(), Variant::StaticHl(5), 4, &mutate_heavy)
        / mops_hashmap(Platform::haswell(), Variant::StaticSl(10), 4, &mutate_heavy);
    assert!(
        gap_mutate > gap_read * 1.15,
        "mutation must hurt SWOpt more than HTM: HL/SL gap {gap_read:.2} (read-heavy) \
         vs {gap_mutate:.2} (mutate-heavy)"
    );
}

/// §1/§5: the adaptive policy is competitive with the best static policy
/// without tuning — on both an HTM platform and a non-HTM platform.
#[test]
fn adaptive_is_competitive_with_best_static() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::read_heavy(16 * 1024);
    for (platform, statics, adaptive) in [
        (
            Platform::haswell(),
            vec![
                Variant::StaticHl(5),
                Variant::StaticSl(10),
                Variant::StaticAll(5, 10),
            ],
            Variant::AdaptiveAll,
        ),
        (
            Platform::t2(),
            vec![Variant::StaticSl(10)],
            Variant::AdaptiveSl,
        ),
    ] {
        let best_static = statics
            .iter()
            .map(|&v| mops_hashmap(platform.clone(), v, 8, &w))
            .fold(0.0f64, f64::max);
        let adaptive = mops_hashmap(platform.clone(), adaptive, 8, &w);
        assert!(
            adaptive > best_static * 0.75,
            "{}: adaptive {adaptive:.2} must be within 25 % of best static {best_static:.2}",
            platform.kind.name()
        );
    }
}

/// §3.1: instrumentation overhead is a constant factor, not a scalability
/// loss — Instrumented tracks Uninstrumented within ~2.5×.
#[test]
fn instrumentation_overhead_is_bounded() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::read_heavy(16 * 1024);
    for t in [1usize, 8] {
        let base = mops_hashmap(Platform::haswell(), Variant::Uninstrumented, t, &w);
        let instr = mops_hashmap(Platform::haswell(), Variant::Instrumented, t, &w);
        assert!(
            instr > base / 2.5,
            "t={t}: instrumented {instr:.2} vs uninstrumented {base:.2}"
        );
    }
}

/// §5 (Figure 5): on T2-2, elision beats Kyoto's hand-tuned trylockspin at
/// scale, while trylockspin wins at one thread (no elision overhead).
#[test]
fn kyoto_crossover_matches_paper() {
    let _g = ale_trace::test_serial();
    let cfg = WickedConfig {
        key_space: 8 * 1024,
        count_permille: 0,
        ..Default::default()
    };
    let base1 = run_kyoto(
        Platform::t2(),
        Variant::Uninstrumented,
        1,
        &cfg,
        1_500,
        100,
        3,
    )
    .mops;
    let sl1 = run_kyoto(
        Platform::t2(),
        Variant::StaticSl(10),
        1,
        &cfg,
        1_500,
        800,
        3,
    )
    .mops;
    let base32 = run_kyoto(
        Platform::t2(),
        Variant::Uninstrumented,
        32,
        &cfg,
        500,
        100,
        3,
    )
    .mops;
    let sl32 = run_kyoto(Platform::t2(), Variant::StaticSl(10), 32, &cfg, 500, 200, 3).mops;
    assert!(
        base1 > sl1,
        "1 thread: trylockspin should win ({base1:.2} vs {sl1:.2})"
    );
    assert!(
        sl32 > base32 * 1.2,
        "32 threads: elision should win ({sl32:.2} vs {base32:.2})"
    );
}

/// §5: on Rock's fragile best-effort HTM the adaptive policy learns a small
/// X — it does not burn dozens of doomed retries.
#[test]
fn adaptive_learns_small_x_on_rock() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::mutate_heavy(16 * 1024);
    let r = run_hashmap(
        Platform::rock(),
        Variant::AdaptiveHl,
        8,
        &w,
        1_500,
        1_500,
        21,
    );
    let rep = r.report.expect("adaptive run has a report");
    let lock = rep.lock("tblLock").unwrap();
    assert!(
        lock.policy.starts_with("final"),
        "must converge: {}",
        lock.policy
    );
    for g in &lock.granules {
        if let Some(x) = g
            .policy
            .strip_prefix("HL X=")
            .and_then(|s| s.parse::<u32>().ok())
        {
            assert!(
                x <= 8,
                "learned X must stay small on Rock: {} -> {}",
                g.context,
                g.policy
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden CSV shapes: the figure generators' actual output artifacts
// ---------------------------------------------------------------------------

/// One parsed `platform,mix,variant,threads,mops` row.
struct CsvRow {
    platform: String,
    mix: String,
    variant: String,
    threads: usize,
    mops: f64,
}

fn parse_figure_csv(csv: &str) -> Vec<CsvRow> {
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("platform,mix,variant,threads,mops"),
        "figure CSV header changed"
    );
    lines
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            assert_eq!(f.len(), 5, "malformed row: {l}");
            CsvRow {
                platform: f[0].into(),
                mix: f[1].into(),
                variant: f[2].into(),
                threads: f[3].parse().expect("threads"),
                mops: f[4].parse().expect("mops"),
            }
        })
        .collect()
}

fn mops_at(
    rows: &[CsvRow],
    platform: &str,
    mix_prefix: &str,
    variant: &str,
    threads: usize,
) -> f64 {
    rows.iter()
        .find(|r| {
            r.platform == platform
                && r.mix.starts_with(mix_prefix)
                && r.variant == variant
                && r.threads == threads
        })
        .unwrap_or_else(|| panic!("missing row {platform}/{mix_prefix}*/{variant}/t={threads}"))
        .mops
}

/// Figure 2's CSV (quick grid): the emitted artifact itself must carry the
/// paper's qualitative shape — a complete grid of positive throughputs, a
/// flat lock curve, and TLE scaling past the lock at full cores.
#[test]
fn fig2_csv_golden_shape() {
    let _g = ale_trace::test_serial();
    let table = ale_bench::figures::fig2(ale_bench::figures::FigOpts {
        quick: true,
        ..Default::default()
    });
    assert_eq!(table.id, "fig2_hashmap_haswell");
    let rows = parse_figure_csv(&table.to_csv());
    // Grid completeness: 3 mixes x 6 variants x threads {1, 4, 8}.
    assert_eq!(rows.len(), 3 * 6 * 3, "fig2 quick grid changed shape");
    for r in &rows {
        assert_eq!(r.platform, "haswell");
        assert!(
            r.mops.is_finite() && r.mops > 0.0,
            "non-physical throughput in {}/{}/t={}",
            r.mix,
            r.variant,
            r.threads
        );
    }
    // The single lock must not scale; TLE must, and must win at 8 threads.
    let lock1 = mops_at(&rows, "haswell", "2i/2r", "Instrumented", 1);
    let lock8 = mops_at(&rows, "haswell", "2i/2r", "Instrumented", 8);
    let hl1 = mops_at(&rows, "haswell", "2i/2r", "Static-HL-5", 1);
    let hl8 = mops_at(&rows, "haswell", "2i/2r", "Static-HL-5", 8);
    assert!(
        lock8 < lock1 * 2.0,
        "lock curve must stay flat: {lock1} -> {lock8}"
    );
    assert!(hl8 > hl1 * 3.0, "TLE curve must rise: {hl1} -> {hl8}");
    assert!(hl8 > lock8 * 2.0, "TLE must beat the lock at 8 threads");
}

/// Figure 5's CSV (quick grid): both platforms present, and the T2-2
/// crossover — hand-tuned trylockspin wins at one thread, elision wins at
/// scale — visible in the emitted rows.
#[test]
fn fig5_csv_golden_shape() {
    let _g = ale_trace::test_serial();
    let table = ale_bench::figures::fig5(ale_bench::figures::FigOpts {
        quick: true,
        ..Default::default()
    });
    assert_eq!(table.id, "fig5_kyoto_wicked");
    let rows = parse_figure_csv(&table.to_csv());
    for r in &rows {
        assert_eq!(r.mix, "wicked");
        assert!(
            r.mops.is_finite() && r.mops > 0.0,
            "non-physical throughput in {}/{}/t={}",
            r.platform,
            r.variant,
            r.threads
        );
    }
    // Grid completeness: haswell (6 variants x {1,4,8}) + t2 (4 variants x
    // {1,4,8,16,32,64}).
    assert_eq!(
        rows.iter().filter(|r| r.platform == "haswell").count(),
        6 * 3
    );
    assert_eq!(rows.iter().filter(|r| r.platform == "t2").count(), 4 * 6);
    // T2-2 crossover (the paper's Figure 5 story).
    let base1 = mops_at(&rows, "t2", "wicked", "Uninstrumented", 1);
    let sl1 = mops_at(&rows, "t2", "wicked", "Static-SL-10", 1);
    let base64 = mops_at(&rows, "t2", "wicked", "Uninstrumented", 64);
    let sl64 = mops_at(&rows, "t2", "wicked", "Static-SL-10", 64);
    assert!(
        base1 > sl1,
        "1 thread: trylockspin wins ({base1:.2} vs {sl1:.2})"
    );
    assert!(
        sl64 > base64 * 1.2,
        "64 threads: elision wins ({sl64:.2} vs {base64:.2})"
    );
    // Haswell: hardware elision must beat the plain lock at full cores.
    let hsw_lock8 = mops_at(&rows, "haswell", "wicked", "Instrumented", 8);
    let hsw_hl8 = mops_at(&rows, "haswell", "wicked", "Static-HL-5", 8);
    assert!(
        hsw_hl8 > hsw_lock8 * 1.5,
        "haswell t=8: HTM elision must beat the lock ({hsw_hl8:.2} vs {hsw_lock8:.2})"
    );
}

/// Resilience (DESIGN §10): with the abort-storm circuit breaker, the
/// runtime survives an injected storm at fallback speed and restores HTM
/// once it passes — recovering to within 10 % of pre-storm throughput
/// inside the bounded recovery phase. The breaker-less control pays the
/// full doomed retry budget for the storm's whole duration.
#[test]
fn storm_breaker_recovers_throughput() {
    let _g = ale_trace::test_serial();
    use ale_bench::{run_storm, StormConfig};
    let on = run_storm(&StormConfig::quick(Platform::haswell(), 4, true, 7));
    let off = run_storm(&StormConfig::quick(Platform::haswell(), 4, false, 7));
    // The breaker trips during the storm and restores HTM after it.
    assert!(on.trips >= 1, "the storm must trip the breaker: {on:?}");
    assert!(on.restores >= 1, "HTM must be restored after it: {on:?}");
    assert!(
        on.post_htm_ops > 0,
        "recovery must run in HTM again: {on:?}"
    );
    // Once the longest cool-down could have expired, throughput is back.
    // (The whole post-storm phase also counts the tail of whichever
    // jittered cool-down was armed last, so it measures where that landed.)
    assert!(
        on.recovered_mops > on.pre_mops * 0.9,
        "throughput must recover to within 10% of pre-storm once the last \
         cool-down has expired: {on:?}"
    );
    // During the storm, tripping to the lock beats burning HTM budgets.
    assert!(
        on.storm_mops > off.storm_mops * 2.0,
        "the breaker must beat the control during the storm: \
         {:.2} vs {:.2} Mops",
        on.storm_mops,
        off.storm_mops
    );
    // The control never touches its (absent) breaker.
    assert_eq!((off.trips, off.restores), (0, 0), "{off:?}");
}

/// Tracing is strictly opt-in: the figure-shaped runs in this binary must
/// neither observe nor flip the global trace gate, and a disabled emit is
/// inert. (The toggle-heavy cost contract lives in `tests/trace_shape.rs`.)
#[test]
fn tracing_defaults_to_off() {
    assert!(!ale_trace::is_enabled());
    ale_trace::emit(ale_trace::TraceEvent::lock_poison(0));
    assert!(!ale_trace::is_enabled());
}

/// Determinism: the whole stack replays bit-identically for a fixed seed.
#[test]
fn end_to_end_determinism() {
    let _g = ale_trace::test_serial();
    let w = HashMapWorkload::mutate_heavy(4 * 1024);
    let run = || {
        let r = run_hashmap(
            Platform::rock(),
            Variant::StaticAll(4, 8),
            8,
            &w,
            800,
            400,
            77,
        );
        (r.makespan_ns, r.total_ops)
    };
    assert_eq!(run(), run());
    let cfg = WickedConfig {
        key_space: 2_048,
        count_permille: 0,
        ..Default::default()
    };
    let run_k = || {
        run_kyoto(
            Platform::haswell(),
            Variant::StaticAll(4, 8),
            4,
            &cfg,
            600,
            200,
            78,
        )
        .makespan_ns
    };
    assert_eq!(run_k(), run_k());
}
