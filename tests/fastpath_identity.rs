//! Two virtual-time cells pinned to the nanosecond: a change to the
//! critical-section path that moves either makespan or a byte of its CSV
//! row changed *behaviour* (what the simulated schedule does), not just
//! real-hardware cost, and must be re-blessed under DESIGN.md §5.2.
//!
//! What they pin is the path that ships: plan-word lookup, the HTM / SWOpt
//! / Lock protocol, and statistics recorded into a stack delta that is
//! flushed, tick-free, when the section ends — the same code under the
//! simulator and on real threads. Neither policy reads those counters, so
//! the pins depend on the schedule alone. The test names are
//! historical (PR 10's fast-path refactor first pinned these cells); the
//! values were re-blessed when the simulator-only per-event statistics
//! arm was deleted, and again when spurious aborts and timing samples
//! stopped drawing per section. (The ale-check half of this pin set lives
//! in `crates/check/tests/digest_regressions.rs`.)
//!
//! BLESS=1 prints the constants instead of failing — re-bless only for a
//! change that *means* to alter schedules.
//!
//! Each test holds [`ale_trace::test_serial`]: one simulation at a time in
//! this binary, so none sees another's HTM clock traffic.

use ale_bench::{run_hashmap, HashMapWorkload, RunResult, Variant};
use ale_vtime::Platform;

/// The fig2 shape: Haswell / Adaptive-All / 2i/2r/96g, 8 threads, 200 ops
/// + 50 warm-up per lane, seed 42.
const FIG2_MAKESPAN_NS: u64 = 148049;
const FIG2_CSV: &str = "platform,variant,threads,total_ops,makespan_ns,mops\nhaswell,Adaptive-All,8,1600,148049,10.8072\n";

/// The same cell through the *static* policy the sharded trajectory cell
/// uses, on the testbed model (seed 7) — a second, independent schedule.
const STATIC_MAKESPAN_NS: u64 = 59925;
const STATIC_CSV: &str = "platform,variant,threads,total_ops,makespan_ns,mops\ntestbed,Static-All-0:6,4,800,59925,13.3500\n";

fn fig2_shaped_cell() -> RunResult {
    run_hashmap(
        Platform::haswell(),
        Variant::AdaptiveAll,
        8,
        &HashMapWorkload::read_heavy(16 * 1024),
        200,
        50,
        42,
    )
}

fn static_cell() -> RunResult {
    run_hashmap(
        Platform::testbed(),
        Variant::StaticAll(0, 6),
        4,
        &HashMapWorkload::mutate_heavy(4 * 1024),
        200,
        50,
        7,
    )
}

fn csv(r: &RunResult) -> String {
    format!("{}\n{}\n", RunResult::CSV_HEADER, r.csv_row())
}

#[test]
fn fig2_cell_is_bit_identical_across_the_fastpath_refactor() {
    let _g = ale_trace::test_serial();
    let bless = std::env::var_os("BLESS").is_some();
    let r = fig2_shaped_cell();
    if bless {
        println!("const FIG2_MAKESPAN_NS: u64 = {};", r.makespan_ns);
        println!("const FIG2_CSV: &str = {:?};", csv(&r));
        return;
    }
    assert_eq!(
        r.makespan_ns, FIG2_MAKESPAN_NS,
        "fig2 cell makespan drifted — the critical-section path changed behaviour, not just cost"
    );
    assert_eq!(
        csv(&r),
        FIG2_CSV,
        "fig2 cell CSV bytes drifted — the critical-section path changed behaviour, not just cost"
    );
}

#[test]
fn static_cell_is_bit_identical_across_the_fastpath_refactor() {
    let _g = ale_trace::test_serial();
    let bless = std::env::var_os("BLESS").is_some();
    let r = static_cell();
    if bless {
        println!("const STATIC_MAKESPAN_NS: u64 = {};", r.makespan_ns);
        println!("const STATIC_CSV: &str = {:?};", csv(&r));
        return;
    }
    assert_eq!(
        r.makespan_ns, STATIC_MAKESPAN_NS,
        "static cell makespan drifted"
    );
    assert_eq!(csv(&r), STATIC_CSV, "static cell CSV bytes drifted");
}

/// Same seed, run twice in one process: the cell itself must be
/// deterministic, or the pins above prove nothing.
#[test]
fn fig2_cell_is_deterministic_within_a_build() {
    let _g = ale_trace::test_serial();
    let a = fig2_shaped_cell();
    let b = fig2_shaped_cell();
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(csv(&a), csv(&b));
}
