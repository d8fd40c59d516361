//! Satellite: the trace stream is part of the deterministic replay surface.
//!
//! Running the same workload under the same seeds with tracing on must
//! produce *byte-identical* merged JSONL and equal FNV stream digests —
//! that is the contract that lets ale-check treat the event stream as an
//! oracle surface, and lets a human diff two runs of a replay file.
//!
//! Each test holds [`ale_trace::test_serial`]: one simulation at a time in
//! this binary, so none sees another's HTM clock traffic.

use ale_check::{run_once, CheckConfig};

fn traced_config(seed: u64) -> CheckConfig {
    CheckConfig {
        ops: 80,
        seed,
        sched_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        trace: true,
        ..CheckConfig::default()
    }
}

#[test]
fn same_seed_runs_produce_identical_trace_streams() {
    let _g = ale_trace::test_serial();
    let cfg = traced_config(11);
    let a = run_once(&cfg);
    let b = run_once(&cfg);
    assert!(
        a.violations.is_empty(),
        "traced clean run must pass every oracle (incl. the trace oracle): {:?}",
        a.violations
    );
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.makespan_ns, b.makespan_ns, "schedule must replay");
    assert_eq!(a.decisions, b.decisions, "decision count must replay");

    let (ta, tb) = (a.trace.expect("trace on"), b.trace.expect("trace on"));
    assert!(
        !ta.events.is_empty(),
        "a traced hashmap run must record events"
    );
    assert_eq!(ta.dropped, 0, "the harness ring must be deep enough");
    assert_eq!(
        ta.digest(),
        tb.digest(),
        "same-seed trace streams must hash identically"
    );
    assert_eq!(
        ta.to_jsonl(),
        tb.to_jsonl(),
        "same-seed trace streams must render byte-identical JSONL"
    );
    assert_eq!(
        a.digest, b.digest,
        "run digests must replay bit-identically"
    );
}

#[test]
fn different_seeds_produce_different_trace_streams() {
    let _g = ale_trace::test_serial();
    let a = run_once(&traced_config(3));
    let b = run_once(&traced_config(4));
    assert_ne!(
        a.trace.expect("trace on").digest(),
        b.trace.expect("trace on").digest(),
        "distinct seeds should explore distinct event streams"
    );
}

#[test]
fn trace_off_outcome_carries_no_stream() {
    let _g = ale_trace::test_serial();
    let cfg = CheckConfig {
        ops: 40,
        ..CheckConfig::default()
    };
    assert!(run_once(&cfg).trace.is_none());
}
