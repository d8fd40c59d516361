//! The benchmark's contract: workload and metric names, units, direction
//! and regression bounds. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`ale-wallbench manifest`) and a unit test pins the
//! committed file to them, so a name can never exist in one place only.

/// How long one run measures, in seconds (`run_seconds` in the manifest
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric: `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub metric: MetricSpec,
    pub bound: f64,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "cs_empty_1t",
        why: "empty critical sections: the core bracket is all the work, tables and WAL do nothing",
    },
    WorkloadSpec {
        name: "map_read_2t",
        why: "fig2 read-heavy mix: HTM-emulation begin/commit plus the bracket dominate, fallback is rare",
    },
    WorkloadSpec {
        name: "map_mutate_zipf_2t",
        why: "skewed writes beside reads with HTM off: version bumps, SWOpt retry, lock fallback, long chains",
    },
    WorkloadSpec {
        name: "shard8_mutate_zipf_2t",
        why: "the same op stream on the sharded map: routing, per-shard locks, resize, double-validated lookups",
    },
    WorkloadSpec {
        name: "kyoto_wicked_2t",
        why: "nested RW-lock plus slot-lock elision with move-to-front writes inside reads; WAL bypassed",
    },
    WorkloadSpec {
        name: "kyoto_durable_2t",
        why: "the wicked stream through the write-ahead log and a checked recovery: WAL mutex and append dominate",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        metric: MetricSpec { name, unit, better },
        bound,
    }
}

/// Bounds are three times the run-to-run spread (interquartile range over
/// ten runs, as a share of the median) seen on the 2-vCPU reference host,
/// capped at the contract's 0.25: two threads contending for the same
/// cache lines on a shared VM repeat no better than 8-10 %.
pub const END_TO_END: [EndToEndSpec; 4] = [
    e2e("throughput_mops", "Mops/s", Better::Higher, 0.25),
    e2e("op_p99_ns", "ns", Better::Lower, 0.25),
    e2e("vs_std_mutex_ratio", "ratio", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricSpec; 56] = [
    // core: the empty-CS ledger, 1 thread, built up through AleConfig.
    m("core.cs_lock_ns", "ns", Lower),
    m("core.cs_htm_ns", "ns", Lower),
    m("core.cs_swopt_ns", "ns", Lower),
    m("core.cs_nested_ns", "ns", Lower),
    m("core.cs_breaker_ns", "ns", Lower),
    m("core.cs_watchdog_ns", "ns", Lower),
    m("core.cs_trace_on_ns", "ns", Lower),
    // core: per workload, from Ale::report() on the exact-regime probe pass.
    m("core.mode_share_htm", "ratio", Higher),
    m("core.mode_share_swopt", "ratio", Higher),
    m("core.mode_share_lock", "ratio", Lower),
    m("core.htm_success_ratio", "ratio", Higher),
    m("core.swopt_success_ratio", "ratio", Higher),
    m("core.stat_count_accuracy", "ratio", Higher),
    m("core.adaptive_vs_static_ratio", "ratio", Higher),
    m("core.adaptive_trial_spread", "ratio", Lower),
    // htm
    m("htm.txn_empty_ns", "ns", Lower),
    m("htm.txn_r4w2_ns", "ns", Lower),
    m("htm.cell_get_ns", "ns", Lower),
    m("htm.cell_set_ns", "ns", Lower),
    m("htm.abort_share_conflict", "ratio", Lower),
    m("htm.abort_share_capacity", "ratio", Lower),
    m("htm.abort_share_lock_held", "ratio", Lower),
    m("htm.abort_share_spurious", "ratio", Lower),
    // sync
    m("sync.std_mutex_cycle_ns", "ns", Lower),
    m("sync.spinlock_cycle_ns", "ns", Lower),
    m("sync.seqlock_read_validate_ns", "ns", Lower),
    m("sync.seqlock_bump_ns", "ns", Lower),
    m("sync.snzi_arrive_depart_ns", "ns", Lower),
    m("sync.stat_counter_inc_ns", "ns", Lower),
    m("sync.stat_counter_add_ns", "ns", Lower),
    // vtime
    m("vtime.tick_noop_ns", "ns", Lower),
    m("vtime.now_ns", "ns", Lower),
    m("vtime.rng_ns", "ns", Lower),
    m("vtime.zipf_sample_ns", "ns", Lower),
    m("vtime.pred_mops", "Mops/s", Higher),
    m("vtime.wall_over_pred", "ratio", Higher),
    // trace and the harness itself
    m("trace.emit_ns", "ns", Lower),
    m("bench.trace_overhead_ratio", "ratio", Higher),
    m("bench.generator_share", "ratio", Lower),
    // hashmap
    m("hashmap.get_ns", "ns", Lower),
    m("hashmap.insert_ns", "ns", Lower),
    m("hashmap.remove_ns", "ns", Lower),
    m("hashmap.get_hit_share", "ratio", Higher),
    m("hashmap.baseline_get_ns", "ns", Lower),
    m("hashmap.shard1_vs_single_ratio", "ratio", Higher),
    m("hashmap.scaling_2t_over_1t", "ratio", Higher),
    m("hashmap.resize_epochs", "count", Lower),
    // kyoto
    m("kyoto.get_ns", "ns", Lower),
    m("kyoto.set_ns", "ns", Lower),
    m("kyoto.remove_ns", "ns", Lower),
    m("kyoto.wal_append_ns", "ns", Lower),
    m("kyoto.wal_bytes_per_record", "count", Lower),
    m("kyoto.wal_overhead_ratio", "ratio", Lower),
    m("kyoto.recover_scan_ns_per_rec", "ns", Lower),
    m("kyoto.recover_mrec_s", "Mrec/s", Higher),
    m("kyoto.trylockspin_mops", "Mops/s", Higher),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Render `BENCHMARK.json` exactly as it is committed at the repo root.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|e| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    e.metric.name,
                    e.metric.unit,
                    e.metric.better.as_str(),
                    e.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.metric.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(END_TO_END.iter().any(|e| e.metric.name == "setup_s"
            && e.metric.unit == "s"
            && e.metric.better == Better::Lower));
    }
}
