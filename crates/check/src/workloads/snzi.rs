//! SNZI arrive/depart storm: the indicator must never read empty while a
//! surplus exists.

use ale_sync::Snzi;
use ale_vtime::{tick, Event};

use super::{lane_rng, sim_for, Violations, WorkloadOutcome};
use crate::{CheckConfig, Fnv};

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let snzi = Snzi::new(3);
    let violations = Violations::new();
    let v = &violations;
    let snzi_ref = &snzi;
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut arrivals = 0u64;
        for i in 0..cfg.ops {
            let guard = snzi_ref.arrive_at(id * 7 + i as usize);
            arrivals += 1;
            // Sound under any interleaving: our own arrival is outstanding,
            // so the surplus is provably nonzero right now.
            if !snzi_ref.query() {
                v.record(format!(
                    "snzi: query() returned empty while lane {id} held an arrival (under-count)"
                ));
            }
            tick(Event::LocalWork(1 + rng.gen_range(200)));
            drop(guard);
        }
        arrivals
    });

    if snzi.query() {
        violations.record("snzi: indicator still nonzero after every arrival departed".into());
    }

    let mut h = Fnv::new();
    for arrivals in &report.results {
        h.write_u64(*arrivals);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
