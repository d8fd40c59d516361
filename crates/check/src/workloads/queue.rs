//! Bounded producer-consumer ring: even lanes produce, odd lanes consume.
//!
//! Items pack `(producer << 48) | seq`, so every observation is traceable
//! to its source. Three oracle tiers, each sound without a centralized
//! concurrent model:
//!
//! * **During the run, per consumer** — the queue is a single global FIFO
//!   (all mutations under one lock), so each producer's items leave it in
//!   sequence order, and any one consumer's takes of that producer form a
//!   strictly increasing subsequence.
//! * **During the run, SWOpt length probes** — a validated `(head, tail)`
//!   snapshot must satisfy `head ≤ tail ≤ head + CAP`.
//! * **At quiescence** — drain + consumed items must form *exactly* the
//!   multiset `{0 .. produced_p}` per producer: nothing lost, nothing
//!   duplicated, nothing invented ([`QueueShadow`] is the sequential
//!   truth the property tests pin this against).

use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, StaticPolicy};
use ale_htm::HtmCell;
use ale_sync::{SeqVersion, SpinLock};
use ale_vtime::{tick, Event};

use super::{lane_rng, sim_for, Violations, WorkloadOutcome};
use crate::{CheckConfig, Fnv};

/// Ring capacity: small enough that both full and empty edges are hit
/// constantly.
const QCAP: u64 = 8;

/// The subject: a lock-protected ring with monotone head/tail counters
/// and a conflicting-region bracket around every mutation, so SWOpt
/// length probes validate against in-flight slot writes.
struct BoundedQueue {
    slots: Vec<HtmCell<u64>>,
    /// Next item to pop (monotone).
    head: HtmCell<u64>,
    /// Next slot to fill (monotone).
    tail: HtmCell<u64>,
    ver: SeqVersion,
}

impl BoundedQueue {
    fn new() -> Self {
        BoundedQueue {
            slots: (0..QCAP).map(|_| HtmCell::new(0)).collect(),
            head: HtmCell::new(0),
            tail: HtmCell::new(0),
            ver: SeqVersion::new(),
        }
    }
}

fn pack(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << 48) | seq
}

fn unpack(item: u64) -> (usize, u64) {
    ((item >> 48) as usize, item & 0xFFFF_FFFF_FFFF)
}

#[derive(Clone, Default)]
struct LaneOut {
    produced: u64,
    rejected: u64,
    consumed: Vec<u64>,
    probes: u64,
}

pub(super) fn run(cfg: &CheckConfig) -> WorkloadOutcome {
    let ale = Ale::new(
        AleConfig::new(cfg.platform.platform()).with_seed(cfg.seed),
        StaticPolicy::new(3, 6),
    );
    let lock = ale.new_lock("queueLock", SpinLock::new());
    let q = BoundedQueue::new();

    let violations = Violations::new();
    let v = &violations;
    let (lock_ref, q_ref) = (&lock, &q);
    let report = sim_for(cfg).run(|lane| {
        let id = lane.id();
        let mut rng = lane_rng(cfg, id);
        let mut out = LaneOut::default();
        // Strictly increasing per-producer watermark for this consumer.
        let mut last_seq: Vec<Option<u64>> = vec![None; cfg.threads];
        for _ in 0..cfg.ops {
            match rng.gen_range(10) {
                0..=6 if id % 2 == 0 => {
                    // Produce (non-blocking: a full ring counts a rejection).
                    let item = pack(id, out.produced);
                    let accepted = lock_ref.cs_plain(
                        scope!("queue::enqueue"),
                        CsOptions::new(),
                        |_| {
                            let h = q_ref.head.get();
                            let t = q_ref.tail.get();
                            if t - h >= QCAP {
                                return false;
                            }
                            q_ref.ver.begin_conflicting_action();
                            q_ref.slots[(t % QCAP) as usize].set(item);
                            q_ref.tail.set(t + 1);
                            q_ref.ver.end_conflicting_action();
                            true
                        },
                    );
                    if accepted {
                        out.produced += 1;
                    } else {
                        out.rejected += 1;
                    }
                }
                0..=6 => {
                    // Consume.
                    let took = lock_ref.cs_plain(
                        scope!("queue::dequeue"),
                        CsOptions::new(),
                        |_| {
                            let h = q_ref.head.get();
                            let t = q_ref.tail.get();
                            if t == h {
                                return None;
                            }
                            let item = q_ref.slots[(h % QCAP) as usize].get();
                            q_ref.ver.begin_conflicting_action();
                            q_ref.head.set(h + 1);
                            q_ref.ver.end_conflicting_action();
                            Some(item)
                        },
                    );
                    if let Some(item) = took {
                        let (p, seq) = unpack(item);
                        if p >= cfg.threads || p % 2 != 0 {
                            v.record(format!(
                                "queue: dequeued item {item:#x} from impossible producer {p}"
                            ));
                        } else {
                            if let Some(l) = last_seq[p] {
                                if seq <= l {
                                    v.record(format!(
                                        "queue: producer {p} seq {seq} after {l} (FIFO order broken)"
                                    ));
                                }
                            }
                            last_seq[p] = Some(seq);
                        }
                        out.consumed.push(item);
                    }
                }
                7 | 8 => {
                    // SWOpt length probe: a validated snapshot must respect
                    // the capacity bound.
                    let snap = lock_ref.cs(
                        scope!("queue::len"),
                        CsOptions::new().with_swopt().non_conflicting(),
                        |cs| -> CsOutcome<(u64, u64)> {
                            if cs.is_swopt() {
                                let s = q_ref.ver.read(false);
                                if s % 2 == 1 {
                                    return CsOutcome::SwOptFail;
                                }
                                let h = q_ref.head.get();
                                let t = q_ref.tail.get();
                                if !q_ref.ver.validate(s) {
                                    return CsOutcome::SwOptFail;
                                }
                                CsOutcome::Done((h, t))
                            } else {
                                CsOutcome::Done((q_ref.head.get(), q_ref.tail.get()))
                            }
                        },
                    );
                    let (h, t) = snap;
                    if t < h || t - h > QCAP {
                        v.record(format!(
                            "queue: validated snapshot head={h} tail={t} breaks 0 ≤ len ≤ {QCAP}"
                        ));
                    }
                    out.probes += 1;
                }
                _ => tick(Event::LocalWork(1 + rng.gen_range(200))),
            }
        }
        out
    });

    // Quiescent accounting: drain the ring, then every produced item must
    // appear exactly once across consumers + drain.
    let mut drained = Vec::new();
    {
        let h = q.head.get();
        let t = q.tail.get();
        if t < h || t - h > QCAP {
            violations.record(format!(
                "queue: final head={h} tail={t} breaks the capacity bound"
            ));
        } else {
            for i in h..t {
                drained.push(q.slots[(i % QCAP) as usize].get());
            }
        }
    }
    let produced: Vec<u64> = report.results.iter().map(|o| o.produced).collect();
    let mut seen: Vec<Vec<bool>> = produced.iter().map(|&n| vec![false; n as usize]).collect();
    for item in report
        .results
        .iter()
        .flat_map(|o| o.consumed.iter())
        .chain(drained.iter())
    {
        let (p, seq) = unpack(*item);
        if p >= cfg.threads || seq >= produced[p] {
            violations.record(format!(
                "queue: item {item:#x} was never produced (producer {p}, seq {seq})"
            ));
        } else if std::mem::replace(&mut seen[p][seq as usize], true) {
            violations.record(format!(
                "queue: item {item:#x} observed twice (duplicated element)"
            ));
        }
    }
    for (p, seen_p) in seen.iter().enumerate() {
        let missing = seen_p.iter().filter(|&&s| !s).count();
        if missing > 0 {
            violations.record(format!(
                "queue: {missing} item(s) from producer {p} vanished (lost enqueue)"
            ));
        }
    }
    if q.ver.read(false) % 2 == 1 {
        violations.record("queue: version word left odd after quiescence".into());
    }

    let mut h = Fnv::new();
    for out in &report.results {
        h.write_u64(out.produced);
        h.write_u64(out.rejected);
        h.write_u64(out.probes);
        h.write_u64(out.consumed.len() as u64);
        for &item in &out.consumed {
            h.write_u64(item);
        }
    }
    for &item in &drained {
        h.write_u64(item);
    }
    WorkloadOutcome {
        violations: violations.into_vec(),
        digest: h.finish(),
        decisions: report.decisions,
        makespan_ns: report.makespan_ns,
        ..Default::default()
    }
}
