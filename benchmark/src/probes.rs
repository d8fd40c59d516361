//! Single-thread micro-probes: the per-crate cost ledger. Each probe times
//! a public function of one layer in a tight loop from outside; every
//! batch is recorded as a span, like the calls of the traced pass.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ale_core::{scope, Ale, AleConfig, CsOptions, CsOutcome, StaticPolicy};
use ale_hashmap::BaselineHashMap;
use ale_htm::HtmCell;
use ale_kyoto::{recover, scan, DbConfig, Wal, WalOp};
use ale_sync::{RawLock, SeqVersion, Snzi, SpinLock, StatCounter};
use ale_trace::{TraceConfig, TraceEvent};
use ale_vtime::{Event, Platform, Rng, Zipf};

use crate::cells::MAP_KEYS;
use crate::run::{std_mutex_cycle_ns, Scale};
use crate::span::Span;
use crate::stats::median;

/// Batches per probe; the reported figure is the median batch.
const BATCHES: usize = 5;

pub struct ProbeLog {
    origin: Instant,
    scale: Scale,
    pub spans: Vec<Span>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl ProbeLog {
    /// Time `iters` calls of `f`, `BATCHES` times over after a tenth of a
    /// batch to warm up, and record the median ns per call under `name`.
    fn probe(&mut self, name: &'static str, iters: u64, mut f: impl FnMut(u64)) {
        let iters = self.scale.ops(iters);
        for i in 0..iters / 10 {
            f(black_box(i));
        }
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = self.origin.elapsed().as_nanos() as u64;
            for i in 0..iters {
                f(black_box(i));
            }
            let end = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span { name, start, end });
            per_call.push((end - start) as f64 / iters as f64);
        }
        self.metrics.push((name, median(&per_call)));
    }

    /// Time one call of `f` as a span called `name`; returns its result
    /// and duration in ns.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start, end });
        (r, (end - start) as f64)
    }

    /// An empty critical section through `cs_plain` under the given
    /// configuration and static policy.
    fn empty_cs(&mut self, name: &'static str, cfg: AleConfig, policy: (u32, u32)) {
        let ale = Ale::new(cfg, StaticPolicy::new(policy.0, policy.1));
        let lock = ale.new_lock("ledger", SpinLock::new());
        self.probe(name, 400_000, |_| {
            lock.cs_plain(scope!("bench::ledger"), CsOptions::new(), |_| {})
        });
    }
}

/// Run every workload-independent probe. `seed` feeds the library's own
/// random streams only; the probes' inputs are fixed.
pub fn run_probes(origin: Instant, scale: Scale, seed: u64) -> ProbeLog {
    let mut log = ProbeLog {
        origin,
        scale,
        spans: Vec::new(),
        metrics: Vec::new(),
    };
    let mut rng = Rng::new(seed);

    // --- core: the empty-CS bracket, built up one switch at a time ------
    let base = || AleConfig::new(Platform::testbed()).with_seed(seed);
    log.empty_cs(
        "core.cs_lock_ns",
        base().without_htm().without_swopt(),
        (0, 0),
    );
    log.empty_cs("core.cs_htm_ns", base().without_swopt(), (3, 0));
    {
        let ale = Ale::new(base().without_htm(), StaticPolicy::new(0, 8));
        let lock = ale.new_lock("ledger", SpinLock::new());
        log.probe("core.cs_swopt_ns", 400_000, |_| {
            lock.cs(
                scope!("bench::ledger_swopt"),
                CsOptions::new().with_swopt(),
                |_| CsOutcome::Done(()),
            )
        });
    }
    {
        let ale = Ale::new(base(), StaticPolicy::new(3, 8));
        let outer = ale.new_lock("ledger_outer", SpinLock::new());
        let inner = ale.new_lock("ledger_inner", SpinLock::new());
        log.probe("core.cs_nested_ns", 400_000, |_| {
            outer.cs_plain(scope!("bench::ledger_outer"), CsOptions::new(), |_| {
                inner.cs_plain(scope!("bench::ledger_inner"), CsOptions::new(), |_| {})
            })
        });
    }
    log.empty_cs("core.cs_breaker_ns", base().with_default_breaker(), (3, 8));
    log.empty_cs(
        "core.cs_watchdog_ns",
        base().with_stall_watchdog(1_000_000),
        (3, 8),
    );
    log.empty_cs(
        "core.cs_trace_on_ns",
        base().with_trace(TraceConfig::enabled()),
        (3, 8),
    );
    ale_trace::reset();

    // --- htm: the software transaction the map workloads run in ---------
    let profile = Platform::haswell().htm.expect("haswell models HTM");
    log.probe("htm.txn_empty_ns", 400_000, |_| {
        let _ = black_box(ale_htm::attempt(&profile, &mut rng, || {}));
    });
    let cells: [HtmCell<u64>; 6] = std::array::from_fn(|i| HtmCell::new(i as u64));
    log.probe("htm.txn_r4w2_ns", 400_000, |i| {
        let _ = black_box(ale_htm::attempt(&profile, &mut rng, || {
            let sum: u64 = cells[..4].iter().map(|c| c.get()).sum();
            cells[4].set(sum);
            cells[5].set(i);
        }));
    });
    log.probe("htm.cell_get_ns", 4_000_000, |_| {
        black_box(cells[0].get());
    });
    log.probe("htm.cell_set_ns", 4_000_000, |i| cells[1].set(i));

    // --- sync ------------------------------------------------------------
    let cycles = scale.ops(2_000_000);
    let mutex_ns = median(&[(); BATCHES].map(|_| std_mutex_cycle_ns(cycles)));
    log.metrics.push(("sync.std_mutex_cycle_ns", mutex_ns));
    let spin = SpinLock::new();
    log.probe("sync.spinlock_cycle_ns", 2_000_000, |_| {
        spin.acquire();
        spin.release();
    });
    let ver = SeqVersion::new();
    log.probe("sync.seqlock_read_validate_ns", 2_000_000, |_| {
        let v = ver.read(true);
        black_box(ver.validate(v));
    });
    log.probe("sync.seqlock_bump_ns", 2_000_000, |_| {
        ver.begin_conflicting_action();
        ver.end_conflicting_action();
    });
    // Three levels, as ale-core's grouping indicator uses.
    let snzi = Snzi::new(3);
    log.probe("sync.snzi_arrive_depart_ns", 1_000_000, |_| {
        drop(snzi.arrive())
    });
    let counter = StatCounter::new();
    log.probe("sync.stat_counter_inc_ns", 2_000_000, |_| {
        counter.inc(&mut rng)
    });
    let counter = StatCounter::new();
    log.probe("sync.stat_counter_add_ns", 2_000_000, |_| counter.add(1));

    // --- vtime -------------------------------------------------------------
    log.probe("vtime.tick_noop_ns", 4_000_000, |_| {
        ale_vtime::tick(Event::Cas)
    });
    log.probe("vtime.now_ns", 2_000_000, |_| {
        black_box(ale_vtime::now());
    });
    log.probe("vtime.rng_ns", 4_000_000, |_| {
        black_box(rng.next_u64());
    });
    let zipf = Zipf::new(MAP_KEYS, 1.1);
    log.probe("vtime.zipf_sample_ns", 2_000_000, |_| {
        black_box(zipf.sample(&mut rng));
    });

    // --- trace: an enabled emit (ring write plus stamping) -----------------
    ale_trace::configure(&TraceConfig::enabled());
    let label = ale_trace::label_id("bench");
    log.probe("trace.emit_ns", 1_000_000, |i| {
        ale_trace::emit(TraceEvent::mode_decision(label, 0, 0, i))
    });
    ale_trace::reset();

    // --- hashmap: the uninstrumented floor ----------------------------------
    let floor: BaselineHashMap<u64> = BaselineHashMap::new(4096, MAP_KEYS * 2 + 4096);
    for k in (0..MAP_KEYS).step_by(2) {
        floor.insert(k, k.wrapping_mul(31));
    }
    log.probe("hashmap.baseline_get_ns", 2_000_000, |i| {
        let mut v = 0;
        black_box(floor.get(i.wrapping_mul(0x9E37_79B9) % MAP_KEYS, &mut v));
    });

    // --- kyoto: the log on its own -------------------------------------------
    let wal = Arc::new(Wal::new());
    log.probe("kyoto.wal_append_ns", 100_000, |i| {
        let op = if i % 4 == 3 {
            WalOp::Remove
        } else {
            WalOp::Set
        };
        wal.append(op, i % 4096, i);
    });
    let records = wal.appends();
    log.metrics.push((
        "kyoto.wal_bytes_per_record",
        wal.len() as f64 / records as f64,
    ));
    let image = wal.bytes();
    let scans: Vec<f64> = (0..BATCHES)
        .map(|_| {
            log.timed("kyoto.recover_scan_ns_per_rec", || {
                black_box(scan(&image).ops.len())
            })
            .1
        })
        .collect();
    log.metrics.push((
        "kyoto.recover_scan_ns_per_rec",
        median(&scans) / records as f64,
    ));
    let ale = Ale::new(
        AleConfig::new(Platform::haswell()).with_seed(seed),
        StaticPolicy::new(3, 8),
    );
    let cfg = DbConfig {
        buckets_per_slot: 256,
        capacity_per_slot: 8 * 1024,
        payload_cells: 0,
    };
    // A crash-free log recovers to itself, so it can be replayed again.
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let ((_db, report), ns) = log.timed("kyoto.recover_mrec_s", || {
                recover(&ale, cfg.clone(), Arc::clone(&wal))
            });
            assert!(report.gapless && report.truncated == 0, "{report:?}");
            (report.applied + report.ignored) as f64 * 1e3 / ns
        })
        .collect();
    log.metrics.push(("kyoto.recover_mrec_s", median(&rates)));
    log
}
