//! Pinned per-PR benchmark trajectory (ROADMAP item 5).
//!
//! ```text
//! trajectory [--quick] [--seed N] [--out FILE]
//! ```
//!
//! Runs a small, fixed suite and emits one JSON document:
//!
//! * one **fig2 cell** — the HashMap read-heavy mix on Haswell under
//!   `Adaptive-All` (the headline configuration of the paper's Figure 2);
//! * the **storm-recovery** scenario — breaker trips/restores and per-phase
//!   throughput through an injected abort storm;
//! * the **durability overhead** — the Kyoto `wicked` workload against the
//!   same CacheDB with the WAL off (`AleCacheDb`) and on
//!   (`DurableCacheDb`), identical op streams, plus a recovery pass that
//!   must reproduce the live database;
//! * the **per-CS overhead** — empty critical sections through the full
//!   adaptive entry/exit against a modeled raw `std::sync::Mutex` fast
//!   path, uncontended and 8-thread contended, with an in-binary gate on
//!   the uncontended ratio;
//! * the **regret** cell — Fig. 5 (Kyoto `wicked`) on Haswell at 8 threads,
//!   `Adaptive-All` against each static variant of the figure's set, with
//!   adaptive ÷ best static as a gated `speedup` leaf.
//!
//! The output is committed as `BENCH_<n>.json` at the repo root, one file
//! per PR, so the numbers form a trajectory reviewers can diff. Everything
//! runs under the virtual-time simulator: results are deterministic for a
//! fixed `(--seed, --quick)` pair, so a regenerated file that differs from
//! the committed one is a real behaviour change, not noise.

use std::sync::Arc;

use ale_bench::figures::{fig5_cell, FigOpts};
use ale_bench::harness::{run_hashmap, run_sharded, HashMapWorkload, BENCH_SLACK_NS};
use ale_bench::{run_storm, RunResult, StormConfig, Variant};
use ale_core::{scope, Ale, AleConfig, CsOptions, StaticPolicy};
use ale_kyoto::{
    prefill, recover, wicked_op, AleCacheDb, DbConfig, DurableCacheDb, KyotoDb, Wal, WickedConfig,
    WickedStats, RECORD_BYTES,
};
use ale_sync::SpinLock;
use ale_vtime::{Platform, Sim};

struct Opts {
    quick: bool,
    seed: u64,
    out: Option<std::path::PathBuf>,
}

/// One wicked run's outcome, WAL on or off.
struct WickedRun {
    makespan_ns: u64,
    mops: f64,
    total_ops: u64,
}

/// Run the `wicked` workload against `db` under the simulator. The op
/// stream depends only on `(threads, ops_per_lane, seed)` — never on the
/// database flavour — so WAL-on and WAL-off runs are directly comparable.
fn run_wicked(
    db: &dyn KyotoDb,
    platform: &Platform,
    threads: usize,
    cfg: &WickedConfig,
    ops_per_lane: u64,
    seed: u64,
) -> WickedRun {
    prefill(db, cfg, seed);
    let report = Sim::new(platform.clone(), threads)
        .with_seed(seed ^ 0xBEEF)
        .with_slack(BENCH_SLACK_NS)
        .run(|lane| {
            let mut rng = lane.rng().clone();
            let mut stats = WickedStats::default();
            for _ in 0..ops_per_lane {
                wicked_op(db, cfg, &mut rng, &mut stats);
            }
            stats
        });
    let total_ops = ops_per_lane * threads as u64;
    WickedRun {
        makespan_ns: report.makespan_ns,
        mops: report.throughput(total_ops) / 1e6,
        total_ops,
    }
}

fn ale_for(platform: &Platform, seed: u64) -> Arc<Ale> {
    Ale::new(
        AleConfig::new(platform.clone()).with_seed(seed),
        StaticPolicy::new(3, 8),
    )
}

/// WAL-off vs WAL-on comparison plus the recovery check, as JSON.
fn durability_section(opts: &Opts) -> String {
    let platform = Platform::haswell();
    let threads = 4;
    let ops_per_lane: u64 = if opts.quick { 1_200 } else { 4_000 };
    let cfg = WickedConfig {
        key_space: 4 * 1024,
        count_permille: 0,
        ..Default::default()
    };
    let db_cfg = DbConfig {
        buckets_per_slot: 256,
        capacity_per_slot: 8 * 1024,
        payload_cells: 0,
    };

    let off_ale = ale_for(&platform, opts.seed);
    let off_db = AleCacheDb::new(&off_ale, db_cfg.clone());
    let off = run_wicked(&off_db, &platform, threads, &cfg, ops_per_lane, opts.seed);

    let on_ale = ale_for(&platform, opts.seed);
    let wal = Arc::new(Wal::new());
    let on_db = DurableCacheDb::new(&on_ale, db_cfg.clone(), Arc::clone(&wal));
    let on = run_wicked(&on_db, &platform, threads, &cfg, ops_per_lane, opts.seed);

    // Recovery must rebuild exactly the live database from the log alone.
    let rec_ale = ale_for(&platform, opts.seed ^ 0xD15C);
    let (rdb, report) = recover(&rec_ale, db_cfg, Arc::clone(&wal));
    assert!(report.gapless, "crash-free log must be gapless");
    assert_eq!(report.truncated, 0, "crash-free log must not be truncated");
    let live_count = on_db.count();
    let recovered_count = rdb.count();
    assert_eq!(
        recovered_count, live_count,
        "recovery diverged from live db"
    );

    let overhead = on.makespan_ns as f64 / off.makespan_ns as f64;
    eprintln!(
        "  durability: wal-off {:.3} Mops/s, wal-on {:.3} Mops/s, overhead x{overhead:.3}, \
         {} records recovered",
        off.mops, on.mops, report.applied
    );
    format!(
        concat!(
            "{{\n",
            "    \"workload\": \"wicked\",\n",
            "    \"platform\": \"haswell\",\n",
            "    \"threads\": {},\n",
            "    \"total_ops\": {},\n",
            "    \"wal_off\": {{ \"makespan_ns\": {}, \"mops\": {:.4} }},\n",
            "    \"wal_on\": {{ \"makespan_ns\": {}, \"mops\": {:.4}, \"wal_records\": {}, \"wal_bytes\": {} }},\n",
            "    \"overhead_ratio\": {:.4},\n",
            "    \"recovery\": {{ \"applied\": {}, \"ignored\": {}, \"gapless\": {}, \"count_matches_live\": {} }}\n",
            "  }}"
        ),
        threads,
        on.total_ops,
        off.makespan_ns,
        off.mops,
        on.makespan_ns,
        on.mops,
        wal.len() / RECORD_BYTES,
        wal.len(),
        overhead,
        report.applied,
        report.ignored,
        report.gapless,
        recovered_count == live_count,
    )
}

fn fig2_cell_section(opts: &Opts) -> String {
    let (ops, warmup) = if opts.quick {
        (1_500, 200)
    } else {
        (6_000, 600)
    };
    let r = run_hashmap(
        Platform::haswell(),
        Variant::AdaptiveAll,
        8,
        &HashMapWorkload::read_heavy(16 * 1024),
        ops,
        warmup,
        opts.seed,
    );
    eprintln!(
        "  fig2 cell: {} {} t={}: {:.3} Mops/s",
        r.platform, r.variant, r.threads, r.mops
    );
    format!(
        concat!(
            "{{\n",
            "    \"platform\": \"{}\",\n",
            "    \"variant\": \"{}\",\n",
            "    \"mix\": \"2i/2r/96g\",\n",
            "    \"threads\": {},\n",
            "    \"total_ops\": {},\n",
            "    \"makespan_ns\": {},\n",
            "    \"mops\": {:.4}\n",
            "  }}"
        ),
        r.platform, r.variant, r.threads, r.total_ops, r.makespan_ns, r.mops
    )
}

/// Sharded vs single-lock cell: the mutate-heavy mix at 1/4/8 shards,
/// uniform and Zipf(1.1) keys, under the software-elision configuration
/// (SWOpt + Lock, HTM off — the same focus as ale-check's shard
/// workload; on Haswell the adaptive policy sends nearly everything to
/// HTM, where neither the global version word nor the global lock is
/// ever contended, so the paths sharding improves would not execute).
///
/// The initial table is deliberately undersized (512 buckets for a 16 K
/// key space), which is exactly the situation the new subsystem exists
/// for: the sharded map's incremental resize grows each shard out of the
/// long chains, its per-shard locks confine Lock-mode serialisation, and
/// its per-shard version words confine SWOpt invalidation — while the
/// fixed-size single-lock `AleHashMap` can do none of the three. The
/// committed shape gate: under Zipf(1.1) skew the 8-shard map must beat
/// the single-lock map.
fn sharded_section(opts: &Opts) -> String {
    let threads = 8;
    let (ops, warmup) = if opts.quick {
        (1_500, 200)
    } else {
        (6_000, 600)
    };
    let mut cells = Vec::new();
    let mut gate: Option<(f64, f64)> = None;
    for (skew, zipf) in [("uniform", None), ("zipf-1.1", Some(1.1))] {
        let mut w = HashMapWorkload::mutate_heavy(16 * 1024).with_buckets(512);
        if let Some(theta) = zipf {
            w = w.with_zipf(theta);
        }
        let single = run_hashmap(
            Platform::haswell(),
            Variant::StaticAll(0, 6),
            threads,
            &w,
            ops,
            warmup,
            opts.seed,
        );
        eprintln!(
            "  sharded cell: {skew} single-lock: {:.3} Mops/s",
            single.mops
        );
        cells.push(format!(
            "{{ \"variant\": \"{}\", \"skew\": \"{skew}\", \"shards\": 0, \
             \"makespan_ns\": {}, \"mops\": {:.4} }}",
            single.variant, single.makespan_ns, single.mops
        ));
        let mut mops8 = 0.0;
        for shards in [1usize, 4, 8] {
            let r = run_sharded(
                Platform::haswell(),
                Variant::StaticAll(0, 6),
                threads,
                shards,
                &w,
                ops,
                warmup,
                opts.seed,
            );
            eprintln!(
                "  sharded cell: {skew} {} shard(s): {:.3} Mops/s",
                shards, r.mops
            );
            cells.push(format!(
                "{{ \"variant\": \"{}\", \"skew\": \"{skew}\", \"shards\": {shards}, \
                 \"makespan_ns\": {}, \"mops\": {:.4} }}",
                r.variant, r.makespan_ns, r.mops
            ));
            if shards == 8 {
                mops8 = r.mops;
            }
        }
        if zipf.is_some() {
            gate = Some((mops8, single.mops));
        }
    }
    let (mops8, single_mops) = gate.expect("zipf leg always runs");
    assert!(
        mops8 > single_mops,
        "shape gate: 8-shard map ({mops8:.4} Mops/s) must beat the single-lock \
         map ({single_mops:.4} Mops/s) under Zipf(1.1) at {threads} lanes"
    );
    format!(
        concat!(
            "{{\n",
            "    \"platform\": \"haswell\",\n",
            "    \"mix\": \"20i/20r/60g\",\n",
            "    \"threads\": {},\n",
            "    \"cells\": [\n",
            "      {}\n",
            "    ],\n",
            "    \"zipf_speedup_8shard_vs_single\": {:.4}\n",
            "  }}"
        ),
        threads,
        cells.join(",\n      "),
        mops8 / single_mops,
    )
}

fn storm_section(opts: &Opts) -> String {
    let r = run_storm(&StormConfig::quick(Platform::haswell(), 4, true, opts.seed));
    eprintln!(
        "  storm: pre {:.3} / storm {:.3} / post {:.3} Mops/s, {} trips, {} restores",
        r.pre_mops, r.storm_mops, r.post_mops, r.trips, r.restores
    );
    format!(
        concat!(
            "{{\n",
            "    \"threads\": 4,\n",
            "    \"breaker\": true,\n",
            "    \"pre_mops\": {:.4},\n",
            "    \"storm_mops\": {:.4},\n",
            "    \"post_mops\": {:.4},\n",
            "    \"trips\": {},\n",
            "    \"restores\": {},\n",
            "    \"post_htm_ops\": {}\n",
            "  }}"
        ),
        r.pre_mops, r.storm_mops, r.post_mops, r.trips, r.restores, r.post_htm_ops
    )
}

/// Per-critical-section overhead cell: empty critical sections through the
/// full adaptive entry/exit (granule lookup, cached plan word, HTM
/// attempt, stat sink, trace gate) against the same op count on a modeled
/// raw `std::sync::Mutex` fast path — the uncontended futex path, which
/// on Linux is two atomic RMWs: `lock()` is a `compare_exchange` on the
/// futex word and `unlock()` is an atomic `swap` (it must observe
/// waiters, so it cannot be a plain store). Both sides run under the
/// virtual-time simulator on the no-noise testbed platform, so the
/// committed numbers are deterministic: a regressed fast path moves this
/// cell, noise cannot.
///
/// In-binary shape gate (mirrors the sharded cell's): adaptive uncontended
/// entry/exit must stay ≤ 2.0× the raw-mutex model.
fn per_cs_overhead_section(opts: &Opts) -> String {
    let platform = Platform::testbed();
    let ops: u64 = if opts.quick { 2_000 } else { 10_000 };
    let mut cells = Vec::new();
    let mut uncontended_ratio = f64::NAN;
    for threads in [1usize, 8] {
        let ale = ale_for(&platform, opts.seed);
        let lock = ale.new_lock("per_cs_overhead", SpinLock::new());
        let adaptive = Sim::new(platform.clone(), threads)
            .with_seed(opts.seed)
            .with_slack(BENCH_SLACK_NS)
            .run(|_lane| {
                for _ in 0..ops {
                    lock.cs_plain(scope!("bench::per_cs"), CsOptions::new(), |_| {});
                }
            });
        let raw = Sim::new(platform.clone(), threads)
            .with_seed(opts.seed)
            .with_slack(BENCH_SLACK_NS)
            .run(|_lane| {
                for _ in 0..ops {
                    // The uncontended futex fast path: lock cmpxchg, then a
                    // release swap (the unlock RMW that checks for waiters).
                    ale_vtime::tick(ale_vtime::Event::Cas);
                    ale_vtime::tick(ale_vtime::Event::Cas);
                }
            });
        let adaptive_ns = adaptive.makespan_ns as f64 / ops as f64;
        let raw_ns = raw.makespan_ns as f64 / ops as f64;
        let ratio = adaptive_ns / raw_ns;
        if threads == 1 {
            uncontended_ratio = ratio;
        }
        eprintln!(
            "  per-CS overhead: t={threads}: adaptive {adaptive_ns:.1} ns vs raw mutex \
             {raw_ns:.1} ns ({ratio:.3}x)"
        );
        cells.push(format!(
            "{{ \"threads\": {threads}, \"adaptive_per_cs_ns\": {adaptive_ns:.2}, \
             \"raw_mutex_per_cs_ns\": {raw_ns:.2}, \"ratio\": {ratio:.4} }}"
        ));
    }
    assert!(
        uncontended_ratio <= 2.0,
        "shape gate: adaptive uncontended entry/exit ({uncontended_ratio:.4}x) must stay \
         within 2.0x of the raw std::sync::Mutex model"
    );
    format!(
        concat!(
            "{{\n",
            "    \"platform\": \"testbed\",\n",
            "    \"ops_per_lane\": {},\n",
            "    \"cells\": [\n",
            "      {}\n",
            "    ],\n",
            "    \"uncontended_ratio\": {:.4}\n",
            "  }}"
        ),
        ops,
        cells.join(",\n      "),
        uncontended_ratio,
    )
}

/// The first regret cell: the Fig. 5 Haswell 8-thread cell under
/// `Adaptive-All` and under every static variant of the figure's set,
/// each run exactly as `figures fig5` runs it (at this binary's seed).
fn regret_section(opts: &Opts) -> String {
    let platform = Platform::haswell();
    let threads = 8;
    let fig = FigOpts {
        quick: opts.quick,
        seed: opts.seed,
    };
    let adaptive = fig5_cell(fig, &platform, Variant::AdaptiveAll, threads);
    let statics: Vec<RunResult> = Variant::figure_set(&platform)
        .into_iter()
        .filter(|v| {
            matches!(
                v,
                Variant::StaticHl(_) | Variant::StaticSl(_) | Variant::StaticAll(..)
            )
        })
        .map(|v| fig5_cell(fig, &platform, v, threads))
        .collect();
    let best = statics
        .iter()
        .max_by(|a, b| a.mops.total_cmp(&b.mops))
        .expect("Haswell's figure set has static variants");
    let speedup = adaptive.mops / best.mops;
    eprintln!(
        "  regret: fig5 haswell {threads}t Adaptive-All {:.3} Mops/s, best static {} {:.3}, \
         adaptive/best x{speedup:.3}",
        adaptive.mops, best.variant, best.mops
    );
    let variants: Vec<String> = std::iter::once(&adaptive)
        .chain(&statics)
        .map(|r| format!("      \"{}\": {{ \"mops\": {:.4} }}", r.variant, r.mops))
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"cell\": \"fig5 wicked\",\n",
            "    \"platform\": \"haswell\",\n",
            "    \"threads\": {},\n",
            "    \"total_ops\": {},\n",
            "    \"variants\": {{\n{}\n    }},\n",
            "    \"best_static\": \"{}\",\n",
            "    \"adaptive_mops\": {:.4},\n",
            "    \"best_static_mops\": {:.4},\n",
            "    \"adaptive_over_best_static_speedup\": {:.4}\n",
            "  }}"
        ),
        threads,
        adaptive.total_ops,
        variants.join(",\n"),
        best.variant,
        adaptive.mops,
        best.mops,
        speedup
    )
}

fn main() {
    let mut opts = Opts {
        quick: false,
        seed: 42,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer")
            }
            "--out" => {
                opts.out = Some(std::path::PathBuf::from(
                    args.next().expect("--out needs a file path"),
                ))
            }
            "--help" | "-h" => {
                eprintln!("usage: trajectory [--quick] [--seed N] [--out FILE]");
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    eprintln!(
        "trajectory: seed {} ({})",
        opts.seed,
        if opts.quick { "quick" } else { "full" }
    );
    let fig2 = fig2_cell_section(&opts);
    let sharded = sharded_section(&opts);
    let storm = storm_section(&opts);
    let durability = durability_section(&opts);
    let per_cs = per_cs_overhead_section(&opts);
    let regret = regret_section(&opts);

    let json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"ale-bench trajectory\",\n",
            "  \"seed\": {},\n",
            "  \"quick\": {},\n",
            "  \"fig2_cell\": {},\n",
            "  \"sharded\": {},\n",
            "  \"storm_recovery\": {},\n",
            "  \"durability\": {},\n",
            "  \"per_cs_overhead\": {},\n",
            "  \"regret\": {}\n",
            "}}\n"
        ),
        opts.seed, opts.quick, fig2, sharded, storm, durability, per_cs, regret
    );
    print!("{json}");
    if let Some(path) = &opts.out {
        std::fs::write(path, &json).expect("write --out file");
        eprintln!("trajectory: wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The WAL-on and WAL-off runs consume identical op streams, and the
    /// durable run can never be *faster*: every mutation pays a simulated
    /// fsync before the ack.
    #[test]
    fn wal_overhead_is_deterministic_and_nonnegative() {
        let platform = Platform::testbed();
        let cfg = WickedConfig {
            key_space: 512,
            count_permille: 0,
            ..Default::default()
        };
        let db_cfg = DbConfig {
            buckets_per_slot: 64,
            capacity_per_slot: 2048,
            payload_cells: 0,
        };
        let run_off = || {
            let ale = ale_for(&platform, 7);
            let db = AleCacheDb::new(&ale, db_cfg.clone());
            run_wicked(&db, &platform, 2, &cfg, 300, 7)
        };
        let run_on = || {
            let ale = ale_for(&platform, 7);
            let db = DurableCacheDb::new(&ale, db_cfg.clone(), Arc::new(Wal::new()));
            run_wicked(&db, &platform, 2, &cfg, 300, 7)
        };
        let (off_a, off_b) = (run_off(), run_off());
        let (on_a, on_b) = (run_on(), run_on());
        assert_eq!(off_a.makespan_ns, off_b.makespan_ns);
        assert_eq!(on_a.makespan_ns, on_b.makespan_ns);
        assert!(
            on_a.makespan_ns >= off_a.makespan_ns,
            "durable run cannot be faster: on {} vs off {}",
            on_a.makespan_ns,
            off_a.makespan_ns
        );
    }
}
