//! The traced run: per-layer metrics of one workload. Layers are this
//! repo's crates, measured from outside: micro-probes of their public
//! functions, spans around every call the workload makes into them, the
//! library's own report on a short exact-regime pass, and comparison
//! passes against sibling configurations. End-to-end numbers never come
//! from here.

use std::time::Instant;

use ale_core::{ExecMode, Report};

use crate::cells::{self, Cell, Family, Flavor, Table};
use crate::probes::run_probes;
use crate::run::{Live, Opts, Outcome, PassRun};
use crate::span::{p50_ns, self_time, write_jsonl, Sampler, Span, SpanLog, ThreadTrace};
use crate::spec::PER_LAYER;
use crate::stats::{median, spread};

/// The traced pass runs a tenth of a full pass: every call costs a span
/// (32 bytes in memory, a JSON line on disk).
const TRACED_OPS_DIV: u64 = 10;
/// Ops per thread of the probe pass: few enough that every statistics
/// counter of the library stays in its exact regime.
const PROBE_OPS: u64 = 2_000;

fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || env!("CARGO_MANIFEST_DIR").into(),
            std::path::PathBuf::from,
        )
        .join("out")
}

/// Sums over every granule of every lock of a report.
#[derive(Default)]
struct Totals {
    executions: u64,
    attempts: [u64; 3],
    successes: [u64; 3],
    aborts: [u64; 4],
}

fn totals(report: &Report) -> Totals {
    let mut t = Totals::default();
    for g in report.locks.iter().flat_map(|l| &l.granules) {
        t.executions += g.executions;
        for i in 0..3 {
            t.attempts[i] += g.attempts[i];
            t.successes[i] += g.successes[i];
        }
        let causes = [
            g.conflict_aborts,
            g.capacity_aborts,
            g.lock_held_aborts,
            g.spurious_aborts,
        ];
        for (sum, c) in t.aborts.iter_mut().zip(causes) {
            *sum += c;
        }
    }
    t
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What the run collects on the way; turned into an [`Outcome`] at the end.
struct Ctx<'o> {
    opts: &'o Opts,
    metrics: Vec<(&'static str, f64)>,
    violations: Vec<String>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Ctx<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn count<R>(&mut self, run: &PassRun<R>) {
        self.attempted += run.tally.attempted;
        self.failed += run.tally.failed;
    }

    /// Build `cell` and run its (checked, discarded) warm-up pass of `ops`
    /// ops per thread.
    fn warmed<'c, C: Cell>(
        &mut self,
        cell: &'c C,
        threads: usize,
        ops: u64,
        adaptive: bool,
    ) -> Result<Live<'c, C>, String> {
        let seed = self.opts.seed;
        let make = || Sampler::new(cell.stride());
        let mut live = Live::build(cell, seed, adaptive);
        live.pass(threads, ops, seed, 0, make, &mut self.violations)?;
        Ok(live)
    }

    /// Build `cell`, warm it up, and return the median M ops/s of `passes`
    /// checked, untraced passes on `threads` workers.
    fn measure<C: Cell>(
        &mut self,
        cell: &C,
        threads: usize,
        passes: u64,
        adaptive: bool,
    ) -> Result<f64, String> {
        let ops = self.opts.scale.ops(cell.ops());
        let seed = self.opts.seed;
        let make = || Sampler::new(cell.stride());
        let mut live = self.warmed(cell, threads, ops, adaptive)?;
        let mut mops = Vec::new();
        for pass in 1..=passes {
            live.renew(seed, adaptive);
            let (run, _) = live.pass(threads, ops, seed, pass, make, &mut self.violations)?;
            self.count(&run);
            mops.push(run.mops());
        }
        Ok(median(&mops))
    }

    /// One traced pass of `cell` on a warmed instance, with each worker's
    /// spans lifted out as a thread trace under its pass span.
    fn traced_pass<C: Cell>(
        &mut self,
        cell: &C,
        live: &mut Live<C>,
        origin: Instant,
        pass: u64,
    ) -> Result<(PassRun<SpanLog>, Vec<ThreadTrace>), String> {
        let threads = self.opts.threads(cell.threads());
        let ops = self.opts.scale.ops(cell.ops() / TRACED_OPS_DIV);
        let make = || SpanLog::new(origin, ops as usize);
        let (mut run, _) = live.pass(
            threads,
            ops,
            self.opts.seed,
            pass,
            make,
            &mut self.violations,
        )?;
        self.count(&run);
        let traces = run
            .workers
            .iter_mut()
            .enumerate()
            .map(|(thread, w)| ThreadTrace {
                thread,
                parent: Span {
                    name: "pass",
                    start: (w.start - origin).as_nanos() as u64,
                    end: (w.end - origin).as_nanos() as u64,
                },
                children: std::mem::take(&mut w.rec.spans),
            })
            .collect();
        Ok((run, traces))
    }

    /// Median span durations of a table's three calls, under `names`.
    fn op_spans(&mut self, names: [(&'static str, &str); 3], traces: &[ThreadTrace]) {
        for (metric, span_name) in names {
            let spans = traces.iter().flat_map(|t| &t.children);
            self.put(metric, p50_ns(spans, span_name).unwrap_or(0.0));
        }
    }
}

const HASHMAP_SPANS: [(&str, &str); 3] = [
    ("hashmap.get_ns", "get"),
    ("hashmap.insert_ns", "insert"),
    ("hashmap.remove_ns", "remove"),
];
const KYOTO_SPANS: [(&str, &str); 3] = [
    ("kyoto.get_ns", "get"),
    ("kyoto.set_ns", "set"),
    ("kyoto.remove_ns", "remove"),
];

/// A short traced pass of another family's reference workload, so every
/// layer's call costs are measured in every traced run.
fn reference_traces<C: Cell>(
    ctx: &mut Ctx,
    cell: &C,
    origin: Instant,
) -> Result<(PassRun<SpanLog>, Vec<ThreadTrace>), String> {
    let threads = ctx.opts.threads(cell.threads());
    let ops = ctx.opts.scale.ops(cell.ops() / TRACED_OPS_DIV);
    let mut live = ctx.warmed(cell, threads, ops, false)?;
    ctx.traced_pass(cell, &mut live, origin, 1)
}

pub fn run_layers<C: Cell>(workload: &str, cell: &C, opts: &Opts) -> Outcome {
    let mut ctx = Ctx {
        opts,
        metrics: Vec::new(),
        violations: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    if let Err(panicked) = layers(workload, cell, &mut ctx) {
        ctx.violations.push(panicked);
        ctx.failed += 1;
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| !ctx.metrics.iter().any(|(have, _)| have == n))
        .collect();
    if !missing.is_empty() {
        ctx.violations
            .push(format!("per-layer metrics not produced: {missing:?}"));
    }
    let metrics = PER_LAYER
        .iter()
        .filter_map(|m| ctx.metrics.iter().find(|(n, _)| *n == m.name).copied())
        .collect();
    Outcome {
        attempted: ctx.attempted,
        failed: ctx.failed,
        violations: ctx.violations,
        metrics,
        notes: ctx.notes,
    }
}

fn layers<C: Cell>(workload: &str, cell: &C, ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let (seed, scale) = (opts.seed, opts.scale);
    let threads = opts.threads(cell.threads());
    let ops = scale.ops(cell.ops());
    let origin = Instant::now();

    // 1. The ledger: workload-independent single-thread probes.
    let probes = run_probes(origin, scale, seed);
    ctx.metrics.extend_from_slice(&probes.metrics);
    let probe_end = probes.spans.iter().map(|s| s.end).max().unwrap_or(0);
    let mut traces = vec![ThreadTrace {
        thread: 0,
        parent: Span {
            name: "probes",
            start: 0,
            end: probe_end,
        },
        children: probes.spans,
    }];

    // 2. Traced against untraced passes of the workload itself, alternating
    //    on one warmed instance at the traced pass's size.
    let sampler = || Sampler::new(cell.stride());
    let mut live = ctx.warmed(cell, threads, ops, false)?;
    let traced_ops = scale.ops(cell.ops() / TRACED_OPS_DIV);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..3 {
        live.renew(seed, false);
        let (run, _) = live.pass(
            threads,
            traced_ops,
            seed,
            1 + round,
            sampler,
            &mut ctx.violations,
        )?;
        ctx.count(&run);
        plain.push(run.mops());
        live.renew(seed, false);
        let (run, pass_traces) = ctx.traced_pass(cell, &mut live, origin, 1 + round)?;
        traced.push(run.mops());
        last = Some((run, pass_traces));
    }
    let (traced_run, pass_traces) = last.expect("three rounds ran");
    ctx.put(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
    );
    let (own, busy): (u64, u64) = pass_traces
        .iter()
        .map(|t| {
            (
                self_time(&t.parent, &t.children),
                t.parent.end - t.parent.start,
            )
        })
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    ctx.put("bench.generator_share", share(own, busy));

    // 3. The probe pass: the library's own report while every counter is
    //    still exact.
    live.renew(seed, false);
    live.ale().reset_statistics();
    let probe_ops = PROBE_OPS.min(ops);
    let (run, _) = live.pass(threads, probe_ops, seed, 10, sampler, &mut ctx.violations)?;
    ctx.count(&run);
    let t = totals(&live.ale().report());
    let [htm, swopt, lock] = ExecMode::ALL.map(ExecMode::index);
    ctx.put("core.mode_share_htm", share(t.successes[htm], t.executions));
    ctx.put(
        "core.mode_share_swopt",
        share(t.successes[swopt], t.executions),
    );
    ctx.put(
        "core.mode_share_lock",
        share(t.successes[lock], t.executions),
    );
    ctx.put(
        "core.htm_success_ratio",
        share(t.successes[htm], t.attempts[htm]),
    );
    ctx.put(
        "core.swopt_success_ratio",
        share(t.successes[swopt], t.attempts[swopt]),
    );
    let aborts: u64 = t.aborts.iter().sum();
    ctx.put("htm.abort_share_conflict", share(t.aborts[0], aborts));
    ctx.put("htm.abort_share_capacity", share(t.aborts[1], aborts));
    ctx.put("htm.abort_share_lock_held", share(t.aborts[2], aborts));
    ctx.put("htm.abort_share_spurious", share(t.aborts[3], aborts));
    let cs_per_op = t.executions as f64 / run.tally.attempted as f64;
    ctx.notes.push(format!(
        "probe pass: {} ops, {} critical sections ({cs_per_op:.3} per op), {aborts} HTM aborts",
        run.tally.attempted, t.executions
    ));

    // 4. Full-size static passes: the wall figure the comparisons below
    //    divide by, and the statistics plane's accuracy over a whole pass.
    let mut static_mops = Vec::new();
    for pass in 11..14 {
        live.renew(seed, false);
        live.ale().reset_statistics();
        let (run, _) = live.pass(threads, ops, seed, pass, sampler, &mut ctx.violations)?;
        ctx.count(&run);
        static_mops.push(run.mops());
        if pass == 11 {
            let reported = totals(&live.ale().report()).executions;
            let issued = run.tally.attempted as f64 * cs_per_op;
            ctx.put("core.stat_count_accuracy", reported as f64 / issued);
        }
    }
    let wall = median(&static_mops);
    ctx.notes.push(format!(
        "nproc {} threads {threads} ops/thread/pass {ops} seed {seed}; wall {wall:.4} Mops/s (median of {} untraced passes)",
        opts.nproc,
        static_mops.len()
    ));

    // 5. The simulator's prediction for the same cell at the same width.
    let pred = cell.predict(threads, seed);
    ctx.put("vtime.pred_mops", pred);
    ctx.put("vtime.wall_over_pred", wall / pred);

    // 6. Adaptive-All on three fresh instances against the static median.
    let mut adaptive = Vec::new();
    for _ in 0..3 {
        adaptive.push(ctx.measure(cell, threads, 1, true)?);
    }
    ctx.put("core.adaptive_vs_static_ratio", median(&adaptive) / wall);
    ctx.put("core.adaptive_trial_spread", spread(&adaptive));

    // 7. What only one family of workloads can say. A layer the workload
    //    never enters gets its call costs from a short reference pass of
    //    that layer's own workload, and 0 for its comparison ratios.
    match cell.family() {
        Family::Map(map) => {
            ctx.op_spans(HASHMAP_SPANS, &pass_traces);
            ctx.put(
                "hashmap.get_hit_share",
                share(traced_run.tally.hits, traced_run.tally.gets),
            );
            let single = ctx.measure(&map.on(Table::Single), threads, 2, false)?;
            let shard1 = ctx.measure(&map.on(Table::Sharded(1)), threads, 2, false)?;
            ctx.put("hashmap.shard1_vs_single_ratio", shard1 / single);
            let one = ctx.measure(map, 1, 2, false)?;
            ctx.put("hashmap.scaling_2t_over_1t", wall / one);
            ctx.put(
                "hashmap.resize_epochs",
                cell.resize_epochs(&live.inst) as f64,
            );
        }
        Family::Kyoto(db) => {
            ctx.op_spans(KYOTO_SPANS, &pass_traces);
            let other = match db.flavor {
                Flavor::Durable => Flavor::Plain,
                _ => Flavor::Durable,
            };
            let sibling = ctx.measure(&db.with_flavor(other), threads, 2, false)?;
            let (plain, durable) = match db.flavor {
                Flavor::Durable => (sibling, wall),
                _ => (wall, sibling),
            };
            ctx.put("kyoto.wal_overhead_ratio", plain / durable);
            let floor = ctx.measure(&db.with_flavor(Flavor::Trylockspin), threads, 2, false)?;
            ctx.put("kyoto.trylockspin_mops", floor);
        }
        Family::Cs => {}
    }
    if !matches!(cell.family(), Family::Map(_)) {
        let (run, reference) = reference_traces(ctx, &cells::map_read(), origin)?;
        ctx.op_spans(HASHMAP_SPANS, &reference);
        ctx.put(
            "hashmap.get_hit_share",
            share(run.tally.hits, run.tally.gets),
        );
        for name in [
            "hashmap.shard1_vs_single_ratio",
            "hashmap.scaling_2t_over_1t",
            "hashmap.resize_epochs",
        ] {
            ctx.put(name, 0.0);
        }
    }
    if !matches!(cell.family(), Family::Kyoto(_)) {
        let (_, reference) = reference_traces(ctx, &cells::kyoto_wicked(), origin)?;
        ctx.op_spans(KYOTO_SPANS, &reference);
        ctx.put("kyoto.wal_overhead_ratio", 0.0);
        ctx.put("kyoto.trylockspin_mops", 0.0);
    }

    // 8. Spans leave memory only now that the workload has ended.
    traces.extend(pass_traces);
    let path = out_dir().join(format!("spans-{workload}.jsonl"));
    match write_jsonl(&path, &traces) {
        Ok(()) => ctx.notes.push(format!(
            "{} spans written to {}",
            traces.iter().map(|t| 1 + t.children.len()).sum::<usize>(),
            path.display()
        )),
        Err(e) => ctx
            .violations
            .push(format!("could not write {}: {e}", path.display())),
    }
    Ok(())
}
