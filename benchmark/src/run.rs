//! The closed-loop driver: worker threads behind a barrier, a fixed op
//! count per thread per pass, every oracle checked on every pass, medians
//! over the measured passes.

use std::sync::Barrier;
use std::time::Instant;

use ale_core::Ale;

use crate::cells::{Cell, Lane, Recovery, Tally};
use crate::gen::stream_rng;
use crate::span::{Recorder, Sampler};
use crate::stats::{highest_supported_percentile, median, LatencyHist};

/// How much work a run does. `full` is what the numbers in the README
/// were taken with; `quick` is the smoke mode (op counts ÷ 50, 2 passes).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divides every op count and probe iteration count.
    pub ops_div: u64,
    /// At least `min_passes` measured passes, then on until `seconds` have
    /// gone by or [`MAX_PASSES`] is reached.
    pub min_passes: usize,
    pub seconds: f64,
    /// The system is built at least `min_setups` times, then on until
    /// `setup_seconds` have gone by or [`MAX_SETUPS`] is reached;
    /// `setup_s` is the median build.
    pub min_setups: usize,
    pub setup_seconds: f64,
}

pub const MAX_PASSES: usize = 25;
pub const MAX_SETUPS: usize = 1_000;

impl Scale {
    pub fn full(seconds: f64) -> Self {
        Scale {
            ops_div: 1,
            min_passes: 5,
            seconds,
            min_setups: 15,
            setup_seconds: 0.25,
        }
    }

    pub fn quick() -> Self {
        Scale {
            ops_div: 50,
            min_passes: 2,
            seconds: 0.0,
            min_setups: 3,
            setup_seconds: 0.0,
        }
    }

    pub fn ops(&self, full: u64) -> u64 {
        (full / self.ops_div).max(64)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub scale: Scale,
    /// `std::thread::available_parallelism()`, recorded with every result.
    pub nproc: usize,
}

impl Opts {
    /// `T = min(nproc, wanted)`: never more workers than processors.
    pub fn threads(&self, wanted: usize) -> usize {
        wanted.min(self.nproc)
    }
}

/// A finished run of one workload, ready to print.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations, in the order they were found. Empty = correct.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context for the human-readable report (not part of the contract).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// One thread's part of a pass.
pub struct WorkerRun<R> {
    pub start: Instant,
    pub end: Instant,
    pub tally: Tally,
    pub rec: R,
}

pub struct PassRun<R> {
    pub wall_ns: f64,
    pub tally: Tally,
    pub workers: Vec<WorkerRun<R>>,
}

impl<R> PassRun<R> {
    pub fn mops(&self) -> f64 {
        self.tally.attempted as f64 * 1e3 / self.wall_ns
    }
}

/// Run one pass: `threads` workers start together behind a barrier, each
/// executes `ops` generated ops against `inst`, and the pass lasts from
/// the first worker's start to the last worker's end.
pub fn run_pass<C: Cell, R: Recorder + Send>(
    cell: &C,
    inst: &C::Inst,
    threads: usize,
    ops: u64,
    seed: u64,
    pass: u64,
    make_rec: impl Fn() -> R + Sync,
) -> Result<PassRun<R>, String> {
    let barrier = Barrier::new(threads);
    let workers: Vec<WorkerRun<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, make_rec) = (&barrier, &make_rec);
                s.spawn(move || {
                    let lane = Lane {
                        rng: stream_rng(seed, cell.stream(), pass, t as u64),
                        thread: t as u64,
                        threads: threads as u64,
                    };
                    let mut rec = make_rec();
                    barrier.wait();
                    let start = Instant::now();
                    let tally = cell.worker(inst, lane, ops, &mut rec);
                    let end = Instant::now();
                    WorkerRun {
                        start,
                        end,
                        tally,
                        rec,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<_, _>>()
    })
    .map_err(|_| format!("pass {pass}: a worker panicked (poisoned lock or protocol error)"))?;
    let first = workers.iter().map(|w| w.start).min().expect("threads >= 1");
    let last = workers.iter().map(|w| w.end).max().expect("threads >= 1");
    let mut tally = Tally::default();
    for w in &workers {
        tally.merge(&w.tally);
    }
    Ok(PassRun {
        wall_ns: (last - first).as_nanos() as f64,
        tally,
        workers,
    })
}

/// A built instance plus what the oracles need to know about its history.
pub struct Live<'c, C: Cell> {
    pub cell: &'c C,
    pub inst: C::Inst,
    /// Keys the table must hold now: prefill plus every pass's net.
    expected_len: u64,
    pub setup_s: f64,
}

impl<'c, C: Cell> Live<'c, C> {
    /// Build the cell and time it. A build far below a microsecond cannot
    /// be timed alone (the clock's grain would be the measurement), so the
    /// cell says how many builds make one sample; the last one is kept.
    pub fn build(cell: &'c C, seed: u64, adaptive: bool) -> Self {
        let batch = cell.setup_batch();
        let t = Instant::now();
        let mut built: Vec<C::Inst> = (0..batch).map(|_| cell.build(seed, adaptive)).collect();
        let setup_s = t.elapsed().as_secs_f64() / batch as f64;
        let inst = built.pop().expect("a batch holds at least one build");
        let expected_len = cell.len(&inst);
        Live {
            cell,
            inst,
            expected_len,
            setup_s,
        }
    }

    /// Rebuild the instance if the cell wants every pass to start fresh.
    pub fn renew(&mut self, seed: u64, adaptive: bool) {
        if self.cell.fresh_each_pass() {
            *self = Live::build(self.cell, seed, adaptive);
        }
    }

    /// The instance's library handle (every named workload has one).
    pub fn ale(&self) -> &Ale {
        self.cell
            .ale(&self.inst)
            .expect("the cell is ALE-integrated")
    }

    /// Run a pass and check every oracle on it; violations are appended
    /// to `violations`, wrong values are counted in the tally.
    pub fn pass<R: Recorder + Send>(
        &mut self,
        threads: usize,
        ops: u64,
        seed: u64,
        pass: u64,
        make_rec: impl Fn() -> R + Sync,
        violations: &mut Vec<String>,
    ) -> Result<(PassRun<R>, Option<Recovery>), String> {
        let run = run_pass(self.cell, &self.inst, threads, ops, seed, pass, make_rec)?;
        self.expected_len = (self.expected_len + run.tally.created).wrapping_sub(run.tally.removed);
        let len = self.cell.len(&self.inst);
        if len != self.expected_len {
            violations.push(format!(
                "pass {pass}: table holds {len} keys but prefill plus the workers' tallies say {}",
                self.expected_len
            ));
        }
        if !self.cell.settled(&self.inst) {
            violations.push(format!(
                "pass {pass}: a version is odd or a lock is held at quiescence"
            ));
        }
        if run.tally.failed > 0 {
            violations.push(format!(
                "pass {pass}: {} get(s) returned a value other than the key's canonical one",
                run.tally.failed
            ));
        }
        let recovery = match self.cell.after_pass(&self.inst, seed) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("pass {pass}: {e}"));
                None
            }
        };
        Ok((run, recovery))
    }
}

/// Median ns of one uncontended `std::sync::Mutex` lock/unlock cycle on
/// the calling thread.
pub fn std_mutex_cycle_ns(cycles: u64) -> f64 {
    let m = std::sync::Mutex::new(0u64);
    let t = Instant::now();
    for _ in 0..cycles {
        *m.lock().expect("uncontended, never poisoned") += 1;
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(*m.lock().expect("uncontended"), cycles);
    ns / cycles as f64
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end<C: Cell>(cell: &C, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let scale = opts.scale;
    let threads = opts.threads(cell.threads());
    let ops = scale.ops(cell.ops());
    let stride = cell.stride();

    // Building is cheap (microseconds to milliseconds), so one sample says
    // little: build repeatedly, keep the last instance, report the median.
    let setup_start = Instant::now();
    let mut live = Live::build(cell, opts.seed, false);
    let mut setups = vec![live.setup_s];
    while setups.len() < scale.min_setups
        || (setups.len() < MAX_SETUPS && setup_start.elapsed().as_secs_f64() < scale.setup_seconds)
    {
        live = Live::build(cell, opts.seed, false);
        setups.push(live.setup_s);
    }

    // A worker that panics (poisoned lock, protocol error) ends the run.
    let panicked = |mut out: Outcome, what: String| {
        out.violations.push(what);
        out.attempted += ops * threads as u64;
        out.failed += 1;
        out
    };
    let make = || Sampler::new(stride);
    // The discarded warm-up pass: caches fill, granules are created,
    // thread-local state is set up. It is still checked.
    if let Err(e) = live.pass(threads, ops, opts.seed, 0, make, &mut out.violations) {
        return panicked(out, e);
    }

    let mut mops = Vec::new();
    let mut ratios = Vec::new();
    let mut p99s = Vec::new();
    let mut recover_rates = Vec::new();
    let mut hist = LatencyHist::new();
    let measure_start = Instant::now();
    for pass in 1u64.. {
        let measured = mops.len();
        let enough =
            measured >= scale.min_passes && measure_start.elapsed().as_secs_f64() >= scale.seconds;
        if enough || measured >= MAX_PASSES {
            break;
        }
        if cell.fresh_each_pass() {
            live.renew(opts.seed, false);
            setups.push(live.setup_s);
        }
        let (run, recovery) =
            match live.pass(threads, ops, opts.seed, pass, make, &mut out.violations) {
                Ok(r) => r,
                Err(e) => return panicked(out, e),
            };
        out.attempted += run.tally.attempted;
        out.failed += run.tally.failed;
        mops.push(run.mops());
        let per_thread_op_ns = run.wall_ns / ops as f64;
        ratios.push(per_thread_op_ns / std_mutex_cycle_ns(scale.ops(cell.mutex_cycles())));
        let mut pass_hist = LatencyHist::new();
        for w in &run.workers {
            pass_hist.merge(&w.rec.hist);
        }
        p99s.push(pass_hist.percentile(99.0));
        hist.merge(&pass_hist);
        if let Some(r) = recovery {
            recover_rates.push(r.records as f64 / r.seconds / 1e6);
        }
    }

    // op_p99_ns is the median over passes of each pass's own p99 (both
    // threads pooled), so one pass that met a noisy neighbour cannot set
    // it; the pooled histogram supports the higher percentiles quoted in
    // the notes.
    let samples = hist.samples();
    let per_pass = samples / mops.len() as u64;
    out.metrics = vec![
        ("throughput_mops", median(&mops)),
        ("op_p99_ns", median(&p99s)),
        ("vs_std_mutex_ratio", median(&ratios)),
        ("setup_s", median(&setups)),
    ];
    out.notes.push(format!(
        "nproc {} threads {threads} ops/thread/pass {ops} measured passes {} seed {} setups {}",
        opts.nproc,
        mops.len(),
        opts.seed,
        setups.len()
    ));
    let list = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes
        .push(format!("throughput_mops by pass: {}", list(&mops, 3)));
    out.notes
        .push(format!("op_p99_ns by pass: {}", list(&p99s, 0)));
    let pooled_top = highest_supported_percentile(samples)
        .map(|p| format!(", p{p} {:.1} ns", hist.percentile(p)))
        .unwrap_or_default();
    out.notes.push(format!(
        "latency: every {stride}th op timed, {per_pass} samples per pass, {samples} pooled: p50 {:.1} ns{pooled_top}",
        hist.percentile(50.0),
    ));
    if highest_supported_percentile(per_pass).is_none_or(|p| p < 99.0) {
        out.notes.push(format!(
            "WARNING: {per_pass} latency samples per pass leave fewer than ten beyond p99; op_p99_ns is not supported at this scale"
        ));
    }
    if !recover_rates.is_empty() {
        out.notes.push(format!(
            "recover(): {:.4} Mrec/s median over {} checked recoveries",
            median(&recover_rates),
            recover_rates.len()
        ));
    }
    out
}
