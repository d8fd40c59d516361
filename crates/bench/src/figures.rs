//! One function per figure / statistic / ablation of the evaluation.
//!
//! Each returns a [`Table`] (CSV rows plus a rendered view); the `figures`
//! binary writes them under `results/`. Thread counts and operation budgets
//! follow the paper's machine sizes, scaled down in `--quick` mode so the
//! whole suite stays tractable on small hosts.

use std::path::Path;

use ale_core::ExecMode;
use ale_kyoto::WickedConfig;
use ale_vtime::Platform;

use crate::harness::{run_hashmap_mods, run_kyoto, HashMapWorkload, RunResult};
use crate::variant::{Mods, Variant};

/// Global options for a figure run.
#[derive(Debug, Clone, Copy)]
pub struct FigOpts {
    /// Shrink thread grids and op budgets (CI / smoke runs).
    pub quick: bool,
    /// Base seed (figures add their own offsets).
    pub seed: u64,
}

impl Default for FigOpts {
    fn default() -> Self {
        FigOpts {
            quick: false,
            seed: 0xF16,
        }
    }
}

/// A rendered result table.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: &'static str,
    pub title: String,
    pub header: String,
    pub rows: Vec<String>,
    /// Prometheus text snapshot of the figure's final ALE run (per-granule
    /// metrics), written as `<id>.prom` next to the CSV. `None` for figures
    /// whose cells are all non-ALE baselines.
    pub prom: Option<String>,
}

impl Table {
    pub fn to_csv(&self) -> String {
        let mut s = format!("{}\n", self.header);
        for r in &self.rows {
            s.push_str(r);
            s.push('\n');
        }
        s
    }

    /// Write `<id>.csv` under `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Write the metrics snapshot as `<id>.prom` under `dir`, if the figure
    /// produced one.
    pub fn write_prom(&self, dir: &Path) -> std::io::Result<Option<std::path::PathBuf>> {
        let Some(prom) = &self.prom else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.prom", self.id));
        std::fs::write(&path, prom)?;
        Ok(Some(path))
    }

    /// Column-aligned rendering for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n", self.id, self.title);
        let split = |s: &str| s.split(',').map(str::to_string).collect::<Vec<_>>();
        let mut grid = vec![split(&self.header)];
        grid.extend(self.rows.iter().map(|r| split(r)));
        let cols = grid.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &grid {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (ri, row) in grid.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
            if ri == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
                out.push('\n');
            }
        }
        out
    }
}

const HDR: &str = "platform,mix,variant,threads,mops";

fn row(mix: &str, r: &RunResult) -> String {
    format!(
        "{},{},{},{},{:.4}",
        r.platform, mix, r.variant, r.threads, r.mops
    )
}

/// Keep the latest ALE cell's metrics snapshot for the figure's `.prom`.
fn keep_prom(slot: &mut Option<String>, r: &RunResult) {
    if let Some(rep) = &r.report {
        *slot = Some(rep.to_prometheus());
    }
}

/// Total measured ops for one cell, split over lanes.
fn ops_per_lane(total: u64, threads: usize) -> u64 {
    (total / threads as u64).max(200)
}

/// Warm-up sized so the adaptive policy converges (≥ ~6k executions per
/// lock across all lanes; the HashMap has one lock).
fn warmup_per_lane(opts: FigOpts, threads: usize) -> u64 {
    let total = if opts.quick { 4_000 } else { 8_000 };
    (total / threads as u64).max(100)
}

fn hashmap_grid(
    id: &'static str,
    title: String,
    platform: Platform,
    threads: &[usize],
    mixes: &[HashMapWorkload],
    opts: FigOpts,
) -> Table {
    let total_ops: u64 = if opts.quick { 4_000 } else { 24_000 };
    let mut rows = Vec::new();
    let mut prom = None;
    for mix in mixes {
        for variant in Variant::figure_set(&platform) {
            for &t in threads {
                let r = run_hashmap_mods(
                    platform.clone(),
                    variant,
                    Mods::default(),
                    t,
                    mix,
                    ops_per_lane(total_ops, t),
                    if variant.is_ale() {
                        warmup_per_lane(opts, t)
                    } else {
                        200
                    },
                    opts.seed ^ (t as u64) << 8,
                );
                eprintln!(
                    "  {id}: {} {} t={t}: {:.3} Mops/s",
                    mix.label(),
                    r.variant,
                    r.mops
                );
                keep_prom(&mut prom, &r);
                rows.push(row(&mix.label(), &r));
            }
        }
    }
    Table {
        id,
        title,
        header: HDR.into(),
        rows,
        prom,
    }
}

fn threads_for(platform: &Platform, quick: bool) -> Vec<usize> {
    let max = platform.logical_threads() as usize;
    let full: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .filter(|&t| t <= max)
        .collect();
    if quick {
        full.into_iter()
            .filter(|t| t.is_power_of_two() && (*t == 1 || t % 4 == 0))
            .collect()
    } else {
        full
    }
}

/// Figure 2 *(inferred)*: HashMap throughput vs threads on Haswell.
pub fn fig2(opts: FigOpts) -> Table {
    let p = Platform::haswell();
    let ks = 16 * 1024;
    hashmap_grid(
        "fig2_hashmap_haswell",
        "HashMap throughput vs threads, Haswell (TSX)".into(),
        p.clone(),
        &threads_for(&p, opts.quick),
        &[
            HashMapWorkload::read_only(ks),
            HashMapWorkload::read_heavy(ks),
            HashMapWorkload::mutate_heavy(ks),
        ],
        opts,
    )
}

/// Figure 3 *(inferred)*: HashMap throughput vs threads on Rock.
pub fn fig3(opts: FigOpts) -> Table {
    let p = Platform::rock();
    let ks = 16 * 1024;
    hashmap_grid(
        "fig3_hashmap_rock",
        "HashMap throughput vs threads, Rock (best-effort HTM)".into(),
        p.clone(),
        &threads_for(&p, opts.quick),
        &[
            HashMapWorkload::read_only(ks),
            HashMapWorkload::read_heavy(ks),
            HashMapWorkload::mutate_heavy(ks),
        ],
        opts,
    )
}

/// Figure 4 *(inferred)*: HashMap throughput vs threads on T2-2 (no HTM).
pub fn fig4(opts: FigOpts) -> Table {
    let p = Platform::t2();
    let ks = 16 * 1024;
    let threads = if opts.quick {
        vec![1, 4, 16, 64]
    } else {
        threads_for(&p, false)
    };
    hashmap_grid(
        "fig4_hashmap_t2",
        "HashMap throughput vs threads, T2-2 (no HTM)".into(),
        p,
        &threads,
        &[
            HashMapWorkload::read_heavy(ks),
            HashMapWorkload::mutate_heavy(ks),
        ],
        opts,
    )
}

/// Figure 5: Kyoto Cabinet `wicked` throughput vs threads (nested RW-lock +
/// slot-lock critical sections), on Haswell and T2-2.
pub fn fig5(opts: FigOpts) -> Table {
    let mut rows = Vec::new();
    let mut prom = None;
    for platform in [Platform::haswell(), Platform::t2()] {
        let threads: Vec<usize> = threads_for(&platform, opts.quick)
            .into_iter()
            .filter(|&t| t <= 64)
            .collect();
        for variant in Variant::figure_set(&platform) {
            for &t in &threads {
                let r = fig5_cell(opts, &platform, variant, t);
                eprintln!(
                    "  fig5: {} {} t={t}: {:.3} Mops/s",
                    r.platform, r.variant, r.mops
                );
                keep_prom(&mut prom, &r);
                rows.push(row("wicked", &r));
            }
        }
    }
    Table {
        id: "fig5_kyoto_wicked",
        title: "Kyoto Cabinet wicked benchmark (nested elision)".into(),
        header: HDR.into(),
        rows,
        prom,
    }
}

/// One Fig. 5 cell: the Kyoto `wicked` benchmark on `platform` under
/// `variant` with `threads` lanes, exactly as [`fig5`] runs it.
pub fn fig5_cell(
    opts: FigOpts,
    platform: &Platform,
    variant: Variant,
    threads: usize,
) -> RunResult {
    let total_ops: u64 = if opts.quick { 3_000 } else { 16_000 };
    // No whole-database ops in the throughput figure: one `count` scans
    // every record under the exclusive lock and swamps the virtual-time
    // makespan (it stars in `stats-nomutate` instead).
    let cfg = WickedConfig {
        key_space: 16 * 1024,
        count_permille: 0,
        ..Default::default()
    };
    run_kyoto(
        platform.clone(),
        variant,
        threads,
        &cfg,
        ops_per_lane(total_ops, threads),
        if variant.is_ale() {
            warmup_per_lane(opts, threads)
        } else {
            200
        },
        opts.seed ^ 0x5A ^ (threads as u64) << 8,
    )
}

/// The §5 inline statistics: `nomutate` on T2-2 (≈42 % misses succeed via
/// SWOpt) and the HTM failure rate of the large exclusive transaction.
pub fn stats_nomutate(opts: FigOpts) -> Table {
    let mut rows = Vec::new();

    // T2-2, SWOpt-only: misses complete optimistically.
    let cfg = WickedConfig::nomutate(16 * 1024);
    let r = run_kyoto(
        Platform::t2(),
        Variant::StaticSl(10),
        8,
        &cfg,
        if opts.quick { 800 } else { 3_000 },
        500,
        opts.seed ^ 0xA0,
    );
    let report = r.report.as_ref().expect("ALE run has a report");
    let mlock = report.lock("mlock").expect("mlock stats");
    let get = mlock
        .granules
        .iter()
        .find(|g| g.context.contains("CacheDb::get"))
        .expect("get granule");
    let swopt_share = get.mode_share(ExecMode::SwOpt).min(1.0);
    rows.push(format!(
        "t2,nomutate,Static-SL-10,8,get_swopt_success_share,{swopt_share:.3}"
    ));
    let miss =
        1.0 - (get.successes.iter().sum::<u64>() as f64 / get.executions.max(1) as f64).min(1.0);
    let _ = miss;

    // Rock, HTMLock: the flattened get (outer RW CS + nested slot CS in
    // one transaction) is the paper's "relatively large hardware
    // transaction … fails in 20 % of the cases". Kyoto records carry
    // byte-string bodies, so each record gets a 24-word payload here —
    // on Rock's fragile HTM (32-entry store budget, high spurious rate)
    // the resulting move-to-front + payload traffic fails noticeably often.
    let cfg2 = WickedConfig {
        key_space: 16 * 1024,
        count_permille: 0,
        payload_cells: 24,
        ..Default::default()
    };
    let r2 = run_kyoto(
        Platform::rock(),
        Variant::StaticHl(5),
        16,
        &cfg2,
        if opts.quick { 800 } else { 3_000 },
        500,
        opts.seed ^ 0xA1,
    );
    let report2 = r2.report.as_ref().unwrap();
    let mlock2 = report2.lock("mlock").unwrap();
    let get2 = mlock2
        .granules
        .iter()
        .find(|g| g.context.contains("CacheDb::get"))
        .expect("get granule");
    let fail = (1.0 - get2.htm_success_ratio().unwrap_or(1.0)).max(0.0);
    rows.push(format!(
        "rock,wicked,Static-HL-5,16,get_htm_attempt_failure_rate,{fail:.3}"
    ));

    Table {
        id: "stats_nomutate",
        title: "§5 inline statistics (SWOpt miss fast-path; large-tx HTM failures)".into(),
        header: "platform,workload,variant,threads,metric,value".into(),
        rows,
        prom: Some(report2.to_prometheus()),
    }
}

/// The §3.4 statistics/profiling report, demonstrated on a mixed HashMap
/// run (rendered as text, stored alongside the CSVs).
pub fn report_demo(opts: FigOpts) -> (Table, String) {
    let w = HashMapWorkload::mutate_heavy(4 * 1024);
    let r = run_hashmap_mods(
        Platform::haswell(),
        Variant::AdaptiveAll,
        Mods::default(),
        4,
        &w,
        if opts.quick { 1_000 } else { 4_000 },
        2_000,
        opts.seed ^ 0xB0,
    );
    let report = r.report.as_ref().unwrap();
    let mut rows = Vec::new();
    for lock in &report.locks {
        for g in &lock.granules {
            rows.push(format!(
                "{},{},{},{},{},{},{},{},{}",
                lock.label,
                g.context.replace(',', ";"),
                g.executions,
                g.successes[0],
                g.successes[1],
                g.successes[2],
                g.swopt_fails,
                g.lock_held_aborts + g.conflict_aborts + g.capacity_aborts + g.spurious_aborts,
                g.policy.replace(',', ";"),
            ));
        }
    }
    let table = Table {
        id: "report_granules",
        title: "§3.4 per-(lock, context) statistics report".into(),
        header:
            "lock,context,executions,htm_succ,swopt_succ,lock_succ,swopt_fails,htm_aborts,policy"
                .into(),
        rows,
        prom: Some(report.to_prometheus()),
    };
    (table, report.to_string())
}

/// Ablation A1: `COULD_SWOPT_BE_RUNNING` bump elision on vs off (§3.3).
/// The paper's claim: bumping `tblVer` unconditionally makes concurrent
/// HTM mutators conflict with each other; eliding the bump when no SWOpt
/// path runs removes those aborts.
pub fn ablate_elide(opts: FigOpts) -> Table {
    // Longer chains lengthen the transactions, so the version-word
    // conflict window is realistic.
    let w = HashMapWorkload::mutate_heavy(8 * 1024).with_buckets(512);
    let mut rows = Vec::new();
    let mut prom = None;
    let total = if opts.quick { 4_000 } else { 16_000 };
    for (label, mods) in [
        ("elide", Mods::default()),
        (
            "always-bump",
            Mods {
                force_bump: true,
                ..Default::default()
            },
        ),
    ] {
        for t in [1usize, 2, 4, 8] {
            let r = run_hashmap_mods(
                Platform::haswell(),
                Variant::StaticHl(5),
                mods,
                t,
                &w,
                ops_per_lane(total, t),
                200,
                opts.seed ^ 0xC0,
            );
            let aborts: u64 = r
                .report
                .as_ref()
                .map(|rep| {
                    rep.locks
                        .iter()
                        .flat_map(|l| &l.granules)
                        .map(|g| g.conflict_aborts)
                        .sum()
                })
                .unwrap_or(0);
            let per_kop = aborts as f64 * 1000.0 / r.total_ops as f64;
            eprintln!(
                "  ablate-elide: {label} t={t}: {:.3} Mops/s, {per_kop:.1} conflict aborts/kop",
                r.mops
            );
            keep_prom(&mut prom, &r);
            rows.push(format!(
                "haswell,{},{label},{},{:.4},{per_kop:.2}",
                w.label(),
                t,
                r.mops
            ));
        }
    }
    Table {
        id: "ablate_elide",
        title: "A1: HTM throughput and conflict aborts with/without version-bump elision".into(),
        header: "platform,mix,elision,threads,mops,conflict_aborts_per_kop".into(),
        rows,
        prom,
    }
}

/// Ablation A2: the grouping mechanism on vs off (§4.2).
pub fn ablate_group(opts: FigOpts) -> Table {
    // SWOpt-heavy workload with frequent conflicting actions AND long
    // optimistic read sections (long chains), so readers retry repeatedly
    // without grouping — the §4.2 scenario.
    let w = HashMapWorkload::mutate_heavy(4 * 1024).with_buckets(64);
    let mut rows = Vec::new();
    let mut prom = None;
    let total = if opts.quick { 4_000 } else { 16_000 };
    for (label, mods) in [
        (
            "grouping",
            Mods {
                static_grouping: true,
                ..Default::default()
            },
        ),
        (
            // The paper's §4.2 suggestion: respect the SNZI with some
            // probability, keeping eventual deferral.
            "prob-grouping-25%",
            Mods {
                static_grouping: true,
                prob_grouping_permille: Some(250),
                ..Default::default()
            },
        ),
        (
            "no-grouping",
            Mods {
                grouping_off: true,
                ..Default::default()
            },
        ),
    ] {
        for t in [8usize, 32, 64] {
            let r = run_hashmap_mods(
                Platform::t2(),
                Variant::StaticSl(24),
                mods,
                t,
                &w,
                ops_per_lane(total, t),
                200,
                opts.seed ^ 0xD0,
            );
            let fails: u64 = r
                .report
                .as_ref()
                .map(|rep| {
                    rep.locks
                        .iter()
                        .flat_map(|l| &l.granules)
                        .map(|g| g.swopt_fails)
                        .sum()
                })
                .unwrap_or(0);
            let per_op = fails as f64 / r.total_ops as f64;
            eprintln!(
                "  ablate-group: {label} t={t}: {:.3} Mops/s, {per_op:.3} retries/op",
                r.mops
            );
            keep_prom(&mut prom, &r);
            rows.push(format!(
                "t2,{},{label},{},{:.4},{per_op:.4}",
                w.label(),
                t,
                r.mops
            ));
        }
    }
    Table {
        id: "ablate_group",
        title: "A2: SWOpt grouping mechanism on/off".into(),
        header: "platform,mix,grouping,threads,mops,swopt_retries_per_op".into(),
        rows,
        prom,
    }
}

/// Ablation A3: single `tblVer` vs per-bucket version numbers (§3.2's
/// untested suggestion).
pub fn ablate_buckets(opts: FigOpts) -> Table {
    let mut rows = Vec::new();
    let mut prom = None;
    let total = if opts.quick { 4_000 } else { 16_000 };
    for stripes in [1usize, 64] {
        let w = HashMapWorkload::mutate_heavy(2 * 1024).with_version_stripes(stripes);
        for t in [8usize, 32, 64] {
            let r = run_hashmap_mods(
                Platform::t2(),
                Variant::StaticSl(24),
                Mods::default(),
                t,
                &w,
                ops_per_lane(total, t),
                200,
                opts.seed ^ 0xE0,
            );
            eprintln!(
                "  ablate-buckets: stripes={stripes} t={t}: {:.3} Mops/s",
                r.mops
            );
            keep_prom(&mut prom, &r);
            rows.push(format!("t2,{},{stripes},{},{:.4}", w.label(), t, r.mops));
        }
    }
    Table {
        id: "ablate_buckets",
        title: "A3: global vs per-bucket version numbers".into(),
        header: "platform,mix,version_stripes,threads,mops".into(),
        rows,
        prom,
    }
}

/// Ablation A4: the adaptive X model vs a static X sweep (§4.2).
pub fn ablate_x(opts: FigOpts) -> Table {
    let w = HashMapWorkload::mutate_heavy(16 * 1024);
    let mut rows = Vec::new();
    let total = if opts.quick { 4_000 } else { 16_000 };
    let t = 8usize;
    for x in [1u32, 2, 4, 6, 8, 10] {
        let r = run_hashmap_mods(
            Platform::rock(),
            Variant::StaticHl(x),
            Mods::default(),
            t,
            &w,
            ops_per_lane(total, t),
            200,
            opts.seed ^ 0xF0,
        );
        eprintln!("  ablate-x: Static-HL-{x}: {:.3} Mops/s", r.mops);
        rows.push(format!(
            "rock,{},Static-HL-{x},{t},{:.4}",
            w.label(),
            r.mops
        ));
    }
    let r = run_hashmap_mods(
        Platform::rock(),
        Variant::AdaptiveHl,
        Mods::default(),
        t,
        &w,
        ops_per_lane(total, t),
        warmup_per_lane(opts, t),
        opts.seed ^ 0xF1,
    );
    let learned = r
        .report
        .as_ref()
        .and_then(|rep| rep.lock("tblLock").map(|l| l.policy.clone()))
        .unwrap_or_default();
    eprintln!("  ablate-x: Adaptive-HL: {:.3} Mops/s ({learned})", r.mops);
    rows.push(format!("rock,{},Adaptive-HL,{t},{:.4}", w.label(), r.mops));
    Table {
        id: "ablate_x",
        title: "A4: static X sweep vs the adaptive X model".into(),
        header: "platform,mix,variant,threads,mops".into(),
        rows,
        prom: r.report.as_ref().map(|rep| rep.to_prometheus()),
    }
}

/// Extension experiment: key skew. The paper stresses that "workload
/// characteristics" drive the choice of technique; Zipfian skew
/// concentrates conflicts on hot keys, hurting both elision flavours but
/// SWOpt (whose readers get invalidated by *any* hot-key mutation under a
/// shared version word) more than HTM (which only conflicts on actual
/// data overlap).
pub fn zipf(opts: FigOpts) -> Table {
    let mut rows = Vec::new();
    let mut prom = None;
    let total = if opts.quick { 4_000 } else { 16_000 };
    let t = 8usize;
    for theta in [None, Some(0.6), Some(0.9), Some(0.99)] {
        // Small key space so the hot ranks actually collide in flight.
        let mut w = HashMapWorkload::mutate_heavy(1024);
        if let Some(th) = theta {
            w = w.with_zipf(th);
        }
        let label = theta
            .map(|t| format!("zipf-{t}"))
            .unwrap_or_else(|| "uniform".into());
        for variant in [
            Variant::StaticHl(5),
            Variant::StaticSl(10),
            Variant::AdaptiveAll,
        ] {
            let r = run_hashmap_mods(
                Platform::haswell(),
                variant,
                Mods::default(),
                t,
                &w,
                ops_per_lane(total, t),
                warmup_per_lane(opts, t),
                opts.seed ^ 0x21,
            );
            let aborts: u64 = r
                .report
                .as_ref()
                .map(|rep| {
                    rep.locks
                        .iter()
                        .flat_map(|l| &l.granules)
                        .map(|g| g.conflict_aborts + g.swopt_fails)
                        .sum()
                })
                .unwrap_or(0);
            let per_kop = aborts as f64 * 1000.0 / r.total_ops as f64;
            eprintln!(
                "  zipf: {label} {}: {:.3} Mops/s, {per_kop:.1} conflicts/kop",
                r.variant, r.mops
            );
            keep_prom(&mut prom, &r);
            rows.push(format!(
                "haswell,{},{label},{},{:.4},{per_kop:.2}",
                w.label(),
                r.variant,
                r.mops
            ));
        }
    }
    Table {
        id: "zipf_skew",
        title: "Extension: key skew (Zipfian) vs technique choice".into(),
        header: "platform,mix,skew,variant,mops,conflict_events_per_kop".into(),
        rows,
        prom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_csvs() {
        let t = Table {
            id: "t",
            title: "demo".into(),
            header: "a,b".into(),
            rows: vec!["1,2".into(), "333,4".into()],
            prom: None,
        };
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n333,4\n");
        let r = t.render();
        assert!(r.contains("## t — demo"));
        assert!(r.contains("333"));
    }

    #[test]
    fn thread_grids_respect_platform_budget() {
        assert_eq!(threads_for(&Platform::haswell(), false), vec![1, 2, 4, 8]);
        assert_eq!(
            threads_for(&Platform::t2(), false),
            vec![1, 2, 4, 8, 16, 32, 64, 128]
        );
        let quick = threads_for(&Platform::t2(), true);
        assert!(quick.len() < 8);
        assert!(quick.contains(&1));
    }

    #[test]
    fn ops_split_has_floor() {
        assert_eq!(ops_per_lane(24_000, 8), 3_000);
        assert_eq!(ops_per_lane(1_000, 64), 200);
    }
}
