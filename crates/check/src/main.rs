//! `ale-check` — CLI for the dynamic checking harness.
//!
//! ```text
//! ale-check [--seeds N] [--strategy S] [--workload W] [--threads N]
//!           [--ops N] [--platform P] [--chaos NS] [--window NS]
//!           [--permille N] [--reorder NS] [--ttl NS]
//!           [--fault point:kind:every[:max_hits]]
//!           [--seed-base N] [--out DIR]
//! ale-check --replay FILE
//! ale-check selftest [--seeds N] [--out DIR]
//! ```
//!
//! The default mode sweeps seeds: each iteration runs every selected
//! workload under a fresh scheduler seed and checks all oracles. The first
//! violation is shrunk (see `minimize`) and written as a replay file; the
//! exit code is 1. A clean sweep prints a deterministic digest — re-running
//! the same command line must print the same digest, bit for bit.
//!
//! `selftest` proves the harness catches bugs: built with
//! `--features selftest-mutations` it re-introduces every bug of
//! `ale_check::MUTATIONS` in turn and each must trip its own oracle within
//! the seed budget (exit 1 if any escapes); built without, it must find
//! nothing.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[cfg(feature = "selftest-mutations")]
use ale_check::MUTATIONS;
use ale_check::{minimize, replay, run_once, CheckConfig, Fnv, Lane, StrategyKind, Workload};
use ale_vtime::PlatformKind;

struct Args {
    selftest: bool,
    replay_file: Option<PathBuf>,
    seeds: u64,
    seed_base: u64,
    strategies: Vec<StrategyKind>,
    workloads: Vec<Workload>,
    out_dir: PathBuf,
    base: CheckConfig,
}

fn usage() -> &'static str {
    "usage: ale-check [selftest] [--seeds N] [--strategy S|all] [--workload W|all|scenarios]\n\
     \t[--threads N] [--ops N] [--platform P] [--chaos NS] [--window NS]\n\
     \t[--permille N] [--reorder NS] [--ttl NS] [--zipf S] [--shards N]\n\
     \t[--fault point:kind:every[:max_hits]] [--seed-base N]\n\
     \t[--crash point[:after]] [--torn truncate|flip]\n\
     \t[--trace] [--out DIR] [--replay FILE]\n\
     strategies: lowest-clock random-walk preempt most-conflicting reorder\n\
     workloads:  hashmap kyoto bank snzi panic ttl queue transfer registry nested durable shard\n\
     \t(`scenarios` = the real-world pack: ttl queue transfer registry nested)\n\
     platforms:  testbed haswell rock t2\n\
     crash pts:  wal-append pre-commit post-commit mid-record (durable workload)\n\
     shard map:  --zipf S = Zipfian read skew theta (e.g. 1.1; 0 = uniform),\n\
     \t--shards N = shard count (power of two)"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        selftest: false,
        replay_file: None,
        seeds: 100,
        seed_base: 0,
        strategies: vec![StrategyKind::RandomWalk],
        workloads: Workload::ALL.to_vec(),
        out_dir: PathBuf::from("target/ale-check"),
        base: CheckConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "selftest" => args.selftest = true,
            "--replay" => args.replay_file = Some(PathBuf::from(value("--replay")?)),
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "bad --seeds".to_string())?
            }
            "--seed-base" => {
                args.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|_| "bad --seed-base".to_string())?
            }
            "--strategy" => {
                let v = value("--strategy")?;
                args.strategies = if v == "all" {
                    StrategyKind::ALL.to_vec()
                } else {
                    vec![StrategyKind::parse(&v).ok_or(format!("unknown strategy `{v}`"))?]
                };
            }
            "--workload" => {
                let v = value("--workload")?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else if v == "scenarios" {
                    Workload::SCENARIOS.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--threads" => {
                args.base.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?;
                if args.base.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--ops" => {
                args.base.ops = value("--ops")?
                    .parse()
                    .map_err(|_| "bad --ops".to_string())?
            }
            "--platform" => {
                let v = value("--platform")?;
                args.base.platform =
                    PlatformKind::parse(&v).ok_or(format!("unknown platform `{v}`"))?;
            }
            "--chaos" => {
                args.base.chaos_ns = value("--chaos")?
                    .parse()
                    .map_err(|_| "bad --chaos".to_string())?
            }
            "--window" => {
                args.base.window_ns = value("--window")?
                    .parse()
                    .map_err(|_| "bad --window".to_string())?
            }
            "--permille" => {
                args.base.permille = value("--permille")?
                    .parse()
                    .map_err(|_| "bad --permille".to_string())?
            }
            "--reorder" => {
                args.base.reorder_ns = value("--reorder")?
                    .parse()
                    .map_err(|_| "bad --reorder".to_string())?
            }
            "--ttl" => {
                args.base.ttl_ns = value("--ttl")?
                    .parse()
                    .map_err(|_| "bad --ttl".to_string())?;
                if args.base.ttl_ns == 0 {
                    return Err("--ttl must be >= 1".into());
                }
            }
            "--zipf" => {
                let theta: f64 = value("--zipf")?
                    .parse()
                    .map_err(|_| "bad --zipf".to_string())?;
                if !theta.is_finite() || theta < 0.0 {
                    return Err("--zipf must be a finite theta >= 0".into());
                }
                // Stored in milli-theta so replay files round-trip exactly.
                args.base.zipf_milli = (theta * 1000.0).round() as u64;
            }
            "--shards" => {
                args.base.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "bad --shards".to_string())?;
                if args.base.shards == 0 {
                    return Err("--shards must be >= 1".into());
                }
            }
            "--fault" => args.base.fault = Some(replay::parse_fault(&value("--fault")?)?),
            "--crash" => args.base.crash = Some(replay::parse_crash(&value("--crash")?)?),
            "--torn" => args.base.torn = Some(replay::parse_torn(&value("--torn")?)?),
            "--trace" => args.base.trace = true,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.base.torn.is_some() && args.base.crash.is_none() {
        return Err(format!("--torn requires --crash\n{}", usage()));
    }
    Ok(args)
}

/// Shrink a failing config, write the replay file, print the repro recipe.
/// For a self-test `lane` the shrink keeps the lane's own oracle firing,
/// and the file is named after the lane and records it.
fn report_failure(
    cfg: &CheckConfig,
    outcome: &ale_check::RunOutcome,
    out_dir: &Path,
    lane: Option<&Lane>,
) -> PathBuf {
    eprintln!(
        "FAIL {} strategy={} seed={}: {} violation(s)",
        cfg.workload.name(),
        cfg.strategy.name(),
        cfg.seed,
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("  - {v}");
    }
    let still_fails = |o: &ale_check::RunOutcome| lane.map_or(o.failed(), |l| l.detected_by(o));
    let (final_cfg, note) = match minimize::minimize(cfg, outcome, still_fails) {
        Some(min) => {
            eprintln!(
                "minimised in {} runs: perturb_limit {} -> {}{}{}{}",
                min.runs,
                outcome.decisions,
                min.config.perturb_limit,
                if cfg.reorder_ns > 0 {
                    format!(", reorder window -> {}ns", min.config.reorder_ns)
                } else {
                    String::new()
                },
                if cfg.workload == Workload::Shard && cfg.zipf_milli > 0 {
                    format!(", zipf -> {}m", min.config.zipf_milli)
                } else {
                    String::new()
                },
                min.config
                    .fault
                    .map(|f| format!(", fault budget -> {}", f.max_hits))
                    .unwrap_or_default()
            );
            if let Some(crash) = min.config.crash {
                eprintln!("  crash point -> {}", replay::crash_string(&crash));
            }
            (min.config, "minimised")
        }
        None => {
            eprintln!("warning: shrinking could not re-reproduce; writing the original schedule");
            (cfg.clone(), "unminimised")
        }
    };
    std::fs::create_dir_all(out_dir).ok();
    let path = out_dir.join(format!(
        "{}-{}-{}-seed{}.replay",
        lane.map_or("fail", |l| l.name),
        final_cfg.workload.name(),
        final_cfg.strategy.name(),
        final_cfg.seed
    ));
    let mut text = replay::write(&final_cfg);
    if let Some(lane) = lane {
        text.push_str(&format!(
            "# self-test lane: fails only in a --features selftest-mutations build\nmutation={}\n",
            lane.name
        ));
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!(
            "{} replay written: {}\nreproduce with: cargo run -p ale-check {}-- --replay {}",
            note,
            path.display(),
            if lane.is_some() {
                "--features selftest-mutations "
            } else {
                ""
            },
            path.display()
        ),
        Err(e) => eprintln!("could not write replay file {}: {e}", path.display()),
    }
    path
}

fn run_replay(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match replay::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    // A self-test lane's schedule only fails with the lane's bug switched on.
    #[cfg(feature = "selftest-mutations")]
    let _active = replay::lane(&text).map(Lane::activate);
    #[cfg(not(feature = "selftest-mutations"))]
    if let Some(lane) = replay::lane(&text) {
        eprintln!(
            "{} replays the `{}` self-test lane: rebuild with --features selftest-mutations",
            path.display(),
            lane.name
        );
        return ExitCode::from(2);
    }
    let outcome = run_once(&cfg);
    println!(
        "replay {} strategy={} seed={} sched_seed={}: digest {:016x}, {} decision(s), {} injected fault(s)",
        cfg.workload.name(),
        cfg.strategy.name(),
        cfg.seed,
        cfg.sched_seed,
        outcome.digest,
        outcome.decisions,
        outcome.injected
    );
    if cfg.crash.is_some() {
        println!(
            "crash: {}",
            if outcome.crashed {
                "fired (recovery verified by the durability oracle)"
            } else {
                "planned but did not fire"
            }
        );
    }
    if let Some(t) = &outcome.trace {
        println!(
            "trace: {} event(s), {} dropped, stream digest {:016x}",
            t.events.len(),
            t.dropped,
            t.digest()
        );
        print!("{}", ale_trace::scenario_mode_mix(&t.events));
        if cfg.workload == Workload::Shard {
            print!("{}", ale_trace::shard_mode_mix(&t.events));
        }
    }
    if outcome.failed() {
        println!("{} violation(s):", outcome.violations.len());
        for v in &outcome.violations {
            println!("  - {v}");
        }
        ExitCode::from(1)
    } else {
        println!("clean (no oracle violation under this schedule)");
        ExitCode::SUCCESS
    }
}

fn run_sweep(args: &Args) -> ExitCode {
    let mut digest = Fnv::new();
    let mut runs = 0u64;
    for seed in args.seed_base..args.seed_base + args.seeds {
        for &workload in &args.workloads {
            for &strategy in &args.strategies {
                let cfg = args.base.for_schedule(workload, strategy, seed);
                let outcome = run_once(&cfg);
                runs += 1;
                digest.write_u64(outcome.digest);
                if outcome.failed() {
                    report_failure(&cfg, &outcome, &args.out_dir, None);
                    return ExitCode::from(1);
                }
            }
        }
    }
    println!(
        "clean: {} schedule(s) across {} workload(s) x {} strategy(ies), digest {:016x}",
        runs,
        args.workloads.len(),
        args.strategies.len(),
        digest.finish()
    );
    ExitCode::SUCCESS
}

/// Without the self-test feature there is no mutation to hunt: a modest
/// sweep must stay clean.
#[cfg(not(feature = "selftest-mutations"))]
fn run_selftest(args: &Args) -> ExitCode {
    eprintln!("selftest (built without selftest-mutations): expecting a clean sweep");
    let clean = Args {
        selftest: false,
        replay_file: None,
        seeds: args.seeds.min(25),
        seed_base: args.seed_base,
        strategies: vec![StrategyKind::RandomWalk, StrategyKind::MostConflicting],
        workloads: Workload::ALL.to_vec(),
        out_dir: args.out_dir.clone(),
        base: args.base.clone(),
    };
    run_sweep(&clean)
}

/// Walk [`MUTATIONS`] in this one process: switch each bug on, hunt it,
/// require its own oracle to fire within the seed budget, minimise and
/// write the replay, switch it off again. Exit 1 if any lane escapes.
#[cfg(feature = "selftest-mutations")]
fn run_selftest(args: &Args) -> ExitCode {
    let mut escaped = Vec::new();
    for lane in &MUTATIONS {
        eprintln!(
            "selftest: hunting `{}` on the {} workload (budget {} seeds x {} strategies)",
            lane.name,
            lane.workload.name(),
            args.seeds,
            StrategyKind::ALL.len()
        );
        let _active = lane.activate();
        let hunt = lane.hunt(&args.base, args.seed_base..args.seed_base + args.seeds);
        let Some((cfg, outcome)) = &hunt.found else {
            eprintln!(
                "selftest FAILED: `{}` escaped {} schedule(s): no `{}` violation ({})",
                lane.name,
                hunt.schedules,
                lane.oracle,
                hunt.stray
                    .map_or("nothing fired at all".into(), |v| format!("only: {v}"))
            );
            escaped.push(lane.name);
            continue;
        };
        eprintln!(
            "selftest: `{}` detected by `{}` after {} schedule(s)",
            lane.name, lane.oracle, hunt.schedules
        );
        report_failure(cfg, outcome, &args.out_dir, Some(lane));
    }
    if escaped.is_empty() {
        eprintln!("selftest: all {} mutations detected", MUTATIONS.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("selftest FAILED: escaped: {}", escaped.join(" "));
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay_file {
        return run_replay(path);
    }
    if args.selftest {
        return run_selftest(&args);
    }
    run_sweep(&args)
}
