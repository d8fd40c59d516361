//! Wall-clock benchmark of the ALE stack on real OS threads.
//!
//! ```text
//! ale-wallbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                   [--quick] [--repeat N]
//! ale-wallbench manifest
//! ```
//!
//! `run` drives the named workload (all six without `--workload`) as a
//! closed loop from this one process, checks every oracle on every pass,
//! prints each metric by name with its unit, and ends with one JSON line
//! per workload and phase: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` prints the end-to-end metrics (tracing off), `--trace 1`
//! (or `--traced`) the per-layer metrics from a separate traced run;
//! without either, both phases run. Exit status is non-zero on any oracle
//! violation, and under `--repeat` when two sets disagree by more than a
//! metric's bound. See README.md beside this crate.

mod cells;
mod gen;
mod layers;
mod probes;
mod run;
mod span;
mod spec;
mod stats;

use std::process::ExitCode;

use run::{Opts, Outcome, Scale};
use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    EndToEnd,
    Layers,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    phases: Vec<Phase>,
    quick: bool,
    repeat: usize,
}

fn usage() -> String {
    format!(
        "usage: ale-wallbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--repeat N]\n       ale-wallbench manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    )
}

fn parse_run_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        phases: vec![Phase::EndToEnd, Phase::Layers],
        quick: false,
        repeat: 1,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?;
                parsed.workloads = vec![w.name];
            }
            "--seed" => {
                parsed.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.phases = match value("0 or 1")?.as_str() {
                    "0" => vec![Phase::EndToEnd],
                    "1" => vec![Phase::Layers],
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.phases = vec![Phase::Layers],
            "--quick" => parsed.quick = true,
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, phase: Phase, opts: &Opts) -> Outcome {
    macro_rules! go {
        ($cell:expr) => {
            match phase {
                Phase::EndToEnd => run::run_end_to_end(&$cell, opts),
                Phase::Layers => layers::run_layers(name, &$cell, opts),
            }
        };
    }
    match name {
        "cs_empty_1t" => go!(cells::cs_empty()),
        "map_read_2t" => go!(cells::map_read()),
        "map_mutate_zipf_2t" => go!(cells::map_mutate_zipf()),
        "shard8_mutate_zipf_2t" => go!(cells::shard8_mutate_zipf()),
        "kyoto_wicked_2t" => go!(cells::kyoto_wicked()),
        "kyoto_durable_2t" => go!(cells::kyoto_durable()),
        other => unreachable!("workload {other:?} passed argument checking"),
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| &e.metric)
        .chain(PER_LAYER.iter())
        .find(|m| m.name == metric)
        .map_or("", |m| m.unit)
}

/// The contract's result line. Values print with every digit `f64` holds.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Four decimals, or scientific notation for values too small to show in
/// them (a 0.3 us `setup_s`).
fn shown(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn print_outcome(workload: &str, phase: Phase, o: &Outcome) {
    println!(
        "== {workload} ({}) ==",
        match phase {
            Phase::EndToEnd => "end to end, tracing off",
            Phase::Layers => "per layer, traced run",
        }
    );
    for note in &o.notes {
        println!("  # {note}");
    }
    for (name, v) in &o.metrics {
        println!("  {name:<34} {:>16} {}", shown(*v), unit_of(name));
    }
    for v in &o.violations {
        println!("  VIOLATION: {v}");
    }
    println!("{}", result_json(o));
}

/// Relative gap of `b` against `a` in the metric's bad direction
/// (positive = `b` is worse).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// One workload-and-phase report of a set, read back from its result line.
#[derive(Debug, PartialEq)]
struct Reported {
    workload: String,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Read back what [`print_outcome`] printed: each `== workload (..) ==`
/// header names the workload of the result line that follows it.
fn parse_report(stdout: &str) -> Vec<Reported> {
    let mut reports = Vec::new();
    let mut workload = "";
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            workload = header.split(' ').next().unwrap_or("");
        }
        let Some((head, mut rest)) = line.split_once("\"metrics\": {") else {
            continue;
        };
        let mut metrics = Vec::new();
        while let Some((name, tail)) = rest
            .strip_prefix('"')
            .and_then(|r| r.split_once("\": {\"value\": "))
        {
            let Some((number, tail)) = tail.split_once(", \"unit\": ") else {
                break;
            };
            metrics.push((name.to_string(), number.parse().unwrap_or(f64::NAN)));
            rest = tail.split_once("}, ").map_or("", |t| t.1);
        }
        reports.push(Reported {
            workload: workload.to_string(),
            correct: head.starts_with("{\"correct\": true"),
            metrics,
        });
    }
    reports
}

/// Compare two sets metric by metric; returns whether every bounded
/// metric agrees within its bound in both directions and the simulator's
/// prediction is bit-identical.
fn compare_sets(a: &[Reported], b: &[Reported]) -> bool {
    let mut ok = a.len() == b.len();
    println!("== repeat: set A vs set B, same commit, same host, one process each ==");
    for (ra, rb) in a.iter().zip(b) {
        let workload = &ra.workload;
        for ((name, va), (_, vb)) in ra.metrics.iter().zip(&rb.metrics) {
            let (va, vb) = (*va, *vb);
            let bounded = END_TO_END.iter().find(|e| e.metric.name == name);
            let gap = match bounded {
                Some(e) => {
                    worsening(e.metric.better, va, vb).max(worsening(e.metric.better, vb, va))
                }
                None if va == vb => 0.0,
                None => (vb - va).abs() / va.abs().max(vb.abs()),
            };
            let verdict = match bounded {
                Some(e) if gap > e.bound => {
                    ok = false;
                    format!("bound {:.0}%  EXCEEDED", e.bound * 100.0)
                }
                Some(e) => format!("bound {:.0}%  ok", e.bound * 100.0),
                None if name == "vtime.pred_mops" && va.to_bits() != vb.to_bits() => {
                    ok = false;
                    "NOT BIT-IDENTICAL".into()
                }
                None => "no bound".into(),
            };
            println!(
                "  {workload:<22} {name:<34} {:>14} {:>14}  gap {:>6.2}%  {verdict}",
                shown(va),
                shown(vb),
                gap * 100.0
            );
        }
    }
    ok
}

/// `--repeat N`: run the same command N times, each set in a process of its
/// own (as the driver does: a set that inherits a warmed heap builds
/// faster, and `setup_s` would flatter it), then compare the last two.
fn repeat_in_children(repeat: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let at = args
        .iter()
        .position(|a| a == "--repeat")
        .expect("only called when --repeat was parsed");
    args.drain(at..at + 2);
    let mut sets = Vec::new();
    for set in 0..repeat {
        println!("== repeat: set {} of {repeat} ==", set + 1);
        let child = std::process::Command::new(&exe)
            .args(&args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let reports = parse_report(&stdout);
        if !child.status.success() || reports.iter().any(|r| !r.correct) {
            eprintln!("ale-wallbench: set {} failed ({})", set + 1, child.status);
            return ExitCode::from(1);
        }
        sets.push(reports);
    }
    match &sets[..] {
        [.., a, b] if !compare_sets(a, b) => {
            eprintln!("ale-wallbench: two sets of the same commit disagree beyond a bound");
            ExitCode::from(3)
        }
        _ => ExitCode::SUCCESS,
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let args = match argv.next().as_deref() {
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("run") => match parse_run_args(argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let opts = Opts {
        seed: args.seed,
        scale: if args.quick {
            Scale::quick()
        } else {
            Scale::full(args.seconds)
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    if args.repeat > 1 {
        return repeat_in_children(args.repeat);
    }

    let mut correct = true;
    for &phase in &args.phases {
        for &workload in &args.workloads {
            let o = run_workload(workload, phase, &opts);
            print_outcome(workload, phase, &o);
            correct &= o.correct();
        }
    }
    if !correct {
        eprintln!("ale-wallbench: an oracle was violated");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{stream_hash, stream_rng};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_run_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "map_read_2t",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["map_read_2t"]);
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        assert_eq!(a.phases, [Phase::Layers]);
        assert_eq!(args(&["--trace", "0"]).unwrap().phases, [Phase::EndToEnd]);
        assert_eq!(args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// Streams are a function of (seed, stream, pass, thread) alone.
    #[test]
    fn same_seed_same_ops_and_a_new_seed_new_ops() {
        let cells = [
            (cells::map_read().mix, cells::map_read().stream),
            (
                cells::map_mutate_zipf().mix,
                cells::map_mutate_zipf().stream,
            ),
            (cells::kyoto_wicked().mix, 3),
        ];
        for (mix, stream) in &cells {
            let mut seen = std::collections::HashSet::new();
            for pass in 0..3 {
                for thread in 0..2 {
                    let hash =
                        |seed| stream_hash(mix, stream_rng(seed, *stream, pass, thread), 2_000);
                    assert_eq!(hash(42), hash(42));
                    assert_ne!(hash(42), hash(43));
                    assert!(
                        seen.insert(hash(42)),
                        "two (pass, thread) pairs share a stream"
                    );
                }
            }
        }
        // The paired workloads really do consume identical traffic.
        let (single, sharded) = (cells::map_mutate_zipf(), cells::shard8_mutate_zipf());
        assert_eq!(
            stream_hash(&single.mix, stream_rng(42, single.stream, 1, 0), 2_000),
            stream_hash(&sharded.mix, stream_rng(42, sharded.stream, 1, 0), 2_000)
        );
    }

    /// Every workload, both phases, at a tiny scale: the oracles pass and
    /// each phase reports exactly the metrics BENCHMARK.json names, in
    /// order. One test on purpose: the library's trace gate and stat-sink
    /// override are process-wide.
    #[test]
    fn every_workload_reports_exactly_the_named_metrics() {
        let opts = Opts {
            seed: 42,
            scale: Scale {
                ops_div: 2_000,
                ..Scale::quick()
            },
            nproc: 2,
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|e| e.metric.name).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for w in WORKLOADS {
            for (phase, want) in [(Phase::EndToEnd, &e2e), (Phase::Layers, &layer)] {
                let o = run_workload(w.name, phase, &opts);
                assert!(o.correct(), "{} {phase:?}: {:?}", w.name, o.violations);
                assert!(o.attempted >= 1 && o.failed == 0);
                let got: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
                assert_eq!(&got, want, "{} {phase:?}", w.name);
                assert!(
                    o.metrics.iter().all(|m| m.1.is_finite()),
                    "{} {phase:?}: {:?}",
                    w.name,
                    o.metrics
                );
                let json = result_json(&o);
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                for name in want {
                    assert!(
                        json.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_printed_report_reads_back_exactly() {
        let o = Outcome {
            attempted: 10,
            metrics: vec![("throughput_mops", 3.7168412345678), ("setup_s", 1.789e-6)],
            ..Outcome::default()
        };
        let text = format!(
            "== map_read_2t (end to end, tracing off) ==\n  # a note\n{}\n",
            result_json(&o)
        );
        let want = Reported {
            workload: "map_read_2t".into(),
            correct: true,
            metrics: vec![
                ("throughput_mops".into(), 3.7168412345678),
                ("setup_s".into(), 1.789e-6),
            ],
        };
        assert_eq!(parse_report(&text), [want]);
        let bad = Outcome {
            failed: 1,
            ..o.clone()
        };
        assert!(!parse_report(&result_json(&bad))[0].correct);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }
}
