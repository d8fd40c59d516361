//! The replay file format: one failing schedule, reproducible with
//! `ale-check --replay FILE`.
//!
//! Plain `key=value` lines (one per field), `#` comments, order-free.
//! Every field of [`CheckConfig`] round-trips, so a file written by the
//! minimiser re-runs the exact minimised schedule — same seeds, same
//! strategy parameters, same fault plan — and produces the same violations
//! bit for bit.
//!
//! A replay written by a `selftest` lane also carries `mutation=<lane>`
//! ([`lane`]): its schedule fails only with that lane's bug switched on,
//! which takes a `selftest-mutations` build.

use ale_htm::{CrashPoint, InjectKind, InjectPoint, TornMode};
use ale_vtime::PlatformKind;

use crate::{CheckConfig, CrashSpec, FaultSpec, Lane, StrategyKind, Workload};

fn point_name(p: InjectPoint) -> &'static str {
    match p {
        InjectPoint::Begin => "begin",
        InjectPoint::Read => "read",
        InjectPoint::Write => "write",
        InjectPoint::Commit => "commit",
    }
}

fn parse_point(s: &str) -> Option<InjectPoint> {
    match s {
        "begin" => Some(InjectPoint::Begin),
        "read" => Some(InjectPoint::Read),
        "write" => Some(InjectPoint::Write),
        "commit" => Some(InjectPoint::Commit),
        _ => None,
    }
}

fn kind_name(k: InjectKind) -> &'static str {
    match k {
        InjectKind::Conflict => "conflict",
        InjectKind::Capacity => "capacity",
        InjectKind::Spurious => "spurious",
        InjectKind::LockHeld => "lock-held",
        InjectKind::Panic => "panic",
    }
}

fn parse_kind(s: &str) -> Option<InjectKind> {
    match s {
        "conflict" => Some(InjectKind::Conflict),
        "capacity" => Some(InjectKind::Capacity),
        "spurious" => Some(InjectKind::Spurious),
        "lock-held" => Some(InjectKind::LockHeld),
        "panic" => Some(InjectKind::Panic),
        _ => None,
    }
}

fn crash_point_name(p: CrashPoint) -> &'static str {
    match p {
        CrashPoint::WalAppend => "wal-append",
        CrashPoint::PreCommit => "pre-commit",
        CrashPoint::PostCommit => "post-commit",
        CrashPoint::MidRecord => "mid-record",
    }
}

fn parse_crash_point(s: &str) -> Option<CrashPoint> {
    match s {
        "wal-append" => Some(CrashPoint::WalAppend),
        "pre-commit" => Some(CrashPoint::PreCommit),
        "post-commit" => Some(CrashPoint::PostCommit),
        "mid-record" => Some(CrashPoint::MidRecord),
        _ => None,
    }
}

/// Render a torn-write mode in the replay/CLI syntax.
pub fn torn_name(t: TornMode) -> &'static str {
    match t {
        TornMode::Truncate => "truncate",
        TornMode::Flip => "flip",
    }
}

/// Parse a CLI/replay torn-write mode: `truncate` or `flip`.
pub fn parse_torn(s: &str) -> Result<TornMode, String> {
    match s {
        "truncate" => Ok(TornMode::Truncate),
        "flip" => Ok(TornMode::Flip),
        _ => Err(format!("unknown torn mode `{s}` (truncate|flip)")),
    }
}

/// Parse a CLI/replay crash spec: `point[:after]` (`after` defaults to 1).
pub fn parse_crash(s: &str) -> Result<CrashSpec, String> {
    let (point_str, after) = match s.split_once(':') {
        Some((p, a)) => (
            p,
            a.parse()
                .map_err(|_| format!("bad crash consult index `{a}`"))?,
        ),
        None => (s, 1),
    };
    let point = parse_crash_point(point_str).ok_or_else(|| {
        format!("unknown crash point `{point_str}` (wal-append|pre-commit|post-commit|mid-record)")
    })?;
    if after == 0 {
        return Err("crash consult index must be >= 1 (0 never fires)".into());
    }
    Ok(CrashSpec { point, after })
}

/// Render a crash spec in the replay/CLI syntax.
pub fn crash_string(c: &CrashSpec) -> String {
    format!("{}:{}", crash_point_name(c.point), c.after)
}

/// Parse a CLI/replay fault spec: `point:kind:every[:max_hits]`.
pub fn parse_fault(s: &str) -> Result<FaultSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 && parts.len() != 4 {
        return Err(format!(
            "fault spec `{s}` is not point:kind:every[:max_hits]"
        ));
    }
    let point =
        parse_point(parts[0]).ok_or_else(|| format!("unknown fault point `{}`", parts[0]))?;
    let kind = parse_kind(parts[1]).ok_or_else(|| format!("unknown fault kind `{}`", parts[1]))?;
    let every: u64 = parts[2]
        .parse()
        .map_err(|_| format!("bad fault period `{}`", parts[2]))?;
    let max_hits: u64 = match parts.get(3) {
        Some(v) => v.parse().map_err(|_| format!("bad fault budget `{v}`"))?,
        None => u64::MAX,
    };
    Ok(FaultSpec {
        point,
        kind,
        every,
        max_hits,
    })
}

/// Render a fault spec in the replay/CLI syntax.
pub fn fault_string(f: &FaultSpec) -> String {
    format!(
        "{}:{}:{}:{}",
        point_name(f.point),
        kind_name(f.kind),
        f.every,
        f.max_hits
    )
}

/// Serialise a config as a replay file.
pub fn write(cfg: &CheckConfig) -> String {
    let mut out = String::new();
    out.push_str("# ale-check replay file — reproduce with:\n");
    out.push_str("#   cargo run -p ale-check -- --replay <this file>\n");
    out.push_str(&format!("workload={}\n", cfg.workload.name()));
    out.push_str(&format!("platform={}\n", cfg.platform.name()));
    out.push_str(&format!("threads={}\n", cfg.threads));
    out.push_str(&format!("ops={}\n", cfg.ops));
    out.push_str(&format!("seed={}\n", cfg.seed));
    out.push_str(&format!("sched_seed={}\n", cfg.sched_seed));
    out.push_str(&format!("strategy={}\n", cfg.strategy.name()));
    out.push_str(&format!("window_ns={}\n", cfg.window_ns));
    out.push_str(&format!("permille={}\n", cfg.permille));
    out.push_str(&format!("perturb_limit={}\n", cfg.perturb_limit));
    out.push_str(&format!("chaos_ns={}\n", cfg.chaos_ns));
    out.push_str(&format!("reorder_ns={}\n", cfg.reorder_ns));
    out.push_str(&format!("ttl_ns={}\n", cfg.ttl_ns));
    out.push_str(&format!("zipf_milli={}\n", cfg.zipf_milli));
    out.push_str(&format!("shards={}\n", cfg.shards));
    if let Some(fault) = &cfg.fault {
        out.push_str(&format!("fault={}\n", fault_string(fault)));
    }
    if cfg.trace {
        out.push_str("trace=true\n");
    }
    if let Some(crash) = &cfg.crash {
        out.push_str(&format!("crash={}\n", crash_string(crash)));
    }
    if let Some(torn) = cfg.torn {
        out.push_str(&format!("torn={}\n", torn_name(torn)));
    }
    out
}

/// Parse a replay file back into a config.
pub fn parse(text: &str) -> Result<CheckConfig, String> {
    let mut cfg = CheckConfig::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: not key=value: `{line}`", lineno + 1))?;
        let bad = |what: &str| format!("line {}: bad {what} `{value}`", lineno + 1);
        match key {
            "workload" => {
                cfg.workload = Workload::parse(value).ok_or_else(|| bad("workload"))?;
            }
            "platform" => {
                cfg.platform = PlatformKind::parse(value).ok_or_else(|| bad("platform"))?;
            }
            "threads" => cfg.threads = value.parse().map_err(|_| bad("threads"))?,
            "ops" => cfg.ops = value.parse().map_err(|_| bad("ops"))?,
            "seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
            "sched_seed" => cfg.sched_seed = value.parse().map_err(|_| bad("sched_seed"))?,
            "strategy" => {
                cfg.strategy = StrategyKind::parse(value).ok_or_else(|| bad("strategy"))?;
            }
            "window_ns" => cfg.window_ns = value.parse().map_err(|_| bad("window_ns"))?,
            "permille" => cfg.permille = value.parse().map_err(|_| bad("permille"))?,
            "perturb_limit" => {
                cfg.perturb_limit = value.parse().map_err(|_| bad("perturb_limit"))?;
            }
            "chaos_ns" => cfg.chaos_ns = value.parse().map_err(|_| bad("chaos_ns"))?,
            "reorder_ns" => cfg.reorder_ns = value.parse().map_err(|_| bad("reorder_ns"))?,
            "ttl_ns" => cfg.ttl_ns = value.parse().map_err(|_| bad("ttl_ns"))?,
            "zipf_milli" => cfg.zipf_milli = value.parse().map_err(|_| bad("zipf_milli"))?,
            "shards" => cfg.shards = value.parse().map_err(|_| bad("shards"))?,
            "fault" => cfg.fault = Some(parse_fault(value)?),
            "trace" => cfg.trace = value.parse().map_err(|_| bad("trace"))?,
            "crash" => cfg.crash = Some(parse_crash(value)?),
            "torn" => cfg.torn = Some(parse_torn(value)?),
            // Not part of the config: see `lane`.
            "mutation" => {
                Lane::by_name(value).ok_or_else(|| bad("mutation"))?;
            }
            _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
        }
    }
    if cfg.threads == 0 {
        return Err("threads must be >= 1".into());
    }
    if cfg.shards == 0 {
        return Err("shards must be >= 1".into());
    }
    if cfg.torn.is_some() && cfg.crash.is_none() {
        return Err("torn= requires crash=".into());
    }
    Ok(cfg)
}

/// The self-test lane a replay file was written by (its `mutation=` line),
/// if any.
pub fn lane(text: &str) -> Option<&'static Lane> {
    text.lines()
        .find_map(|l| l.trim().strip_prefix("mutation="))
        .and_then(Lane::by_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field() {
        let cfg = CheckConfig {
            workload: Workload::Bank,
            platform: PlatformKind::Haswell,
            threads: 6,
            ops: 123,
            seed: 42,
            sched_seed: 977,
            strategy: StrategyKind::MostConflicting,
            window_ns: 250,
            permille: 75,
            perturb_limit: 12_345,
            chaos_ns: 60,
            reorder_ns: 350,
            ttl_ns: 640,
            zipf_milli: 990,
            shards: 8,
            fault: Some(FaultSpec {
                point: InjectPoint::Commit,
                kind: InjectKind::LockHeld,
                every: 7,
                max_hits: 3,
            }),
            trace: true,
            crash: Some(CrashSpec {
                point: CrashPoint::MidRecord,
                after: 17,
            }),
            torn: Some(TornMode::Flip),
        };
        let text = write(&cfg);
        let parsed = parse(&text).expect("replay text must parse");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn new_knobs_round_trip_byte_identical() {
        // The scenario-pack knobs (workload name, reorder window, TTL
        // params) must survive parse → re-serialize with no drift: the
        // second rendering is byte-identical to the first.
        for workload in [
            Workload::Ttl,
            Workload::Queue,
            Workload::Transfer,
            Workload::Registry,
            Workload::Nested,
        ] {
            let cfg = CheckConfig {
                workload,
                strategy: StrategyKind::Reorder,
                reorder_ns: 400,
                ttl_ns: 256,
                ..CheckConfig::default()
            };
            let text = write(&cfg);
            let parsed = parse(&text).expect("replay text must parse");
            assert_eq!(parsed, cfg);
            assert_eq!(write(&parsed), text, "re-serialization drifted");
        }
    }

    #[test]
    fn crash_knobs_round_trip_byte_identical() {
        // Every crash point × torn mode must survive parse → re-serialize
        // with no drift, so a minimised crash replay reproduces the exact
        // same torn tail bytes.
        for point in [
            CrashPoint::WalAppend,
            CrashPoint::PreCommit,
            CrashPoint::PostCommit,
            CrashPoint::MidRecord,
        ] {
            for torn in [None, Some(TornMode::Truncate), Some(TornMode::Flip)] {
                let cfg = CheckConfig {
                    workload: Workload::Durable,
                    crash: Some(CrashSpec { point, after: 12 }),
                    torn,
                    ..CheckConfig::default()
                };
                let text = write(&cfg);
                let parsed = parse(&text).expect("replay text must parse");
                assert_eq!(parsed, cfg);
                assert_eq!(write(&parsed), text, "re-serialization drifted");
            }
        }
        // Bare point: `after` defaults to 1.
        assert_eq!(
            parse_crash("pre-commit").unwrap(),
            CrashSpec {
                point: CrashPoint::PreCommit,
                after: 1
            }
        );
    }

    #[test]
    fn parses_comments_and_defaults() {
        let cfg = parse("# comment\nworkload=snzi\nseed=9\n").unwrap();
        assert_eq!(cfg.workload, Workload::Snzi);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.fault, None);
        assert_eq!(cfg.threads, CheckConfig::default().threads);
    }

    #[test]
    fn selftest_lane_rides_along_without_touching_the_config() {
        let text = format!(
            "{}mutation=mut-skip-validate\n",
            write(&CheckConfig::default())
        );
        assert_eq!(parse(&text).unwrap(), CheckConfig::default());
        assert_eq!(lane(&text).map(|l| l.name), Some("mut-skip-validate"));
        assert!(lane(&write(&CheckConfig::default())).is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("workload=quantum\n").is_err());
        assert!(parse("nonsense\n").is_err());
        assert!(parse("bogus_key=1\n").is_err());
        assert!(parse("trace=maybe\n").is_err());
        assert!(parse_fault("begin:conflict").is_err());
        assert!(parse_fault("begin:conflict:x").is_err());
        assert!(parse_fault("begin:warp:3").is_err());
        assert!(parse_crash("reboot:1").is_err());
        assert!(parse_crash("wal-append:x").is_err());
        assert!(parse_crash("wal-append:0").is_err());
        assert!(parse_torn("rip").is_err());
        assert!(
            parse("workload=durable\ntorn=flip\n").is_err(),
            "torn without crash must be rejected"
        );
        assert!(parse("zipf_milli=heavy\n").is_err());
        assert!(parse("mutation=mut-nonsense\n").is_err());
        assert!(parse("shards=0\n").is_err(), "zero shards must be rejected");
    }

    #[test]
    fn shard_knobs_round_trip_byte_identical() {
        // The sharded-map knobs (`--zipf` stored in milli-theta, `--shards`)
        // must survive parse → re-serialize with no drift, including the
        // uniform (0) and supra-unit skews the Zipf sampler special-cases.
        for (zipf_milli, shards) in [(0u64, 1usize), (990, 4), (1100, 8), (1500, 32)] {
            let cfg = CheckConfig {
                workload: Workload::Shard,
                zipf_milli,
                shards,
                ..CheckConfig::default()
            };
            let text = write(&cfg);
            assert!(text.contains(&format!("zipf_milli={zipf_milli}\n")));
            assert!(text.contains(&format!("shards={shards}\n")));
            let parsed = parse(&text).expect("replay text must parse");
            assert_eq!(parsed, cfg);
            assert_eq!(write(&parsed), text, "re-serialization drifted");
        }
    }
}
