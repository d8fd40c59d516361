//! Exporters over a drained event stream: the deterministic merge order,
//! an FNV-1a digest (the ale-check oracle surface), a serde-less JSONL
//! dump, and the Prometheus-style text-format building blocks used by
//! `ale-core`'s report snapshot.

use crate::event::TraceEvent;
use crate::intern::label_name;

/// Sort `events` into the canonical merged order: `(vtime, lane, seq)`.
///
/// Under the virtual-time simulator this is a *total* order — each lane
/// owns one ring whose `seq` is monotone, and vtime ties across lanes are
/// broken by the lane id — so two same-seed runs produce byte-identical
/// merged streams (the determinism contract of DESIGN.md §11).
pub fn merge(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.vtime, e.lane, e.seq));
}

/// FNV-1a, the same parameters as ale-check's digest (kept local so the
/// trace crate stays at the bottom of the dependency stack).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Digest of a merged stream plus its drop count: folds every event's
/// canonical encoding, then the drop counter, so a skipped emit *or* a
/// silently shrunk ring both change the digest.
pub fn digest(events: &[TraceEvent], dropped: u64) -> u64 {
    let mut h = Fnv::new();
    for e in events {
        h.write(&e.encode());
    }
    h.write_u64(dropped);
    h.finish()
}

/// Escape `s` for inclusion in a JSON string literal (quotes, backslash,
/// control characters; everything else passes through as UTF-8).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render one event as a single JSON object (no trailing newline).
pub fn to_json(e: &TraceEvent) -> String {
    let kind = e.kind().map(|k| k.name()).unwrap_or("invalid").to_string();
    format!(
        "{{\"vt\":{},\"lane\":{},\"seq\":{},\"kind\":\"{}\",\"label\":\"{}\",\
         \"a\":{},\"b\":{},\"c\":{},\"payload\":{}}}",
        e.vtime,
        e.lane,
        e.seq,
        escape_json(&kind),
        escape_json(&label_name(e.label)),
        e.a,
        e.b,
        e.c,
        e.payload
    )
}

/// Render a merged stream as JSONL (one object per line, each terminated
/// with `\n`).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&to_json(e));
        out.push('\n');
    }
    out
}

/// Builder for the Prometheus text exposition format.
///
/// Guarantees NaN-free output: non-finite sample values are skipped (the
/// caller models "no data yet" by not emitting the sample at all — see
/// `GranuleReport::avg_success_ns`).
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

/// Escape a label *value* per the text exposition format.
fn escape_prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl PromWriter {
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Emit the `# HELP` / `# TYPE` preamble for a metric family.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emit one sample. Non-finite values are dropped (NaN-free contract).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !value.is_finite() {
            return;
        }
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out
                    .push_str(&format!("{k}=\"{}\"", escape_prom_label(v)));
            }
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// Label values of a mode-decision event's `a` word, in `ExecMode` index
/// order.
const MODE_NAMES: [&str; 3] = ["htm", "swopt", "lock"];

/// The mode mix of a merged stream, broken down by a key: count every
/// `ModeDecision` event `key_of` maps to `Some(key)`, and render one
/// `<family>{<what>,mode}` counter per observed (key, mode) pair, in
/// deterministic (key, mode) order.
fn mode_mix(
    events: &[TraceEvent],
    what: &str,
    key_of: impl Fn(&TraceEvent) -> Option<u8>,
    key_name: impl Fn(u8) -> String,
) -> String {
    use crate::event::EventKind;
    let mut counts: std::collections::BTreeMap<(u8, u8), u64> = std::collections::BTreeMap::new();
    for e in events {
        if e.kind() != Some(EventKind::ModeDecision) {
            continue;
        }
        if let Some(key) = key_of(e) {
            *counts.entry((key, e.a)).or_insert(0) += 1;
        }
    }
    let family = format!("ale_{what}_mode_total");
    let mut w = PromWriter::new();
    w.family(
        &family,
        &format!("Critical-section completions by {what} and mode."),
        "counter",
    );
    for ((key, mode), n) in &counts {
        let mode = MODE_NAMES.get(*mode as usize).unwrap_or(&"unknown");
        w.sample(
            &family,
            &[(what, &key_name(*key)), ("mode", mode)],
            *n as f64,
        );
    }
    w.finish()
}

/// Break a merged stream's mode mix down by scenario: one
/// `ale_scenario_mode_total{scenario,mode}` counter per observed
/// (scenario tag, mode) pair, in deterministic (tag, mode) order.
///
/// Events emitted outside any [`set_scenario`](crate::scenario::set_scenario)
/// window report as `scenario="untagged"`.
pub fn scenario_mode_mix(events: &[TraceEvent]) -> String {
    mode_mix(
        events,
        "scenario",
        |e| Some(e.c),
        |tag| {
            let name = crate::scenario::scenario_name(tag);
            if name.is_empty() {
                "untagged".into()
            } else {
                name
            }
        },
    )
}

/// Break a merged stream's mode mix down by *shard*: one
/// `ale_shard_mode_total{shard,mode}` counter per observed (shard index,
/// mode) pair, in deterministic (shard, mode) order.
///
/// Shards are recognised by their lock labels — `AleShardedMap` labels
/// shard `i`'s lock `shard<ii>` (two digits, `shard00`..`shard31`) — so
/// the export needs no side channel: the intern table already carries the
/// shard identity. Events on non-shard locks are ignored; under Zipf skew
/// the per-shard counters make the hot shard's mode collapse (e.g. the
/// StormBreaker demoting `shard03` to Lock while cold shards keep
/// eliding) directly visible on a dashboard.
pub fn shard_mode_mix(events: &[TraceEvent]) -> String {
    mode_mix(
        events,
        "shard",
        |e| label_name(e.label).strip_prefix("shard")?.parse().ok(),
        |shard| shard.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_vtime_then_lane_then_seq() {
        let mk = |vt: u64, lane: u16, seq: u32| {
            let mut e = TraceEvent::lock_poison(0);
            e.vtime = vt;
            e.lane = lane;
            e.seq = seq;
            e
        };
        let mut evs = vec![mk(5, 1, 0), mk(5, 0, 2), mk(3, 2, 9), mk(5, 0, 1)];
        merge(&mut evs);
        let order: Vec<(u64, u16, u32)> = evs.iter().map(|e| (e.vtime, e.lane, e.seq)).collect();
        assert_eq!(order, vec![(3, 2, 9), (5, 0, 1), (5, 0, 2), (5, 1, 0)]);
    }

    #[test]
    fn digest_is_sensitive_to_events_and_drops() {
        let e = TraceEvent::mode_decision(1, 0, 0, 7);
        let base = digest(&[e], 0);
        assert_ne!(base, digest(&[], 0));
        assert_ne!(base, digest(&[e], 1));
        assert_eq!(base, digest(&[e], 0));
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("ünïcode"), "ünïcode");
    }

    #[test]
    fn jsonl_renders_one_object_per_line() {
        let mut e = TraceEvent::htm_abort(0, 0, 0xFF, true, 2);
        e.vtime = 42;
        let text = to_jsonl(&[e, e]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        assert!(lines[0].starts_with("{\"vt\":42,"));
        assert!(lines[0].contains("\"kind\":\"htm_abort\""));
        assert!(lines[0].contains("\"c\":1"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn prom_writer_formats_and_skips_non_finite() {
        let mut w = PromWriter::new();
        w.family("ale_demo_total", "A demo counter.", "counter");
        w.sample("ale_demo_total", &[("lock", "a\"b")], 3.0);
        w.sample("ale_demo_total", &[("lock", "nan")], f64::NAN);
        w.sample("ale_demo_gauge", &[], 0.5);
        let text = w.finish();
        assert!(text.contains("# HELP ale_demo_total A demo counter.\n"));
        assert!(text.contains("# TYPE ale_demo_total counter\n"));
        assert!(text.contains("ale_demo_total{lock=\"a\\\"b\"} 3\n"));
        assert!(text.contains("ale_demo_gauge 0.5\n"));
        assert!(!text.contains("NaN"));
    }
}
