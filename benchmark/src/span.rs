//! Recorders wrapped around every call into a layer's public function.
//!
//! The hot loops are generic over [`Recorder`], so the untraced run pays
//! one counter increment per call plus a timed call every `stride`-th op,
//! and the traced run pays two clock reads and a `Vec` push per call. Spans
//! stay in pre-allocated memory until the workload has ended.

use std::io::Write;
use std::time::Instant;

use crate::stats::LatencyHist;

/// Wraps one call into the library.
pub trait Recorder {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// Untraced recorder: times every `stride`-th call (a power of two) into a
/// latency histogram and lets the rest through untouched.
pub struct Sampler {
    mask: u64,
    n: u64,
    pub hist: LatencyHist,
}

impl Sampler {
    pub fn new(stride: u64) -> Self {
        assert!(stride.is_power_of_two());
        Sampler {
            mask: stride - 1,
            n: 0,
            hist: LatencyHist::new(),
        }
    }
}

impl Recorder for Sampler {
    #[inline]
    fn call<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        self.n += 1;
        if self.n & self.mask != 0 {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.hist.record(t.elapsed().as_nanos() as u64);
        r
    }
}

/// One recorded interval, in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Traced recorder: one span per call, all children of this thread's pass
/// span.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        SpanLog {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }
}

impl Recorder for SpanLog {
    #[inline]
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start, end });
        r
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and overlaps
/// are counted once.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.end - parent.start) - covered
}

/// Median duration, in ns, of the spans called `name` (`None` if there are
/// none). Uses the grouped quantile so it resolves below 1 ns.
pub fn p50_ns<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> Option<f64> {
    let mut h = LatencyHist::new();
    for s in spans.filter(|s| s.name == name) {
        h.record(s.end - s.start);
    }
    (h.samples() > 0).then(|| h.percentile(50.0))
}

/// One thread's share of a trace: the span that contains everything the
/// thread did and the calls made inside it.
pub struct ThreadTrace {
    pub thread: usize,
    pub parent: Span,
    pub children: Vec<Span>,
}

/// Write traces as JSON lines: `{id, parent, thread, name, start_ns,
/// end_ns}`, parents before their children.
pub fn write_jsonl(path: &std::path::Path, traces: &[ThreadTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut id = 0u64;
    for t in traces {
        let parent_id = id;
        writeln!(
            out,
            "{{\"id\":{parent_id},\"parent\":null,\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            t.thread, t.parent.name, t.parent.start, t.parent.end
        )?;
        id += 1;
        for c in &t.children {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent_id},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.thread, c.name, c.start, c.end
            )?;
            id += 1;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let parent = span(100, 200);
        assert_eq!(self_time(&parent, &[]), 100);
        assert_eq!(self_time(&parent, &[span(110, 120), span(150, 180)]), 60);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time(&parent, &[span(150, 180), span(110, 160)]), 30);
        // A child is clipped to its parent's interval.
        assert_eq!(self_time(&parent, &[span(50, 110), span(190, 400)]), 80);
        assert_eq!(self_time(&parent, &[span(0, 50), span(300, 400)]), 100);
        assert_eq!(self_time(&parent, &[span(0, 1_000)]), 0);
    }

    #[test]
    fn sampler_times_every_stride_th_call() {
        let mut s = Sampler::new(8);
        for i in 0..64u64 {
            assert_eq!(s.call("op", || i * 2), i * 2);
        }
        assert_eq!(s.hist.samples(), 8);
    }

    #[test]
    fn span_log_records_every_call_in_order() {
        let mut log = SpanLog::new(Instant::now(), 4);
        log.call("get", || ());
        log.call("insert", || ());
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].name, "get");
        assert!(log.spans[0].end <= log.spans[1].start);
        assert!(p50_ns(log.spans.iter(), "get").is_some());
        assert!(p50_ns(log.spans.iter(), "remove").is_none());
    }
}
