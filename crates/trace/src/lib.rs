//! # ale-trace — always-on observability for the ALE runtime
//!
//! The paper calls its per-granule statistics "invaluable in understanding
//! and improving behavior of adaptive policies" (§3.4); this crate extends
//! that discipline from after-the-fact counters to a live event stream,
//! with the same low-interference rules the BFP counters follow:
//!
//! * **Emit sites cost one branch when disabled.** [`emit`] is a relaxed
//!   atomic load plus a predictable branch; the cold half (sampling,
//!   timestamping, the ring write) is out-of-line. With tracing disabled
//!   (the default) the instrumented runtime is bit-identical to the
//!   uninstrumented one — no ticks, no RNG draws, no allocation.
//! * **Recording is per-thread and lock-free.** Each emitting thread owns
//!   a bounded SPSC [`Ring`] of fixed-size binary [`TraceEvent`] records;
//!   a full ring drops the newest record and counts the drop.
//! * **The merged stream is deterministic.** [`drain`] orders events by
//!   `(vtime, lane, seq)` — a total order under the virtual-time
//!   simulator — so same-seed runs produce byte-identical JSONL and equal
//!   FNV digests, which ale-check uses as an oracle surface.
//!
//! Two exporters sit on top: a JSONL event dump ([`export::to_jsonl`]) and
//! the Prometheus text-format building blocks ([`export::PromWriter`])
//! behind `ale-core`'s `Report::to_prometheus`.

pub mod event;
pub mod export;
mod intern;
pub mod ring;
pub mod scenario;

pub use event::{reason, EventKind, TraceEvent};
pub use export::{
    digest, escape_json, scenario_mode_mix, shard_mode_mix, to_json, to_jsonl, Fnv, PromWriter,
};
pub use intern::{label_id, label_name};
pub use ring::Ring;
pub use scenario::{clear_scenario, scenario_name, scenario_tag, set_scenario};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ale_vtime::{lane_id, now, tick, Event};

/// Default per-thread ring capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The `lane` value stamped on events emitted outside a simulated lane
/// (e.g. a harness thread doing setup or verification). Off-lane threads
/// have no virtual clock — `ale_vtime::now()` falls back to a real,
/// nondeterministic wall clock there — so their events carry `vtime 0` and
/// this sentinel lane, sorting to the head of the merged stream in emit
/// order. That keeps same-seed streams byte-identical as long as at most
/// one off-lane thread emits (true for every harness in this workspace).
pub const OFF_LANE: u16 = u16::MAX;

/// Modelled cost of one accepted record under virtual time: a handful of
/// stores into a thread-local line. The slot is L1-resident (the producer
/// owns the ring) and the head publish is a single release store, so the
/// real-hardware analogue is single-digit nanoseconds. Charged only when a
/// record is actually considered (enabled path), so disabled runs take no
/// ticks.
const EMIT_COST_NS: u64 = 8;

/// Tracing configuration, carried by `AleConfig::with_trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; `false` leaves every emit site at one branch.
    pub enabled: bool,
    /// Per-thread ring capacity in records (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Keep every `2^sample_shift`-th record per thread (0 = keep all,
    /// which the determinism oracle requires).
    pub sample_shift: u32,
}

impl TraceConfig {
    /// The default: tracing off, emit sites cost one branch.
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
            sample_shift: 0,
        }
    }

    /// Tracing on, full sampling, default ring capacity.
    pub fn enabled() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::disabled()
        }
    }

    pub fn with_ring_capacity(mut self, records: usize) -> TraceConfig {
        self.ring_capacity = records;
        self
    }

    pub fn with_sample_shift(mut self, shift: u32) -> TraceConfig {
        self.sample_shift = shift;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by [`configure`]; stale thread-local rings re-register lazily.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static SAMPLE_SHIFT: AtomicU32 = AtomicU32::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct LocalRing {
    epoch: u64,
    ring: Arc<Ring>,
    sample_ctr: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

/// Is tracing globally enabled?
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event. The disabled path is a relaxed load and a branch;
/// everything else (sampling, lane/vtime stamping, the ring write, and a
/// small modelled time charge) lives in the cold half.
#[inline]
pub fn emit(ev: TraceEvent) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    emit_slow(ev);
}

#[cold]
fn emit_slow(mut ev: TraceEvent) {
    let epoch = EPOCH.load(Ordering::Acquire);
    let recorded = LOCAL.with(|slot| {
        let mut s = slot.borrow_mut();
        let stale = match s.as_ref() {
            Some(l) => l.epoch != epoch,
            None => true,
        };
        if stale {
            let mut reg = registry().lock().unwrap();
            let ring = Arc::new(Ring::with_capacity(
                RING_CAP.load(Ordering::Relaxed),
                reg.len() as u16,
            ));
            reg.push(Arc::clone(&ring));
            *s = Some(LocalRing {
                epoch,
                ring,
                sample_ctr: 0,
            });
        }
        let local = s.as_mut().expect("local ring just installed");
        let shift = SAMPLE_SHIFT.load(Ordering::Relaxed);
        if shift != 0 {
            let keep = local.sample_ctr & ((1u64 << shift.min(63)) - 1) == 0;
            local.sample_ctr += 1;
            if !keep {
                return false;
            }
        }
        match lane_id() {
            Some(l) => {
                ev.lane = l.min(OFF_LANE as usize - 1) as u16;
                ev.vtime = now();
            }
            None => {
                // No virtual clock off-lane; see [`OFF_LANE`].
                ev.lane = OFF_LANE;
                ev.vtime = 0;
            }
        }
        local.ring.push(ev);
        true
    });
    if recorded {
        tick(Event::Raw(EMIT_COST_NS));
    }
}

/// Install `cfg` process-wide: drops all registered rings, invalidates
/// thread-local rings (they re-register on next emit), and flips the gate.
/// Call between runs, not while traced threads are executing.
pub fn configure(cfg: &TraceConfig) {
    ENABLED.store(false, Ordering::Release);
    let mut reg = registry().lock().unwrap();
    reg.clear();
    RING_CAP.store(cfg.ring_capacity, Ordering::Relaxed);
    SAMPLE_SHIFT.store(cfg.sample_shift, Ordering::Relaxed);
    EPOCH.fetch_add(1, Ordering::Release);
    drop(reg);
    if cfg.enabled {
        ENABLED.store(true, Ordering::Release);
    }
}

/// Disable tracing and discard any buffered events.
pub fn reset() {
    configure(&TraceConfig::disabled());
}

/// A drained, merged event stream.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// All buffered events, in the canonical `(vtime, lane, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Total records dropped by full rings (cumulative per configure()).
    pub dropped: u64,
}

impl Drained {
    /// FNV digest of the stream (events + drop count).
    pub fn digest(&self) -> u64 {
        export::digest(&self.events, self.dropped)
    }

    /// JSONL rendering of the stream.
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(&self.events)
    }
}

/// Collect every ring's buffered events into one merged stream. Safe to
/// call while producers run (each ring's protocol allows it), but the
/// deterministic-digest contract only holds when producers have quiesced.
pub fn drain() -> Drained {
    let reg = registry().lock().unwrap();
    let mut events = Vec::new();
    let mut dropped = 0;
    for r in reg.iter() {
        r.drain_into(&mut events);
        dropped += r.drops();
    }
    drop(reg);
    export::merge(&mut events);
    Drained { events, dropped }
}

/// Trace state is process-global; tests that reconfigure it must not
/// overlap (mirrors `ale-sync`'s watchdog guard). Pinned-digest tests take
/// it too: the emulated HTM's version clock is process-global, so a
/// simulation running beside another would see its clock traffic
/// (DESIGN.md §5.1, I3) and a pin could flake.
pub fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_records_nothing() {
        let _g = test_serial();
        reset();
        emit(TraceEvent::lock_poison(0));
        assert!(drain().events.is_empty());
        assert!(!is_enabled());
    }

    #[test]
    fn enabled_emit_round_trips() {
        let _g = test_serial();
        configure(&TraceConfig::enabled());
        emit(TraceEvent::mode_decision(label_id("test-lock"), 2, 3, 1));
        emit(TraceEvent::lock_poison(label_id("test-lock")));
        let d = drain();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].kind(), Some(EventKind::ModeDecision));
        assert_eq!(d.events[1].kind(), Some(EventKind::LockPoison));
        assert_eq!(d.dropped, 0);
        let jsonl = d.to_jsonl();
        assert!(jsonl.contains("\"label\":\"test-lock\""));
        reset();
    }

    #[test]
    fn configure_discards_prior_events() {
        let _g = test_serial();
        configure(&TraceConfig::enabled());
        emit(TraceEvent::lock_poison(0));
        configure(&TraceConfig::enabled());
        assert!(drain().events.is_empty());
        // The thread-local ring from before the reconfigure is stale; the
        // next emit must land in a fresh registered ring.
        emit(TraceEvent::lock_poison(0));
        assert_eq!(drain().events.len(), 1);
        reset();
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let _g = test_serial();
        configure(&TraceConfig::enabled().with_sample_shift(2));
        for i in 0..8 {
            emit(TraceEvent::mode_decision(0, 0, 0, i));
        }
        let d = drain();
        assert_eq!(d.events.len(), 2, "shift 2 keeps every 4th record");
        assert_eq!(d.events[0].payload, 0);
        assert_eq!(d.events[1].payload, 4);
        reset();
    }

    #[test]
    fn ring_capacity_is_honoured_and_drops_counted() {
        let _g = test_serial();
        configure(&TraceConfig::enabled().with_ring_capacity(8));
        for i in 0..12 {
            emit(TraceEvent::mode_decision(0, 0, 0, i));
        }
        let d = drain();
        assert_eq!(d.events.len(), 8);
        assert_eq!(d.dropped, 4);
        reset();
    }
}
