//! Chaos mode: virtual-time stalls that widen race windows.
//!
//! The dynamic-checking harness (`ale-check`) needs to drive the runtime
//! through the narrow windows where elision bugs hide — a `SeqVersion`
//! sitting odd between `begin`/`end_conflicting_action`, a SNZI node in its
//! transient ½ state. Real hardware widens those windows with cache misses
//! and preemption; the simulator widens them deterministically by charging
//! extra virtual time ([`Event::Raw`]) at the hook points, so adversarial
//! schedulers get many more decision points inside the window.
//!
//! Chaos is process-global and off by default (one relaxed load on the hot
//! path). It only stretches *virtual* time: with chaos on, the same seed
//! and schedule still replay bit-identically.

use std::sync::atomic::{AtomicU64, Ordering};

use ale_vtime::{tick, Event};

static DELAY_NS: AtomicU64 = AtomicU64::new(0);

/// Charge every chaos point `delay_ns` of virtual time (0 disables).
pub fn set_publication_delay(delay_ns: u64) {
    DELAY_NS.store(delay_ns, Ordering::Release);
}

/// The configured per-point delay.
pub fn publication_delay() -> u64 {
    DELAY_NS.load(Ordering::Acquire)
}

/// A chaos point: stall for the configured virtual-time delay.
#[inline]
pub(crate) fn stall() {
    let d = DELAY_NS.load(Ordering::Relaxed);
    if d > 0 {
        tick(Event::Raw(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqlock::SeqVersion;
    use ale_vtime::{Platform, Sim};
    use std::sync::{Mutex, MutexGuard};

    /// The setting is process-global: a test that stores 0 while another
    /// test's `Sim` is running under a non-zero value un-stretches it.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn delay_stretches_conflicting_regions_in_virtual_time() {
        let _g = serial();
        let span = |delay| {
            set_publication_delay(delay);
            let r = Sim::new(Platform::testbed(), 1).run(|_| {
                let v = SeqVersion::new();
                let t0 = ale_vtime::now();
                v.begin_conflicting_action();
                v.end_conflicting_action();
                ale_vtime::now() - t0
            });
            set_publication_delay(0);
            r.results[0]
        };
        let base = span(0);
        let slow = span(500);
        assert!(
            slow >= base + 1000,
            "two chaos points at 500 ns must stretch the region: {base} -> {slow}"
        );
    }

    #[test]
    fn zero_delay_is_free() {
        let _g = serial();
        set_publication_delay(0);
        assert_eq!(publication_delay(), 0);
        stall(); // no lane installed: must not panic or tick
    }
}
