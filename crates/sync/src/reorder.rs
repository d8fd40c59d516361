//! Weak-memory reorder fences: visibility-delay injection points at the
//! seqlock publish and subscription boundaries.
//!
//! The ordering-discipline lint rule (`ale-lint`) statically assumes that
//! data writes never become visible on the wrong side of their version
//! bump and that readers never use data they have not re-validated. The
//! dynamic checker wants to *falsify* that assumption, not just trust it:
//! these fences charge virtual time (one [`Event::Raw`] tick) exactly at
//! the boundaries where a reordered store or a hoisted load would be
//! observable — between a publication's data writes and its version bump
//! ([`publish_fence`]) and between a subscriber's data reads and its
//! validating load ([`subscribe_fence`]). Under an adversarial scheduler
//! (especially [`SchedStrategy::Reorder`](ale_vtime::SchedStrategy)) every
//! fence becomes a decision point inside the dangerous window, so other
//! lanes run while the publication is "in flight" — the deterministic
//! analogue of a store parked in a store buffer.
//!
//! Like [`chaos`](crate::chaos), the window is process-global, off by
//! default (one relaxed load per fence), and stretches only *virtual*
//! time: with the fences armed, the same seed and schedule still replay
//! bit-identically.

use std::sync::atomic::{AtomicU64, Ordering};

use ale_vtime::{tick, Event};

static WINDOW_NS: AtomicU64 = AtomicU64::new(0);

/// Charge every reorder fence `window_ns` of virtual time (0 disables).
pub fn set_window(window_ns: u64) {
    WINDOW_NS.store(window_ns, Ordering::Release);
}

/// The configured per-fence window.
pub fn window() -> u64 {
    WINDOW_NS.load(Ordering::Acquire)
}

/// Publication-side fence: sits between a publisher's data writes and the
/// version bump that makes them official.
#[inline]
pub(crate) fn publish_fence() {
    let w = WINDOW_NS.load(Ordering::Relaxed);
    if w > 0 {
        tick(Event::Raw(w));
    }
}

/// Subscription-side fence: sits between a subscriber's optimistic data
/// reads and the validating version load.
#[inline]
pub(crate) fn subscribe_fence() {
    let w = WINDOW_NS.load(Ordering::Relaxed);
    if w > 0 {
        tick(Event::Raw(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqlock::SeqBuffer;
    use ale_vtime::{Platform, Sim};
    use std::sync::{Mutex, MutexGuard};

    /// The setting is process-global: a test that stores 0 while another
    /// test's `Sim` is running under a non-zero value un-stretches it.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn window_stretches_publication_in_virtual_time() {
        let _g = serial();
        let span = |w| {
            set_window(w);
            let r = Sim::new(Platform::testbed(), 1).run(|_| {
                let buf: SeqBuffer<2> = SeqBuffer::new();
                let t0 = ale_vtime::now();
                buf.store([1, 1]);
                ale_vtime::now() - t0
            });
            set_window(0);
            r.results[0]
        };
        let base = span(0);
        let slow = span(400);
        assert!(
            slow >= base + 400,
            "an armed publish fence must stretch the store: {base} -> {slow}"
        );
    }

    #[test]
    fn zero_window_is_free() {
        let _g = serial();
        set_window(0);
        assert_eq!(window(), 0);
        publish_fence(); // no lane installed: must not panic or tick
        subscribe_fence();
    }
}
