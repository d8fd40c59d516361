//! Sequence locks and the paper's *conflicting-region* refinement.
//!
//! A classic seqlock ([`SeqLock`]) brackets every write with two version
//! increments; optimistic readers retry whenever they observe an odd
//! version or a version change. Applied naively to lock elision this is
//! disastrous (§2): every Lock- or HTM-mode critical section would
//! invalidate all SWOpt readers for its *entire* duration, and the version
//! bump makes concurrent HTM executions conflict with each other.
//!
//! The paper's refinement ([`SeqVersion`], §3.2) gives the programmer
//! explicit `begin_conflicting_action` / `end_conflicting_action` calls to
//! bracket only the code that actually interferes with SWOpt readers —
//! e.g. the `unlink(node)` in `Remove`, not the preceding search. Readers
//! take a snapshot with [`SeqVersion::read`] and re-validate with
//! [`SeqVersion::validate`] before *using* any value read since the last
//! validation.
//!
//! The version word is an [`HtmCell`], which is what makes the three modes
//! compose:
//! * **Lock mode**: increments are plain stores — the version goes odd for
//!   exactly the conflicting region.
//! * **HTM mode**: increments are buffered and publish at commit as one
//!   even step, so other *transactions* only conflict if they touch the
//!   word, and SWOpt readers see the bump exactly when the transaction's
//!   data writes appear. (ALE elides the bump entirely when no SWOpt
//!   reader can be running — `COULD_SWOPT_BE_RUNNING`, §3.3.)
//! * **SWOpt mode**: reads are plain consistent loads.

use std::cell::RefCell;

use ale_htm::{mutated, HtmCell, Mutation};
use ale_vtime::{tick, Event};

use crate::watchdog::{self, StallEvent};

thread_local! {
    /// Conflicting regions this thread has opened (outermost first).
    ///
    /// Only non-transactional opens are tracked: an HTM-mode bump is
    /// buffered in the transaction's write set, so an abort (including a
    /// panic unwinding out of the body) discards it and there is nothing to
    /// close. A Lock- or SWOpt-mode open, by contrast, made the version odd
    /// in shared memory — if the critical section unwinds before
    /// `end_conflicting_action`, every SWOpt reader livelocks. The panic
    /// cleanup in `ale-core` uses [`open_region_count`] /
    /// [`close_open_regions`] to restore parity before re-raising.
    static OPEN_REGIONS: RefCell<Vec<*const SeqVersion>> = const { RefCell::new(Vec::new()) };
}

/// Conflicting regions the calling thread currently has open (outside a
/// hardware transaction). A critical-section driver snapshots this before
/// running a body and closes back down to the mark if the body unwinds.
pub fn open_region_count() -> usize {
    OPEN_REGIONS.with(|r| r.borrow().len())
}

/// Close every conflicting region the calling thread opened above `mark`
/// (innermost first), restoring even version parity. Used by panic-cleanup
/// paths; a normal `end_conflicting_action` pops its own entry.
///
/// The caller must ensure the `SeqVersion`s opened above `mark` are still
/// alive — true whenever they protect shared data that outlives the
/// unwinding critical section, which is the only sound way to use them.
pub fn close_open_regions(mark: usize) {
    loop {
        let ptr = OPEN_REGIONS.with(|r| {
            let r = r.borrow();
            if r.len() > mark {
                Some(r[r.len() - 1])
            } else {
                None
            }
        });
        let Some(ptr) = ptr else { break };
        // SAFETY: pushed by `begin_conflicting_action` on this thread; per
        // the contract above, the SeqVersion outlives the unwinding critical
        // section. The matching begin lives in the unwound section — the
        // pair is deliberately split across functions; this IS the cleanup.
        // ale-lint: allow(conflicting-region-balance)
        unsafe { (*ptr).end_conflicting_action() };
    }
}

/// The paper's explicit version number (`tblVer` in the HashMap example).
///
/// Mutators must call `begin/end_conflicting_action` only while holding the
/// associated lock or inside a hardware transaction — the increment itself
/// is not atomic (matching the C++ library, where `tblVer++` relies on the
/// critical section for exclusion).
///
/// ```
/// use ale_sync::SeqVersion;
/// let ver = SeqVersion::new();
/// let snap = ver.read(true);             // reader takes a snapshot
/// assert!(ver.validate(snap));           // nothing happened: still valid
/// ver.begin_conflicting_action();        // writer enters the region…
/// ver.end_conflicting_action();          // …and leaves it
/// assert!(!ver.validate(snap), "the reader must retry");
/// ```
#[derive(Debug, Default)]
pub struct SeqVersion {
    v: HtmCell<u64>,
}

impl SeqVersion {
    pub fn new() -> Self {
        SeqVersion { v: HtmCell::new(0) }
    }

    /// Mark the start of a region that interferes with SWOpt readers.
    #[inline]
    pub fn begin_conflicting_action(&self) {
        let v = self.v.get();
        self.v.set(v.wrapping_add(1));
        if !ale_htm::in_txn() {
            // Track the open region so a panic unwinding out of the
            // critical section can restore parity (see OPEN_REGIONS).
            // HTM-mode bumps are buffered and vanish on abort — untracked.
            OPEN_REGIONS.with(|r| r.borrow_mut().push(self as *const SeqVersion));
        }
        // Chaos point (no-op unless ale-check enables it): stretch the
        // odd-version window so adversarial schedules land inside it.
        crate::chaos::stall();
        // Reorder fence: the bump is published but the caller's data writes
        // have not happened yet — the window a delayed version store would
        // open from the other side.
        crate::reorder::publish_fence();
    }

    /// Mark the end of the conflicting region.
    #[inline]
    pub fn end_conflicting_action(&self) {
        crate::chaos::stall();
        let v = self.v.get();
        self.v.set(v.wrapping_add(1));
        if !ale_htm::in_txn() {
            OPEN_REGIONS.with(|r| {
                let mut r = r.borrow_mut();
                let me = self as *const SeqVersion;
                // Tolerant pop: regions close LIFO in well-formed code, but
                // a cleanup path must not turn imbalance into a panic.
                if let Some(pos) = r.iter().rposition(|&p| p == me) {
                    r.remove(pos);
                }
            });
        }
    }

    /// Run `f` as a conflicting action: bracketed by
    /// [`begin`](Self::begin_conflicting_action) /
    /// [`end_conflicting_action`](Self::end_conflicting_action) when `bump`
    /// is set, bare when the caller has established that no SWOpt reader
    /// can be running (`COULD_SWOPT_BE_RUNNING`, §3.3). If `f` unwinds the
    /// region stays open for [`close_open_regions`] to heal, exactly as
    /// with a hand-written pair.
    #[inline]
    pub fn conflicting<R>(&self, bump: bool, f: impl FnOnce() -> R) -> R {
        if bump {
            self.begin_conflicting_action();
        }
        let r = f();
        if bump {
            self.end_conflicting_action();
        }
        r
    }

    /// The paper's `GetVer`: read the version, optionally waiting until it
    /// is even (no conflicting region in progress).
    ///
    /// A reader parked here past the watchdog thresholds (too many version
    /// bumps observed, or too many polls of a version stuck odd) emits one
    /// [`StallEvent::SwOptParked`] and keeps waiting.
    // ale-lint: swopt — the version-snapshot read is the head of every
    // SWOpt path; it must stay transitively pure.
    #[inline]
    #[must_use = "a version snapshot is only useful if validated afterwards"]
    pub fn read(&self, wait_until_even: bool) -> u64 {
        let mut last = None;
        let mut bumps = 0u64;
        let mut spins = 0u64;
        let mut reported = false;
        loop {
            let v = self.v.get();
            tick(Event::SharedLoad);
            if !wait_until_even || v.is_multiple_of(2) {
                return v;
            }
            spins += 1;
            if last.is_some_and(|l| l != v) {
                bumps += 1;
            }
            last = Some(v);
            if !reported {
                let (max_bumps, max_spins) = watchdog::park_thresholds();
                if bumps >= max_bumps || spins >= max_spins {
                    watchdog::emit(StallEvent::SwOptParked { bumps, spins });
                    reported = true;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Has the version stayed at `snapshot` (i.e. is everything read since
    /// the snapshot still consistent)?
    #[inline]
    #[must_use = "ignoring validation defeats the optimistic read protocol"]
    pub fn validate(&self, snapshot: u64) -> bool {
        // Reorder fence: the caller's optimistic data reads are done but
        // not yet validated — a hoisted validating load would commit them
        // against a stale version; the fence lets adversarial schedules
        // run whole conflicting regions inside this gap.
        crate::reorder::subscribe_fence();
        tick(Event::SharedLoad);
        self.v.get() == snapshot
    }
}

/// A classic seqlock protecting a `Copy` value: optimistic wait-free-ish
/// readers, mutually-exclusive writers. Provided as the background
/// substrate the paper builds on [1, 9].
#[derive(Debug, Default)]
pub struct SeqLock<T: Copy> {
    seq: HtmCell<u64>,
    data: HtmCell<T>,
}

impl<T: Copy> SeqLock<T> {
    pub fn new(value: T) -> Self {
        SeqLock {
            seq: HtmCell::new(0),
            data: HtmCell::new(value),
        }
    }

    /// Optimistically read the protected value (retrying on interference).
    // ale-lint: swopt — classic seqlock read side: loads and validation
    // only, no writes/locks/allocation anywhere in the call chain.
    #[inline]
    pub fn read(&self) -> T {
        loop {
            let s1 = self.seq.get();
            tick(Event::SharedLoad);
            if !s1.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let v = self.data.load_consistent();
            crate::reorder::subscribe_fence();
            let s2 = self.seq.get();
            if s1 == s2 {
                return v;
            }
        }
    }

    /// Exclusively update the protected value.
    #[inline]
    pub fn write(&self, f: impl FnOnce(T) -> T) {
        // Acquire: even -> odd.
        loop {
            let s = self.seq.get();
            tick(Event::Cas);
            if s.is_multiple_of(2) && self.seq.compare_exchange(s, s + 1).is_ok() {
                break;
            }
            std::hint::spin_loop();
        }
        let old = self.data.load_consistent();
        self.data.set(f(old));
        crate::reorder::publish_fence();
        // Release: odd -> even.
        let s = self.seq.get();
        self.seq.set(s + 1);
    }
}

/// A multi-word published record: `N` [`HtmCell`] data words guarded by one
/// [`SeqVersion`].
///
/// This is the smallest structure where publication ordering is *load
/// bearing*: each cell write is its own shared store (with its own virtual
/// time tick), so an adversarial schedule can park another lane between any
/// two of them. A correctly-ordered [`store`](SeqBuffer::store) brackets the
/// writes with `begin/end_conflicting_action`, so optimistic
/// [`load`](SeqBuffer::load)ers that land mid-write see an odd (or changed)
/// version and retry. Contrast a single `HtmCell<[u64; N]>`, whose store is
/// one indivisible step in the simulator and can never tear.
///
/// Writers must serialise externally (hold the owning lock or run inside a
/// transaction) — same contract as [`SeqVersion`] itself.
#[derive(Debug)]
pub struct SeqBuffer<const N: usize> {
    ver: SeqVersion,
    cells: [HtmCell<u64>; N],
}

impl<const N: usize> Default for SeqBuffer<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SeqBuffer<N> {
    pub fn new() -> Self {
        SeqBuffer {
            ver: SeqVersion::new(),
            cells: std::array::from_fn(|_| HtmCell::new(0)),
        }
    }

    /// Publish a new `N`-word snapshot (caller holds the owning lock).
    #[inline]
    pub fn store(&self, vals: [u64; N]) {
        if mutated(Mutation::ReorderPublish) {
            // Self-test mutation: the data writes escape *ahead of* the version bump —
            // the classic compiler/CPU reordering the seqlock protocol
            // exists to forbid. Readers that overlap the cell writes
            // validate against a still-even, unchanged version and accept a
            // torn snapshot. ale-check's selftest must catch this.
            for (c, v) in self.cells.iter().zip(vals) {
                c.set(v);
            }
            self.ver.begin_conflicting_action();
            self.ver.end_conflicting_action();
        } else {
            self.ver.begin_conflicting_action();
            for (c, v) in self.cells.iter().zip(vals) {
                c.set(v);
            }
            self.ver.end_conflicting_action();
        }
    }

    /// Optimistically read a consistent `N`-word snapshot, retrying through
    /// concurrent stores.
    // ale-lint: swopt — loads and validation only, like SeqLock::read.
    #[inline]
    pub fn load(&self) -> [u64; N] {
        loop {
            let snap = self.ver.read(true);
            let mut out = [0u64; N];
            for (o, c) in out.iter_mut().zip(self.cells.iter()) {
                *o = c.get();
            }
            // validate() carries the subscribe-side reorder fence.
            if self.ver.validate(snap) {
                return out;
            }
            std::hint::spin_loop();
        }
    }

    /// Optimistically read a consistent snapshot *and* the even version it
    /// was validated against, so the caller can extend the optimistic
    /// window: do further reads that depend on the snapshot, then call
    /// [`SeqVersion::validate`] on [`version`](SeqBuffer::version) with the
    /// returned value to confirm nothing was republished in between.
    ///
    /// This is what the sharded map's lookup path needs — the table-pointer
    /// snapshot must still be current *after* the bucket chains it named
    /// have been traversed.
    // ale-lint: swopt — loads and validation only, like load().
    #[inline]
    pub fn load_versioned(&self) -> ([u64; N], u64) {
        loop {
            let snap = self.ver.read(true);
            let mut out = [0u64; N];
            for (o, c) in out.iter_mut().zip(self.cells.iter()) {
                *o = c.get();
            }
            // validate() carries the subscribe-side reorder fence.
            if self.ver.validate(snap) {
                return (out, snap);
            }
            std::hint::spin_loop();
        }
    }

    /// The guarding version, for callers composing wider SWOpt validation.
    #[inline]
    pub fn version(&self) -> &SeqVersion {
        &self.ver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqversion_bracketing() {
        let v = SeqVersion::new();
        let snap = v.read(true);
        assert_eq!(snap % 2, 0);
        assert!(v.validate(snap));
        v.begin_conflicting_action();
        assert!(!v.validate(snap), "odd version must fail validation");
        assert_eq!(v.read(false) % 2, 1);
        v.end_conflicting_action();
        assert!(!v.validate(snap), "completed action must still invalidate");
        let snap2 = v.read(true);
        assert_eq!(snap2, snap + 2);
    }

    #[test]
    fn seqversion_wait_until_even() {
        use ale_vtime::{Platform, Sim};
        let v = SeqVersion::new();
        Sim::new(Platform::testbed(), 2).run(|lane| {
            if lane.id() == 0 {
                v.begin_conflicting_action();
                ale_vtime::tick(Event::LocalWork(5_000));
                v.end_conflicting_action();
            } else {
                ale_vtime::tick(Event::LocalWork(100)); // arrive mid-action
                let snap = v.read(true);
                assert_eq!(snap % 2, 0);
                assert_eq!(snap, 2, "reader must have waited out the action");
            }
        });
    }

    #[test]
    fn htm_mode_bump_publishes_once() {
        use ale_htm::attempt;
        use ale_vtime::{Platform, Rng};
        let v = SeqVersion::new();
        let p = Platform::testbed().htm.unwrap();
        let r = attempt(&p, &mut Rng::new(1), || {
            v.begin_conflicting_action();
            // Inside the transaction the bump is buffered: a consistent
            // (non-transactional) observer still sees 0.
            assert_eq!(v.v.load_consistent(), 0);
            v.end_conflicting_action();
        });
        assert!(r.is_ok());
        assert_eq!(v.read(false), 2, "both increments publish at commit");
    }

    #[test]
    fn aborted_htm_bump_never_appears() {
        use ale_htm::attempt;
        use ale_vtime::{Platform, Rng};
        let v = SeqVersion::new();
        let p = Platform::testbed().htm.unwrap();
        let r: Result<(), _> = attempt(&p, &mut Rng::new(1), || {
            // Deliberately unbalanced: the explicit abort must roll the
            // odd version back, which is exactly what this test asserts.
            // ale-lint: allow(conflicting-region-balance)
            v.begin_conflicting_action();
            ale_htm::explicit_abort(1);
        });
        assert!(r.is_err());
        assert_eq!(v.read(false), 0, "aborted bump must be invisible");
    }

    #[test]
    fn open_regions_are_tracked_outside_txn() {
        let v = SeqVersion::new();
        let mark = open_region_count();
        v.begin_conflicting_action();
        assert_eq!(open_region_count(), mark + 1);
        v.end_conflicting_action();
        assert_eq!(open_region_count(), mark);
    }

    #[test]
    fn htm_mode_regions_are_not_tracked() {
        use ale_htm::attempt;
        use ale_vtime::{Platform, Rng};
        let v = SeqVersion::new();
        let p = Platform::testbed().htm.unwrap();
        let r = attempt(&p, &mut Rng::new(1), || {
            v.begin_conflicting_action();
            assert_eq!(open_region_count(), 0, "buffered bumps need no cleanup");
            v.end_conflicting_action();
        });
        assert!(r.is_ok());
    }

    #[test]
    fn close_open_regions_restores_parity() {
        let a = SeqVersion::new();
        let b = SeqVersion::new();
        let mark = open_region_count();
        // Leak two nested regions, as a panicking critical section would.
        // ale-lint: allow(conflicting-region-balance)
        a.begin_conflicting_action();
        b.begin_conflicting_action();
        assert_eq!(a.read(false) % 2, 1);
        assert_eq!(b.read(false) % 2, 1);
        close_open_regions(mark);
        assert_eq!(open_region_count(), mark);
        assert_eq!(a.read(false), 2, "parity restored");
        assert_eq!(b.read(false), 2, "parity restored");
        // Closing again is a no-op.
        close_open_regions(mark);
        assert_eq!(a.read(false), 2);
    }

    #[test]
    fn conflicting_brackets_only_when_asked() {
        let v = SeqVersion::new();
        let seen = v.conflicting(false, || v.read(false));
        assert_eq!((seen, v.read(false)), (0, 0), "no bump: version untouched");
        let seen = v.conflicting(true, || v.read(false));
        assert_eq!(seen, 1, "odd inside the region");
        assert_eq!(v.read(false), 2, "even and +2 after it");
    }

    #[test]
    fn conflicting_body_panic_is_healed_by_close_open_regions() {
        let v = SeqVersion::new();
        let mark = open_region_count();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.conflicting(true, || panic!("body failed mid-region"))
        }));
        assert!(r.is_err());
        assert_eq!(v.read(false), 1, "the unwound region is still open");
        // What ale-core's critical-section driver does before re-raising.
        close_open_regions(mark);
        assert_eq!(open_region_count(), mark);
        assert_eq!(v.read(false), 2, "parity restored");
    }

    #[test]
    fn parked_reader_emits_watchdog_event() {
        use ale_vtime::{Platform, Sim};
        use std::sync::{Arc, Mutex};
        let _g = crate::watchdog::test_serial();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        crate::watchdog::set_stall_observer(Arc::new(move |ev| {
            sink.lock().unwrap().push(*ev);
        }));
        crate::watchdog::set_park_thresholds(4, 64);
        let v = SeqVersion::new();
        Sim::new(Platform::testbed(), 2).run(|lane| {
            if lane.id() == 0 {
                // Hold long odd windows so the waiting reader polls far past
                // the spin threshold (and may see several bumps) before an
                // even version finally appears.
                for _ in 0..4 {
                    v.begin_conflicting_action();
                    ale_vtime::tick(Event::LocalWork(20_000));
                    v.end_conflicting_action();
                }
            } else {
                ale_vtime::tick(Event::LocalWork(500));
                let snap = v.read(true);
                assert_eq!(snap % 2, 0);
            }
        });
        crate::watchdog::clear_stall_observer();
        crate::watchdog::set_park_thresholds(0, 0);
        let seen = seen.lock().unwrap();
        assert!(
            seen.iter()
                .any(|ev| matches!(ev, StallEvent::SwOptParked { .. })),
            "parked reader must report: {seen:?}"
        );
    }

    #[test]
    fn seqlock_readers_never_see_torn_pairs() {
        let sl = SeqLock::new((0u64, 0u64));
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let sl = &sl;
                s.spawn(move || {
                    for i in 0..10_000 {
                        let x = w * 100_000 + i;
                        sl.write(|_| (x, x));
                    }
                });
            }
            for _ in 0..2 {
                let sl = &sl;
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let (a, b) = sl.read();
                        assert_eq!(a, b);
                    }
                });
            }
        });
    }

    #[test]
    fn seqbuffer_roundtrips_single_thread() {
        let buf: SeqBuffer<4> = SeqBuffer::new();
        assert_eq!(buf.load(), [0; 4]);
        buf.store([7, 8, 9, 10]);
        assert_eq!(buf.load(), [7, 8, 9, 10]);
        let snap = buf.version().read(true);
        assert!(buf.version().validate(snap));
    }

    #[test]
    fn seqbuffer_load_versioned_extends_the_optimistic_window() {
        let buf: SeqBuffer<2> = SeqBuffer::new();
        buf.store([3, 4]);
        let (vals, snap) = buf.load_versioned();
        assert_eq!(vals, [3, 4]);
        assert_eq!(snap % 2, 0, "snapshot version must be even");
        assert!(
            buf.version().validate(snap),
            "untouched buffer still validates"
        );
        buf.store([5, 6]);
        assert!(
            !buf.version().validate(snap),
            "a republish must invalidate the extended window"
        );
        assert_eq!(buf.load_versioned().0, [5, 6]);
    }

    #[test]
    fn seqbuffer_snapshots_never_tear_under_adversary() {
        use crate::raw_lock::RawLock;
        use ale_vtime::{Platform, SchedStrategy, Sim};
        let buf: SeqBuffer<3> = SeqBuffer::new();
        let lock = crate::SpinLock::new();
        Sim::new(Platform::testbed(), 3)
            .with_seed(9)
            .with_strategy(SchedStrategy::Reorder { window_ns: 300 })
            .run(|lane| {
                if lane.id() == 0 {
                    for e in 1..=24u64 {
                        lock.acquire();
                        buf.store([e; 3]);
                        lock.release();
                    }
                } else {
                    for _ in 0..64 {
                        let [a, b, c] = buf.load();
                        assert!(a == b && b == c, "torn snapshot: {a} {b} {c}");
                    }
                }
            });
        assert_eq!(buf.load(), [24; 3]);
    }

    #[test]
    fn seqlock_writes_are_exclusive() {
        let sl = SeqLock::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sl = &sl;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        sl.write(|v| v + 1);
                    }
                });
            }
        });
        assert_eq!(sl.read(), 20_000);
    }
}
