//! Transactionally-accessible memory cells.
//!
//! Real HTM tracks raw loads and stores through the cache-coherence
//! protocol; a software emulation needs an instrumentation point instead.
//! An [`HtmCell`] is one word of "transactional memory": inside a
//! transaction its `get`/`set` are tracked (TL2-style) and buffered;
//! outside a transaction they are *seqlock-consistent* plain accesses —
//! a reader never observes a torn or in-flight value, and every
//! non-transactional store advances the cell's version so concurrent
//! transactions that read the cell abort. That last property is exactly
//! what makes Transactional Lock Elision sound: the elided lock stores its
//! state in an `HtmCell`, a transaction "subscribes" by reading it, and a
//! Lock-mode acquisition invalidates all subscribed transactions.
//!
//! Cells hold any `Copy` type up to [`MAX_CELL_SIZE`] bytes. The
//! value-plus-version layout follows crossbeam's seqlock technique
//! (volatile value access bracketed by version checks).
//!
//! # The version clock
//!
//! Sections that do not conflict must not communicate, so neither a plain
//! store nor a writing commit *writes* the global clock: both publish
//! `max(clock, old version) + 1` from a **load** of it (TL2's "GV5").
//! Versions therefore run ahead of the clock, and a transaction that meets
//! one newer than its snapshot does not abort: it re-checks its read set
//! and, if nothing it read has changed, moves its snapshot forward
//! (LSA / TinySTM timestamp extension, `txn::tx_read`). That extension is
//! the only writer of the clock, and only when it finds the clock below
//! the version it met. Four invariants hold the scheme together (DESIGN.md
//! §5.1 has the arguments):
//!
//! * **I1** — a cell's version strictly increases on every write, even
//!   while the clock stands still ([`next_version`]). `load_consistent`'s
//!   `m1 == m2` check on a 16-byte payload depends on it: a bare
//!   `clock + 1` would republish the same meta word over a new value.
//! * **I2** — a write that locks a cell after a transaction read it
//!   publishes a version above that transaction's snapshot. Writer: lock
//!   the meta word, *then* load the clock. Reader: load the clock (an
//!   extension that finds it below the version it met also `fetch_max`es
//!   it), *then* load the meta word. That is a store-buffering pair, so
//!   those accesses are `SeqCst` (free on x86: the RMWs are locked
//!   instructions anyway and a `SeqCst` load is a plain `mov`).
//! * **I3** — whether a transaction's read set is still valid is decided
//!   from the meta words of *its own* cells, never from the clock's
//!   absolute value: other simulations and tests in the process move the
//!   clock, and `ver > rv` only selects whether the re-check runs.
//! * **I4** — the extension charges no virtual time and draws no random
//!   number (it models nothing real HTM does).

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use ale_vtime::{tick, Event};

use crate::txn;

/// Maximum payload size of an [`HtmCell`] in bytes.
pub const MAX_CELL_SIZE: usize = 16;

/// Low bit of the meta word: set while a writer (transactional committer or
/// plain store) owns the cell.
pub(crate) const LOCKED: u64 = 1;

/// Version number carried by a meta word.
#[inline]
pub(crate) fn ver_of(meta: u64) -> u64 {
    meta >> 1
}

#[inline]
pub(crate) fn is_locked(meta: u64) -> bool {
    meta & LOCKED != 0
}

/// The version a write publishes over a cell whose pre-lock meta word was
/// `old_meta`, having loaded `clock` *after* locking it: above the old
/// version (I1) and above every snapshot taken before the lock (I2).
#[inline]
pub(crate) fn next_version(clock: u64, old_meta: u64) -> u64 {
    clock.max(ver_of(old_meta)) + 1
}

/// The version clock on a cache line (and prefetch pair) of its own: every
/// writer and every beginning transaction loads it, snapshot extensions
/// write it, and the statics the linker would otherwise put beside it are
/// read by every section.
#[repr(align(128))]
pub(crate) struct VersionClock(AtomicU64);

impl std::ops::Deref for VersionClock {
    type Target = AtomicU64;

    #[inline]
    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// The global version clock. Transactions snapshot it at begin; plain
/// stores and writing commits only *load* it; a snapshot extension that
/// finds it below the version it met advances it with `fetch_max`. See the
/// module docs for the protocol.
pub(crate) static GLOBAL_VCLOCK: VersionClock = VersionClock(AtomicU64::new(0));

/// One word of transactional memory. See the module docs.
///
/// ```
/// use ale_htm::HtmCell;
/// let c = HtmCell::new(5u64);
/// assert_eq!(c.get(), 5);             // plain consistent read (no txn)
/// c.set(6);                           // plain versioned store
/// assert_eq!(c.compare_exchange(6, 7), Ok(6));
/// assert_eq!(c.get(), 7);
/// ```
#[repr(C)]
pub struct HtmCell<T: Copy> {
    meta: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: all concurrent access to `value` is mediated by the seqlock
// protocol on `meta` (plain accesses) or the TL2 protocol (transactional
// accesses); `T: Copy` rules out drop hazards, `T: Send` lets values move
// between threads.
unsafe impl<T: Copy + Send> Send for HtmCell<T> {}
unsafe impl<T: Copy + Send> Sync for HtmCell<T> {}

impl<T: Copy> HtmCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: T) -> Self {
        const {
            assert!(
                std::mem::size_of::<T>() <= MAX_CELL_SIZE,
                "HtmCell payload exceeds MAX_CELL_SIZE"
            );
        }
        HtmCell {
            meta: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Read the cell. Transactional when called inside [`attempt`]
    /// (tracked in the read set, opaque — aborts rather than observing an
    /// inconsistent value); otherwise a seqlock-consistent plain read.
    ///
    /// [`attempt`]: crate::attempt
    #[inline]
    pub fn get(&self) -> T {
        match txn::active() {
            Some(tx) => txn::tx_read(tx, self),
            None => self.load_consistent(),
        }
    }

    /// Write the cell. Transactional (buffered until commit) inside a
    /// transaction; otherwise a version-advancing plain store.
    #[inline]
    pub fn set(&self, value: T) {
        match txn::active() {
            Some(tx) => txn::tx_write(tx, self, value),
            None => self.plain_store(value),
        }
    }

    /// Seqlock-consistent read that is never transactional, even inside a
    /// transaction. Used by statistics and debugging paths that must not
    /// grow the read set.
    // Callable from inside transactions by design, so it must stay
    // alloc/IO/park-free transitively.
    pub fn load_consistent(&self) -> T {
        loop {
            let m1 = self.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                tick(Event::SharedLoad);
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: racing reads are resolved by the version re-check:
            // a value observed while m1 == m2 and unlocked was stable for
            // the whole read (crossbeam seqlock technique).
            let v = unsafe { std::ptr::read_volatile(self.value.get()) };
            fence(Ordering::Acquire);
            let m2 = self.meta.load(Ordering::Relaxed);
            if m1 == m2 {
                tick(Event::SharedLoad);
                return v;
            }
            tick(Event::SharedLoad);
        }
    }

    /// Best-effort seqlock-consistent read that charges **no virtual
    /// time** and never waits: for `debug_assert!` conditions and `Debug`
    /// impls only. Anything that ticks inside a `debug_assert!` makes
    /// debug and release builds simulate different schedules, splitting
    /// their determinism digests; and anything that *waits* without
    /// ticking can livelock the cooperative simulator. So this neither
    /// ticks nor waits: it returns `None` if the cell stays locked or
    /// unstable for a few attempts (callers treat that as "unknown").
    // Callable from inside transactions by design, so it must stay
    // alloc/IO/park-free transitively.
    pub fn try_peek(&self) -> Option<T> {
        for _ in 0..8 {
            let m1 = self.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: racing reads are resolved by the version re-check:
            // a value observed while m1 == m2 and unlocked was stable for
            // the whole read (crossbeam seqlock technique).
            let v = unsafe { std::ptr::read_volatile(self.value.get()) };
            fence(Ordering::Acquire);
            let m2 = self.meta.load(Ordering::Relaxed);
            if m1 == m2 {
                return Some(v);
            }
        }
        None
    }

    /// Lock the cell for a plain write: spin until the meta word is
    /// unlocked and ours, return the pre-lock word.
    fn lock_plain(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            // Relaxed: only a hint for the CAS below, which re-checks it.
            let m = self.meta.load(Ordering::Relaxed);
            // SeqCst on success: the writer half of I2 — the clock load in
            // `publish` must not be satisfied before this lock is visible
            // to a transaction that then reads the meta word. It is also
            // the acquire that orders the value access after the lock.
            if !is_locked(m)
                && self
                    .meta
                    .compare_exchange_weak(m, m | LOCKED, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                return m;
            }
            tick(Event::Cas);
            if spins > 6 {
                tick(Event::Backoff(spins.min(16)));
            }
            spins += 1;
            std::hint::spin_loop();
        }
    }

    /// Release a cell locked by [`lock_plain`](Self::lock_plain) after
    /// writing its value: publish a version above the old one and above
    /// every snapshot taken before the lock. A *load* of the clock — plain
    /// stores never write the line every thread shares.
    #[inline]
    fn publish(&self, old_meta: u64) {
        // SeqCst: second half of the writer's I2 pair (see `lock_plain`).
        let wv = next_version(GLOBAL_VCLOCK.load(Ordering::SeqCst), old_meta);
        // Release: the value write above happens-before any reader that
        // observes this unlocked word.
        self.meta.store(wv << 1, Ordering::Release);
    }

    /// Non-transactional store: lock the cell, write, release with a fresh
    /// version (invalidating concurrent transactional readers). What
    /// [`set`](Self::set) does outside a transaction; inside one it is
    /// still not transactional — to the running transaction it is another
    /// thread's write, so a later read of a cell it had read aborts it
    /// with a conflict (the counterpart of
    /// [`load_consistent`](Self::load_consistent)).
    pub fn plain_store(&self, value: T) {
        let m = self.lock_plain();
        // SAFETY: we hold the cell lock; seqlock readers retry while locked.
        unsafe { std::ptr::write_volatile(self.value.get(), value) };
        self.publish(m);
        tick(Event::SharedStore);
    }

    /// Atomic compare-exchange on the cell value. Succeeds (storing `new`
    /// and returning `Ok(current)`) iff the cell holds `current`.
    ///
    /// Outside a transaction this is a real lock-free-style RMW on the cell
    /// (meta word briefly locked). Inside a transaction it is the natural
    /// transactional read-test-write, tracked like any other access. Locks
    /// built over `HtmCell` use this so that transactions subscribing to the
    /// lock word observe acquisitions, which is the TLE correctness
    /// requirement.
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T>
    where
        T: PartialEq,
    {
        if let Some(tx) = txn::active() {
            let seen = txn::tx_read(tx, self);
            return if seen == current {
                txn::tx_write(tx, self, new);
                Ok(seen)
            } else {
                Err(seen)
            };
        }
        let m = self.lock_plain();
        tick(Event::Cas);
        // SAFETY: we hold the cell lock.
        let seen = unsafe { std::ptr::read_volatile(self.value.get()) };
        if seen == current {
            // SAFETY: as above.
            unsafe { std::ptr::write_volatile(self.value.get(), new) };
            self.publish(m);
            Ok(seen)
        } else {
            // No write happened: restore the original meta so subscribed
            // transactions are not invalidated needlessly (Release: pairs
            // with the readers' acquire loads, as in `publish`).
            self.meta.store(m, Ordering::Release);
            Err(seen)
        }
    }

    /// Exclusive read through `&mut` (no synchronisation needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Consume the cell, returning its value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    // --- raw accessors for the transaction engine -------------------------

    #[inline]
    pub(crate) fn meta_word(&self) -> &AtomicU64 {
        &self.meta
    }

    #[inline]
    pub(crate) fn value_ptr(&self) -> *mut T {
        self.value.get()
    }
}

impl<T: Copy + Default> Default for HtmCell<T> {
    fn default() -> Self {
        HtmCell::new(T::default())
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for HtmCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmCell")
            .field("value", &self.try_peek())
            .field("version", &ver_of(self.meta.load(Ordering::Relaxed)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_get_set_roundtrip() {
        let c = HtmCell::new(41u64);
        assert_eq!(c.get(), 41);
        c.set(42);
        assert_eq!(c.get(), 42);
        assert_eq!(c.load_consistent(), 42);
    }

    #[test]
    fn stores_advance_the_version() {
        let c = HtmCell::new(0u32);
        let v0 = ver_of(c.meta.load(Ordering::Relaxed));
        c.set(1);
        c.set(2);
        let v2 = ver_of(c.meta.load(Ordering::Relaxed));
        assert!(
            v2 > v0,
            "two stores must advance the version ({v0} -> {v2})"
        );
        assert!(!is_locked(c.meta.load(Ordering::Relaxed)));
    }

    #[test]
    fn versions_increase_while_the_clock_stands_still() {
        // I1 on the rule itself: with the clock held at 5 a bare `clock + 1`
        // would republish version 6 for ever.
        let mut meta = 0u64;
        for _ in 0..10_000 {
            let v = next_version(5, meta);
            assert!(v > ver_of(meta) && v > 5);
            meta = v << 1;
        }
        assert_eq!(ver_of(meta), 10_005);
    }

    #[test]
    fn ten_thousand_stores_never_repeat_a_meta_word() {
        // I1 on the cell: no transaction runs here, so nothing this test
        // does moves the clock, and `load_consistent`'s `m1 == m2` check on
        // the 16-byte payload needs every store to publish a new word.
        let c = HtmCell::new((0u64, 0u64));
        let mut last = c.meta.load(Ordering::Relaxed);
        for i in 1..=10_000u64 {
            if i % 2 == 0 {
                c.set((i, i));
            } else {
                assert!(c.compare_exchange((i - 1, i - 1), (i, i)).is_ok());
            }
            let m = c.meta.load(Ordering::Relaxed);
            assert!(!is_locked(m));
            assert!(m > last, "store {i} republished meta word {m:#x}");
            last = m;
        }
        assert_eq!(c.get(), (10_000, 10_000));
    }

    #[test]
    fn the_clock_has_a_line_of_its_own() {
        assert_eq!(std::mem::align_of::<VersionClock>(), 128);
        assert_eq!(std::mem::size_of::<VersionClock>(), 128);
    }

    #[test]
    fn wide_payloads_work() {
        let c = HtmCell::new([1u8; 16]);
        c.set([7u8; 16]);
        assert_eq!(c.get(), [7u8; 16]);
        let c2 = HtmCell::new((1u64, 2u64));
        c2.set((3, 4));
        assert_eq!(c2.get(), (3, 4));
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut c = HtmCell::new(5i32);
        *c.get_mut() = 9;
        assert_eq!(c.into_inner(), 9);
    }

    #[test]
    fn default_and_debug() {
        let c: HtmCell<u64> = HtmCell::default();
        assert_eq!(c.get(), 0);
        let s = format!("{c:?}");
        assert!(s.contains("HtmCell"), "{s}");
    }

    #[test]
    fn compare_exchange_inside_transaction_is_buffered() {
        use crate::txn::attempt;
        use ale_vtime::{Platform, Rng};
        let c = HtmCell::new(1u64);
        let p = Platform::testbed().htm.unwrap();
        let mut rng = Rng::new(3);
        // Failed tx-CAS, then aborted tx-CAS, then committed tx-CAS.
        let r = attempt(&p, &mut rng, || c.compare_exchange(7, 8));
        assert_eq!(r.unwrap(), Err(1));
        let r: Result<(), _> = attempt(&p, &mut rng, || {
            c.compare_exchange(1, 2).unwrap();
            crate::txn::explicit_abort(1);
        });
        assert!(r.is_err());
        assert_eq!(c.get(), 1, "aborted tx-CAS must not publish");
        let r = attempt(&p, &mut rng, || c.compare_exchange(1, 2));
        assert_eq!(r.unwrap(), Ok(1));
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn compare_exchange_semantics() {
        let c = HtmCell::new(5u64);
        assert_eq!(c.compare_exchange(4, 9), Err(5));
        assert_eq!(c.get(), 5, "failed CAS must not write");
        assert_eq!(c.compare_exchange(5, 9), Ok(5));
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn failed_compare_exchange_keeps_version() {
        let c = HtmCell::new(1u32);
        let before = c.meta.load(Ordering::Relaxed);
        assert!(c.compare_exchange(2, 3).is_err());
        assert_eq!(
            c.meta.load(Ordering::Relaxed),
            before,
            "failed CAS must not advance the version (no needless tx invalidation)"
        );
    }

    #[test]
    fn concurrent_cas_counter_loses_nothing() {
        let c = HtmCell::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..5000 {
                        loop {
                            let v = c.get();
                            if c.compare_exchange(v, v + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), 20_000);
    }

    #[test]
    fn concurrent_plain_stores_are_not_torn() {
        // Writers store (x, x); readers must never see (a, b) with a != b.
        let cell = HtmCell::new((0u64, 0u64));
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let x = w * 1_000_000 + i;
                        cell.set((x, x));
                    }
                });
            }
            for _ in 0..2 {
                let cell = &cell;
                s.spawn(move || {
                    for _ in 0..40_000 {
                        let (a, b) = cell.get();
                        assert_eq!(a, b, "torn read: ({a}, {b})");
                    }
                });
            }
        });
    }
}
