//! The transaction engine: TL2-style lazy versioning with a global version
//! clock and LSA-style snapshot extension, plus the best-effort failure
//! model.
//!
//! One [`attempt`] is one hardware transaction:
//!
//! 1. **Begin** — snapshot the global version clock (`rv`); maybe abort
//!    spuriously (the thread's spurious-event clock, see
//!    [`besteffort`](crate::besteffort)).
//! 2. **Body** — [`HtmCell::get`](crate::HtmCell::get) records the meta
//!    word of each cell it reads. A version at or below `rv` was published
//!    before the snapshot; one above it (plain stores run ahead of the
//!    clock, see [`cell`](crate::cell)) makes the transaction re-check
//!    every recorded word and, if none moved, *extend* `rv` — a line
//!    written before the transaction first touched it is not a conflict,
//!    on real HTM or here. A moved word is one (opacity: an inconsistent
//!    view is impossible — the transaction aborts instead). `set` buffers
//!    into the write set. Capacity and per-access spurious aborts are
//!    checked here.
//! 3. **Commit** — lock the write-set cells (bounded spin, else conflict
//!    abort), re-check the recorded read set, and publish the buffered
//!    writes under a version above every cell's old one and a *load* of the
//!    clock — the GV5 rule plain stores follow. No commit writes the clock:
//!    the next transaction to read a published cell meets a version ahead of
//!    its snapshot and extends, and only an extension that finds the clock
//!    below the version it met raises it.
//!
//! Aborts unwind with a private payload caught in [`attempt`] — control
//! never returns into the body, matching real HTM. A process-wide panic
//! hook silences these control-flow unwinds (they are not errors).
//!
//! Nested [`attempt`]s are *flattened* into the enclosing transaction,
//! which is also what the ALE library expects of HTM (§4.1 of the paper).

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Once;

use ale_vtime::{tick, tick_n, Event, HtmProfile, Rng};

use crate::abort::AbortStatus;
use crate::besteffort::FailureModel;
use crate::cell::{is_locked, next_version, ver_of, HtmCell, GLOBAL_VCLOCK, LOCKED, MAX_CELL_SIZE};

/// How long a committer spins on a locked write-set cell before declaring a
/// conflict. Small: commit-time locks are held only for the publish phase.
const COMMIT_SPIN_LIMIT: u32 = 64;

/// How many of the most recently recorded reads a new read is checked
/// against before it is recorded: a cell read again within this many
/// distinct reads is not recorded twice.
const READ_DEDUP_WINDOW: usize = 8;

/// One transactional read: the cell's meta word and what it held.
type ReadEntry = (*const AtomicU64, u64);

struct WriteEntry {
    meta: *const AtomicU64,
    value_ptr: *mut u8,
    size: usize,
    buf: [u8; MAX_CELL_SIZE],
    /// The pre-lock meta word, from the moment `commit` locks the cell.
    saved: u64,
}

/// The calling thread's transaction, armed in place by every [`attempt`]:
/// the set buffers keep their capacity from one attempt to the next, so a
/// steady-state attempt neither allocates nor moves the state. The failure
/// model outlives the attempts too: its spurious-event clock runs across
/// all of this thread's transactions.
pub(crate) struct TxState {
    rv: u64,
    reads: Vec<ReadEntry>,
    /// The meta words of the last [`READ_DEDUP_WINDOW`] recorded reads:
    /// read number `i` sits in slot `i % READ_DEDUP_WINDOW`. Only the
    /// first `min(reads.len(), READ_DEDUP_WINDOW)` slots belong to this
    /// attempt, so disarming leaves the ring as it is.
    recent: [*const AtomicU64; READ_DEDUP_WINDOW],
    writes: Vec<WriteEntry>,
    /// The profile's capacities, copied at begin.
    max_reads: usize,
    max_writes: usize,
    fm: FailureModel,
}

impl TxState {
    /// Begin under `profile`, whose clock is in force: a spurious abort at
    /// begin, or the snapshot.
    fn arm(&mut self, profile: &HtmProfile) -> Result<(), AbortStatus> {
        debug_assert!(self.reads.is_empty() && self.writes.is_empty());
        if self.fm.txn_spurious() {
            return Err(AbortStatus::spurious(self.fm.spurious_retry_hint()));
        }
        self.max_reads = profile.max_read_set;
        self.max_writes = profile.max_write_set;
        // SeqCst: the reader half of I2 (`cell` module docs) — every meta
        // word this transaction loads is loaded after this snapshot.
        self.rv = GLOBAL_VCLOCK.load(Ordering::SeqCst);
        Ok(())
    }

    /// Back to the idle state every attempt starts from, whichever way the
    /// last one ended.
    fn disarm(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }

    /// Record a validated read of the cell whose meta word is `mp`, unless
    /// one of the last [`READ_DEDUP_WINDOW`] recorded reads is of the same
    /// cell; a new entry past the read capacity aborts.
    #[inline]
    fn record_read(&mut self, mp: *const AtomicU64, m1: u64) {
        let n = self.reads.len();
        // `|`, not `||`: the live slots are compared with no branch per
        // slot. The first read of an attempt has none to compare.
        let live = &self.recent[..n.min(READ_DEDUP_WINDOW)];
        if live.iter().fold(false, |seen, &r| seen | (r == mp)) {
            return;
        }
        self.recent[n % READ_DEDUP_WINDOW] = mp;
        self.reads.push((mp, m1));
        if self.reads.len() > self.max_reads {
            do_abort(AbortStatus::capacity());
        }
    }
}

thread_local! {
    /// The transaction running on this thread: its [`TxState`] from the end
    /// of a successful arm to the end of the body, null otherwise — the
    /// "inside a transaction" flag and the way to the state in one word.
    /// Const-initialised and destructor-free, so the check in every
    /// `HtmCell` access is one thread-relative load, and a transactional
    /// access reaches the state through no accessor call and no borrow flag.
    static ACTIVE: Cell<*mut TxState> = const { Cell::new(ptr::null_mut()) };
    /// The state itself, reached through `LocalKey::with` once per attempt.
    static TX: UnsafeCell<TxState> = const {
        UnsafeCell::new(TxState {
            rv: 0,
            reads: Vec::new(),
            recent: [ptr::null(); READ_DEDUP_WINDOW],
            writes: Vec::new(),
            max_reads: 0,
            max_writes: 0,
            fm: FailureModel::new(),
        })
    };
}

/// The calling thread's running transaction (see [`active`]).
#[derive(Clone, Copy)]
pub(crate) struct Active(NonNull<TxState>);

impl Active {
    /// The transaction's state. The transactional accessors below hold it
    /// across no user code and never call one another; [`attempt_seeded`]
    /// holds none while the body runs.
    ///
    /// # Safety
    /// No other reference to the state may be live while this one is used.
    #[inline]
    unsafe fn state<'a>(self) -> &'a mut TxState {
        // SAFETY: `ACTIVE` only ever holds this thread's `TX`, which lives
        // until the thread exits; exclusivity is the caller's contract.
        unsafe { &mut *self.0.as_ptr() }
    }
}

/// The transaction running on the calling thread, if any.
#[inline]
pub(crate) fn active() -> Option<Active> {
    NonNull::new(ACTIVE.get()).map(Active)
}

/// Unwind payload used for abort control flow. Private: user code cannot
/// catch it by type, and [`attempt`] re-raises anything else.
struct TxAbortUnwind(AbortStatus);

#[cold]
fn do_abort(status: AbortStatus) -> ! {
    std::panic::panic_any(TxAbortUnwind(status))
}

fn do_injected_panic() -> ! {
    std::panic::panic_any(crate::inject::InjectedPanic)
}

/// Install (once) a panic hook that keeps control-flow unwinds silent:
/// abort unwinds (normal transaction control flow) and
/// [`InjectedPanic`](crate::inject::InjectedPanic) payloads (planned faults
/// raised by the checking harness).
fn init_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<TxAbortUnwind>().is_none()
                && p.downcast_ref::<crate::inject::InjectedPanic>().is_none()
                && p.downcast_ref::<crate::inject::InjectedCrash>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Install the quiet panic hook eagerly. [`attempt`] does this on first
/// use; harnesses that raise [`InjectedPanic`](crate::inject::InjectedPanic)
/// faults in Lock or SWOpt mode (where no transaction ever begins) call
/// this first so planned unwinds stay silent there too.
pub fn init_panic_hook() {
    init_hook();
}

/// True while the calling thread is inside a transaction.
#[inline]
pub fn in_txn() -> bool {
    !ACTIVE.get().is_null()
}

/// Number of entries currently in the read set (0 outside a transaction).
pub fn read_set_len() -> usize {
    // SAFETY: a read of a length, under no other reference (called from a
    // body, never from inside an accessor).
    active().map_or(0, |tx| unsafe { tx.state() }.reads.len())
}

/// Number of entries currently in the write set (0 outside a transaction).
pub fn write_set_len() -> usize {
    // SAFETY: as in `read_set_len`.
    active().map_or(0, |tx| unsafe { tx.state() }.writes.len())
}

/// Explicitly abort the enclosing transaction with a user code
/// (the `xabort imm8` analogue). Panics if no transaction is active.
pub fn explicit_abort(code: u8) -> ! {
    assert!(in_txn(), "explicit_abort called outside a transaction");
    do_abort(AbortStatus::explicit(code))
}

/// Run `body` as one best-effort hardware transaction.
///
/// Returns `Ok(body's value)` on commit, or the [`AbortStatus`] on abort.
/// On abort no effect of `body` is visible (writes were buffered). The
/// caller decides whether and how to retry — that is the ALE policy's job.
///
/// `rng` seeds the thread's spurious-event clock when `profile` differs
/// from the one it was built for; otherwise it is left untouched. If a
/// transaction is already active the call is flattened into it.
pub fn attempt<R>(
    profile: &HtmProfile,
    rng: &mut Rng,
    body: impl FnOnce() -> R,
) -> Result<R, AbortStatus> {
    attempt_seeded(profile, || rng.next_u64(), body)
}

/// [`attempt`] with the clock's seed drawn on demand: `seed` runs only when
/// the thread's spurious-event clock is rebuilt for a profile with a
/// nonzero spurious rate, so a caller that owns no random stream until it
/// needs one forks nothing for a transaction that commits.
///
/// The body is called where the caller built it: what crosses into
/// `catch_unwind` is one pointer to it, not a copy of its captures.
pub fn attempt_seeded<R>(
    profile: &HtmProfile,
    seed: impl FnOnce() -> u64,
    body: impl FnOnce() -> R,
) -> Result<R, AbortStatus> {
    if in_txn() {
        // Flat nesting: run inside the enclosing transaction.
        return Ok(body());
    }
    init_hook();
    tick(Event::HtmBegin);

    match crate::inject::check(crate::inject::InjectPoint::Begin) {
        Some(crate::inject::Injected::Abort(status)) => {
            tick(Event::HtmAbort);
            return Err(status);
        }
        Some(crate::inject::Injected::Panic) => {
            // The planned fault is a CS body that panics: nothing
            // transactional has started, so the unwind carries straight to
            // the critical-section driver's unwind-safety machinery.
            tick(Event::HtmAbort);
            do_injected_panic();
        }
        None => {}
    }

    // The state is reached once per attempt; arm, commit and disarm all
    // go through this pointer.
    let tx = TX.with(UnsafeCell::get);
    // A new profile gets a new spurious-event clock. Its seed comes from the
    // caller's code, which runs with no reference to the state live (it
    // could even run a transaction of its own).
    // SAFETY: no transaction is running on this thread (checked above), so
    // nothing else refers to its state; each reference below ends with its
    // statement, and neither `rebuild` nor `arm` runs the caller's code.
    if let Some(seeded) = unsafe { &(*tx).fm }.rebuild_for(profile) {
        let seed = if seeded { seed() } else { 0 };
        // SAFETY: as above.
        unsafe { &mut (*tx).fm }.rebuild(profile, seed);
    }
    // SAFETY: as above.
    if let Err(status) = unsafe { &mut *tx }.arm(profile) {
        tick(Event::HtmAbort);
        return Err(status);
    }
    // The guard disarms on every way out — commit, abort, planned panic,
    // user panic — so the next attempt on this thread always finds the
    // state idle.
    struct Disarm(*mut TxState);
    impl Drop for Disarm {
        fn drop(&mut self) {
            // SAFETY: the body has ended and `ACTIVE` is clear, so no other
            // reference to the state exists.
            unsafe { &mut *self.0 }.disarm();
        }
    }
    let _disarm = Disarm(tx);
    let mut body = Some(body);
    ACTIVE.set(tx);
    let outcome = catch_unwind(AssertUnwindSafe(|| (body.take().expect("called once"))()));
    ACTIVE.set(ptr::null_mut());

    match outcome {
        Ok(value) => {
            let committed = match crate::inject::check(crate::inject::InjectPoint::Commit) {
                Some(crate::inject::Injected::Abort(status)) => Err(status),
                Some(crate::inject::Injected::Panic) => {
                    // Planned panic at commit entry: the transaction dies
                    // with its buffered writes and the unwind reaches the
                    // caller, exactly like a body panic would.
                    tick(Event::HtmAbort);
                    do_injected_panic();
                }
                // SAFETY: the body has ended and `ACTIVE` is clear; the
                // reference ends with `commit`, before the guard's.
                None => commit(unsafe { &mut *tx }),
            };
            match committed {
                Ok(()) => {
                    tick(Event::HtmCommit);
                    Ok(value)
                }
                Err(status) => {
                    tick(Event::HtmAbort);
                    Err(status)
                }
            }
        }
        Err(payload) => {
            tick(Event::HtmAbort);
            match payload.downcast::<TxAbortUnwind>() {
                Ok(ab) => Err(ab.0),
                Err(other) => resume_unwind(other),
            }
        }
    }
}

/// Transactional read of `cell` by the running transaction `tx` (called
/// from `HtmCell::get`).
pub(crate) fn tx_read<T: Copy>(tx: Active, cell: &HtmCell<T>) -> T {
    tick(Event::SharedLoad);
    match crate::inject::check(crate::inject::InjectPoint::Read) {
        Some(crate::inject::Injected::Abort(status)) => do_abort(status),
        Some(crate::inject::Injected::Panic) => do_injected_panic(),
        None => {}
    }
    // SAFETY: the only reference to the state until this read returns or
    // aborts; nothing below takes another.
    let tx = unsafe { tx.state() };

    // Read-after-write: return the buffered value. A read-only transaction
    // has nothing to look up.
    let vp = cell.value_ptr() as *mut u8;
    if !tx.writes.is_empty() {
        if let Some(w) = tx.writes.iter().find(|w| w.value_ptr == vp) {
            // SAFETY: buf holds a valid T written by tx_write for this cell.
            return unsafe { ptr::read_unaligned(w.buf.as_ptr() as *const T) };
        }
    }

    if tx.fm.access_spurious() {
        let hint = tx.fm.spurious_retry_hint();
        do_abort(AbortStatus::spurious(hint));
    }

    let meta = cell.meta_word();
    // SeqCst: the reader half of I2 — ordered after the clock access that
    // fixed `rv` (begin or the last extension); it is also the acquire that
    // orders the value read after the version check.
    let m1 = meta.load(Ordering::SeqCst);
    if is_locked(m1) {
        do_abort(AbortStatus::conflict());
    }
    if ver_of(m1) > tx.rv {
        match extend(&tx.reads, ver_of(m1)) {
            Some(rv) => tx.rv = rv,
            None => do_abort(AbortStatus::conflict()),
        }
    }
    // SAFETY: value race resolved by the version re-check below.
    let v = unsafe { ptr::read_volatile(cell.value_ptr()) };
    fence(Ordering::Acquire);
    // Relaxed: ordered after the value read by the fence above.
    let m2 = meta.load(Ordering::Relaxed);
    if m1 != m2 {
        do_abort(AbortStatus::conflict());
    }

    tx.record_read(meta, m1);
    v
}

/// Snapshot extension: the transaction met version `ver` above its `rv`.
/// Returns the new `rv` if every cell read so far still holds the meta word
/// recorded when it was read — then all of them, and the cell being read,
/// were simultaneously current at a moment after the clock access below, and
/// that moment is the new snapshot — or `None` if one moved (a conflict).
///
/// Charges no virtual time and draws nothing (I4): real HTM has no such
/// step, so the simulation must not see it. The verdict depends only on
/// this transaction's own cells (I3).
#[inline]
fn extend(reads: &[ReadEntry], ver: u64) -> Option<u64> {
    // SeqCst: the reader half of I2 for the loads below — a writer that
    // locks one of these cells after we re-checked it loads the clock after
    // this access and so publishes above the new snapshot. The snapshot
    // must not pass the clock, so a clock below `ver` is raised to it: the
    // only clock write left in the engine, and the one that lets later
    // transactions start past `ver`.
    let clock = GLOBAL_VCLOCK.load(Ordering::SeqCst);
    let rv = if clock >= ver {
        clock
    } else {
        GLOBAL_VCLOCK.fetch_max(ver, Ordering::SeqCst).max(ver)
    };
    for &(rp, recorded) in reads {
        // SAFETY: cells outlive the transactions that access them.
        // SeqCst: see above; a locked word differs from the recorded one.
        if unsafe { &*rp }.load(Ordering::SeqCst) != recorded {
            return None;
        }
    }
    Some(rv)
}

/// Transactional (buffered) write of `cell` by the running transaction `tx`
/// (called from `HtmCell::set`).
pub(crate) fn tx_write<T: Copy>(tx: Active, cell: &HtmCell<T>, value: T) {
    tick(Event::SharedStore);
    match crate::inject::check(crate::inject::InjectPoint::Write) {
        Some(crate::inject::Injected::Abort(status)) => do_abort(status),
        Some(crate::inject::Injected::Panic) => do_injected_panic(),
        None => {}
    }
    // SAFETY: as in `tx_read`.
    let tx = unsafe { tx.state() };

    if tx.fm.access_spurious() {
        let hint = tx.fm.spurious_retry_hint();
        do_abort(AbortStatus::spurious(hint));
    }

    let size = std::mem::size_of::<T>();
    let mut buf = [0u8; MAX_CELL_SIZE];
    // SAFETY: size_of::<T>() <= MAX_CELL_SIZE (enforced by HtmCell::new).
    unsafe {
        ptr::copy_nonoverlapping(&value as *const T as *const u8, buf.as_mut_ptr(), size);
    }

    let vp = cell.value_ptr() as *mut u8;
    if let Some(w) = tx.writes.iter_mut().find(|w| w.value_ptr == vp) {
        w.buf = buf;
        return;
    }

    // Eager conflict check: a cell someone else holds locked is being
    // published to right now; bailing early is cheaper than spinning on it
    // at commit. Relaxed: a hint, `commit` decides.
    let meta = cell.meta_word();
    let m = meta.load(Ordering::Relaxed);
    if is_locked(m) {
        do_abort(AbortStatus::conflict());
    }

    tx.writes.push(WriteEntry {
        meta: meta as *const AtomicU64,
        value_ptr: vp,
        size,
        buf,
        saved: 0,
    });
    if tx.writes.len() > tx.max_writes {
        do_abort(AbortStatus::capacity());
    }
}

/// Commit: lock write cells, validate reads, publish, release.
fn commit(st: &mut TxState) -> Result<(), AbortStatus> {
    if st.writes.is_empty() {
        // Read-only transactions were validated read by read: every cell
        // was current at the last snapshot (begin or extension).
        return Ok(());
    }

    // Phase 1: lock every write-set cell, keeping its pre-lock word.
    for i in 0..st.writes.len() {
        // SAFETY: cells outlive the transactions that access them.
        let meta = unsafe { &*st.writes[i].meta };
        let mut spins = 0u32;
        loop {
            // Relaxed: only a hint for the CAS below, which re-checks it.
            let m = meta.load(Ordering::Relaxed);
            tick(Event::Cas);
            // SeqCst on success: the writer half of I2 (the clock load in
            // phase 3 follows it), and one side of the write-skew pair —
            // two commits that each read what the other writes both lock
            // first and validate second, so at least one sees the other's
            // lock.
            if !is_locked(m)
                && meta
                    .compare_exchange_weak(m, m | LOCKED, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                st.writes[i].saved = m;
                break;
            }
            spins += 1;
            if spins > COMMIT_SPIN_LIMIT {
                unlock(&st.writes[..i]);
                return Err(AbortStatus::conflict());
            }
            std::hint::spin_loop();
        }
    }

    // Phase 2: validate the read set against the recorded words. A cell
    // this commit locked passes iff its pre-lock word is the recorded one
    // (someone else's lock on the recorded word does not).
    tick_n(Event::SharedLoad, st.reads.len() as u64);
    for &(rp, recorded) in &st.reads {
        // SAFETY: as above.
        // SeqCst: the other side of the write-skew pair (see phase 1).
        let m = unsafe { &*rp }.load(Ordering::SeqCst);
        // `recorded | LOCKED` on a cell of the write set: this commit locked
        // it, and from the recorded word.
        let ours = m == recorded | LOCKED && st.writes.iter().any(|w| w.meta == rp);
        if m != recorded && !ours {
            unlock(&st.writes);
            return Err(AbortStatus::conflict());
        }
    }

    // Phase 3: publish above every old version (I1) and the clock (I2),
    // the GV5 rule of a plain store: the clock is only loaded. SeqCst:
    // ordered after the lock CASes of phase 1 (writer half of I2).
    let clock = GLOBAL_VCLOCK.load(Ordering::SeqCst);
    let wv = st
        .writes
        .iter()
        .fold(0, |wv, w| wv.max(next_version(clock, w.saved)));
    tick_n(Event::SharedStore, st.writes.len() as u64);
    for w in &st.writes {
        // SAFETY: we hold the cell lock; readers retry while locked.
        unsafe {
            std::ptr::copy_nonoverlapping(w.buf.as_ptr(), w.value_ptr, w.size);
        }
        fence(Ordering::Release);
        // SAFETY: as above. Release: the value write happens-before any
        // reader that observes the unlocked word.
        unsafe { &*w.meta }.store(wv << 1, Ordering::Release);
    }
    Ok(())
}

/// Give back the cells `commit` locked, versions untouched.
fn unlock(locked: &[WriteEntry]) {
    for w in locked {
        // SAFETY: we locked these cells in `commit`. Release: as for a
        // publish, though no value was written.
        unsafe { &*w.meta }.store(w.saved, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::AbortCode;
    use ale_vtime::Platform;

    fn profile() -> HtmProfile {
        Platform::testbed().htm.unwrap()
    }

    fn rng() -> Rng {
        Rng::new(99)
    }

    #[test]
    fn commit_publishes_all_writes() {
        let a = HtmCell::new(0u64);
        let b = HtmCell::new(0u64);
        let r = attempt(&profile(), &mut rng(), || {
            a.set(1);
            b.set(2);
            assert_eq!(a.get(), 1, "read-after-write sees buffered value");
        });
        assert!(r.is_ok());
        assert_eq!((a.get(), b.get()), (1, 2));
    }

    #[test]
    fn abort_discards_all_writes() {
        let a = HtmCell::new(10u64);
        let r: Result<(), _> = attempt(&profile(), &mut rng(), || {
            a.set(99);
            explicit_abort(7);
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Explicit(7));
        assert_eq!(a.get(), 10, "aborted write must not be visible");
    }

    #[test]
    fn plain_store_invalidates_readers() {
        let a = HtmCell::new(0u64);
        let r: Result<u64, _> = attempt(&profile(), &mut rng(), || {
            let v = a.get();
            // A non-transactional store lands after our snapshot…
            a.plain_store(123);
            // …so our next transactional read of the cell must abort.
            v + a.get()
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert_eq!(a.get(), 123);
    }

    #[test]
    fn a_store_before_the_first_read_is_not_a_conflict() {
        // The cell is plain-stored after the transaction began, so its
        // version is above the snapshot — but the transaction has not
        // touched it yet. Real HTM starts tracking a line at the first
        // access; here the snapshot is extended.
        let a = HtmCell::new(0u64);
        let b = HtmCell::new(0u64);
        let r = attempt(&profile(), &mut rng(), || {
            a.plain_store(7);
            let x = a.get();
            // Same again with a non-empty, untouched read set, and a write
            // so that commit validates the recorded words as well.
            b.plain_store(8);
            let y = b.get();
            b.set(x + y);
            x + y
        });
        assert_eq!(r.unwrap(), 15);
        assert_eq!((a.get(), b.get()), (7, 15));
    }

    #[test]
    fn an_overwritten_read_aborts_at_the_extension() {
        // `a` is overwritten after the transaction read it; the next cell
        // it meets with a version above its snapshot forces the re-check,
        // and that is where it dies — a read-only transaction has no commit
        // validation to die in.
        let a = HtmCell::new(0u64);
        let b = HtmCell::new(0u64);
        let past_the_read = Cell::new(false);
        let r: Result<u64, _> = attempt(&profile(), &mut rng(), || {
            let x = a.get();
            a.plain_store(x + 1);
            b.plain_store(1);
            let y = b.get();
            past_the_read.set(true);
            x + y
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert!(!past_the_read.get(), "the abort must come from `b.get()`");
        assert_eq!((a.get(), b.get()), (1, 1));
    }

    #[test]
    fn the_next_reader_of_a_committed_cell_extends_once_and_commits() {
        // A writing commit publishes above the clock without raising it, so
        // the next transaction begins below what it published, meets it at
        // its first read, extends to it, and finds the second cell of the
        // same commit (same version) inside the new snapshot. A test in a
        // parallel thread may extend the clock past the commit before the
        // reader begins; then the round proves nothing and is run again.
        let (a, b) = (HtmCell::new(0u64), HtmCell::new(0u64));
        // SAFETY: read from the body, under no other reference.
        let rv = || unsafe { active().unwrap().state() }.rv;
        for round in 1..=100u64 {
            attempt(&profile(), &mut rng(), || {
                a.set(round);
                b.set(round);
            })
            .unwrap();
            let published = ver_of(a.meta_word().load(Ordering::Relaxed));
            assert_eq!(published, ver_of(b.meta_word().load(Ordering::Relaxed)));
            let (begin, after_a, after_b, x, y) = attempt(&profile(), &mut rng(), || {
                let begin = rv();
                let x = a.get();
                let after_a = rv();
                let y = b.get();
                (begin, after_a, rv(), x, y)
            })
            .unwrap();
            assert_eq!((x, y), (round, round));
            if begin >= published {
                continue;
            }
            assert!(after_a >= published, "the first read did not extend");
            assert_eq!(after_b, after_a, "the second read extended again");
            return;
        }
        panic!("no reader ever began below a commit's version: commits write the clock");
    }

    #[test]
    fn extension_charges_no_virtual_time() {
        // I4: the same body with and without an extension costs the same
        // ticks (and draws the same numbers: the profile has none to draw).
        use ale_vtime::Sim;
        let run = |store_first: bool| {
            Sim::new(Platform::testbed(), 1)
                .run(|_| {
                    let (a, b) = (HtmCell::new(0u64), HtmCell::new(0u64));
                    if !store_first {
                        // Stored and read once before the measured attempt:
                        // that read raises the clock past the version, so
                        // the measured attempt starts beyond it.
                        b.plain_store(1);
                        attempt(&profile(), &mut rng(), || b.get()).unwrap();
                    }
                    let before = ale_vtime::now();
                    let r = attempt(&profile(), &mut rng(), || {
                        let x = a.get();
                        if store_first {
                            b.plain_store(1);
                        }
                        x + b.get()
                    });
                    assert_eq!(r.unwrap(), 1);
                    ale_vtime::now() - before
                })
                .results[0]
        };
        let store_cost = Platform::testbed().costs.shared_store_ns;
        assert_eq!(run(true), run(false) + store_cost);
    }

    #[test]
    fn commit_validation_catches_interleaved_store() {
        // Read a cell transactionally, then have the "outside world" bump it
        // before commit; a write-set member forces a full commit validation.
        let observed = HtmCell::new(0u64);
        let unrelated = HtmCell::new(0u64);
        let r = attempt(&profile(), &mut rng(), || {
            let v = observed.get();
            unrelated.set(1);
            observed.plain_store(v + 1); // simulates a concurrent writer
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Conflict);
        assert_eq!(unrelated.get(), 0, "aborted transaction published nothing");
    }

    #[test]
    fn write_capacity_aborts() {
        let mut p = profile();
        p.max_write_set = 4;
        let cells: Vec<HtmCell<u64>> = (0..10).map(HtmCell::new).collect();
        let r = attempt(&p, &mut rng(), || {
            for c in &cells {
                c.set(0);
            }
        });
        let st = r.unwrap_err();
        assert_eq!(st.code, AbortCode::Capacity);
        assert!(!st.may_retry, "capacity aborts must not suggest retry");
    }

    #[test]
    fn read_capacity_aborts() {
        let mut p = profile();
        p.max_read_set = 4;
        let cells: Vec<HtmCell<u64>> = (0..10).map(HtmCell::new).collect();
        let r = attempt(&p, &mut rng(), || {
            cells.iter().map(|c| c.get()).sum::<u64>()
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Capacity);
    }

    #[test]
    fn duplicate_reads_do_not_exhaust_capacity() {
        let mut p = profile();
        p.max_read_set = 4;
        let a = HtmCell::new(7u64);
        let r = attempt(&p, &mut rng(), || {
            let mut sum = 0;
            for _ in 0..100 {
                sum += a.get();
            }
            sum
        });
        assert_eq!(r.unwrap(), 700);
    }

    #[test]
    fn spurious_aborts_happen_at_profile_rate() {
        let p = Platform::rock().htm.unwrap();
        let mut r = rng();
        let mut aborts = 0;
        let trials = 5000;
        for _ in 0..trials {
            if attempt(&p, &mut r, || ()).is_err() {
                aborts += 1;
            }
        }
        // rock: 2% per-txn spurious rate; empty body → no per-access rate.
        let rate = aborts as f64 / trials as f64;
        assert!((0.01..0.04).contains(&rate), "spurious rate {rate}");
    }

    #[test]
    fn a_zero_rate_attempt_draws_nothing() {
        let a = HtmCell::new(1u64);
        let mut r = rng();
        let before = r.clone();
        for _ in 0..100 {
            attempt(&profile(), &mut r, || a.get()).unwrap();
        }
        assert_eq!(r, before, "a testbed attempt must not draw");
    }

    #[test]
    fn spurious_access_aborts_happen_at_profile_rate() {
        // rock: 0.0012 per access. Count the accesses that reach the
        // spurious check (the aborting one included) and the aborts raised
        // after the body began; begin-time aborts never enter the body.
        let p = Platform::rock().htm.unwrap();
        let cells: Vec<HtmCell<u64>> = (0..4).map(HtmCell::new).collect();
        let mut r = rng();
        let (accesses, in_body) = (Cell::new(0u64), Cell::new(false));
        let mut aborts = 0u64;
        while accesses.get() < 1_000_000 {
            in_body.set(false);
            let res = attempt(&p, &mut r, || {
                in_body.set(true);
                cells.iter().fold(0, |sum, c| {
                    accesses.set(accesses.get() + 1);
                    sum + c.get()
                })
            });
            if let Err(st) = res {
                if in_body.get() {
                    assert_eq!(st.code, AbortCode::Spurious);
                    aborts += 1;
                }
            }
        }
        let rate = aborts as f64 / accesses.get() as f64;
        assert!(
            (0.0012 * 0.85..0.0012 * 1.15).contains(&rate),
            "per-access spurious rate {rate}"
        );
    }

    #[test]
    fn a_new_profile_rebuilds_the_clock() {
        // Run rock until its clock has fired at least once, then switch to
        // the testbed on the same thread: the testbed clock never fires.
        let rock = Platform::rock().htm.unwrap();
        let a = HtmCell::new(0u64);
        let mut r = rng();
        while attempt(&rock, &mut r, || a.get()).is_ok() {}
        for _ in 0..10_000 {
            assert!(attempt(&profile(), &mut r, || a.get()).is_ok());
        }
    }

    #[test]
    fn a_seed_may_run_a_transaction_of_its_own() {
        // The seed is the caller's code and is drawn with no reference to
        // the thread's state live, so it may run a whole transaction.
        let a = HtmCell::new(1u64);
        attempt(&profile(), &mut rng(), || ()).unwrap();
        let rock = Platform::rock().htm.unwrap();
        let seed = || attempt(&profile(), &mut rng(), || a.get()).unwrap();
        match attempt_seeded(&rock, seed, || a.get()) {
            Ok(v) => assert_eq!(v, 1),
            Err(st) => assert_eq!(st.code, AbortCode::Spurious, "rock aborts spuriously"),
        }
        assert!(!in_txn());
    }

    #[test]
    fn nested_attempts_are_flattened() {
        let a = HtmCell::new(0u64);
        let r = attempt(&profile(), &mut rng(), || {
            a.set(1);
            let inner = attempt(&profile(), &mut rng(), || {
                assert!(in_txn());
                a.set(2);
                a.get()
            });
            assert_eq!(inner.unwrap(), 2);
            a.get()
        });
        assert_eq!(r.unwrap(), 2);
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn explicit_abort_in_nested_scope_aborts_outer() {
        let a = HtmCell::new(0u64);
        let r: Result<(), _> = attempt(&profile(), &mut rng(), || {
            a.set(5);
            let _ = attempt(&profile(), &mut rng(), || explicit_abort(3));
            unreachable!("flattened abort must unwind the outer attempt");
        });
        assert_eq!(r.unwrap_err().code, AbortCode::Explicit(3));
        assert_eq!(a.get(), 0);
    }

    #[test]
    fn user_panics_propagate_and_clean_up() {
        let a = HtmCell::new(0u64);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = attempt(&profile(), &mut rng(), || {
                a.set(1);
                panic!("user bug");
            });
        }));
        assert!(caught.is_err());
        assert!(!in_txn(), "tx state must be cleared after a user panic");
        assert_eq!(a.get(), 0);
    }

    #[test]
    fn set_lengths_report_and_reset() {
        assert_eq!(read_set_len(), 0);
        assert_eq!(write_set_len(), 0);
        let a = HtmCell::new(0u64);
        let b = HtmCell::new(0u64);
        let r = attempt(&profile(), &mut rng(), || {
            let _ = a.get();
            b.set(1);
            (read_set_len(), write_set_len())
        });
        assert_eq!(r.unwrap(), (1, 1));
        assert_eq!(read_set_len(), 0);
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        // Classic counter test: N threads × M transactional increments with
        // retry-until-commit must not lose updates.
        let counter = HtmCell::new(0u64);
        let p = profile();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let counter = &counter;
                s.spawn(move || {
                    let mut r = Rng::new(1000 + t);
                    for _ in 0..2000 {
                        loop {
                            let ok = attempt(&p, &mut r, || {
                                let v = counter.get();
                                counter.set(v + 1);
                            });
                            if ok.is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(counter.get(), 8000);
    }

    #[test]
    fn concurrent_disjoint_transactions_commit() {
        // Transactions touching disjoint cells shouldn't conflict (beyond
        // rare commit-window overlaps, resolved by retry).
        let cells: Vec<HtmCell<u64>> = (0..8).map(|_| HtmCell::new(0)).collect();
        let p = profile();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let cells = &cells;
                s.spawn(move || {
                    let mut r = Rng::new(t as u64);
                    for _ in 0..1000 {
                        loop {
                            let ok = attempt(&p, &mut r, || {
                                let v = cells[t].get();
                                cells[t].set(v + 1);
                            });
                            if ok.is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        for c in &cells {
            assert_eq!(c.get(), 1000);
        }
    }

    #[test]
    fn atomic_swap_invariant_under_contention() {
        // Two cells always sum to 100; concurrent transfers must preserve it.
        let a = HtmCell::new(50u64);
        let b = HtmCell::new(50u64);
        let p = profile();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    let mut r = Rng::new(t);
                    for i in 0..2000u64 {
                        loop {
                            let ok = attempt(&p, &mut r, || {
                                let (x, y) = (a.get(), b.get());
                                assert_eq!(x + y, 100, "opacity violated");
                                if i % 2 == 0 && x > 0 {
                                    a.set(x - 1);
                                    b.set(y + 1);
                                } else if y > 0 {
                                    a.set(x + 1);
                                    b.set(y - 1);
                                }
                            });
                            if ok.is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(a.get() + b.get(), 100);
    }
}
