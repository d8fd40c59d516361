//! The critical-section bracket in steady state: no heap allocation and no
//! reference-count traffic.
//!
//! A counting `#[global_allocator]` tallies allocations per thread (the
//! test harness allocates on its own threads). After a warm-up that creates
//! the granules, seeds the thread block and grows its stacks, 10 000 empty
//! critical sections in each mode must allocate nothing, and the strong
//! count of every granule must be where it started: the driver borrows
//! granules from the table, it does not clone their `Arc`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ale_repro::core::{
    scope, Ale, AleConfig, AleLock, AleRwLock, CsOptions, CsOutcome, ExecMode, Granule, LockMeta,
    StaticPolicy,
};
use ale_repro::htm::HtmCell;
use ale_repro::sync::{RwLock, SeqVersion, SpinLock};
use ale_repro::vtime::Platform;

struct CountingAlloc;

thread_local! {
    // Const-initialised and destructor-free: safe to touch from inside the
    // allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: usize = 200;
const STEADY: usize = 10_000;

fn strong_counts(granules: &[Arc<Granule>]) -> Vec<usize> {
    granules.iter().map(Arc::strong_count).collect()
}

/// Warm up, then run `STEADY` more sections and check the two invariants
/// over every granule of `metas`.
fn assert_steady_state_is_free(what: &str, metas: &[&Arc<LockMeta>], mut section: impl FnMut()) {
    for _ in 0..WARM_UP {
        section();
    }
    let granules: Vec<Arc<Granule>> = metas.iter().flat_map(|m| m.granules.all()).collect();
    assert!(
        !granules.is_empty(),
        "{what}: the warm-up created no granule"
    );
    let counts_before = strong_counts(&granules);
    let allocs_before = ALLOCS.with(Cell::get);
    for _ in 0..STEADY {
        section();
    }
    let allocated = ALLOCS.with(Cell::get) - allocs_before;
    assert_eq!(allocated, 0, "{what}: {STEADY} sections allocated");
    assert_eq!(
        strong_counts(&granules),
        counts_before,
        "{what}: a granule's strong count drifted"
    );
    let granules_after: usize = metas.iter().map(|m| m.granules.len()).sum();
    assert_eq!(granules_after, granules.len(), "{what}: granules appeared");
}

fn library(x: u32, y: u32) -> Arc<Ale> {
    Ale::new(AleConfig::new(Platform::testbed()), StaticPolicy::new(x, y))
}

/// One section per call, asserting it ran in `expect`. Every call shares
/// one scope declaration, hence one granule per lock.
fn section(lock: &AleLock<SpinLock>, expect: ExecMode, mut body: impl FnMut()) {
    lock.cs_plain(scope!("section"), CsOptions::new(), |cs| {
        assert_eq!(cs.mode(), expect);
        body();
    });
}

fn empty_section(lock: &AleLock<SpinLock>, expect: ExecMode) {
    section(lock, expect, || ());
}

#[test]
fn htm_sections_allocate_nothing() {
    let ale = library(3, 8);
    let lock = ale.new_lock("htm", SpinLock::new());
    assert_steady_state_is_free("HTM", &[lock.meta()], || {
        empty_section(&lock, ExecMode::Htm)
    });
}

/// A transaction with a write set: commit keeps the pre-lock meta words in
/// the write entries themselves, so locking, validating and publishing two
/// cells allocates nothing either.
#[test]
fn writing_htm_sections_allocate_nothing() {
    let ale = library(3, 8);
    let lock = ale.new_lock("htm-writes", SpinLock::new());
    let (a, b) = (HtmCell::new(0u64), HtmCell::new(0u64));
    assert_steady_state_is_free("writing HTM", &[lock.meta()], || {
        section(&lock, ExecMode::Htm, || {
            let moved = a.get() + 1;
            a.set(moved);
            b.set(b.get() + moved);
        })
    });
    assert!(a.get() >= STEADY as u64, "the sections' writes were lost");
}

#[test]
fn swopt_sections_allocate_nothing() {
    let ale = library(0, 6);
    let lock = ale.new_lock("swopt", SpinLock::new());
    let version = SeqVersion::new();
    assert_steady_state_is_free("SWOpt", &[lock.meta()], || {
        lock.cs(scope!("validated"), CsOptions::new().with_swopt(), |cs| {
            assert_eq!(cs.mode(), ExecMode::SwOpt);
            let snapshot = version.read(true);
            if version.validate(snapshot) {
                CsOutcome::Done(())
            } else {
                CsOutcome::SwOptFail
            }
        })
    });
}

#[test]
fn lock_sections_allocate_nothing() {
    let ale = library(0, 0);
    let lock = ale.new_lock("lock", SpinLock::new());
    assert_steady_state_is_free("Lock", &[lock.meta()], || {
        empty_section(&lock, ExecMode::Lock)
    });
}

/// A mutator's section under the lock: a conflicting region (two version
/// bumps) around plain stores, with the open-region registry that heals a
/// panicking section in play.
#[test]
fn lock_sections_with_a_conflicting_region_allocate_nothing() {
    let ale = library(0, 0);
    let lock = ale.new_lock("lock-region", SpinLock::new());
    let version = SeqVersion::new();
    let cell = HtmCell::new(0u64);
    assert_steady_state_is_free("Lock + region", &[lock.meta()], || {
        lock.cs_plain(scope!("mutator"), CsOptions::new(), |cs| {
            assert_eq!(cs.mode(), ExecMode::Lock);
            version.conflicting(cs.could_swopt_be_running(), || cell.set(cell.get() + 1));
        })
    });
    assert_eq!(cell.get(), (WARM_UP + STEADY) as u64);
    assert_eq!(version.read(false) % 2, 0, "a region was left open");
}

/// The kyoto shape: a slot-lock section nested in a shared section of the
/// outer readers-writer lock, elided (flattened into one transaction) and
/// with both locks really taken.
#[test]
fn nested_sections_allocate_nothing() {
    for (x, outer_mode) in [(3, ExecMode::Htm), (0, ExecMode::Lock)] {
        let ale = library(x, 0);
        let outer: AleRwLock<RwLock> = ale.new_rw_lock("outer", RwLock::new());
        let slot = ale.new_lock("slot", SpinLock::new());
        assert_steady_state_is_free("nested", &[outer.meta(), slot.meta()], || {
            outer.shared_cs(scope!("outer"), CsOptions::new(), |cs| {
                assert_eq!(cs.mode(), outer_mode);
                empty_section(&slot, outer_mode);
                CsOutcome::Done(())
            })
        });
    }
}

/// Before-and-after counts cannot see a clone that is dropped again by the
/// end of the section, so look from inside one: while the body runs, the
/// driver must hold its granule by reference only.
#[test]
fn a_running_section_holds_no_granule_clone() {
    let ale = library(3, 8);
    let lock = ale.new_lock("borrowed", SpinLock::new());
    empty_section(&lock, ExecMode::Htm);
    let granules = lock.meta().granules.all();
    let idle = strong_counts(&granules);
    assert_eq!(granules.len(), 1);
    section(&lock, ExecMode::Htm, || {
        assert_eq!(strong_counts(&granules), idle);
    });
    assert_eq!(lock.meta().granules.len(), 1);
}
