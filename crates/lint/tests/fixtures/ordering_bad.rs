//! Fixture: Relaxed stores and read-modify-writes to lock words and
//! version/publication fields. Expect four `ordering-discipline` findings.

pub fn unlocks_relaxed(s: &State) {
    s.lock.store(0, Ordering::Relaxed);
}

pub fn publishes_version_relaxed(s: &State) {
    s.version.store(2, Ordering::Relaxed);
}

pub fn bumps_global_clock_relaxed() {
    GLOBAL_VCLOCK.store(1, Ordering::Relaxed);
}

pub fn advances_global_clock_relaxed() -> u64 {
    GLOBAL_VCLOCK.fetch_add(1, Ordering::Relaxed) + 1
}
