//! Fixture: publication stores use Release (or stronger); Relaxed is
//! confined to plain statistics. Expect zero `ordering-discipline`
//! findings.

pub fn publishes_with_release(s: &State) {
    s.version.store(2, Ordering::Release);
    s.lock.store(0, Ordering::SeqCst);
}

pub fn advances_the_clock_in_order(wv: u64) -> u64 {
    GLOBAL_VCLOCK.fetch_max(wv, Ordering::SeqCst)
}

pub fn stats_may_be_relaxed(s: &State) {
    // `hits` is not a lock word or version field.
    s.hits.store(1, Ordering::Relaxed);
    s.hits.fetch_add(1, Ordering::Relaxed);
}

pub fn relaxed_loads_are_fine(s: &State) -> u64 {
    s.version.load(Ordering::Relaxed)
}
