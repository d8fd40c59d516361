//! The self-test, as a test: every row of `MUTATIONS` must be caught by
//! the oracle it names, within the CI budget. One `#[test]` in its own
//! binary, because the active mutation is process-global.
//!
//! Release only, like the CI lane: in a debug build `node_depart`'s
//! `debug_assert!` panics the SNZI lane before the `snzi:` oracle can look,
//! and a lane panic is — rightly — not that oracle firing.
#![cfg(all(feature = "selftest-mutations", not(debug_assertions)))]

use ale_check::{run_once, CheckConfig, MUTATIONS};

#[test]
fn every_mutation_is_caught_by_its_own_oracle() {
    for lane in &MUTATIONS {
        let hunt = {
            let _active = lane.activate();
            lane.hunt(&CheckConfig::default(), 0..50)
        };
        let Some((config, _)) = &hunt.found else {
            panic!("`{}` escaped `{}`: {hunt:?}", lane.name, lane.oracle)
        };
        // The guard is gone: the very schedule that failed must now pass.
        let clean = run_once(config);
        assert!(
            !clean.failed(),
            "`{}` still fails with no mutation active: {:?}",
            lane.name,
            clean.violations
        );
    }
}
