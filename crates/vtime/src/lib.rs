//! # ale-vtime — virtual time for the ALE reproduction
//!
//! The ALE paper (SPAA 2014) evaluates its adaptive lock-elision library on
//! 16-core (Rock), 8-thread (Haswell) and 128-thread (SPARC T2+) machines.
//! This reproduction runs on whatever host it is given — possibly a single
//! CPU — so the evaluation executes the *real* library code on **simulated
//! hardware threads** under a deterministic, conservative discrete-event
//! scheduler:
//!
//! * Each simulated thread ("lane") is an OS thread, but at most one lane
//!   runs at a time. Every synchronisation-relevant operation in the stack
//!   calls [`tick`] with an abstract [`Event`]; the lane's *virtual clock*
//!   advances by the event's cost under the active [`Platform`] cost model.
//! * The scheduler always runs the lane with the lowest virtual clock
//!   (ties broken by lane id), which yields a sequentially consistent
//!   interleaving equivalent to a parallel execution in virtual time.
//! * Throughput for a run is `completed operations ÷ virtual makespan`,
//!   which is how every figure in the paper is regenerated.
//!
//! Outside a simulation ([`is_simulated`] is false) the same entry points
//! fall back to real time: [`now`] reads a monotonic nanosecond clock and
//! [`tick`] is a no-op, so the library runs unchanged on real threads.
//!
//! The crate also hosts the [`Platform`] profiles (`rock`, `haswell`, `t2`)
//! that parameterise both the cost model and the emulated HTM in
//! `ale-htm`, and a small deterministic PRNG ([`rng::Rng`]) used everywhere
//! randomness is needed so that regenerated figures are bit-identical.
//!
//! ## Example
//!
//! ```
//! use ale_vtime::{Platform, Sim, Event};
//!
//! let platform = Platform::haswell();
//! let report = Sim::new(platform, 4).run(|lane| {
//!     for _ in 0..100 {
//!         ale_vtime::tick(Event::LocalWork(50));
//!         ale_vtime::tick(Event::Cas);
//!     }
//!     lane.id()
//! });
//! assert_eq!(report.results, vec![0, 1, 2, 3]);
//! // Four lanes doing independent work overlap perfectly in virtual time.
//! assert_eq!(report.makespan_ns, report.lane_clocks.iter().copied().max().unwrap());
//! ```

pub mod clock;
pub mod platform;
pub mod rng;
pub mod sched;
pub mod zipf;

pub use clock::{is_simulated, lane_id, now, stripe_hint, tick, tick_n, Event};
pub use platform::{CostModel, HtmProfile, Platform, PlatformKind};
pub use rng::Rng;
pub use sched::{Lane, SchedStrategy, Sim, SimReport};
pub use zipf::Zipf;
