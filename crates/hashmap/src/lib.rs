//! # ale-hashmap — the ALE paper's running example (§3)
//!
//! A chained hash table protected by a single lock, integrated with the
//! ALE library so every operation can execute in HTM, SWOpt, or Lock mode:
//!
//! * [`AleHashMap`] — the full §3 implementation: SWOpt `Get` (Figure 1's
//!   `GetImp<SWOptMode>` twin paths), conflicting-region bracketing with
//!   bump elision, the §3.3 self-abort and fine-grained (nested-CS)
//!   variants, and optional per-bucket version numbers (the extension the
//!   paper proposed but had "not yet experimented with").
//! * [`BaselineHashMap`] — the uninstrumented single-lock baseline.
//! * [`AleShardedMap`] — the scale refactor: N single-lock shards routed
//!   by the hash's high bits, each its own adaptive granule, with
//!   incremental resize whose migration steps are themselves elided
//!   critical sections (see `shard` module docs).
//!
//! [`AleHashMap`] and each [`AleShardedMap`] shard are one type, the
//! `shard` module's `Shard<V, B>`: the §3 protocol written once over a
//! bucket layout chosen at compile time — one fixed [`Table`], or a
//! resizing [`TableSet`] behind a table-pointer seqlock.
//!
//! All three maps — and `ale-kyoto`'s slots — are built on one **chain
//! engine** ([`chain`]): the bucket-chain walk, link, unlink, move-to-front
//! and sweep are [`NodeSlab`] methods over a [`Table`]'s head cells,
//! written once. The walk takes its validation as a closure, so the SWOpt
//! and the pessimistic search are two instantiations of one source (the
//! paper's Figure 1), and each structure keeps only its protocol: which
//! versions it snapshots, what it validates, where it opens the
//! conflicting region.
//!
//! Keys are `u64`; values are any `Copy + Default` type of at most 16
//! bytes (they live in [`ale_htm::HtmCell`]s).

pub mod baseline;
pub mod chain;
pub mod map;
pub mod node;
pub mod resize;
pub mod shard;

pub use baseline::BaselineHashMap;
pub use map::{AleHashMap, MapConfig};
pub use node::{Node, NodeSlab, NIL};
pub use resize::{Table, TableSet, MAX_TABLES, NO_TABLE};
pub use shard::{AleShardedMap, ShardedMapConfig, MAX_SHARDS};
