//! # gdim-shard — sharded index + concurrent serving runtime
//!
//! The paper's online pipeline (map the query → scan vectors → verify)
//! is embarrassingly partitionable over the database, and that is the
//! standard route to scale ("Big Graph Search", Ma et al.): partition
//! the graphs over shards, run each query against every shard, and keep
//! the global top-k of their answers. This crate adds that layer on top of
//! [`gdim_core::GraphIndex`] with two pillars:
//!
//! * [`ShardedIndex`] — N per-shard `GraphIndex`es that **share one
//!   globally selected dimension set**: the pipeline (gSpan mining → δ
//!   → DSPM/DSPMap selection) runs once over the whole database, and
//!   the shards are stamped out from its output (in parallel on
//!   `gdim-exec`), each holding a contiguous slice of the graphs and
//!   of their vectors ([`GraphIndex::subset`](gdim_core::GraphIndex::subset)
//!   — what a shard keeps of a build is `gdim-core`'s decision, not
//!   this crate's) and all of them one code tree. Because every shard
//!   maps queries and scores rows exactly like the global pipeline
//!   would, a sharded search — per-shard bounded top-k legs feeding
//!   one selector keyed `(distance, seq)` — answers **bit-identically** to one
//!   unsharded index over the same database, for every ranker and
//!   thread budget. There is no sharded copy of the query path: a
//!   search hands its shards to the one query executor in
//!   [`gdim_core::search`] as partitions (a bare `GraphIndex` is the
//!   1-partition case), which runs the per-shard legs in order on the
//!   thread that received the request — concurrent requests are the
//!   serving path's parallelism; `gdim-exec` is for the build and the
//!   exact δ phases. Inserts/removes route to the
//!   owning shard. [`ShardedIndex::rebuild`] is the one rebuild: it
//!   re-runs the whole pipeline over the live graphs and re-splits
//!   them, in place, at the next epoch.
//! * [`ServingHandle`] — an epoch-swapped concurrent read handle
//!   (Arc-swap over `Arc<ShardedIndex>` + a version atomic, no new
//!   dependencies): any number of [`Reader`]s search lock-free in the
//!   steady state while mutations and rebuilds publish new snapshots
//!   atomically. Mutations are copy-on-write at
//!   **shard granularity**, and the copy is structural sharing: the new
//!   version of the owning shard shares every sealed 32-row chunk (and
//!   all immutable state) with the previous one and copies a tail plus
//!   ~25 B/row of flat words, so a publish costs tens of microseconds
//!   whatever the shard size (see [`serving`]).
//!
//! Global ids are composed: shard id in the high bits, shard-local id
//! in the low bits ([`ShardedIndex::split_id`]). Row order ties are
//! broken by each row's **sequence number** (global insertion order),
//! so a sharded ranking equals the unsharded `(distance, id)` order.
//!
//! Persistence is a manifest plus one v4 index file per shard
//! ([`ShardedIndex::save_dir`] / [`ShardedIndex::load_dir`]), round-
//! tripping to byte-identical files and answers — every file published
//! crash-safely (temp → fsync → rename → parent fsync). For serving
//! with **zero acked-mutation loss** across crashes, wrap the runtime
//! in a [`DurableHandle`]: mutations hit a CRC-framed write-ahead log
//! before they apply, checkpoints fold the log into generation-
//! numbered snapshot directories, and [`DurableHandle::open`] recovers
//! a bit-identical index after any crash (see [`durable`]).
//!
//! ```
//! use gdim_core::{IndexOptions, SearchRequest};
//! use gdim_shard::{ServingHandle, ShardedIndex, ShardedOptions};
//!
//! let db = gdim_datagen::chem_db(30, &gdim_datagen::ChemConfig::default(), 7);
//! let opts = ShardedOptions::new(4).with_index(IndexOptions::default().with_dimensions(20));
//! let index = ShardedIndex::build(db, opts);
//! assert_eq!(index.shard_count(), 4);
//!
//! let query = index.shard(gdim_shard::ShardId(0)).unwrap().graph(1).unwrap().clone();
//! let handle = ServingHandle::new(index);
//! let reader = handle.reader(); // one per thread; lock-free steady state
//! let resp = reader.search(&query, &SearchRequest::new(5)).unwrap();
//! assert_eq!(resp.hits[0].distance, 0.0); // the query graph itself
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod manifest;
mod obs;
pub mod serving;
pub mod sharded;

pub use durable::{DurableHandle, RecoveryReport};
pub use gdim_wal::SyncPolicy;
pub use serving::{Reader, ServingHandle};
pub use sharded::{ShardId, ShardedIndex, ShardedOptions};
