//! [`ShardedResolutionService`] — the resolution tier scaled out across N
//! corpus shards in one process.
//!
//! # What is sharded, and what is shared
//!
//! The **blocking tier** is sharded: the record corpus and its blocker
//! state (q-gram buckets / ANN lists) are partitioned by a deterministic
//! title router into N shards, each booted exactly as a shard server boots
//! (`flexer_block::build_shard`). The service is the router's own type,
//! `Service<Sharded>`: its [`Sharded`] tier reaches each shard through an
//! in-process link — the shard server's handler, called directly — and
//! runs the router's handshake, fan-out and sequenced inserts over it.
//! Ingest and record-level `resolve()` thus fan candidate generation out
//! over `n/N`-sized indexes (in parallel within the `flexer-par` thread
//! budget) and merge the shard-local candidate sets deterministically.
//!
//! The **scoring tier** — frozen matchers and GNNs, the pinned per-depth
//! node states, the per-layer ANN indexes over *pair* embeddings — is
//! shared: candidate pairs reference records across shard boundaries, so
//! pair-level state cannot be partitioned by record without changing which
//! neighbourhoods a pair sees (and therefore its scores). Keeping scoring
//! global is exactly what makes sharding a pure performance move, and it
//! is why there is nothing to write here but a constructor: every entry
//! point is the generic [`Service`]'s.
//!
//! # Bit-identity
//!
//! For any shard count, every answer is **bit-identical** to the unsharded
//! [`ResolutionService`](crate::ResolutionService) over the same snapshot
//! and call sequence:
//!
//! 1. the merged shard-local candidate sets equal the monolithic blocker's
//!    candidate set exactly (global stop-gram coordination, `(distance,
//!    global id)` ANN merges — see `flexer_block::shard`), and an
//!    in-process shard never times out, fails over or degrades, and
//! 2. every surviving pair is scored by the same code against the same
//!    shared pre-batch state, in the same order (the flexer-par
//!    contiguous-split discipline).
//!
//! This is asserted by deterministic tests and property tests over shard
//! counts and ingest orders (`tests/shard.rs`, `tests/proptests.rs`).

use crate::error::ServeError;
use crate::replica::{Deadline, FaultStats, Link, NetConfig, ReplicaSet, Sharded};
use crate::server::Shard;
use crate::service::{ServeConfig, Service};
use flexer_block::BlockerState;
use flexer_store::ModelSnapshot;
use flexer_types::{ShardConfig, ShardRequest, ShardResponse};

/// The service over in-process shards (see module docs).
pub type ShardedResolutionService = Service<Sharded>;

impl ShardedResolutionService {
    /// Builds a sharded service over a snapshot by booting one in-process
    /// shard per slot of `shard_config` from the corpus titles (exact and
    /// deterministic), from any snapshot: monolithic, or sharded under any
    /// layout.
    pub fn new(
        snapshot: ModelSnapshot,
        config: ServeConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, ServeError> {
        shard_config.validate().map_err(ServeError::InconsistentSnapshot)?;
        Self::build(snapshot, config, |blocker, titles, recorder| {
            let gen = blocker.gen_config();
            let sets = (0..shard_config.n_shards).map(|s| {
                let shard = Shard::boot(&gen, shard_config, titles.iter().map(String::as_str), s);
                ReplicaSet::new([Link::Local(shard)])
            });
            let stats = FaultStats::new(recorder);
            Sharded::connect(gen, titles.len(), sets.collect(), NetConfig::default(), stats)
        })
    }

    /// Reassembles the training-time snapshot under **this** service's
    /// shard layout. Byte-identical to the snapshot loaded when that
    /// snapshot carried the same layout; loading a monolithic or
    /// differently-sharded snapshot is a deliberate re-partition, so the
    /// result is a new (itself byte-stable) layout, not the loaded bytes.
    pub fn to_snapshot(&self) -> ModelSnapshot {
        let mut snapshot = self.export_model();
        snapshot.blocker = BlockerState::build(
            &self.tier.global.gen_config(),
            self.train_titles().iter().map(String::as_str),
        );
        snapshot.sharding = Some(self.tier.global.shard_config());
        snapshot
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.tier.fleet.sets.len()
    }

    /// Records held by each shard (balance diagnostics), as each shard's
    /// `Hello` reports them.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let fleet = &self.tier.fleet;
        let deadline = Deadline::after(fleet.net.request_budget);
        let is_hello = |r: &ShardResponse| matches!(r, ShardResponse::Hello { .. });
        let held = |set: &ReplicaSet| match set.call_with_failover(
            &ShardRequest::Hello,
            &fleet.net,
            deadline,
            &fleet.stats,
            is_hello,
        ) {
            Some((ShardResponse::Hello { n_records, .. }, _)) => n_records as usize,
            _ => 0,
        };
        fleet.sets.iter().map(held).collect()
    }
}
