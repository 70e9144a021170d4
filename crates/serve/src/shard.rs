//! [`ShardedResolutionService`] — the resolution tier scaled out across N
//! corpus shards.
//!
//! # What is sharded, and what is shared
//!
//! The **blocking tier** is sharded: the record corpus and its blocker
//! state (q-gram buckets / ANN lists) are partitioned by a deterministic
//! title router into N shard-local states (a [`ShardedBlocker`], one of
//! the service's three [`BlockingTier`](crate::blocking::BlockingTier)s),
//! so ingest and record-level `resolve()` fan candidate generation out
//! over `n/N`-sized indexes via `flexer-par` and merge the shard-local
//! candidate sets deterministically.
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
//!    global id)` ANN merges — see `flexer_block::shard`), and
//! 2. every surviving pair is scored by the same code against the same
//!    shared pre-batch state, in the same order (the flexer-par
//!    contiguous-split discipline).
//!
//! This is asserted by deterministic tests and property tests over shard
//! counts and ingest orders (`tests/shard.rs`, `tests/proptests.rs`).

use crate::error::ServeError;
use crate::service::{ServeConfig, Service};
use flexer_block::{BlockerState, ShardedBlocker};
use flexer_store::ModelSnapshot;
use flexer_types::ShardConfig;

/// The service over an in-process sharded blocking tier (see module docs).
pub type ShardedResolutionService = Service<ShardedBlocker>;

impl ShardedResolutionService {
    /// Builds a sharded service over a snapshot by routing the corpus
    /// titles into `shard_config`'s shards (exact and deterministic), from
    /// any snapshot: monolithic, or sharded under any layout.
    pub fn new(
        snapshot: ModelSnapshot,
        config: ServeConfig,
        shard_config: ShardConfig,
    ) -> Result<Self, ServeError> {
        shard_config.validate().map_err(ServeError::InconsistentSnapshot)?;
        Self::build(snapshot, config, |blocker, titles, _| {
            Ok(ShardedBlocker::build(
                &blocker.gen_config(),
                shard_config,
                titles.iter().map(String::as_str),
            ))
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
            &self.tier.gen_config(),
            self.train_titles().iter().map(String::as_str),
        );
        snapshot.sharding = Some(self.tier.shard_config());
        snapshot
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.tier.n_shards()
    }

    /// Records held by each shard (balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.tier.shard_sizes()
    }
}
