//! [`BlockingTier`] — where a [`Service`](crate::Service)'s candidates
//! come from.
//!
//! Blocking only decides *which* pairs reach the scoring tier (§4.1: the
//! candidate set is an input; a surviving pair's score does not depend on
//! who proposed it), so the service is written once, generic over this
//! trait. Three tiers implement it: [`Monolithic`] (one resident blocker),
//! [`ShardedBlocker`] (N in-process shards behind a `flexer-par` fan-out)
//! and the router's replica sets (N shard servers over TCP,
//! `crate::router`). All three return the same candidate set for the same
//! corpus, which is why the three deployments answer bit-identically.

use crate::error::ServeError;
use flexer_block::{BlockerState, ShardedBlocker};
use flexer_store::{ModelSnapshot, ShardFrames, StoreError};
use flexer_types::{CandidateGenConfig, ShardConfig};
use std::time::Instant;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Monolithic {}
    impl Sealed for flexer_block::ShardedBlocker {}
    impl Sealed for crate::router::Remote {}
}

/// The candidate-generation tier of a service. Sealed: bit-identity across
/// tiers is a property of the three implementations.
pub trait BlockingTier: sealed::Sealed + Sync {
    /// Candidate record ids, ascending, for one title of a request that
    /// started at `t0` (a networked tier budgets its fan-out from there).
    /// `None` means "every record": the exhaustive backend tracks no corpus.
    fn candidates(&self, title: &str, t0: Instant) -> Option<Vec<usize>>;

    /// [`Self::candidates`] for titles that arrived together, all against
    /// the current state.
    fn candidates_batch(&self, titles: &[&str], t0: Instant) -> Vec<Option<Vec<usize>>> {
        flexer_par::parallel_map(titles.len(), |i| self.candidates(titles[i], t0))
    }

    /// Indexes the titles an ingest just gave the next record ids to, in
    /// id order.
    fn absorb(&mut self, titles: &[&str]);

    /// Short name of the candidate-generation backend.
    fn backend(&self) -> &'static str;
}

/// The blocking tier as a snapshot carries it.
pub(crate) enum StoredBlocking {
    /// One blocker over the whole corpus (the `blocker` field).
    Monolithic(BlockerState),
    /// Per-shard frames (format v3).
    Sharded(ShardFrames),
}

impl StoredBlocking {
    /// Takes the blocking tier out of a validated snapshot, leaving the
    /// `Exhaustive` sentinel and no frames: the service owns the tier (it
    /// grows with ingest), and a second copy inside the snapshot it keeps
    /// would double the tier's memory.
    pub(crate) fn take(snapshot: &mut ModelSnapshot) -> Self {
        let blocker = std::mem::replace(&mut snapshot.blocker, BlockerState::Exhaustive);
        match snapshot.sharding.take() {
            Some(frames) => StoredBlocking::Sharded(frames),
            None => StoredBlocking::Monolithic(blocker),
        }
    }

    /// The backend configuration alone: one decoded shard (or the
    /// monolithic blocker) supplies it, nothing is merged to be thrown away.
    pub(crate) fn gen_config(&self) -> Result<CandidateGenConfig, StoreError> {
        Ok(match self {
            StoredBlocking::Monolithic(blocker) => blocker.gen_config(),
            StoredBlocking::Sharded(frames) => frames.decode_shard(0)?.1.gen_config(),
        })
    }
}

/// The monolithic tier: one resident incremental blocker over the corpus.
#[derive(Debug)]
pub struct Monolithic {
    pub(crate) blocker: BlockerState,
    /// The shard layout the loaded snapshot carried (v3), if any. The
    /// frames themselves are **not** kept resident — that would hold a
    /// second, serialized copy of the tier — `to_snapshot` regenerates them.
    pub(crate) train_sharding: Option<ShardConfig>,
}

impl Monolithic {
    /// A shard-aware snapshot is served monolithically by merging its
    /// decoded frames back into one blocker (the merge is exact — see
    /// `flexer_block::ShardedBlocker`).
    pub(crate) fn unpack(stored: StoredBlocking) -> Result<Self, ServeError> {
        Ok(match stored {
            StoredBlocking::Monolithic(blocker) => Self { blocker, train_sharding: None },
            StoredBlocking::Sharded(frames) => Self {
                blocker: frames.decode_all()?.merged(),
                train_sharding: Some(frames.config()),
            },
        })
    }
}

impl BlockingTier for Monolithic {
    fn candidates(&self, title: &str, _t0: Instant) -> Option<Vec<usize>> {
        self.blocker.candidates(title)
    }

    fn absorb(&mut self, titles: &[&str]) {
        titles.iter().for_each(|title| self.blocker.insert(title));
    }

    fn backend(&self) -> &'static str {
        self.blocker.kind_name()
    }
}

impl BlockingTier for ShardedBlocker {
    fn candidates(&self, title: &str, _t0: Instant) -> Option<Vec<usize>> {
        ShardedBlocker::candidates(self, title)
    }

    /// The blocking tier times its own per-shard ingest and serial merge
    /// under `shard.ingest.*` (see `flexer_block::shard`).
    fn absorb(&mut self, titles: &[&str]) {
        self.insert_batch(titles);
    }

    fn backend(&self) -> &'static str {
        self.gen_config().name()
    }
}
