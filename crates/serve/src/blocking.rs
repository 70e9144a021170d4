//! [`BlockingTier`] — where a [`Service`](crate::Service)'s candidates
//! come from.
//!
//! Blocking only decides *which* pairs reach the scoring tier (§4.1: the
//! candidate set is an input; a surviving pair's score does not depend on
//! who proposed it), so the service is written once, generic over this
//! trait. Three tiers implement it: [`BlockerState`] (one resident blocker),
//! [`ShardedBlocker`] (N in-process shards behind a `flexer-par` fan-out)
//! and the router's replica sets (N shard servers over TCP,
//! `crate::router`). All three return the same candidate set for the same
//! corpus, which is why the three deployments answer bit-identically.

use flexer_block::{BlockerState, ShardedBlocker};
use std::time::Instant;

mod sealed {
    pub trait Sealed {}
    impl Sealed for flexer_block::BlockerState {}
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

impl BlockingTier for BlockerState {
    fn candidates(&self, title: &str, _t0: Instant) -> Option<Vec<usize>> {
        BlockerState::candidates(self, title)
    }

    fn absorb(&mut self, titles: &[&str]) {
        titles.iter().for_each(|title| self.insert(title));
    }

    fn backend(&self) -> &'static str {
        self.kind_name()
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
