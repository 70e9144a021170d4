//! [`BlockingTier`] — where a [`Service`](crate::Service)'s candidates
//! come from.
//!
//! Blocking only decides *which* pairs reach the scoring tier (§4.1: the
//! candidate set is an input; a surviving pair's score does not depend on
//! who proposed it), so the service is written once, generic over this
//! trait. Two tiers implement it: [`BlockerState`] (one resident blocker)
//! and [`Sharded`](crate::replica::Sharded) (N shards behind one fan-out,
//! reached in process by `ShardedResolutionService` and over TCP by the
//! router). Both return the same candidate set for the same corpus, which
//! is why every deployment answers bit-identically.

use flexer_block::BlockerState;
use std::time::Instant;

/// Crate-visible so a test can stand a counting tier in.
pub(crate) mod sealed {
    pub trait Sealed {}
    impl Sealed for flexer_block::BlockerState {}
    impl Sealed for crate::replica::Sharded {}
}

/// What a [`BlockingTier`] answered for one batch of titles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSets {
    /// Candidate record ids, ascending, one set per title in input order.
    /// `None` means "every record": the exhaustive backend tracks no
    /// corpus.
    pub sets: Vec<Option<Vec<usize>>>,
    /// Whether every set holds every candidate the tier's corpus has. Only
    /// a sharded tier can answer short: a slot whose replicas all failed
    /// contributes no candidates, and a replica still owed replayed inserts
    /// lacks the records they carry. A set that is not complete is right
    /// for this request only, so nothing may keep it.
    pub complete: bool,
}

/// The candidate-generation tier of a service. Sealed: bit-identity across
/// tiers is a property of the two implementations.
pub trait BlockingTier: sealed::Sealed + Sync {
    /// Candidate sets for each of `titles` (titles that arrived together,
    /// all against the current state) of a request that started at `t0`:
    /// a networked tier budgets its fan-out from there.
    ///
    /// The sets are a function of the indexed titles alone, and only
    /// [`Self::absorb`] changes those: a set reported complete stays the
    /// answer for its title until the next `absorb`. The resident blocker's
    /// sets are always complete; a sharded tier's are when every slot
    /// answered from a replica with no insert awaiting replay.
    fn candidates_batch(&self, titles: &[&str], t0: Instant) -> CandidateSets;

    /// Indexes the titles an ingest just gave the next record ids to, in
    /// id order.
    fn absorb(&mut self, titles: &[&str]);

    /// Short name of the candidate-generation backend.
    fn backend(&self) -> &'static str;
}

impl BlockingTier for BlockerState {
    fn candidates_batch(&self, titles: &[&str], _t0: Instant) -> CandidateSets {
        let sets = flexer_par::parallel_map(titles.len(), |i| self.candidates(titles[i]));
        CandidateSets { sets, complete: true }
    }

    fn absorb(&mut self, titles: &[&str]) {
        titles.iter().for_each(|title| self.insert(title));
    }

    fn backend(&self) -> &'static str {
        self.kind_name()
    }
}
