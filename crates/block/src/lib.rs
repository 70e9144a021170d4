//! # flexer-block
//!
//! The candidate-generation subsystem: every layer of the workspace that
//! needs candidate record pairs — benchmark generation (`flexer-datasets`),
//! the batch pipeline (`flexer-core`), the online service (`flexer-serve`)
//! and the snapshot store (`flexer-store`) — obtains them through this
//! crate instead of enumerating all pairs.
//!
//! Two shapes of API:
//!
//! * **Batch**: the [`CandidateGenerator`] trait blocks a whole [`Dataset`]
//!   into a [`CandidateSet`] plus a [`BlockingReport`] accounting for what
//!   the pass pruned. Backends: [`NGramBlocker`] (the paper's §5.1 q-gram
//!   overlap blocker, inverted-index based), [`AnnBlocker`] (record-level
//!   k-NN over feature-hashed titles, built on `flexer-ann`), and
//!   [`ExhaustivePairs`] (all pairs — the parity baseline).
//! * **Incremental**: [`BlockerState`] is the serving-tier resident index.
//!   It answers "which existing records could this new title match?" in
//!   O(candidates) and grows by [`BlockerState::insert`]. The q-gram
//!   backend is order-insensitive-deterministic: the candidate *record
//!   set* returned for a query depends only on the set of records
//!   inserted, never on their insertion order. The ANN backend shares
//!   that guarantee except for exact distance ties at the k-NN boundary,
//!   which fall back to insertion-id order (see [`ann`]).
//!
//! Blocking never changes scores: downstream scoring is per-pair, so a
//! blocked pair scores bit-identically to the same pair under exhaustive
//! generation — blocking only decides *which* pairs are scored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod ngram;
pub mod shard;

pub use ann::{AnnBlocker, AnnRecordIndex};
pub use ngram::{NGramBlocker, NGramIndex};
pub use shard::{local_answer, GlobalBlocking, ShardedBlocker};

use flexer_types::{
    BlockingReport, CandidateGenConfig, CandidateSet, Dataset, EntityMap, PairRef, RecordId,
};

/// A blocked candidate set together with the accounting of the pass that
/// produced it.
#[derive(Debug, Clone)]
pub struct BlockingOutcome {
    /// The surviving candidate pairs, sorted and deduplicated.
    pub candidates: CandidateSet,
    /// What the pass considered and what it pruned.
    pub report: BlockingReport,
}

/// Counts how many golden pairs — distinct record pairs mapped to the same
/// entity by `entities` — survive in `candidates`. Returns
/// `(recalled, total)`; `total` is the number of golden pairs in the
/// ground truth. This is the blocking-recall instrumentation the ROADMAP
/// calls for: bucket caps and shard layouts are judged by how much golden
/// signal they let through, measured rather than guessed.
pub fn golden_pair_recall(candidates: &CandidateSet, entities: &EntityMap) -> (usize, usize) {
    let mut by_entity: std::collections::HashMap<u64, Vec<RecordId>> =
        std::collections::HashMap::new();
    for r in 0..entities.len() {
        let e = entities.entity_of(r).expect("record ids 0..len are mapped");
        by_entity.entry(e).or_default().push(r);
    }
    let mut pairs: Vec<PairRef> = candidates.pairs().to_vec();
    pairs.sort_unstable();
    let (mut recalled, mut total) = (0usize, 0usize);
    for group in by_entity.values() {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                total += 1;
                let pair = PairRef::new(a, b).expect("a < b");
                if pairs.binary_search(&pair).is_ok() {
                    recalled += 1;
                }
            }
        }
    }
    (recalled, total)
}

/// A batch candidate-pair generator over a whole dataset.
///
/// Implementations must be deterministic (same dataset ⇒ same outcome) and
/// must emit normalized (`a < b`), deduplicated pairs in sorted order.
pub trait CandidateGenerator {
    /// Short backend name for logs and bench output.
    fn name(&self) -> &'static str;
    /// Blocks the dataset into a candidate set plus a report.
    fn generate(&self, dataset: &Dataset) -> BlockingOutcome;
}

/// The all-pairs "blocker": every distinct record pair survives. Quadratic
/// — exists as the parity/recall baseline, not for production corpora.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustivePairs;

impl CandidateGenerator for ExhaustivePairs {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn generate(&self, dataset: &Dataset) -> BlockingOutcome {
        let n = dataset.len();
        let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        for a in 0..n {
            for b in a + 1..n {
                pairs.push(PairRef::new(a, b).expect("a < b"));
            }
        }
        let report = BlockingReport {
            comparisons_considered: pairs.len() as u64,
            candidates: pairs.len(),
            ..Default::default()
        };
        BlockingOutcome { candidates: CandidateSet::from_pairs(pairs), report }
    }
}

/// Builds the batch generator a [`CandidateGenConfig`] names.
pub fn generator_for(config: &CandidateGenConfig) -> Box<dyn CandidateGenerator> {
    match config {
        CandidateGenConfig::Exhaustive => Box::new(ExhaustivePairs),
        CandidateGenConfig::NGram(c) => Box::new(NGramBlocker::from_config(*c)),
        CandidateGenConfig::Ann(c) => Box::new(AnnBlocker::new(*c)),
    }
}

/// The serving tier's resident candidate-generation state: an incremental
/// index over the record corpus that answers candidate queries for new
/// titles and grows one record at a time.
///
/// `Exhaustive` carries no state and means "every record is a candidate" —
/// the explicit fallback for parity testing against blocked serving.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockerState {
    /// No blocking: every stored record is a candidate for every query.
    Exhaustive,
    /// Incremental q-gram inverted index.
    NGram(NGramIndex),
    /// Incremental record-level ANN index over feature-hashed titles.
    Ann(AnnRecordIndex),
}

impl BlockerState {
    /// Builds the state a config names, indexing `titles` in id order.
    pub fn build<'a>(
        config: &CandidateGenConfig,
        titles: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        match config {
            CandidateGenConfig::Exhaustive => BlockerState::Exhaustive,
            CandidateGenConfig::NGram(c) => {
                let mut index = NGramIndex::new(*c);
                for t in titles {
                    index.insert(t);
                }
                BlockerState::NGram(index)
            }
            CandidateGenConfig::Ann(c) => {
                let mut index = AnnRecordIndex::new(*c);
                for t in titles {
                    index.insert(t);
                }
                BlockerState::Ann(index)
            }
        }
    }

    /// Indexes one more record title; ids are assigned sequentially, so
    /// callers must insert in record-id order.
    pub fn insert(&mut self, title: &str) {
        match self {
            BlockerState::Exhaustive => {}
            BlockerState::NGram(ix) => {
                ix.insert(title);
            }
            BlockerState::Ann(ix) => {
                ix.insert(title);
            }
        }
    }

    /// Candidate record ids for a new title against the current corpus,
    /// ascending. `None` means "all records" (the exhaustive state tracks
    /// no corpus size of its own).
    pub fn candidates(&self, title: &str) -> Option<Vec<RecordId>> {
        match self {
            BlockerState::Exhaustive => None,
            BlockerState::NGram(ix) => Some(ix.candidates(title)),
            BlockerState::Ann(ix) => Some(ix.candidates(title)),
        }
    }

    /// A copy truncated back to the first `n_records` records — the inverse
    /// of the inserts past that watermark. Used by the serving tier to
    /// reconstruct the training-time snapshot byte-identically.
    pub fn truncated(&self, n_records: usize) -> Self {
        match self {
            BlockerState::Exhaustive => BlockerState::Exhaustive,
            BlockerState::NGram(ix) => BlockerState::NGram(ix.truncated(n_records)),
            BlockerState::Ann(ix) => BlockerState::Ann(ix.truncated(n_records)),
        }
    }

    /// Number of records indexed (0 for the stateless exhaustive variant).
    pub fn len(&self) -> usize {
        match self {
            BlockerState::Exhaustive => 0,
            BlockerState::NGram(ix) => ix.len(),
            BlockerState::Ann(ix) => ix.len(),
        }
    }

    /// Whether no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short backend name for logs and bench output.
    pub fn kind_name(&self) -> &'static str {
        self.gen_config().name()
    }

    /// `(gram, bucket size)` of every q-gram bucket, ascending by gram
    /// (empty for the other backends) — one shard's contribution to the
    /// global stop-gram counts ([`GlobalBlocking::new`]).
    pub fn bucket_sizes(&self) -> Vec<(u64, u32)> {
        match self {
            BlockerState::NGram(ix) => {
                ix.sorted_buckets().into_iter().map(|(g, ids)| (g, ids.len() as u32)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The candidate-generation config this state runs — the inverse of
    /// [`BlockerState::build`], so a state can be re-partitioned (or
    /// re-built) without out-of-band configuration.
    pub fn gen_config(&self) -> CandidateGenConfig {
        match self {
            BlockerState::Exhaustive => CandidateGenConfig::Exhaustive,
            BlockerState::NGram(ix) => CandidateGenConfig::NGram(ix.config()),
            BlockerState::Ann(ix) => CandidateGenConfig::Ann(ix.config()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_types::{NGramBlockerConfig, Record};

    fn dataset(titles: &[&str]) -> Dataset {
        Dataset::from_records(titles.iter().map(|t| Record::with_title(0, *t)).collect())
    }

    #[test]
    fn exhaustive_emits_every_pair() {
        let d = dataset(&["a", "b", "c", "d"]);
        let out = ExhaustivePairs.generate(&d);
        assert_eq!(out.candidates.len(), 6);
        assert_eq!(out.report.candidates, 6);
        assert_eq!(out.report.comparisons_considered, 6);
    }

    #[test]
    fn generator_for_matches_config() {
        assert_eq!(generator_for(&CandidateGenConfig::Exhaustive).name(), "exhaustive");
        assert_eq!(generator_for(&CandidateGenConfig::default()).name(), "ngram");
        assert_eq!(
            generator_for(&CandidateGenConfig::Ann(flexer_types::AnnBlockerConfig::default()))
                .name(),
            "ann"
        );
    }

    #[test]
    fn state_build_insert_candidates_roundtrip() {
        let config = CandidateGenConfig::NGram(NGramBlockerConfig::default());
        let titles = ["nike lunar force duckboot", "nike lunar force one", "zzzz qqqq xxxx"];
        let mut state = BlockerState::build(&config, titles.iter().copied());
        assert_eq!(state.len(), 3);
        let c = state.candidates("nike lunar sneaker").unwrap();
        assert_eq!(c, vec![0, 1]);
        state.insert("nike lunar extra");
        assert_eq!(state.len(), 4);
        assert_eq!(state.candidates("nike lunar sneaker").unwrap(), vec![0, 1, 3]);
        // Truncation undoes the insert exactly.
        let back = state.truncated(3);
        assert_eq!(back, BlockerState::build(&config, titles.iter().copied()));
    }

    #[test]
    fn exhaustive_state_is_stateless() {
        let mut state = BlockerState::build(&CandidateGenConfig::Exhaustive, ["a", "b"]);
        assert_eq!(state.candidates("anything"), None);
        state.insert("c");
        assert!(state.is_empty());
        assert_eq!(state.truncated(0), BlockerState::Exhaustive);
    }
}
