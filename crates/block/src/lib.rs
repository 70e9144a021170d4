//! # flexer-block
//!
//! The candidate-generation subsystem: every layer of the workspace that
//! needs candidate record pairs — benchmark generation (`flexer-datasets`),
//! the batch pipeline (`flexer-core`), the online service (`flexer-serve`)
//! and the snapshot store (`flexer-store`) — obtains them through this
//! crate instead of enumerating all pairs.
//!
//! One shape per backend: [`BlockerState`] is the resident index. It is
//! built over a corpus ([`BlockerState::build`]), answers "which existing
//! records could this new title match?" in O(candidates)
//! ([`BlockerState::candidates`]), grows by [`BlockerState::insert`], and
//! enumerates every candidate pair of what it holds. Batch blocking,
//! [`block`], is that last step run over a freshly built index: it turns a
//! whole [`Dataset`] into a [`CandidateSet`] plus a [`BlockingReport`]
//! accounting for what the pass pruned. Backends: the paper's §5.1 q-gram
//! overlap blocker ([`NGramIndex`]), record-level k-NN over feature-hashed
//! titles built on `flexer-ann` ([`AnnRecordIndex`]), and all pairs (the
//! parity baseline).
//!
//! The q-gram backend is order-insensitive-deterministic: the candidate
//! *record set* returned for a query depends only on the set of records
//! inserted, never on their insertion order. The ANN backend shares that
//! guarantee except for exact distance ties at the k-NN boundary, which
//! fall back to insertion-id order (see [`ann`]).
//!
//! Blocking never changes scores: downstream scoring is per-pair, so a
//! blocked pair scores bit-identically to the same pair under exhaustive
//! generation — blocking only decides *which* pairs are scored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod ngram;
pub mod shard;

pub use ann::AnnRecordIndex;
pub use ngram::NGramIndex;
pub use shard::{build_shard, local_answer, GlobalBlocking};

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

/// Blocks a whole dataset: builds the resident index `config` names over
/// the records' titles and enumerates every candidate pair it holds.
/// Deterministic (same dataset ⇒ same outcome); pairs come out
/// normalized (`a < b`), deduplicated and sorted.
pub fn block(config: &CandidateGenConfig, dataset: &Dataset) -> BlockingOutcome {
    match BlockerState::build(config, dataset.iter().map(|r| r.title())) {
        BlockerState::Exhaustive => all_pairs(dataset.len()),
        BlockerState::NGram(index) => index.block_all(),
        BlockerState::Ann(index) => index.block_all(),
    }
}

/// Every distinct record pair of an `n`-record corpus. Quadratic — the
/// parity/recall baseline, not for production corpora.
fn all_pairs(n: usize) -> BlockingOutcome {
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
        let mut state = match config {
            CandidateGenConfig::Exhaustive => return BlockerState::Exhaustive,
            CandidateGenConfig::NGram(c) => BlockerState::NGram(NGramIndex::new(*c)),
            CandidateGenConfig::Ann(c) => BlockerState::Ann(AnnRecordIndex::new(*c)),
        };
        for t in titles {
            state.insert(t);
        }
        state
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
            BlockerState::NGram(ix) => ix.bucket_sizes(),
            _ => Vec::new(),
        }
    }

    /// The candidate-generation config this state runs — all a snapshot
    /// stores of it: [`BlockerState::build`] over the corpus titles is the
    /// rest.
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
    use flexer_types::{AnnBlockerConfig, NGramBlockerConfig, Record};

    fn corpus(titles: &[&str]) -> Dataset {
        Dataset::from_records(titles.iter().map(|t| Record::with_title(0, *t)).collect())
    }

    #[test]
    fn exhaustive_emits_every_pair() {
        let d = corpus(&["a", "b", "c", "d"]);
        let out = block(&CandidateGenConfig::Exhaustive, &d);
        assert_eq!(out.candidates.len(), 6);
        assert_eq!(out.report.candidates, 6);
        assert_eq!(out.report.comparisons_considered, 6);
    }

    /// 240 titles of three to six words from a fixed word list, drawn by a
    /// seeded xorshift: large enough that the default q-gram cap bites.
    fn pinned_titles() -> Vec<String> {
        let words: Vec<&str> = "nike lunar force duckboot black adidas superstar mesh philips \
            sonicare toothbrush oral electric head kindle paperwhite case leather samsung galaxy \
            charger usb cable white"
            .split_whitespace()
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        (0..240)
            .map(|_| {
                let n = 3 + next(4);
                (0..n).map(|_| words[next(words.len())]).collect::<Vec<_>>().join(" ")
            })
            .collect()
    }

    /// FNV-1a over the emitted `(a, b)` pairs, plus the five report fields.
    fn digest(out: &BlockingOutcome) -> (u64, [u64; 5]) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in out.candidates.pairs() {
            for byte in (p.a as u64).to_le_bytes().into_iter().chain((p.b as u64).to_le_bytes()) {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let r = out.report;
        let report = [
            r.grams_indexed as u64,
            r.grams_skipped as u64,
            r.comparisons_considered,
            r.comparisons_suppressed,
            r.candidates as u64,
        ];
        (h, report)
    }

    /// What batch blocking emits for each backend, pinned: the pairs and
    /// the report must not move by a pair or a count.
    #[test]
    fn batch_blocking_output_is_pinned() {
        let titles = pinned_titles();
        let titles: Vec<&str> = titles.iter().map(String::as_str).collect();
        let d = corpus(&titles);
        let ngram = |min_shared, max_bucket| NGramBlockerConfig { q: 4, min_shared, max_bucket };
        let pins = [
            (CandidateGenConfig::Exhaustive, 0xc084_a602_ff88_9425, [0, 0, 28_680, 0, 28_680]),
            (
                CandidateGenConfig::default(),
                0x9b89_f50c_b426_a9a3,
                [654, 3, 92_818, 10_002, 16_441],
            ),
            (
                CandidateGenConfig::NGram(ngram(2, 96)),
                0x13da_6cf0_0891_8ca1,
                [654, 0, 102_820, 0, 16_849],
            ),
            (
                CandidateGenConfig::Ann(AnnBlockerConfig::default()),
                0x637a_4dae_9d33_11b7,
                [0, 0, 2_160, 0, 1_358],
            ),
        ];
        for (config, pairs, report) in pins {
            assert_eq!(digest(&block(&config, &d)), (pairs, report), "{config:?}");
        }
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
