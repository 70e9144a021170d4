//! Record-level ANN blocking: titles are feature-hashed into fixed-dim
//! gram-count vectors and each record is paired with its `k` nearest
//! neighbours under L2, via `flexer-ann`.
//!
//! This is the "Faiss offers multiple heuristics" direction of §5.7 applied
//! to *candidate generation* rather than graph wiring: where the q-gram
//! blocker keys on exact gram overlap, the ANN blocker ranks by whole-title
//! gram-profile distance, so it degrades gracefully on heavy title noise
//! (a pair can survive without sharing a single intact gram).
//!
//! Determinism: embeddings are pure functions of the title, and
//! [`FlatIndex`] search breaks distance ties by ascending id — so batch
//! blocking is deterministic for a given dataset. For the incremental
//! index, exact distance ties at the k boundary are resolved by insertion
//! id; corpora without such ties are fully order-insensitive.

use crate::BlockingOutcome;
use flexer_ann::{FlatIndex, Neighbor, VectorIndex};
use flexer_types::{AnnBlockerConfig, BlockingReport, CandidateSet, PairRef, RecordId};

/// The hashed gram-count embedding of a title under an ANN blocker config —
/// a pure function of the title text, shared by every index built from the
/// same config (the sharded query path embeds once and searches N shards).
pub fn embed_title(title: &str, config: &AnnBlockerConfig) -> Vec<f32> {
    let mut v = vec![0.0f32; config.dim];
    for g in crate::ngram::gram_vec(title, config.q) {
        v[(g % config.dim as u64) as usize] += 1.0;
    }
    v
}

/// Incremental record-level ANN index (the serving-tier shape).
#[derive(Debug, Clone)]
pub struct AnnRecordIndex {
    config: AnnBlockerConfig,
    index: FlatIndex,
}

impl AnnRecordIndex {
    /// Empty index.
    pub fn new(config: AnnBlockerConfig) -> Self {
        assert!(config.q > 0, "gram length must be positive");
        assert!(config.dim > 0, "embedding dimension must be positive");
        assert!(config.k > 0, "neighbour count must be positive");
        Self { config, index: FlatIndex::new(config.dim) }
    }

    /// The config this index runs.
    pub fn config(&self) -> AnnBlockerConfig {
        self.config
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The hashed gram-count embedding of a title (a pure function of the
    /// title text).
    pub fn embed(&self, title: &str) -> Vec<f32> {
        embed_title(title, &self.config)
    }

    /// The `k` nearest hits for a pre-embedded query, ascending by
    /// distance, exact ties by ascending (insertion-order) id — the raw
    /// shape the sharded merge consumes: it re-sorts hits from every shard
    /// by `(distance, global id)`, which reproduces the unsharded ordering
    /// exactly because local insertion order is global insertion order
    /// restricted to the shard.
    pub fn nearest(&self, query: &[f32]) -> Vec<Neighbor> {
        self.index.search(query, self.config.k)
    }

    /// Indexes one record title; returns its id (sequential).
    pub fn insert(&mut self, title: &str) -> RecordId {
        let v = self.embed(title);
        self.index.add(&v)
    }

    /// The `k` nearest indexed records to a new title, ascending by id.
    pub fn candidates(&self, title: &str) -> Vec<RecordId> {
        let t0 = std::time::Instant::now();
        let v = self.embed(title);
        let mut ids: Vec<RecordId> =
            self.index.search(&v, self.config.k).into_iter().map(|h| h.id).collect();
        ids.sort_unstable();
        let rec = flexer_obs::global();
        rec.record_span_ns("block.ann.query", t0.elapsed().as_nanos() as u64);
        rec.add("block.ann.candidates", ids.len() as u64);
        ids
    }

    /// Blocks the indexed corpus: every record paired with its `k`
    /// nearest other records, deduplicated — the batch path
    /// ([`crate::block`]) is this, run over a freshly built index.
    pub fn block_all(&self) -> BlockingOutcome {
        let k = self.config.k;
        let queries: Vec<&[f32]> = (0..self.len()).map(|r| self.index.vector(r)).collect();
        // k + 1 because each record's nearest hit is (usually) itself.
        let hits = self.index.search_batch(&queries, k + 1);
        let mut pairs = Vec::with_capacity(self.len() * k);
        let mut considered = 0u64;
        for (r, neighbors) in hits.iter().enumerate() {
            considered += neighbors.len() as u64;
            for h in neighbors.iter().filter(|h| h.id != r).take(k) {
                pairs.push(PairRef::new(r, h.id).expect("r != id"));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let report = BlockingReport {
            comparisons_considered: considered,
            candidates: pairs.len(),
            ..Default::default()
        };
        BlockingOutcome { candidates: CandidateSet::from_pairs(pairs), report }
    }

    /// A copy truncated back to the first `n_records` records.
    pub fn truncated(&self, n_records: usize) -> Self {
        let n = n_records.min(self.len());
        let index =
            FlatIndex::from_rows(self.config.dim, &self.index.data()[..n * self.config.dim]);
        Self { config: self.config, index }
    }
}

impl PartialEq for AnnRecordIndex {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.index.data() == other.index.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AnnBlockerConfig {
        AnnBlockerConfig { q: 3, dim: 32, k: 2 }
    }

    fn index(titles: &[&str]) -> AnnRecordIndex {
        let mut index = AnnRecordIndex::new(config());
        for t in titles {
            index.insert(t);
        }
        index
    }

    #[test]
    fn near_duplicates_are_nearest() {
        let titles = [
            "nike lunar force duckboot",
            "nike lunar force duckboot black",
            "philips sonicare toothbrush",
            "oral b electric toothbrush head",
        ];
        let out = index(&titles).block_all();
        assert!(out.candidates.iter().any(|(_, p)| (p.a, p.b) == (0, 1)));
        assert_eq!(out.report.candidates, out.candidates.len());
    }

    #[test]
    fn batch_generation_is_deterministic() {
        let titles = ["alpha beta", "beta gamma", "gamma delta", "delta epsilon"];
        assert_eq!(index(&titles).block_all().candidates, index(&titles).block_all().candidates);
    }

    #[test]
    fn incremental_candidates_bound_by_k() {
        let index = index(&["aaa bbb", "bbb ccc", "ccc ddd", "ddd eee", "eee fff"]);
        let c = index.candidates("bbb ccc ddd");
        assert!(c.len() <= 2);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn truncation_is_exact_inverse_of_inserts() {
        let mut index = index(&["aaa bbb", "ccc ddd"]);
        let watermark = index.clone();
        index.insert("eee fff");
        assert_eq!(index.truncated(2), watermark);
    }

    #[test]
    fn empty_title_embeds_to_zero() {
        let index = AnnRecordIndex::new(config());
        assert!(index.embed("").iter().all(|&x| x == 0.0));
    }
}
