//! The character q-gram overlap blocker of §5.1, in two shapes: the batch
//! [`NGramBlocker`] over a whole dataset and the incremental [`NGramIndex`]
//! the serving tier keeps resident.
//!
//! The paper builds AmazonMI's candidate set with a standard blocker
//! "preserving record pairs that share at least a 4-gram" and uses a second
//! blocking pass to harvest WDC's cross-category pairs. Both shapes here
//! are inverted indexes from character q-grams of the lower-cased title to
//! record ids; buckets larger than `max_bucket` are treated as stop-grams
//! and skipped, and that suppression is *accounted for* in the
//! [`BlockingReport`] instead of happening silently.
//!
//! Shared-gram counts (`min_shared`) are taken over the **kept** (uncapped)
//! grams in both shapes, so the batch blocker and the incremental index
//! agree exactly on which pairs survive a given corpus state.

use crate::{BlockingOutcome, CandidateGenerator};
use flexer_types::{BlockingReport, CandidateSet, Dataset, NGramBlockerConfig, PairRef, RecordId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Reusable buffers for the hot incremental query path. Candidate queries
/// run once per ingest and once per record resolve; without reuse each
/// query allocates a lowercase `String`, a char buffer, a gram set and a
/// shared-count map — measurable churn at small corpus sizes, where the
/// per-query constant competes with the scoring work blocking saves.
#[derive(Debug, Default)]
struct QueryScratch {
    chars: Vec<char>,
    grams: Vec<u64>,
    shared: HashMap<u32, u32>,
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// Character q-gram overlap blocker (batch shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NGramBlocker {
    /// Gram length (the paper uses 4).
    pub q: usize,
    /// Minimum number of shared (kept) grams for a pair to survive.
    pub min_shared: usize,
    /// Inverted-index buckets larger than this are skipped as stop-grams.
    pub max_bucket: usize,
}

impl Default for NGramBlocker {
    fn default() -> Self {
        Self::from_config(NGramBlockerConfig::default())
    }
}

impl NGramBlocker {
    /// Blocker with gram size `q`, keeping pairs sharing at least one gram,
    /// with the default stop-gram bucket cap.
    pub fn new(q: usize) -> Self {
        Self { q, ..Self::default() }
    }

    /// Blocker from a shared config.
    pub fn from_config(config: NGramBlockerConfig) -> Self {
        Self { q: config.q, min_shared: config.min_shared, max_bucket: config.max_bucket }
    }

    /// The config this blocker runs.
    pub fn config(&self) -> NGramBlockerConfig {
        NGramBlockerConfig { q: self.q, min_shared: self.min_shared, max_bucket: self.max_bucket }
    }

    /// Sets the stop-gram bucket cap.
    pub fn with_max_bucket(mut self, max_bucket: usize) -> Self {
        self.max_bucket = max_bucket;
        self
    }

    /// The set of hashed q-grams of a title (lower-cased).
    pub fn gram_set(&self, title: &str) -> HashSet<u64> {
        gram_set(title, self.q)
    }

    /// Whether two titles share at least `min_shared` q-grams. This is the
    /// pairwise predicate (no bucket cap — caps are a corpus-level
    /// stop-gram notion).
    pub fn survives(&self, a: &str, b: &str) -> bool {
        let ga = self.gram_set(a);
        let gb = self.gram_set(b);
        let (small, large) = if ga.len() <= gb.len() { (&ga, &gb) } else { (&gb, &ga) };
        small.iter().filter(|g| large.contains(g)).count() >= self.min_shared
    }

    /// Blocks a whole dataset: every record pair sharing at least
    /// `min_shared` kept q-grams, plus the report of what the bucket cap
    /// suppressed.
    pub fn block(&self, dataset: &Dataset) -> BlockingOutcome {
        let mut index = NGramIndex::new(self.config());
        for record in dataset.iter() {
            index.insert(record.title());
        }
        index.block_all()
    }
}

impl CandidateGenerator for NGramBlocker {
    fn name(&self) -> &'static str {
        "ngram"
    }

    fn generate(&self, dataset: &Dataset) -> BlockingOutcome {
        self.block(dataset)
    }
}

/// Incremental q-gram inverted index: the serving tier's resident blocker.
///
/// Record ids are assigned sequentially by [`NGramIndex::insert`], so
/// bucket id lists are ascending by construction — which makes the
/// serialized form canonical (buckets sorted by gram hash, ids sorted
/// within) and truncation back to a watermark exact.
///
/// Candidate queries are order-insensitive-deterministic: the candidate
/// *record set* for a title depends only on the set of records indexed,
/// never on their insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NGramIndex {
    config: NGramBlockerConfig,
    buckets: HashMap<u64, Vec<u32>>,
    n_records: usize,
}

impl NGramIndex {
    /// Empty index.
    pub fn new(config: NGramBlockerConfig) -> Self {
        assert!(config.q > 0, "gram length must be positive");
        assert!(config.min_shared > 0, "min_shared must be positive");
        Self { config, buckets: HashMap::new(), n_records: 0 }
    }

    /// The config this index runs.
    pub fn config(&self) -> NGramBlockerConfig {
        self.config
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// Whether no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Indexes one record title; returns its id (sequential).
    pub fn insert(&mut self, title: &str) -> RecordId {
        let id = self.n_records;
        let id32 = u32::try_from(id).expect("record ids fit in u32");
        for g in gram_set(title, self.config.q) {
            self.buckets.entry(g).or_default().push(id32);
        }
        self.n_records += 1;
        id
    }

    /// Candidate record ids for a new title: every indexed record sharing
    /// at least `min_shared` kept grams with it, ascending. Grams whose
    /// bucket currently exceeds `max_bucket` are stop-grams and do not
    /// count. Runs on thread-local scratch buffers, so the hot ingest /
    /// record-resolve path allocates only the returned vector.
    pub fn candidates(&self, title: &str) -> Vec<RecordId> {
        // Explicit dotted path, not a nested span guard: candidate queries
        // run from arbitrary caller contexts (serial ingest, parallel
        // shard fan-out workers) and must aggregate under one stable path.
        let t0 = std::time::Instant::now();
        let mut skipped = 0u64;
        let out = QUERY_SCRATCH.with(|cell| {
            let QueryScratch { chars, grams, shared } = &mut *cell.borrow_mut();
            gram_vec_into(title, self.config.q, chars, grams);
            self.collect_candidates(grams, true, shared, &mut skipped)
        });
        let rec = flexer_obs::global();
        rec.record_span_ns("block.ngram.query", t0.elapsed().as_nanos() as u64);
        rec.add("block.ngram.candidates", out.len() as u64);
        if skipped > 0 {
            rec.add("block.ngram.stop_grams_skipped", skipped);
        }
        out
    }

    /// Candidate record ids among an explicit, pre-filtered gram list —
    /// the sharded query path: the caller has already made the stop-gram
    /// decision against *global* bucket sizes, so no per-shard cap is
    /// applied here (a shard-local cap would disagree with the unsharded
    /// blocker and break bit-identity).
    pub fn candidates_for_grams(&self, grams: &[u64]) -> Vec<RecordId> {
        QUERY_SCRATCH.with(|cell| {
            let QueryScratch { shared, .. } = &mut *cell.borrow_mut();
            let mut skipped = 0u64;
            self.collect_candidates(grams, false, shared, &mut skipped)
        })
    }

    /// Shared-count accumulation over `grams`, into a reused map;
    /// candidates are emitted ascending into a pre-sized vector. Grams
    /// suppressed by the bucket cap are tallied into `skipped`.
    fn collect_candidates(
        &self,
        grams: &[u64],
        apply_cap: bool,
        shared: &mut HashMap<u32, u32>,
        skipped: &mut u64,
    ) -> Vec<RecordId> {
        shared.clear();
        for g in grams {
            if let Some(bucket) = self.buckets.get(g) {
                if apply_cap && bucket.len() > self.config.max_bucket {
                    *skipped += 1;
                    continue;
                }
                for &id in bucket {
                    *shared.entry(id).or_insert(0) += 1;
                }
            }
        }
        let min = self.config.min_shared as u32;
        let mut out: Vec<RecordId> = Vec::with_capacity(shared.len());
        out.extend(shared.iter().filter(|&(_, &c)| c >= min).map(|(&id, _)| id as RecordId));
        out.sort_unstable();
        out
    }

    /// Blocks the indexed corpus into every surviving pair plus the
    /// suppression report — the batch path ([`NGramBlocker::block`]) is
    /// this, run over a freshly built index.
    pub fn block_all(&self) -> BlockingOutcome {
        let mut report = BlockingReport { grams_indexed: self.buckets.len(), ..Default::default() };
        let mut shared: HashMap<(u32, u32), usize> = HashMap::new();
        for bucket in self.buckets.values() {
            let enumerated = (bucket.len() * bucket.len().saturating_sub(1) / 2) as u64;
            if bucket.len() > self.config.max_bucket {
                report.grams_skipped += 1;
                report.comparisons_suppressed += enumerated;
                continue;
            }
            report.comparisons_considered += enumerated;
            for i in 0..bucket.len() {
                for j in i + 1..bucket.len() {
                    let (a, b) = (bucket[i].min(bucket[j]), bucket[i].max(bucket[j]));
                    *shared.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        let mut pairs: Vec<PairRef> = shared
            .into_iter()
            .filter(|&(_, count)| count >= self.config.min_shared)
            .map(|((a, b), _)| PairRef::new(a as RecordId, b as RecordId).expect("a < b"))
            .collect();
        pairs.sort_unstable();
        report.candidates = pairs.len();
        BlockingOutcome { candidates: CandidateSet::from_pairs(pairs), report }
    }

    /// A copy truncated back to the first `n_records` records.
    pub fn truncated(&self, n_records: usize) -> Self {
        let limit = u32::try_from(n_records).expect("record ids fit in u32");
        let buckets: HashMap<u64, Vec<u32>> = self
            .buckets
            .iter()
            .filter_map(|(&g, ids)| {
                let kept: Vec<u32> = ids.iter().copied().filter(|&id| id < limit).collect();
                (!kept.is_empty()).then_some((g, kept))
            })
            .collect();
        Self { config: self.config, buckets, n_records: n_records.min(self.n_records) }
    }

    /// Buckets sorted by gram hash (canonical order, for serialization).
    pub fn sorted_buckets(&self) -> Vec<(u64, &[u32])> {
        let mut out: Vec<(u64, &[u32])> =
            self.buckets.iter().map(|(&g, ids)| (g, ids.as_slice())).collect();
        out.sort_unstable_by_key(|&(g, _)| g);
        out
    }

    /// Reassembles an index from serialized parts, validating structure.
    pub fn from_parts(
        config: NGramBlockerConfig,
        n_records: usize,
        buckets: Vec<(u64, Vec<u32>)>,
    ) -> Result<Self, String> {
        if config.q == 0 || config.min_shared == 0 {
            return Err("q and min_shared must be positive".into());
        }
        let mut map = HashMap::with_capacity(buckets.len());
        for (g, ids) in buckets {
            if ids.is_empty() {
                return Err(format!("gram {g:#x} has an empty bucket"));
            }
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("gram {g:#x} bucket ids are not strictly ascending"));
            }
            if let Some(&last) = ids.last() {
                if last as usize >= n_records {
                    return Err(format!("gram {g:#x} references record {last} out of range"));
                }
            }
            if map.insert(g, ids).is_some() {
                return Err(format!("gram {g:#x} appears twice"));
            }
        }
        Ok(Self { config, buckets: map, n_records })
    }
}

/// The sorted, deduplicated hashed q-grams of a title — the same gram set
/// as [`gram_set`], as a vector (the shape the sharded query path passes
/// to [`NGramIndex::candidates_for_grams`]).
pub fn gram_vec(title: &str, q: usize) -> Vec<u64> {
    let mut chars = Vec::new();
    let mut grams = Vec::new();
    gram_vec_into(title, q, &mut chars, &mut grams);
    grams
}

/// [`gram_vec`] into caller-owned buffers (both are cleared first) — the
/// allocation-free shape the thread-local query scratch uses.
fn gram_vec_into(title: &str, q: usize, chars: &mut Vec<char>, grams: &mut Vec<u64>) {
    chars.clear();
    chars.extend(title.chars().flat_map(char::to_lowercase));
    grams.clear();
    if chars.is_empty() {
        return;
    }
    if chars.len() < q {
        grams.push(hash_gram(chars));
        return;
    }
    grams.extend(chars.windows(q).map(hash_gram));
    grams.sort_unstable();
    grams.dedup();
}

/// The set of hashed q-grams of a title (lower-cased per character, the
/// same mapping the scratch-based query path applies — the two must agree
/// gram-for-gram or incremental candidates would diverge from batch
/// blocking). Titles shorter than `q` hash as one whole-string gram; empty
/// titles have no grams.
pub fn gram_set(title: &str, q: usize) -> HashSet<u64> {
    gram_vec(title, q).into_iter().collect()
}

/// FNV-1a over the gram's chars — fast, deterministic, no dependencies.
pub(crate) fn hash_gram(chars: &[char]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &c in chars {
        h ^= c as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_types::Record;

    fn dataset(titles: &[&str]) -> Dataset {
        Dataset::from_records(titles.iter().map(|t| Record::with_title(0, *t)).collect())
    }

    #[test]
    fn duplicates_share_grams() {
        let b = NGramBlocker::default();
        assert!(b.survives(
            "Nike Men's Lunar Force 1 Duckboot",
            "NIKE Men Lunar Force 1 Duckboot, Black"
        ));
    }

    #[test]
    fn unrelated_titles_do_not_survive() {
        let b = NGramBlocker::default();
        assert!(!b.survives("zzzz qqqq", "aaaa bbbb"));
    }

    #[test]
    fn case_insensitive() {
        let b = NGramBlocker::default();
        assert!(b.survives("DUCKBOOT", "duckboot"));
    }

    #[test]
    fn block_emits_only_sharing_pairs() {
        let d = dataset(&[
            "Nike Lunar Force Duckboot",
            "nike lunar force duckboot black",
            "Completely unrelated xyzw",
        ]);
        let b = NGramBlocker::default().with_max_bucket(100);
        let out = b.block(&d);
        assert!(out.candidates.iter().any(|(_, p)| (p.a, p.b) == (0, 1)));
        for (_, p) in out.candidates.iter() {
            assert!(b.survives(d[p.a].title(), d[p.b].title()));
        }
        assert_eq!(out.report.candidates, out.candidates.len());
        assert!(out.report.grams_indexed > 0);
    }

    #[test]
    fn min_shared_tightens() {
        let d = dataset(&["abcdef", "abczzz", "abcdxx"]);
        let loose = NGramBlocker { q: 4, min_shared: 1, max_bucket: 100 }.block(&d);
        let tight = NGramBlocker { q: 4, min_shared: 2, max_bucket: 100 }.block(&d);
        assert!(tight.candidates.len() <= loose.candidates.len());
    }

    #[test]
    fn short_titles_hash_whole_string() {
        let b = NGramBlocker::default();
        assert!(b.survives("abc", "abc"));
        assert!(!b.survives("abc", "abd"));
        assert!(b.gram_set("").is_empty());
    }

    #[test]
    fn bucket_cap_prunes_stop_grams_and_reports_it() {
        // All titles share " the " grams; capping buckets at 2 removes them.
        let d = dataset(&["alpha the one", "beta the two", "gamma the three", "delta the four"]);
        let b = NGramBlocker::default();
        let capped = b.with_max_bucket(2).block(&d);
        let uncapped = b.with_max_bucket(100).block(&d);
        assert!(capped.candidates.len() <= uncapped.candidates.len());
        assert!(capped.report.grams_skipped > 0, "the cap must be visible in the report");
        assert!(capped.report.comparisons_suppressed > 0);
        assert_eq!(uncapped.report.grams_skipped, 0);
        assert_eq!(uncapped.report.comparisons_suppressed, 0);
    }

    #[test]
    fn blocked_pairs_are_sorted_and_unique() {
        let d = dataset(&["aaaa bbbb", "aaaa cccc", "aaaa dddd"]);
        let out = NGramBlocker::default().block(&d);
        let pairs = out.candidates.pairs();
        for w in pairs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn incremental_candidates_match_batch_blocking() {
        let titles =
            ["nike lunar force", "nike lunar force black", "adidas superstar", "nike air max"];
        let blocker = NGramBlocker::default();
        let batch = blocker.block(&dataset(&titles));
        let mut index = NGramIndex::new(blocker.config());
        for t in &titles {
            index.insert(t);
        }
        // Pair (a, b) is in the batch output iff b is an incremental
        // candidate of a's title (excluding a itself).
        for (a, title) in titles.iter().enumerate() {
            let cands = index.candidates(title);
            for b in 0..titles.len() {
                if a == b {
                    continue;
                }
                let pair = PairRef::new(a, b).unwrap();
                let blocked = batch.candidates.iter().any(|(_, p)| p == pair);
                assert_eq!(blocked, cands.contains(&b), "pair ({a}, {b})");
            }
        }
        assert_eq!(index.block_all().candidates, batch.candidates);
    }

    #[test]
    fn incremental_is_order_insensitive() {
        let titles = ["nike lunar force", "adidas superstar mesh", "nike air max", "lunar max"];
        let config = NGramBlockerConfig::default();
        let mut forward = NGramIndex::new(config);
        for t in &titles {
            forward.insert(t);
        }
        let reversed: Vec<&str> = titles.iter().rev().copied().collect();
        let mut backward = NGramIndex::new(config);
        for t in &reversed {
            backward.insert(t);
        }
        for query in ["nike lunar", "adidas mesh", "completely unrelated zzzz"] {
            let f: HashSet<&str> =
                forward.candidates(query).into_iter().map(|id| titles[id]).collect();
            let b: HashSet<&str> =
                backward.candidates(query).into_iter().map(|id| reversed[id]).collect();
            assert_eq!(f, b, "candidate record set must not depend on insertion order");
        }
    }

    #[test]
    fn truncation_is_exact_inverse_of_inserts() {
        let config = NGramBlockerConfig::default();
        let mut index = NGramIndex::new(config);
        index.insert("nike lunar force");
        index.insert("adidas superstar");
        let watermark = index.clone();
        index.insert("nike air max");
        index.insert("reebok classic");
        assert_eq!(index.truncated(2), watermark);
        assert_eq!(index.truncated(10), index);
    }

    #[test]
    fn gram_vec_agrees_with_gram_set() {
        for title in ["Nike Lunar Force 1", "ab", "", "ΣΊΣΥΦΟΣ loop", "aaaaaaa"] {
            let v = gram_vec(title, 4);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            let s: HashSet<u64> = v.iter().copied().collect();
            assert_eq!(s, gram_set(title, 4), "{title:?}");
        }
    }

    #[test]
    fn candidates_for_grams_skips_the_cap() {
        // Four titles sharing " the " grams; cap of 2 suppresses them in
        // the capped query but an explicit gram list bypasses the cap.
        let config = NGramBlockerConfig { q: 4, min_shared: 1, max_bucket: 2 };
        let mut index = NGramIndex::new(config);
        for t in ["alpha the one", "beta the two", "gamma the three", "delta the four"] {
            index.insert(t);
        }
        let capped = index.candidates("echo the five");
        let uncapped = index.candidates_for_grams(&gram_vec("echo the five", 4));
        assert!(capped.len() < uncapped.len(), "{capped:?} vs {uncapped:?}");
        assert_eq!(uncapped, vec![0, 1, 2, 3]);
        // With no oversized buckets the two paths agree exactly.
        let loose = NGramIndex::new(NGramBlockerConfig::default());
        let mut loose = loose;
        loose.insert("alpha the one");
        loose.insert("zzzz qqqq");
        assert_eq!(
            loose.candidates("alpha the one"),
            loose.candidates_for_grams(&gram_vec("alpha the one", 4))
        );
    }

    #[test]
    fn from_parts_validates() {
        let config = NGramBlockerConfig::default();
        assert!(NGramIndex::from_parts(config, 2, vec![(7, vec![0, 1])]).is_ok());
        assert!(NGramIndex::from_parts(config, 2, vec![(7, vec![])]).is_err());
        assert!(NGramIndex::from_parts(config, 2, vec![(7, vec![1, 0])]).is_err());
        assert!(NGramIndex::from_parts(config, 2, vec![(7, vec![0, 2])]).is_err());
        assert!(NGramIndex::from_parts(config, 2, vec![(7, vec![0]), (7, vec![1])]).is_err());
    }

    #[test]
    fn sorted_buckets_roundtrip_through_from_parts() {
        let mut index = NGramIndex::new(NGramBlockerConfig::default());
        index.insert("nike lunar force duckboot");
        index.insert("adidas superstar");
        index.insert("nike air max");
        let parts: Vec<(u64, Vec<u32>)> =
            index.sorted_buckets().into_iter().map(|(g, ids)| (g, ids.to_vec())).collect();
        let rebuilt = NGramIndex::from_parts(index.config(), index.len(), parts).unwrap();
        assert_eq!(rebuilt, index);
    }
}
