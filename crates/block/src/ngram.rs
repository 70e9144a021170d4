//! The character q-gram overlap blocker of §5.1: the resident
//! [`NGramIndex`] the serving tier keeps, whose [`NGramIndex::block_all`] is
//! also the batch pass, and the pairwise predicate [`survives`].
//!
//! The paper builds AmazonMI's candidate set with a standard blocker
//! "preserving record pairs that share at least a 4-gram" and uses a second
//! blocking pass to harvest WDC's cross-category pairs. The index is an
//! inverted index from character q-grams of the lower-cased title to
//! record ids; buckets larger than `max_bucket` are treated as stop-grams
//! and skipped, and that suppression is *accounted for* in the
//! [`BlockingReport`] instead of happening silently.
//!
//! Shared-gram counts (`min_shared`) are taken over the **kept** (uncapped)
//! grams by both candidate queries and [`NGramIndex::block_all`], so the
//! batch pass and the incremental queries agree exactly on which pairs
//! survive a given corpus state.

use crate::BlockingOutcome;
use flexer_obs::Counter;
use flexer_types::{BlockingReport, CandidateSet, NGramBlockerConfig, PairRef, RecordId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Reusable buffers for the hot incremental query path. Candidate queries
/// run once per ingest and once per record resolve; without reuse each
/// query allocates a lowercase `String`, a char buffer, a gram set and a
/// shared-count map — measurable churn at small corpus sizes, where the
/// per-query constant competes with the scoring work blocking saves.
///
/// Shared grams are counted in a dense array indexed by record id, not a
/// map: one add per bucket entry, no hashing. A query leaves it all zero —
/// it resets exactly the ids it `touched` — so the array is never cleared
/// whole, and it grows on demand to the largest index this thread queries.
/// That costs 4 B per record per querying thread: 16 KB at 4 000
/// records.
#[derive(Debug, Default)]
struct QueryScratch {
    chars: Vec<char>,
    grams: Vec<u64>,
    counts: SharedCounts,
}

/// Per-record shared-gram counts of one query, and the ids it touched.
#[derive(Debug, Default)]
struct SharedCounts {
    /// `count[id]`: kept grams record `id` shares with the query; zero
    /// between queries.
    count: Vec<u32>,
    /// Every id with a non-zero count, in first-touch order.
    touched: Vec<u32>,
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// The process-global counters every resident query bumps, fetched once:
/// a by-name bump locks the global counter map on every query. The
/// stop-gram counter registers at its first skip, as a by-name bump would,
/// so the exported names do not change.
fn query_counter(cell: &'static OnceLock<Counter>, name: &str) -> &'static Counter {
    cell.get_or_init(|| flexer_obs::global().counter(name))
}

static CANDIDATES: OnceLock<Counter> = OnceLock::new();
static STOP_GRAMS_SKIPPED: OnceLock<Counter> = OnceLock::new();

/// Incremental q-gram inverted index: the serving tier's resident blocker.
///
/// Record ids are assigned sequentially by [`NGramIndex::insert`], so
/// bucket id lists are ascending by construction — which makes
/// truncation back to a watermark exact.
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
        for g in gram_vec(title, self.config.q) {
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
            let QueryScratch { chars, grams, counts } = &mut *cell.borrow_mut();
            gram_vec_into(title, self.config.q, chars, grams);
            self.collect_candidates(grams, true, counts, &mut skipped)
        });
        flexer_obs::global().record_span_ns("block.ngram.query", t0.elapsed().as_nanos() as u64);
        query_counter(&CANDIDATES, "block.ngram.candidates").add(out.len() as u64);
        if skipped > 0 {
            query_counter(&STOP_GRAMS_SKIPPED, "block.ngram.stop_grams_skipped").add(skipped);
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
            let QueryScratch { counts, .. } = &mut *cell.borrow_mut();
            let mut skipped = 0u64;
            self.collect_candidates(grams, false, counts, &mut skipped)
        })
    }

    /// Shared-count accumulation over `grams`, into the reused dense
    /// counts (left all zero again); candidates are emitted ascending.
    /// Grams suppressed by the bucket cap are tallied into `skipped`.
    fn collect_candidates(
        &self,
        grams: &[u64],
        apply_cap: bool,
        counts: &mut SharedCounts,
        skipped: &mut u64,
    ) -> Vec<RecordId> {
        let SharedCounts { count, touched } = counts;
        if count.len() < self.n_records {
            count.resize(self.n_records, 0);
        }
        for g in grams {
            if let Some(bucket) = self.buckets.get(g) {
                if apply_cap && bucket.len() > self.config.max_bucket {
                    *skipped += 1;
                    continue;
                }
                for &id in bucket {
                    let c = &mut count[id as usize];
                    if *c == 0 {
                        touched.push(id);
                    }
                    *c += 1;
                }
            }
        }
        let min = self.config.min_shared as u32;
        let mut out: Vec<RecordId> = Vec::with_capacity(touched.len());
        for id in touched.drain(..) {
            let c = std::mem::take(&mut count[id as usize]);
            if c >= min {
                out.push(id as RecordId);
            }
        }
        out.sort_unstable();
        out
    }

    /// Blocks the indexed corpus into every surviving pair plus the
    /// suppression report — the batch path ([`crate::block`]) is this,
    /// run over a freshly built index.
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

    /// `(gram, bucket size)` of every bucket, ascending by gram — this
    /// index's contribution to the global stop-gram counts
    /// ([`crate::GlobalBlocking::new`]).
    pub fn bucket_sizes(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> =
            self.buckets.iter().map(|(&g, ids)| (g, ids.len() as u32)).collect();
        out.sort_unstable_by_key(|&(g, _)| g);
        out
    }
}

/// The sorted, deduplicated hashed q-grams of a title, lower-cased per
/// character (the shape the sharded query path passes to
/// [`NGramIndex::candidates_for_grams`]). Titles shorter than `q` hash as
/// one whole-string gram; empty titles have no grams.
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

/// Whether two titles share at least `min_shared` q-grams — the pairwise
/// predicate (no bucket cap: caps are a corpus-level stop-gram notion).
/// Counts shared grams by merging the two sorted [`gram_vec`]s.
pub fn survives(config: &NGramBlockerConfig, a: &str, b: &str) -> bool {
    let (ga, gb) = (gram_vec(a, config.q), gram_vec(b, config.q));
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared >= config.min_shared
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
    use std::collections::HashSet;

    /// The q = 4 config with the given survival threshold and bucket cap.
    fn cfg(min_shared: usize, max_bucket: usize) -> NGramBlockerConfig {
        NGramBlockerConfig { q: 4, min_shared, max_bucket }
    }

    fn indexed(config: NGramBlockerConfig, titles: &[&str]) -> NGramIndex {
        let mut index = NGramIndex::new(config);
        for t in titles {
            index.insert(t);
        }
        index
    }

    #[test]
    fn duplicates_share_grams() {
        assert!(survives(
            &NGramBlockerConfig::default(),
            "Nike Men's Lunar Force 1 Duckboot",
            "NIKE Men Lunar Force 1 Duckboot, Black"
        ));
    }

    #[test]
    fn unrelated_titles_do_not_survive() {
        assert!(!survives(&NGramBlockerConfig::default(), "zzzz qqqq", "aaaa bbbb"));
    }

    #[test]
    fn case_insensitive() {
        assert!(survives(&NGramBlockerConfig::default(), "DUCKBOOT", "duckboot"));
    }

    #[test]
    fn block_emits_only_sharing_pairs() {
        let titles =
            ["Nike Lunar Force Duckboot", "nike lunar force duckboot black", "Unrelated xyzw"];
        let out = indexed(cfg(1, 100), &titles).block_all();
        assert!(out.candidates.iter().any(|(_, p)| (p.a, p.b) == (0, 1)));
        for (_, p) in out.candidates.iter() {
            assert!(survives(&cfg(1, 100), titles[p.a], titles[p.b]));
        }
        assert_eq!(out.report.candidates, out.candidates.len());
        assert!(out.report.grams_indexed > 0);
    }

    #[test]
    fn min_shared_tightens() {
        let titles = ["abcdef", "abczzz", "abcdxx"];
        let loose = indexed(cfg(1, 100), &titles).block_all();
        let tight = indexed(cfg(2, 100), &titles).block_all();
        assert!(tight.candidates.len() <= loose.candidates.len());
    }

    #[test]
    fn short_titles_hash_whole_string() {
        assert!(survives(&NGramBlockerConfig::default(), "abc", "abc"));
        assert!(!survives(&NGramBlockerConfig::default(), "abc", "abd"));
        assert!(gram_vec("", 4).is_empty());
    }

    #[test]
    fn bucket_cap_prunes_stop_grams_and_reports_it() {
        // All titles share " the " grams; capping buckets at 2 removes them.
        let titles = ["alpha the one", "beta the two", "gamma the three", "delta the four"];
        let capped = indexed(cfg(1, 2), &titles).block_all();
        let uncapped = indexed(cfg(1, 100), &titles).block_all();
        assert!(capped.candidates.len() <= uncapped.candidates.len());
        assert!(capped.report.grams_skipped > 0, "the cap must be visible in the report");
        assert!(capped.report.comparisons_suppressed > 0);
        assert_eq!(uncapped.report.grams_skipped, 0);
        assert_eq!(uncapped.report.comparisons_suppressed, 0);
    }

    #[test]
    fn blocked_pairs_are_sorted_and_unique() {
        let out = indexed(cfg(1, 64), &["aaaa bbbb", "aaaa cccc", "aaaa dddd"]).block_all();
        assert!(out.candidates.pairs().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn incremental_candidates_match_batch_blocking() {
        let titles =
            ["nike lunar force", "nike lunar force black", "adidas superstar", "nike air max"];
        let index = indexed(NGramBlockerConfig::default(), &titles);
        let batch = index.block_all();
        // Pair (a, b) is in the batch output iff b is an incremental
        // candidate of a's title (excluding a itself).
        for (a, title) in titles.iter().enumerate() {
            let cands = index.candidates(title);
            for b in (0..titles.len()).filter(|&b| b != a) {
                let pair = PairRef::new(a, b).unwrap();
                let blocked = batch.candidates.iter().any(|(_, p)| p == pair);
                assert_eq!(blocked, cands.contains(&b), "pair ({a}, {b})");
            }
        }
    }

    #[test]
    fn incremental_is_order_insensitive() {
        let titles = ["nike lunar force", "adidas superstar mesh", "nike air max", "lunar max"];
        let forward = indexed(NGramBlockerConfig::default(), &titles);
        let reversed: Vec<&str> = titles.iter().rev().copied().collect();
        let backward = indexed(NGramBlockerConfig::default(), &reversed);
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
        let mut index =
            indexed(NGramBlockerConfig::default(), &["nike lunar force", "adidas superstar"]);
        let watermark = index.clone();
        index.insert("nike air max");
        index.insert("reebok classic");
        assert_eq!(index.truncated(2), watermark);
        assert_eq!(index.truncated(10), index);
    }

    /// The dense counts give what the shared-count map they replaced gives:
    /// random corpora over a three-letter alphabet (grams shared
    /// everywhere), `min_shared` 1–3, the cap on and off, both query paths.
    /// Two indexes of different sizes are queried in turn on one thread,
    /// so a count one query left non-zero would show in the next.
    mod dense_counts {
        use super::*;
        use proptest::prelude::*;

        /// Candidates counted through a map, as before the dense array.
        fn counted_in_a_map(index: &NGramIndex, grams: &[u64], apply_cap: bool) -> Vec<RecordId> {
            let mut shared: HashMap<u32, u32> = HashMap::new();
            for g in grams {
                let Some(bucket) = index.buckets.get(g) else { continue };
                if apply_cap && bucket.len() > index.config.max_bucket {
                    continue;
                }
                for &id in bucket {
                    *shared.entry(id).or_insert(0) += 1;
                }
            }
            let min = index.config.min_shared as u32;
            let mut out: Vec<RecordId> = shared
                .into_iter()
                .filter(|&(_, c)| c >= min)
                .map(|(id, _)| id as RecordId)
                .collect();
            out.sort_unstable();
            out
        }

        proptest! {
            #[test]
            fn match_a_map_model(
                corpus in prop::collection::vec("[abc ]{0,14}", 1..48),
                queries in prop::collection::vec("[abc ]{0,14}", 1..10),
                min_shared in 1usize..4,
                capped in any::<bool>(),
            ) {
                let max_bucket = if capped { 6 } else { usize::MAX };
                let config = NGramBlockerConfig { q: 3, min_shared, max_bucket };
                let titles: Vec<&str> = corpus.iter().map(String::as_str).collect();
                let large = indexed(config, &titles);
                let small = large.truncated(titles.len() / 2);
                for query in &queries {
                    let grams = gram_vec(query, config.q);
                    for index in [&large, &small] {
                        prop_assert_eq!(
                            index.candidates(query),
                            counted_in_a_map(index, &grams, true),
                            "query {:?}, {} records",
                            query,
                            index.len()
                        );
                        prop_assert_eq!(
                            index.candidates_for_grams(&grams),
                            counted_in_a_map(index, &grams, false)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_for_grams_skips_the_cap() {
        // Four titles sharing " the " grams; cap of 2 suppresses them in
        // the capped query but an explicit gram list bypasses the cap.
        let titles = ["alpha the one", "beta the two", "gamma the three", "delta the four"];
        let index = indexed(cfg(1, 2), &titles);
        let capped = index.candidates("echo the five");
        let uncapped = index.candidates_for_grams(&gram_vec("echo the five", 4));
        assert!(capped.len() < uncapped.len(), "{capped:?} vs {uncapped:?}");
        assert_eq!(uncapped, vec![0, 1, 2, 3]);
        // With no oversized buckets the two paths agree exactly.
        let loose = indexed(NGramBlockerConfig::default(), &["alpha the one", "zzzz qqqq"]);
        assert_eq!(
            loose.candidates("alpha the one"),
            loose.candidates_for_grams(&gram_vec("alpha the one", 4))
        );
    }
}
