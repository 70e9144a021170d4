//! Property tests for the candidate-generation subsystem: the batch
//! blocker is exactly the pairwise `survives` predicate at `min_shared =
//! 1` (no silent pair loss beyond the bucket cap), the incremental index
//! agrees with the batch pass, and candidate queries are insensitive to
//! insertion order.

use flexer_block::{
    block, build_shard, local_answer, ngram::survives, BlockerState, GlobalBlocking, NGramIndex,
};
use flexer_types::{
    AnnBlockerConfig, CandidateGenConfig, Dataset, NGramBlockerConfig, PairRef, Record, ShardConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn corpus(titles: &[String]) -> Dataset {
    Dataset::from_records(titles.iter().map(|t| Record::with_title(0, t.clone())).collect())
}

fn title_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z]{1,6}", 0..5).prop_map(|words| words.join(" "))
}

/// The sharded answer as the serving tier composes it: every shard built
/// alone, the global half from their bucket sizes, then plan → local
/// answers → merge.
fn sharded(gen: &CandidateGenConfig, n: usize, titles: &[String], q: &str) -> Option<Vec<usize>> {
    let config = ShardConfig::of(n);
    let shards: Vec<_> =
        (0..n).map(|s| build_shard(gen, config, titles.iter().map(String::as_str), s)).collect();
    let sizes = shards.iter().flat_map(|(_, state)| state.bucket_sizes());
    let global = GlobalBlocking::new(gen, config, sizes, titles.len());
    let planned = global.plan(q)?;
    Some(global.merge(shards.iter().map(|(m, state)| local_answer(&planned, state, m).unwrap())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With `min_shared = 1` and no bucket cap, `survives(a, b)` holds iff
    /// the pair appears in `block()`'s output — the blocker loses nothing
    /// the pairwise predicate would keep.
    #[test]
    fn block_emits_exactly_the_surviving_pairs(
        titles in prop::collection::vec(title_strategy(), 2..12),
    ) {
        let config = NGramBlockerConfig { q: 4, min_shared: 1, max_bucket: usize::MAX };
        let out = block(&CandidateGenConfig::NGram(config), &corpus(&titles));
        let blocked: HashSet<PairRef> = out.candidates.pairs().iter().copied().collect();
        for a in 0..titles.len() {
            for b in a + 1..titles.len() {
                let pair = PairRef::new(a, b).unwrap();
                prop_assert_eq!(
                    survives(&config, &titles[a], &titles[b]),
                    blocked.contains(&pair),
                    "pair ({}, {}): {:?} vs {:?}", a, b, &titles[a], &titles[b]
                );
            }
        }
        prop_assert_eq!(out.report.candidates, out.candidates.len());
        prop_assert_eq!(out.report.grams_skipped, 0);
        prop_assert_eq!(out.report.comparisons_suppressed, 0);
    }

    /// The incremental index and the batch blocker agree: b is a candidate
    /// of a's title iff the batch pass emits the pair (for any cap).
    #[test]
    fn incremental_agrees_with_batch(
        titles in prop::collection::vec(title_strategy(), 2..10),
        max_bucket in 1usize..8,
    ) {
        let config = NGramBlockerConfig { q: 4, min_shared: 1, max_bucket };
        let batch = block(&CandidateGenConfig::NGram(config), &corpus(&titles));
        let blocked: HashSet<PairRef> = batch.candidates.pairs().iter().copied().collect();
        let mut index = NGramIndex::new(config);
        for t in &titles {
            index.insert(t);
        }
        for (a, title) in titles.iter().enumerate() {
            let cands: HashSet<usize> = index.candidates(title).into_iter().collect();
            for b in 0..titles.len() {
                if a == b {
                    continue;
                }
                prop_assert_eq!(
                    blocked.contains(&PairRef::new(a, b).unwrap()),
                    cands.contains(&b),
                    "pair ({}, {})", a, b
                );
            }
        }
    }

    /// Candidate queries depend only on the record *set*, not insertion
    /// order (order-insensitive determinism).
    #[test]
    fn candidates_are_order_insensitive(
        titles in prop::collection::vec(title_strategy(), 1..10),
        query in title_strategy(),
        rot in 0usize..10,
    ) {
        let config = CandidateGenConfig::NGram(NGramBlockerConfig {
            q: 4,
            min_shared: 1,
            max_bucket: 6,
        });
        let rot = rot % titles.len();
        let rotated: Vec<&str> = titles[rot..].iter().chain(&titles[..rot]).map(|s| s.as_str()).collect();
        let a = BlockerState::build(&config, titles.iter().map(|s| s.as_str()));
        let b = BlockerState::build(&config, rotated.iter().copied());
        let ca: HashSet<&str> = a
            .candidates(&query)
            .unwrap()
            .into_iter()
            .map(|id| titles[id].as_str())
            .collect();
        let cb: HashSet<&str> =
            b.candidates(&query).unwrap().into_iter().map(|id| rotated[id]).collect();
        prop_assert_eq!(ca, cb);
    }

    /// Every blocked candidate set is a subset of the exhaustive one.
    #[test]
    fn blocked_is_subset_of_exhaustive(
        titles in prop::collection::vec(title_strategy(), 2..10),
    ) {
        let d = corpus(&titles);
        let all: HashSet<PairRef> =
            block(&CandidateGenConfig::Exhaustive, &d).candidates.pairs().iter().copied().collect();
        let blocked = block(&CandidateGenConfig::default(), &d);
        for (_, pair) in blocked.candidates.iter() {
            prop_assert!(all.contains(&pair));
        }
    }

    /// The sharding equivalence lemma, q-gram backend: for any titles,
    /// shard count, bucket cap and query, the composed sharded answer
    /// equals the monolithic candidate set exactly.
    #[test]
    fn sharded_ngram_equals_monolithic(
        titles in prop::collection::vec(title_strategy(), 0..14),
        query in title_strategy(),
        n_shards in 1usize..6,
        max_bucket in 1usize..8,
    ) {
        let gen = CandidateGenConfig::NGram(NGramBlockerConfig { q: 4, min_shared: 1, max_bucket });
        let mono = BlockerState::build(&gen, titles.iter().map(|s| s.as_str()));
        prop_assert_eq!(sharded(&gen, n_shards, &titles, &query), mono.candidates(&query));
    }

    /// The sharding equivalence lemma, ANN backend.
    #[test]
    fn sharded_ann_equals_monolithic(
        titles in prop::collection::vec(title_strategy(), 0..14),
        query in title_strategy(),
        n_shards in 1usize..6,
        k in 1usize..5,
    ) {
        let gen = CandidateGenConfig::Ann(AnnBlockerConfig { q: 3, dim: 16, k });
        let mono = BlockerState::build(&gen, titles.iter().map(|s| s.as_str()));
        prop_assert_eq!(sharded(&gen, n_shards, &titles, &query), mono.candidates(&query));
    }
}
