//! Property test for blocked-vs-exhaustive serving parity: for random
//! ingest titles, every pair the blocked path scores gets a bit-identical
//! score to the same pair under the exhaustive path — blocking decides
//! *which* pairs are scored, never *what* they score.

mod common;

use common::trained_snapshot;
use flexer_serve::{ResolutionService, ServeConfig, ShardedResolutionService};
use flexer_types::{ResolveQuery, ShardConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn blocked_ingest_scores_are_bit_identical_to_exhaustive(
        idx in 0usize..1024,
        noise in "[a-z ]{0,10}",
    ) {
        let snapshot = trained_snapshot();
        let mut blocked =
            ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let mut exhaustive =
            ResolutionService::new(snapshot.clone(), ServeConfig::exhaustive()).unwrap();
        // Titles derived from corpus records share grams with part of the
        // corpus; the noise suffix varies the candidate set.
        let title = format!("{} {noise}", blocked.record_title(idx % blocked.n_records()));
        let rb = blocked.ingest(&title);
        let re = exhaustive.ingest(&title);
        prop_assert_eq!(
            rb.n_pairs + rb.n_suppressed,
            re.n_pairs,
            "blocked + suppressed must cover the exhaustive pair set"
        );
        for bp in rb.first_pair..blocked.n_pairs() {
            let records = blocked.pair_records(bp);
            let ep = (re.first_pair..exhaustive.n_pairs())
                .find(|&p| exhaustive.pair_records(p) == records)
                .expect("every blocked pair exists under exhaustive generation");
            for intent in 0..blocked.n_intents() {
                let sb = blocked.resolve(&ResolveQuery::CorpusPair(bp), intent, 1).unwrap();
                let se = exhaustive.resolve(&ResolveQuery::CorpusPair(ep), intent, 1).unwrap();
                prop_assert_eq!(
                    sb.top().unwrap().score,
                    se.top().unwrap().score,
                    "pair {:?} intent {}", records, intent
                );
            }
        }
    }

    /// The sharding acceptance property: for shard counts 1, 2 and 5 and
    /// random ingest orders (mixed single + batched), the sharded service
    /// is bit-identical to the unsharded one — reports, every ingested
    /// pair's score under every intent, and record-query rankings.
    #[test]
    fn sharded_service_is_bit_identical_across_shard_counts_and_orders(
        shard_choice in 0usize..3,
        seed in any::<u64>(),
        noise in "[a-z ]{0,8}",
    ) {
        let n_shards = [1usize, 2, 5][shard_choice];
        let snapshot = trained_snapshot();
        let mut mono =
            ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let mut sharded = ShardedResolutionService::new(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(n_shards),
        )
        .unwrap();

        // A seed-shuffled ingest order over titles derived from corpus
        // records (gram overlap guaranteed) plus the noise suffix.
        let mut order: Vec<usize> = (0..5).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            order.swap(i, j);
        }
        let titles: Vec<String> = order
            .iter()
            .map(|&i| {
                format!("{} {noise}{i}", mono.record_title((i * 7) % mono.n_records()))
            })
            .collect();

        for t in titles.iter().take(2) {
            prop_assert_eq!(sharded.ingest(t), mono.ingest(t));
        }
        let rest: Vec<&str> = titles[2..].iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(sharded.ingest_batch(&rest), mono.ingest_batch(&rest));
        prop_assert_eq!(sharded.n_pairs(), mono.n_pairs());

        for pair in mono.n_train_pairs()..mono.n_pairs() {
            prop_assert_eq!(
                sharded.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                mono.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                "{} shards, ingested pair {}", n_shards, pair
            );
        }
        let q = ResolveQuery::record(titles[0].clone());
        prop_assert_eq!(
            sharded.resolve(&q, 0, mono.n_records()).unwrap(),
            mono.resolve(&q, 0, mono.n_records()).unwrap(),
            "{} shards: record query", n_shards
        );
    }
}
