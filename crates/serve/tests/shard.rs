//! Sharded serving tests: for any shard count the sharded service is
//! **bit-identical** to the unsharded one under the same call sequence,
//! batched ingest has pre-batch semantics, and shard-aware snapshots
//! round-trip byte-identically.

mod common;

use common::{exhaustive, trained_snapshot};
use flexer_serve::{ResolutionService, ServeConfig, ShardedResolutionService};
use flexer_store::ModelSnapshot;
use flexer_types::{ResolveQuery, ShardConfig};

/// Ingest titles derived from corpus records (so the blocker has genuine
/// candidates) plus unrelated ones (so some shards come back empty).
fn ingest_titles(svc: &ResolutionService) -> Vec<String> {
    let mut titles: Vec<String> =
        (0..4).map(|i| format!("{} listing {i}", svc.record_title(i * 3))).collect();
    titles.push("completely unrelated zzzz qqqq".to_string());
    titles.push(String::new());
    titles
}

#[test]
fn sharded_service_is_bit_identical_for_any_shard_count() {
    let snapshot = trained_snapshot();
    let mut mono = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let titles = ingest_titles(&mono);
    let (singles, batch) = titles.split_at(3);
    let batch: Vec<&str> = batch.iter().map(|t| t.as_str()).collect();
    let mono_single_reports: Vec<_> = singles.iter().map(|t| mono.ingest(t)).collect();
    let mono_batch_reports = mono.ingest_batch(&batch);

    for n_shards in [1usize, 2, 5] {
        let mut sharded = ShardedResolutionService::new(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(n_shards),
        )
        .unwrap();
        assert_eq!(sharded.n_shards(), n_shards);
        assert_eq!(sharded.blocker_kind(), "ngram");
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), snapshot.n_records());

        // Same ingest sequence → identical reports (records, pair ids,
        // candidate and suppression counts).
        let reports: Vec<_> = singles.iter().map(|t| sharded.ingest(t)).collect();
        assert_eq!(reports, mono_single_reports, "{n_shards} shards: single ingests");
        let batch_reports = sharded.ingest_batch(&batch);
        assert_eq!(batch_reports, mono_batch_reports, "{n_shards} shards: batched ingest");
        assert_eq!(sharded.n_pairs(), mono.n_pairs());
        assert_eq!(sharded.n_records(), mono.n_records());

        // Every served pair — trained and ingested — scores identically
        // under every intent.
        for pair in 0..mono.n_pairs() {
            let a = sharded.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap();
            let b = mono.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap();
            assert_eq!(a, b, "{n_shards} shards: pair {pair}");
        }
        // Record queries return identical rankings (candidate fan-out /
        // merge equals the monolithic blocker).
        let top_all = mono.n_records();
        let corpus_query = mono.record_title(1).to_string();
        for title in titles.iter().chain(std::iter::once(&corpus_query)) {
            let q = ResolveQuery::record(title.clone());
            for intent in 0..mono.n_intents() {
                let a = sharded.resolve(&q, intent, top_all).unwrap();
                let b = mono.resolve(&q, intent, top_all).unwrap();
                assert_eq!(a, b, "{n_shards} shards: record query {title:?}");
            }
        }
        // Ad-hoc pair queries hit the shared scoring tier identically.
        let q = ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016");
        assert_eq!(
            sharded.resolve(&q, 0, 1).unwrap(),
            mono.resolve(&q, 0, 1).unwrap(),
            "{n_shards} shards: ad-hoc pair"
        );
    }
}

#[test]
fn sharded_exhaustive_snapshot_matches_unsharded() {
    let snapshot = exhaustive(trained_snapshot().clone());
    let mut mono = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let mut sharded =
        ShardedResolutionService::new(snapshot, ServeConfig::default(), ShardConfig::of(3))
            .unwrap();
    assert_eq!(sharded.blocker_kind(), "exhaustive");
    let title = format!("{} v2", mono.record_title(0));
    assert_eq!(sharded.ingest(&title), mono.ingest(&title));
    assert_eq!(sharded.n_pairs(), mono.n_pairs());
    let q = ResolveQuery::record(title);
    assert_eq!(sharded.resolve(&q, 0, 7).unwrap(), mono.resolve(&q, 0, 7).unwrap());
}

#[test]
fn singleton_batch_is_exactly_ingest() {
    let snapshot = trained_snapshot();
    let mut a = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let mut b = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let title = format!("{} deluxe", a.record_title(2));
    let ra = a.ingest(&title);
    let rb = b.ingest_batch(&[&title]);
    assert_eq!(rb, vec![ra]);
    assert_eq!(a.n_pairs(), b.n_pairs());
    for pair in ra.first_pair..a.n_pairs() {
        assert_eq!(
            a.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
            b.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap()
        );
    }
}

#[test]
fn batched_ingest_scores_against_the_pre_batch_state() {
    // Batch members are simultaneous: they are not candidates of each
    // other, so each report's pair count is bounded by the pre-batch
    // corpus — unlike sequential ingests, where the second title pairs
    // with the first.
    let snapshot = exhaustive(trained_snapshot().clone());
    let n_records = snapshot.n_records();
    let mut batched = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let mut sequential = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let titles = ["same new widget alpha", "same new widget beta"];
    let batch_reports = batched.ingest_batch(&titles);
    assert_eq!(batch_reports[0].n_pairs, n_records);
    assert_eq!(batch_reports[1].n_pairs, n_records, "batch mates must not pair up");
    let seq_reports: Vec<_> = titles.iter().map(|t| sequential.ingest(t)).collect();
    assert_eq!(seq_reports[1].n_pairs, n_records + 1, "sequential ingest does pair them");
}

#[test]
fn sharded_snapshot_roundtrips_byte_identically_and_serves_everywhere() {
    let snapshot = trained_snapshot();
    let config = ServeConfig::default();
    let sharded =
        ShardedResolutionService::new(snapshot.clone(), config, ShardConfig::of(3)).unwrap();

    // The sharded snapshot is a v3 file: per-shard frames, Exhaustive
    // blocker sentinel, byte-stable across save → load → save.
    let v3 = sharded.to_snapshot();
    assert_eq!(v3.sharding.as_ref().unwrap().n_shards(), 3);
    let bytes = v3.to_bytes();
    let reloaded = ModelSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.to_bytes(), bytes, "save → load → save must be byte-identical");

    // Reloading as a sharded service (same shard count) reuses the frames
    // and stays byte-stable, even after ingest grows the live shards.
    let mut again =
        ShardedResolutionService::new(reloaded.clone(), config, ShardConfig::of(3)).unwrap();
    assert_eq!(again.to_snapshot().to_bytes(), bytes);
    again.ingest("Ingested Sharded Gadget One");
    let title = format!("{} v2", again.record_title(1));
    again.ingest(&title);
    assert_eq!(again.to_snapshot().to_bytes(), bytes, "ingest must not leak into the snapshot");

    // An unsharded service merges the frames and serves identical answers,
    // and re-emits the sharded snapshot byte-identically (the frames are
    // regenerated from the merged blocker, not kept resident).
    let mono = ResolutionService::new(reloaded.clone(), config).unwrap();
    assert_eq!(mono.blocker_kind(), "ngram", "merged frames restore the monolithic blocker");
    assert_eq!(mono.to_snapshot().to_bytes(), bytes, "unsharded re-emit must be byte-identical");
    let q = ResolveQuery::record(mono.record_title(3).to_string());
    let sharded_fresh =
        ShardedResolutionService::new(reloaded.clone(), config, ShardConfig::of(3)).unwrap();
    assert_eq!(
        mono.resolve(&q, 0, 9).unwrap(),
        sharded_fresh.resolve(&q, 0, 9).unwrap(),
        "unsharded load of a sharded snapshot serves the same answers"
    );

    // Re-sharding to a different count is a deliberate re-partition: the
    // result is valid and itself byte-stable under its own layout.
    let resharded = ShardedResolutionService::new(reloaded, config, ShardConfig::of(2)).unwrap();
    let bytes2 = resharded.to_snapshot().to_bytes();
    let reloaded2 = ModelSnapshot::from_bytes(&bytes2).unwrap();
    assert_eq!(reloaded2.to_bytes(), bytes2);
    assert_eq!(reloaded2.sharding.as_ref().unwrap().n_shards(), 2);
}

#[test]
fn sharded_batch_resolution_is_deterministic_across_thread_counts() {
    let snapshot = trained_snapshot();
    let sharded =
        ShardedResolutionService::new(snapshot.clone(), ServeConfig::default(), ShardConfig::of(2))
            .unwrap();
    let queries: Vec<ResolveQuery> =
        (0..6).map(|i| ResolveQuery::record(sharded.record_title(i).to_string())).collect();
    let reference: Vec<_> = flexer_par::with_threads(1, || sharded.resolve_batch(&queries, 0, 4));
    for threads in [2usize, 4] {
        let got = flexer_par::with_threads(threads, || sharded.resolve_batch(&queries, 0, 4));
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap(), "{threads} threads");
        }
    }
}
