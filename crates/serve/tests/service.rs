//! Serving-tier integration tests over a tiny trained model: exact
//! transductive reproduction, inductive ingest, batching determinism and
//! metrics plumbing.

mod common;

use flexer_core::FlexErModel;
use flexer_serve::{ResolutionService, ServeConfig, ServeError};
use flexer_store::ModelSnapshot;
use flexer_types::{MatchTarget, ResolveQuery};

/// The shared training run (each test clones the snapshot it mutates).
fn trained_snapshot() -> (ModelSnapshot, FlexErModel) {
    common::trained().clone()
}

/// One of the service's own counters, as its snapshot exports it.
fn counter(svc: &ResolutionService, name: &str) -> u64 {
    svc.obs_snapshot().counter(name).unwrap_or_else(|| panic!("counter {name} missing"))
}

/// The service's `(hits, misses)` of resolve traffic's cache lookups.
fn cache(svc: &ResolutionService) -> (u64, u64) {
    (counter(svc, "serve.cache.hits"), counter(svc, "serve.cache.misses"))
}

#[test]
fn serving_pipeline_end_to_end() {
    let (snapshot, model) = trained_snapshot();
    let n_pairs = snapshot.n_pairs();
    let p = snapshot.n_intents();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();

    // --- Exact transductive reproduction over every corpus pair. ---
    for pair in 0..n_pairs {
        let responses = svc.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap();
        assert_eq!(responses.len(), p);
        for (intent, r) in responses.iter().enumerate() {
            assert_eq!(r.intent, intent);
            let m = r.top().unwrap();
            assert_eq!(m.target, MatchTarget::Pair(pair));
            assert_eq!(
                m.matched,
                model.predictions.get(pair, intent),
                "pair {pair} intent {intent}: served decision != batch prediction"
            );
            assert_eq!(m.score, model.trained[intent].scores[pair], "score must be bit-exact");
        }
    }

    // --- Ad-hoc pair and record queries produce sane rankings. ---
    let adhoc =
        svc.resolve(&ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016"), 0, 1).unwrap();
    assert_eq!(adhoc.matches.len(), 1);
    assert!(adhoc.top().unwrap().score.is_finite());

    let query_title = svc.record_title(0).to_string();
    let ranked = svc.resolve(&ResolveQuery::record(query_title), 0, 5).unwrap();
    assert!(ranked.matches.len() <= 5 && !ranked.matches.is_empty());
    for w in ranked.matches.windows(2) {
        assert!(w[0].score >= w[1].score, "ranking must be descending");
    }

    // --- Metrics observed the traffic: every resolve, and a miss for the
    // ad-hoc pair and each of the record query's candidates. ---
    let resolves = svc.obs_snapshot().span("resolve").unwrap().count;
    assert_eq!(resolves as usize, n_pairs + 2);
    assert_eq!(cache(&svc), (0, 1 + counter(&svc, "serve.resolve.candidates")));
}

#[test]
fn ingest_extends_the_served_corpus() {
    let (snapshot, _) = trained_snapshot();
    // The exhaustive fallback: every pre-existing record is a candidate.
    let mut svc = ResolutionService::new(snapshot, ServeConfig::exhaustive()).unwrap();
    assert_eq!(svc.blocker_kind(), "exhaustive");
    let n_records = svc.n_records();
    let n_pairs = svc.n_pairs();

    let report = svc.ingest("BrandNew UltraWidget 9000 Pro Edition");
    assert_eq!(report.record, n_records);
    assert_eq!(report.first_pair, n_pairs);
    assert_eq!(report.n_pairs, n_records, "one pair per pre-existing record");
    assert_eq!(report.n_suppressed, 0, "exhaustive ingest suppresses nothing");
    assert_eq!(svc.n_records(), n_records + 1);
    assert_eq!(svc.n_pairs(), n_pairs + n_records);
    assert_eq!(svc.n_train_pairs(), n_pairs);
    assert_eq!(svc.n_train_records(), n_records);

    // Ingested pairs are servable corpus pairs now.
    let r = svc.resolve(&ResolveQuery::CorpusPair(n_pairs), 0, 1).unwrap();
    assert!(r.top().unwrap().score.is_finite());
    // Training-pair scores were not perturbed (ingest is additive-only).
    let before = svc.snapshot().trained[0].scores[0];
    let after = svc.resolve(&ResolveQuery::CorpusPair(0), 0, 1).unwrap();
    assert_eq!(after.top().unwrap().score, before);

    // The new record participates in record-level resolution.
    let ranked = svc.resolve(&ResolveQuery::record("BrandNew UltraWidget 9000 Pro Edition"), 0, 3);
    let ranked = ranked.unwrap();
    assert!(ranked.matches.iter().any(|m| m.target == MatchTarget::Record(report.record)));
    assert_eq!(counter(&svc, "serve.ingest.records"), 1);
}

#[test]
fn saved_snapshot_stays_byte_identical_even_after_ingest() {
    let (snapshot, _) = trained_snapshot();
    let original = snapshot.to_bytes();
    let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    svc.ingest("Ingested Gadget One");
    svc.ingest("Ingested Gadget Two");
    // Ingested state is serving-tier only: the reconstructed training
    // snapshot (indexes truncated to the training watermark) must match
    // the loaded bytes exactly.
    assert_eq!(svc.to_snapshot().to_bytes(), original);
}

#[test]
fn cache_key_is_injective_for_adversarial_titles() {
    let (snapshot, _) = trained_snapshot();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    // These two pairs concatenate to the same string; a separator-based
    // key would collide and serve the second query from the first's
    // cached embedding.
    let q1 = ResolveQuery::pair("alpha be", "ta gamma");
    let q2 = ResolveQuery::pair("alpha", " beta gamma");
    let r1 = svc.resolve(&q1, 0, 1).unwrap();
    let r2 = svc.resolve(&q2, 0, 1).unwrap();
    // Both queries must have been embedded independently (two misses).
    assert_eq!(cache(&svc), (0, 2));
    // And re-resolving each returns its own cached answer.
    assert_eq!(svc.resolve(&q1, 0, 1).unwrap(), r1);
    assert_eq!(svc.resolve(&q2, 0, 1).unwrap(), r2);
}

#[test]
fn batch_resolution_is_deterministic_across_thread_counts() {
    let (snapshot, _) = trained_snapshot();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let queries: Vec<ResolveQuery> =
        (0..6).map(|i| ResolveQuery::record(svc.record_title(i).to_string())).collect();
    let reference: Vec<_> = flexer_par::with_threads(1, || svc.resolve_batch(&queries, 0, 4));
    for threads in [2usize, 4] {
        let got = flexer_par::with_threads(threads, || svc.resolve_batch(&queries, 0, 4));
        for (a, b) in reference.iter().zip(&got) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a, b, "{threads} threads");
        }
    }
}

#[test]
fn error_paths() {
    let (snapshot, _) = trained_snapshot();
    let p = snapshot.n_intents();
    let n = snapshot.n_pairs();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    assert!(matches!(
        svc.resolve(&ResolveQuery::CorpusPair(n + 7), 0, 1),
        Err(ServeError::UnknownPair(_, _))
    ));
    assert!(matches!(
        svc.resolve(&ResolveQuery::CorpusPair(0), p, 1),
        Err(ServeError::IntentOutOfRange(_, _))
    ));
}

#[test]
fn corrupted_snapshot_is_refused() {
    let (snapshot, _) = trained_snapshot();
    let mut broken = snapshot.clone();
    // Tamper with one batch score: the warm forward can no longer
    // reproduce it, and the service must refuse to serve wrong answers.
    broken.trained[0].scores[0] += 0.25;
    match ResolutionService::new(broken, ServeConfig::default()) {
        Err(ServeError::InconsistentSnapshot(msg)) => {
            assert!(msg.contains("warm forward"), "{msg}");
        }
        other => panic!("expected InconsistentSnapshot, got {other:?}"),
    }
}

#[test]
fn blocked_ingest_scores_match_exhaustive_bit_for_bit() {
    let (snapshot, _) = trained_snapshot();
    assert_eq!(snapshot.blocker.kind_name(), "ngram", "snapshots carry the blocker tier");
    let mut blocked = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let mut exhaustive = ResolutionService::new(snapshot, ServeConfig::exhaustive()).unwrap();
    assert_eq!(blocked.blocker_kind(), "ngram");

    // A title sharing grams with some corpus titles but not all.
    let title = format!("{} deluxe", blocked.record_title(0));
    let rb = blocked.ingest(&title);
    let re = exhaustive.ingest(&title);
    assert!(rb.n_pairs <= re.n_pairs);
    assert!(rb.n_pairs > 0, "the title shares grams with record 0");
    assert_eq!(rb.n_pairs + rb.n_suppressed, re.n_pairs, "suppression is accounted for");

    // Every blocked pair exists in the exhaustive service too, with a
    // bit-identical score under every intent.
    for bp in rb.first_pair..blocked.n_pairs() {
        let (a, b) = blocked.pair_records(bp);
        let ep = (re.first_pair..exhaustive.n_pairs())
            .find(|&p| exhaustive.pair_records(p) == (a, b))
            .expect("blocked pair must exist under exhaustive generation");
        for intent in 0..blocked.n_intents() {
            let sb = blocked.resolve(&ResolveQuery::CorpusPair(bp), intent, 1).unwrap();
            let se = exhaustive.resolve(&ResolveQuery::CorpusPair(ep), intent, 1).unwrap();
            assert_eq!(
                sb.top().unwrap().score,
                se.top().unwrap().score,
                "pair ({a}, {b}) intent {intent}: blocked score must be bit-identical"
            );
        }
    }
}

#[test]
fn blocked_record_query_scores_match_exhaustive_bit_for_bit() {
    let (snapshot, _) = trained_snapshot();
    let blocked = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
    let exhaustive = ResolutionService::new(snapshot, ServeConfig::exhaustive()).unwrap();
    let query = ResolveQuery::record(blocked.record_title(2).to_string());
    let top_all = blocked.n_records();
    let rb = blocked.resolve(&query, 0, top_all).unwrap();
    let re = exhaustive.resolve(&query, 0, top_all).unwrap();
    assert!(!rb.matches.is_empty(), "a corpus title is its own candidate");
    assert!(rb.matches.len() <= re.matches.len());
    for m in &rb.matches {
        let em = re
            .matches
            .iter()
            .find(|e| e.target == m.target)
            .expect("blocked candidate must be ranked by the exhaustive path too");
        assert_eq!(m.score, em.score, "{:?}: blocked score must be bit-identical", m.target);
        assert_eq!(m.matched, em.matched);
    }
}

#[test]
fn blocked_ingest_keeps_snapshot_roundtrip_byte_identical() {
    let (snapshot, _) = trained_snapshot();
    let original = snapshot.to_bytes();
    let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    // Ingests grow the blocker; the reconstructed snapshot truncates it
    // back to the training watermark exactly.
    svc.ingest("Ingested Blocked Gadget One");
    let title = format!("{} v2", svc.record_title(1));
    svc.ingest(&title);
    assert_eq!(svc.to_snapshot().to_bytes(), original);
}

#[test]
fn repeated_record_query_is_served_from_the_cache() {
    let (snapshot, _) = trained_snapshot();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let q = ResolveQuery::record(svc.record_title(5).to_string());
    let first = svc.resolve(&q, 0, 5).unwrap();
    let candidates = counter(&svc, "serve.resolve.candidates");
    assert!(candidates > 0);
    assert_eq!(cache(&svc), (0, candidates), "first record query embeds its candidate pairs");
    let second = svc.resolve(&q, 0, 5).unwrap();
    assert_eq!(second, first, "cached embeddings must not change the answer");
    assert_eq!(cache(&svc), (candidates, candidates), "repeat must be served from the cache");
    assert_eq!(svc.obs_snapshot().gauge("serve.cache.hit_rate"), Some(0.5));
}

#[test]
fn flood_guard_rejections_surface_in_metrics() {
    // A record query whose miss batch exceeds half the cache capacity is
    // computed but not cached; the guard's rejections must be observable.
    let (snapshot, _) = trained_snapshot();
    let config = ServeConfig { cache_capacity: 4, ..ServeConfig::exhaustive() };
    let svc = ResolutionService::new(snapshot, config).unwrap();
    let q = ResolveQuery::record(svc.record_title(2).to_string());
    svc.resolve(&q, 0, 5).unwrap();
    let n = svc.n_records() as u64;
    assert!(n > 2);
    let rejections = |svc: &ResolutionService| counter(svc, "serve.cache.flood_rejections");
    assert_eq!(rejections(&svc), n, "corpus-sized miss batch must trip the flood guard");
    // Rejected embeddings never entered the cache: a repeat misses again
    // and every miss is rejected again.
    svc.resolve(&q, 0, 5).unwrap();
    assert_eq!(cache(&svc), (0, 2 * n));
    assert_eq!(rejections(&svc), 2 * n);
}

#[test]
fn zero_capacity_cache_is_bypassed_not_flooded() {
    // A cache that stores nothing is not consulted: no lookup misses, and no
    // miss batch counted as a flood. The answers are the cached service's.
    let (snapshot, _) = trained_snapshot();
    let uncached = ResolutionService::new(
        snapshot.clone(),
        ServeConfig { cache_capacity: 0, ..Default::default() },
    )
    .unwrap();
    let cached = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let queries = [
        ResolveQuery::record(uncached.record_title(2).to_string()),
        ResolveQuery::pair("Nike Duckboot", "NIKE duckboot black"),
    ];
    for _ in 0..2 {
        for q in &queries {
            assert_eq!(
                uncached.resolve_all_intents(q, 5).unwrap(),
                cached.resolve_all_intents(q, 5).unwrap()
            );
        }
    }
    assert!(counter(&uncached, "serve.resolve.candidates") > 0);
    assert_eq!(cache(&uncached), (0, 0));
    assert_eq!(counter(&uncached, "serve.cache.flood_rejections"), 0);
}

#[test]
fn obs_snapshot_exposes_resolve_stage_spans_and_gauges() {
    let (snapshot, _) = trained_snapshot();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let q = ResolveQuery::record(svc.record_title(3).to_string());
    svc.resolve(&q, 0, 5).unwrap();
    svc.resolve(&q, 0, 5).unwrap();
    let snap = svc.obs_snapshot();
    for path in ["resolve", "resolve.block", "resolve.embed", "resolve.forward", "resolve.rank"] {
        let stat = snap.span(path).unwrap_or_else(|| panic!("span {path} missing"));
        assert_eq!(stat.count, 2, "span {path}");
        assert!(stat.sum >= stat.count, "span {path} must accumulate ≥1 ns per sample");
    }
    // The first resolve missed on every candidate, the repeat hit on each.
    let (hits, misses) = cache(&svc);
    assert_eq!((hits, 2 * misses), (misses, snap.counter("serve.resolve.candidates").unwrap()));
    assert_eq!(snap.gauge("serve.records"), Some(svc.n_records() as f64));
    assert_eq!(snap.gauge("serve.cache.hit_rate"), Some(0.5));
    // Both export formats carry the span families.
    assert!(snap.to_json().contains("\"resolve.embed\""));
    assert!(snap.to_prometheus().contains("flexer_span_ns{path=\"resolve.forward\""));
}

#[test]
fn ingest_does_not_pollute_the_embedding_cache() {
    // The small-scale ingest regression: ingest used to push every
    // (stored record, new title) embedding through the LRU, evicting the
    // hot query set with keys that can never recur. Ingest now bypasses
    // the cache entirely — neither its counters nor its contents move.
    let (snapshot, _) = trained_snapshot();
    let mut svc = ResolutionService::new(snapshot, ServeConfig::exhaustive()).unwrap();
    let q = ResolveQuery::record(svc.record_title(7).to_string());
    svc.resolve(&q, 0, 3).unwrap();
    let n = svc.n_records() as u64;
    assert_eq!(cache(&svc), (0, n));
    svc.ingest("fresh widget alpha edition");
    assert_eq!(cache(&svc), (0, n), "ingest embeds outside the cache");
    // The pre-ingest query's entries are still resident: a repeat hits on
    // each of them and misses only the ingested record's pair.
    svc.resolve(&q, 0, 3).unwrap();
    assert_eq!(cache(&svc), (n, n + 1));
}

#[test]
fn embedding_cache_hits_on_repeated_queries() {
    let (snapshot, _) = trained_snapshot();
    let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
    let q = ResolveQuery::pair("Nike Duckboot", "NIKE duckboot black");
    let a = svc.resolve(&q, 0, 1).unwrap();
    assert_eq!(cache(&svc), (0, 1));
    let b = svc.resolve(&q, 0, 1).unwrap();
    assert_eq!(a, b, "cached embedding must not change the answer");
    assert_eq!(cache(&svc), (1, 1), "second resolve must hit the cache");
}
