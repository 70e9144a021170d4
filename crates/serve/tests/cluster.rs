//! Networked cluster smoke tests: a router plus shard servers over real
//! TCP sockets (in-process, ephemeral ports) answer **bit-identically**
//! to the in-process [`ShardedResolutionService`] under the same snapshot
//! and call sequence, degrade per shard instead of failing whole queries,
//! and survive corrupt bytes from clients.

mod common;

use common::kill_shard;
use flexer_serve::{
    NetConfig, Router, RouterClient, ServeConfig, ShardServer, ShardedResolutionService,
};
use flexer_store::ModelSnapshot;
use flexer_types::{
    MatchTarget, ResolveQuery, ShardConfig, ShardRequest, ShardResponse, WireCandidates,
    WireIngestReport,
};

/// One shared training run for the whole test binary, pre-sharded into
/// two frames (the deployment shape every test below boots).
fn sharded_snapshot() -> &'static ModelSnapshot {
    static SHARED: std::sync::OnceLock<ModelSnapshot> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| common::sharded_snapshot(2))
}

/// Boots `replicas` shard servers per shard slot (2 slots) + a router
/// over the shared snapshot; returns a connected client, the router's
/// address and the replica addresses per shard slot.
fn boot_replicated(replicas: usize) -> (RouterClient, std::net::SocketAddr, Vec<Vec<String>>) {
    let snapshot = sharded_snapshot();
    let mut groups = Vec::new();
    for shard in 0..2 {
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let server =
                ShardServer::from_snapshot(snapshot.clone(), shard, "127.0.0.1:0").unwrap();
            addrs.push(server.local_addr().to_string());
            server.spawn();
        }
        groups.push(addrs);
    }
    // Tight timeouts keep the degraded-path tests fast: a dead replica
    // costs milliseconds (connection refused), a stalled one at most the
    // 500 ms I/O quantum.
    let net = NetConfig {
        connect_timeout: std::time::Duration::from_millis(500),
        io_timeout: std::time::Duration::from_millis(500),
        request_budget: std::time::Duration::from_millis(2000),
        ..NetConfig::default()
    };
    let router = Router::from_snapshot(
        snapshot.clone(),
        ServeConfig::default(),
        groups.clone(),
        "127.0.0.1:0",
        net,
    )
    .unwrap();
    let addr = router.local_addr();
    router.spawn();
    (RouterClient::connect(addr).unwrap(), addr, groups)
}

/// The pre-replication shape: one replica per shard slot.
fn boot_cluster() -> (RouterClient, std::net::SocketAddr, Vec<String>) {
    let (client, addr, groups) = boot_replicated(1);
    (client, addr, groups.into_iter().map(|mut g| g.remove(0)).collect())
}

fn as_wire(reports: &[flexer_serve::IngestReport]) -> Vec<WireIngestReport> {
    reports
        .iter()
        .map(|r| WireIngestReport {
            record: r.record as u64,
            first_pair: r.first_pair as u64,
            n_pairs: r.n_pairs as u64,
            n_suppressed: r.n_suppressed as u64,
        })
        .collect()
}

#[test]
fn networked_router_is_bit_identical_to_in_process_sharded_service() {
    let snapshot = sharded_snapshot();
    let mut reference =
        ShardedResolutionService::new(snapshot.clone(), ServeConfig::default(), ShardConfig::of(2))
            .unwrap();
    let (mut client, _, _) = boot_cluster();

    let (n_shards, n_records, n_intents) = client.hello().unwrap();
    assert_eq!(n_shards, 2);
    assert_eq!(n_records as usize, reference.n_records());
    assert_eq!(n_intents as usize, reference.n_intents());
    // A healthy router's `Stats`: these six names, ascending, all zero. The
    // ladder's shutdown check and the chaos bench read them by name.
    let names = [
        "router.replica.pending",
        "router.shard.degraded",
        "router.shard.failover",
        "router.shard.insert_deferred",
        "router.shard.insert_replayed",
        "router.shard.timeout",
    ];
    assert_eq!(client.stats().unwrap(), names.map(|name| (name.to_string(), 0)).to_vec());

    let corpus_title = reference.record_title(1).to_string();
    let queries = vec![
        ResolveQuery::CorpusPair(0),
        ResolveQuery::pair(reference.record_title(0), reference.record_title(2)),
        ResolveQuery::record(corpus_title.clone()),
        ResolveQuery::record("completely unrelated zzzz qqqq"),
    ];
    let top_all = reference.n_records();

    // Cold resolves, every query × every intent.
    for query in &queries {
        for intent in 0..reference.n_intents() {
            let over_wire = client.resolve(query.clone(), intent, top_all).unwrap().unwrap();
            let in_process = reference.resolve(query, intent, top_all).unwrap();
            assert_eq!(over_wire, in_process, "pre-ingest {query:?} intent {intent}");
        }
    }

    // The same ingest sequence through the single-writer lane: identical
    // reports (records, pair ids, candidate/suppression counts).
    let titles: Vec<String> = (0..4)
        .map(|i| format!("{} listing {i}", reference.record_title(i * 3)))
        .chain(["completely unrelated zzzz qqqq".to_string(), String::new()])
        .collect();
    let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
    let over_wire = client.ingest_batch(titles.clone()).unwrap();
    let in_process = reference.ingest_batch(&title_refs);
    assert_eq!(over_wire, as_wire(&in_process), "ingest reports");

    // Warm resolves over the grown corpus, single and batched.
    let top_all = reference.n_records();
    for intent in 0..reference.n_intents() {
        let over_wire = client.resolve_batch(queries.clone(), intent, top_all).unwrap();
        let in_process: Vec<Result<_, String>> = reference
            .resolve_batch(&queries, intent, top_all)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        assert_eq!(over_wire, in_process, "post-ingest batch, intent {intent}");
    }

    // Serving errors travel as errors, not hangs or panics.
    let bad = client.resolve(ResolveQuery::CorpusPair(usize::MAX), 0, 3).unwrap();
    assert!(bad.is_err());
    let bad = client.resolve(ResolveQuery::record("x"), reference.n_intents(), 3).unwrap();
    assert!(bad.is_err());

    // Clean shutdown tears the shard servers down too.
    client.shutdown().unwrap();
}

/// The wire protocol has one intent per request, so a client resolves a
/// title with P calls. Calls 2…P find the first call's embeddings *and*
/// neighbour lists in the router's cache; after an ingest the first call
/// resumes them over the appended index tail. Either way the P answers
/// equal one in-process all-intents resolve on a service that caches
/// nothing.
#[test]
fn per_intent_wire_calls_equal_one_all_intents_resolve_across_an_ingest() {
    let mut reference = ShardedResolutionService::new(
        sharded_snapshot().clone(),
        ServeConfig { cache_capacity: 0 },
        ShardConfig::of(2),
    )
    .unwrap();
    let (mut client, _, _) = boot_cluster();
    let title = reference.record_title(1).to_string();
    let query = ResolveQuery::record(title.clone());
    for round in ["before", "after"] {
        let over_wire: Vec<_> = (0..reference.n_intents())
            .map(|intent| client.resolve(query.clone(), intent, 10).unwrap().unwrap())
            .collect();
        let in_process = reference.resolve_all_intents(&query, 10).unwrap();
        assert_eq!(over_wire, in_process, "{round} the ingest");
        if round == "before" {
            let listing = format!("{title} second listing");
            let over_wire = client.ingest_batch(vec![listing.clone()]).unwrap();
            assert_eq!(over_wire, as_wire(&reference.ingest_batch(&[&listing])));
        }
    }
    client.shutdown().unwrap();
}

#[test]
fn dead_shard_degrades_its_candidates_only() {
    let (mut client, _, shard_addrs) = boot_cluster();
    let corpus_title = {
        let snapshot = sharded_snapshot();
        snapshot.records[1].clone()
    };

    // Kill shard 1 directly, behind the router's back.
    kill_shard(&shard_addrs[1]);

    // Record queries still answer — the dead shard's records drop out of
    // the candidate set, the query itself survives.
    let response = client.resolve(ResolveQuery::record(corpus_title), 0, 5).unwrap().unwrap();
    assert_eq!(response.intent, 0);
    // Pair queries never touch the shards at all.
    let response = client.resolve(ResolveQuery::CorpusPair(0), 0, 5).unwrap();
    assert!(response.is_ok());

    client.shutdown().unwrap();
}

#[test]
fn killing_one_replica_per_shard_keeps_answers_bit_identical() {
    let snapshot = sharded_snapshot();
    let mut reference =
        ShardedResolutionService::new(snapshot.clone(), ServeConfig::default(), ShardConfig::of(2))
            .unwrap();
    let (mut client, _, groups) = boot_replicated(2);

    let queries: Vec<ResolveQuery> = (0..4)
        .map(|i| ResolveQuery::record(reference.record_title(i * 2)))
        .chain([ResolveQuery::record("completely unrelated zzzz qqqq")])
        .collect();
    let top_all = reference.n_records();

    // Healthy warm-up: both replicas of both shards answering.
    for query in &queries {
        let over_wire = client.resolve(query.clone(), 0, top_all).unwrap().unwrap();
        let in_process = reference.resolve(query, 0, top_all).unwrap();
        assert_eq!(over_wire, in_process, "healthy {query:?}");
    }

    // Kill one replica of EVERY shard. Quorum (one live replica per
    // shard) still holds, so every answer must stay bit-identical — the
    // survivors absorb the traffic.
    for group in &groups {
        kill_shard(&group[0]);
    }
    for query in &queries {
        let over_wire = client.resolve(query.clone(), 0, top_all).unwrap().unwrap();
        let in_process = reference.resolve(query, 0, top_all).unwrap();
        assert_eq!(over_wire, in_process, "after replica kill {query:?}");
    }

    // Ingest still works: the live replicas apply, the dead ones get
    // their batches queued for replay (visible in the stats).
    let titles = vec![format!("{} listing", reference.record_title(0))];
    let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
    let over_wire = client.ingest_batch(titles.clone()).unwrap();
    let in_process = reference.ingest_batch(&title_refs);
    assert_eq!(over_wire, as_wire(&in_process), "degraded ingest reports");
    for query in &queries {
        let over_wire = client.resolve(query.clone(), 0, top_all + 1).unwrap().unwrap();
        let in_process = reference.resolve(query, 0, top_all + 1).unwrap();
        assert_eq!(over_wire, in_process, "post-ingest {query:?}");
    }

    let stats = client.stats().unwrap();
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
    assert!(get("router.shard.failover") > 0, "failover must have happened: {stats:?}");
    assert_eq!(get("router.shard.degraded"), 0, "no shard may have degraded: {stats:?}");
    assert!(get("router.shard.insert_deferred") > 0, "dead replicas defer inserts: {stats:?}");

    client.shutdown().unwrap();
}

#[test]
fn corrupt_client_bytes_do_not_poison_the_router() {
    use std::io::{Read, Write};
    let (mut client, router_addr, _) = boot_cluster();
    // A raw connection that speaks garbage: the router answers with an
    // Error frame (or just closes) instead of dying.
    let mut raw = std::net::TcpStream::connect(router_addr).unwrap();
    raw.write_all(b"NOT A FRAME AT ALL, JUST NOISE ------------------").unwrap();
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink);
    drop(raw);
    // The well-behaved client is still served.
    let (n_shards, _, _) = client.hello().unwrap();
    assert_eq!(n_shards, 2);
    client.shutdown().unwrap();
}

/// A fake FLEXWIRE shard, one exchange per connection: it answers `Hello`
/// honestly (from its own frame of the shared snapshot) and every
/// candidate query with `bogus`.
fn spawn_lying_shard(shard: usize, bogus: WireCandidates) -> (String, std::thread::JoinHandle<()>) {
    let snapshot = sharded_snapshot();
    let frames = snapshot.sharding.as_ref().unwrap();
    let (members, state) = frames.decode_shard(shard).unwrap();
    let hello = ShardResponse::Hello {
        shard: shard as u64,
        n_shards: frames.n_shards() as u64,
        n_records: members.len() as u64,
        backend: state.kind_name().to_string(),
        gram_counts: state.bucket_sizes(),
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            let Ok(request) = flexer_store::read_message(&mut stream) else { continue };
            let reply = match request {
                ShardRequest::Hello => hello.clone(),
                ShardRequest::Ping => ShardResponse::Pong,
                ShardRequest::QueryBatch(queries) => {
                    ShardResponse::CandidatesBatch(vec![bogus.clone(); queries.len()])
                }
                ShardRequest::Insert { .. } => ShardResponse::Inserted { n_records: 0 },
                ShardRequest::Shutdown => ShardResponse::Shutdown,
            };
            let _ = flexer_store::write_message(&mut stream, &reply);
            if reply == ShardResponse::Shutdown {
                return;
            }
        }
    });
    (addr, serve)
}

/// Boots an honest shard 0, a shard 1 that answers every query with
/// `bogus`, and a router over both; runs `check` through a client, then
/// winds every thread down.
fn with_lying_shard(bogus: WireCandidates, check: impl FnOnce(&mut RouterClient)) {
    let snapshot = sharded_snapshot();
    let honest = ShardServer::from_snapshot(snapshot.clone(), 0, "127.0.0.1:0").unwrap();
    let honest_addr = honest.local_addr().to_string();
    let honest = honest.spawn();
    let (lying_addr, lying) = spawn_lying_shard(1, bogus);
    let router = Router::from_snapshot(
        snapshot.clone(),
        ServeConfig::default(),
        vec![vec![honest_addr], vec![lying_addr]],
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .unwrap();
    let mut client = RouterClient::connect(router.local_addr()).unwrap();
    let router = router.spawn();
    check(&mut client);
    client.shutdown().unwrap();
    router.join().expect("the router winds down without a panicked thread");
    honest.join().unwrap();
    lying.join().unwrap();
}

/// Resolves, ingests and resolves again through a lying shard, then
/// asserts every fan-out counted it degraded.
fn survives_and_degrades(client: &mut RouterClient) {
    let title = &sharded_snapshot().records[1];
    let query = ResolveQuery::record(title.clone());
    client.resolve(query.clone(), 0, 5).unwrap().expect("the resolve survives the lying shard");
    let reports = client.ingest_batch(vec![format!("{title} second listing")]).unwrap();
    assert_eq!(reports.len(), 1, "the ingest survives it too");
    client.resolve(query, 0, 5).unwrap().expect("and the router still serves afterwards");
    let stats = client.stats().unwrap();
    let degraded = stats.iter().find(|(name, _)| name == "router.shard.degraded").unwrap().1;
    assert!(degraded >= 3, "every fan-out degrades the lying shard: {stats:?}");
}

/// A shard reply is outside input: an id past the router's corpus must
/// cost that shard its candidates (`router.shard.degraded`), not the
/// connection thread on a resolve or — under the core's write lock — the
/// whole router on an ingest.
#[test]
fn out_of_range_shard_ids_degrade_the_shard_not_the_router() {
    let past_the_corpus = (sharded_snapshot().n_records() + 7) as u32;
    with_lying_shard(WireCandidates::Ids(vec![past_the_corpus]), survives_and_degrades);
}

/// So must a reply of the other backend's shape: ANN hits to a q-gram
/// router.
#[test]
fn wrong_variant_shard_replies_degrade_the_shard() {
    with_lying_shard(WireCandidates::Hits(vec![(0.5, 0)]), survives_and_degrades);
}

/// A repeated id, or one another shard owns, is in range and reaches the
/// merge, which keeps one copy: no record is ranked twice, and an ingest
/// creates one pair per distinct candidate.
#[test]
fn repeated_shard_ids_are_merged_once() {
    with_lying_shard(WireCandidates::Ids(vec![0, 0]), |client| {
        let title = format!("{} second listing", sharded_snapshot().records[1]);
        let all = sharded_snapshot().n_records();
        let ranked = client.resolve(ResolveQuery::record(title.clone()), 0, all).unwrap().unwrap();
        let ranked: Vec<MatchTarget> = ranked.matches.iter().map(|m| m.target).collect();
        assert!(ranked.contains(&MatchTarget::Record(0)), "the lying shard's id is a candidate");
        let repeated = ranked.iter().enumerate().any(|(i, t)| ranked[..i].contains(t));
        assert!(!repeated, "a record ranked twice: {ranked:?}");
        let reports = client.ingest_batch(vec![title]).unwrap();
        assert_eq!(reports[0].n_pairs, ranked.len() as u64, "one pair per distinct candidate");
    });
}
