//! Replication-specific properties of the networked tier: replayed
//! inserts apply in original arrival order on every replica (through
//! partitions and reconnects), and a stalled replica costs at most one
//! I/O quantum before its sibling absorbs the request.
//!
//! The fault surface is driven through [`FaultProxy`] — one replica sits
//! behind the interposer, its sibling is reached directly, so every
//! scenario can partition/stall/heal one replica while the other keeps
//! the shard answering.

mod common;

use common::kill_shard;
use flexer_serve::{
    FaultMode, FaultProxy, NetConfig, Router, RouterClient, ServeConfig, ShardServer,
    ShardedResolutionService,
};
use flexer_store::ModelSnapshot;
use flexer_types::{ResolveQuery, ShardConfig, ShardRequest, ShardResponse};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// One shared training run for the whole test binary, sharded into a
/// single frame: one shard slot, two replicas in every test below.
fn single_shard_snapshot() -> &'static ModelSnapshot {
    static SHARED: std::sync::OnceLock<ModelSnapshot> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| common::sharded_snapshot(1))
}

/// Tight timeouts so fault scenarios resolve in milliseconds, not the
/// production defaults.
fn test_net() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(250),
        io_timeout: Duration::from_millis(500),
        request_budget: Duration::from_millis(2000),
    }
}

struct ProxiedCluster {
    client: RouterClient,
    proxy: FaultProxy,
    /// Replica A (reached directly, no proxy).
    direct_addr: String,
}

/// Boots one shard slot with two replicas — A direct, B behind a
/// [`FaultProxy`] — and a router in front.
fn boot_proxied(seed: u64) -> ProxiedCluster {
    let snapshot = single_shard_snapshot();
    let a = ShardServer::from_snapshot(snapshot.clone(), 0, "127.0.0.1:0").unwrap();
    let direct_addr = a.local_addr().to_string();
    a.spawn();
    let b = ShardServer::from_snapshot(snapshot.clone(), 0, "127.0.0.1:0").unwrap();
    let b_addr = b.local_addr();
    b.spawn();
    let proxy = FaultProxy::spawn(b_addr, seed).unwrap();
    let router = Router::from_snapshot(
        snapshot.clone(),
        ServeConfig::default(),
        vec![vec![direct_addr.clone(), proxy.addr().to_string()]],
        "127.0.0.1:0",
        test_net(),
    )
    .unwrap();
    let addr = router.local_addr();
    router.spawn();
    ProxiedCluster { client: RouterClient::connect(addr).unwrap(), proxy, direct_addr }
}

/// Polls the router's stats until every deferred insert has been
/// replayed (`router.replica.pending == 0`); panics if the lanes do not
/// drain — a replayed batch that never lands is exactly the bug this
/// file exists to catch.
fn await_replay(client: &mut RouterClient) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = client.stats().unwrap();
        let pending =
            stats.iter().find(|(n, _)| n == "router.replica.pending").map_or(0, |(_, v)| *v);
        if pending == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "pending insert replay never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Inserts, partitions and reconnects interleaved in any order: once
    /// the partition heals and the replay lanes drain, the replica that
    /// lived behind the faults has applied every insert **in original
    /// arrival order** — killing the always-healthy sibling afterwards
    /// must leave answers bit-identical to the in-process reference.
    #[test]
    fn replayed_inserts_apply_in_arrival_order(
        ops in prop::collection::vec((0u8..3, 1usize..4), 1..8),
        seed in 0u64..1_000_000,
    ) {
        let snapshot = single_shard_snapshot();
        let mut reference = ShardedResolutionService::new(
            snapshot.clone(),
            ServeConfig::default(),
            ShardConfig::of(1),
        )
        .unwrap();
        let ProxiedCluster { mut client, proxy, direct_addr } = boot_proxied(seed);

        let mut batch_no = 0usize;
        for (kind, arg) in &ops {
            match kind {
                // An insert batch of `arg` titles through the writer lane
                // (replica A applies live; B may be partitioned and get
                // the batch deferred into its replay lane).
                0 => {
                    let titles: Vec<String> = (0..*arg)
                        .map(|i| {
                            let base = reference.record_title((batch_no + i) % 7).to_string();
                            batch_no += 1;
                            format!("{base} replica run {batch_no}")
                        })
                        .collect();
                    let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
                    let over_wire = client.ingest_batch(titles.clone()).unwrap();
                    let in_process = reference.ingest_batch(&title_refs);
                    prop_assert_eq!(over_wire.len(), in_process.len());
                }
                // Partition replica B: new connections refused, live ones
                // severed.
                1 => proxy.partition(),
                // Heal the partition.
                _ => proxy.heal(),
            }
        }

        // Heal and let the janitor replay everything B missed.
        proxy.heal();
        await_replay(&mut client);

        // Kill the always-healthy replica A: every answer below can only
        // come from B — the replica whose state was rebuilt by ordered
        // replay through the faults.
        kill_shard(&direct_addr);

        let top_all = reference.n_records();
        for i in 0..5 {
            let query = ResolveQuery::record(reference.record_title(i * 2));
            let over_wire = client.resolve(query.clone(), 0, top_all).unwrap().unwrap();
            let in_process = reference.resolve(&query, 0, top_all).unwrap();
            prop_assert_eq!(over_wire, in_process, "replayed replica diverged on {:?}", query);
        }

        client.shutdown().unwrap();
    }
}

/// A replica that stalls mid-exchange (accepts, then forwards nothing)
/// costs the request at most one I/O quantum before its sibling answers;
/// answers stay bit-identical and no request overshoots the budget by
/// more than that quantum.
#[test]
fn stalled_replica_fails_over_within_one_io_quantum() {
    let snapshot = single_shard_snapshot();
    let reference =
        ShardedResolutionService::new(snapshot.clone(), ServeConfig::default(), ShardConfig::of(1))
            .unwrap();
    let ProxiedCluster { mut client, proxy, direct_addr: _ } = boot_proxied(7);
    let net = test_net();

    // Blackhole everything through the proxy: connections are accepted
    // but no byte is ever forwarded — the nastiest stall shape, because
    // connect succeeds and only the read discovers the problem.
    proxy.set_mode(FaultMode::StallAfter(0));
    proxy.sever();

    let top_all = reference.n_records();
    for i in 0..6 {
        let query = ResolveQuery::record(reference.record_title(i));
        let t0 = Instant::now();
        let over_wire = client.resolve(query.clone(), 0, top_all).unwrap().unwrap();
        let elapsed = t0.elapsed();
        let in_process = reference.resolve(&query, 0, top_all).unwrap();
        assert_eq!(over_wire, in_process, "stall must not change the answer: {query:?}");
        // Budget + one I/O quantum is the hard ceiling; generous slack on
        // top because CI machines schedule threads when they feel like it.
        let ceiling = net.request_budget + net.io_timeout + Duration::from_millis(1500);
        assert!(
            elapsed < ceiling,
            "query {i} took {elapsed:?}, deadline machinery allows at most {ceiling:?}"
        );
    }

    let stats = client.stats().unwrap();
    let failover = stats.iter().find(|(n, _)| n == "router.shard.failover").map_or(0, |(_, v)| *v);
    assert!(failover > 0, "some request must have failed over off the stalled replica: {stats:?}");

    proxy.heal();
    client.shutdown().unwrap();
}

/// Sequence numbers start at 1, so a batch stamped 0 sits at or below
/// every replica's watermark: it is acknowledged like a replay and never
/// applied.
#[test]
fn seq_zero_insert_is_acknowledged_without_being_applied() {
    let server =
        ShardServer::from_snapshot(single_shard_snapshot().clone(), 0, "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    server.spawn();
    let mut call = |request: &ShardRequest| -> ShardResponse {
        flexer_store::write_message(&mut stream, request).unwrap();
        flexer_store::read_message(&mut stream).unwrap()
    };
    let ShardResponse::Hello { n_records, .. } = call(&ShardRequest::Hello) else {
        panic!("no handshake")
    };
    let insert = ShardRequest::Insert { seq: 0, rows: vec![(n_records, "acme widget".into())] };
    assert_eq!(call(&insert), ShardResponse::Inserted { n_records });
    assert_eq!(call(&ShardRequest::Shutdown), ShardResponse::Shutdown);
}
