//! [`Router`] — the networked front-end of the sharded resolution tier.
//!
//! # Topology
//!
//! The router owns everything *global*: the one [`Service`] every
//! deployment runs — scoring tier, corpus, caches — instantiated over the
//! [`Sharded`] blocking tier, which holds the global half of sharded
//! blocking ([`flexer_block::GlobalBlocking`]: backend config, title
//! router, stop-gram counts; plan a query, merge the answers) beside the
//! shard servers that hold the shard-local half. Each of the N shard slots
//! is served by **R replicas** — shard-server processes that all booted
//! the same shard of the same snapshot — behind a `ReplicaSet`. A
//! candidate query is planned once against global state, fanned out
//! concurrently — one framed request per shard to the healthiest replica,
//! with failover to its siblings — and merged back. The in-process
//! `ShardedResolutionService` is the same `Service<Sharded>` over
//! in-process links to its shards: same handshake, same fan-out, same
//! sequenced inserts. Router answers are therefore **bit-identical** to
//! it over the same snapshot and call sequence whenever at least one
//! in-sync replica per shard answers (asserted in `tests/cluster.rs` and
//! the chaos bench).
//!
//! # Deadlines
//!
//! Every request carries a time budget ([`NetConfig::request_budget`])
//! threaded through the whole fan-out: connect, write and read on every
//! shard-facing socket are individually bounded, a replica that stalls
//! mid-frame is cut off ([`flexer_store::read_message_bounded`]), and the
//! budget caps the total failover walk. A request can overshoot its
//! budget by at most one I/O quantum ([`NetConfig::io_timeout`]) — the
//! read that was legitimately in flight when the budget ran out. Budget
//! exhaustion degrades the affected shard (`router.shard.timeout`), it
//! never hangs the query. Every exchange with a shard server, the boot
//! handshake and the shutdown sweep included, is one bounded
//! `Replica::call`.
//!
//! The client side is bounded too. Clients reach the router through the
//! crate's one framed endpoint, the one shard servers serve from: at most
//! 64 concurrent connections (the next gets a [`RouterResponse::Error`]
//! and a closed socket), an idle connection reaped after 300 s, and a
//! client that stalls mid-frame or stops reading cut off after 30 s.
//!
//! # Writes: the single-writer lane
//!
//! Ingest mutates the shared scoring tier, the shards and the stop-gram
//! counts together, and its determinism depends on global insertion
//! order. All ingest therefore funnels through one writer thread fed by a
//! **bounded** channel: concurrent client batches queue in arrival order,
//! a full lane blocks further ingest connections (backpressure) without
//! slowing reads, and each batch is one `ingest_batch` call on the
//! service under the core's write lock — which, over the `Sharded` tier,
//! means pre-batched shard queries (one `QueryBatch` round trip per
//! shard), the scoring and merge every deployment runs, then a sequenced
//! per-shard `Insert` fan-out to **every** replica.
//!
//! # Failure semantics
//!
//! A replica that fails a call backs off (capped exponential) and its
//! siblings absorb the traffic (`router.shard.failover`). A shard whose
//! every replica is unreachable — or answers with something unusable: a
//! shard reply is outside input, checked for length, shape and id range
//! where it enters — degrades **its own** candidates only: the fan-out
//! substitutes an empty answer and the query proceeds over the surviving
//! shards (`router.shard.degraded`). Inserts an unreachable replica misses are
//! queued in that replica's replay lane and replayed in original arrival
//! order when it comes back — sequence numbers make replay idempotent, so
//! a recovered replica converges to exactly the state it would have had.
//! A background janitor thread replays pending lanes and probes failed
//! replicas with `Ping` so recovery does not wait for query traffic.

use crate::endpoint::{self, Limits, Reply};
use crate::error::ServeError;
use crate::replica::{FaultStats, Fleet, Link, NetConfig, ReplicaSet, Sharded};
use crate::service::{IngestReport, ServeConfig, Service};
use flexer_store::{read_message, write_message, ModelSnapshot, WireError};
use flexer_types::{
    IntentId, ResolveQuery, ResolveResponse, RouterRequest, RouterResponse, ShardConfig,
    WireIngestReport,
};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Ingest batches that may queue in the single-writer lane before further
/// ingest connections block (the backpressure bound).
const INGEST_LANE_DEPTH: usize = 4;

/// How often the janitor replays pending insert lanes and probes failed
/// replicas.
const JANITOR_PERIOD: Duration = Duration::from_millis(100);

/// A client connection may sit idle this long before the router reaps it.
const CLIENT_IDLE: Duration = Duration::from_secs(300);

/// Once a client starts a frame, it must complete within this budget, and
/// so must each reply write (a client stalling mid-frame, or one that
/// stops reading, would otherwise pin its thread forever).
const CLIENT_IO: Duration = Duration::from_secs(30);

/// The router's client-facing connection surface.
const CLIENT_LIMITS: Limits = Limits { max_conns: 64, idle: CLIENT_IDLE, io: CLIENT_IO };

struct Inner {
    /// The one service every deployment runs, over the [`Sharded`] tier.
    core: RwLock<Service<Sharded>>,
    fleet: Arc<Fleet>,
    stop: AtomicBool,
}

struct IngestJob {
    titles: Vec<String>,
    reply: SyncSender<Vec<IngestReport>>,
}

/// The bound router front-end (see module docs).
pub struct Router {
    inner: Arc<Inner>,
    listener: TcpListener,
    addr: SocketAddr,
    ingest_tx: SyncSender<IngestJob>,
    writer: thread::JoinHandle<()>,
    janitor: thread::JoinHandle<()>,
}

impl Router {
    /// Loads a snapshot file and connects to the shard servers in
    /// `shards` (outer vec: shard slots in shard order; inner vec: that
    /// shard's replica addresses). Every replica must answer the boot
    /// handshake — degradation is a runtime property; booting against a
    /// half-dead cluster is refused.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        config: ServeConfig,
        shards: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        net: NetConfig,
    ) -> Result<Self, ServeError> {
        Self::from_snapshot(ModelSnapshot::load(path)?, config, shards, addr, net)
    }

    /// [`Self::load`] from an already-loaded snapshot.
    pub fn from_snapshot(
        snapshot: ModelSnapshot,
        config: ServeConfig,
        shards: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        net: NetConfig,
    ) -> Result<Self, ServeError> {
        ShardConfig::of(shards.len()).validate().map_err(ServeError::InconsistentSnapshot)?;
        if shards.iter().any(Vec::is_empty) {
            return Err(ServeError::InconsistentSnapshot(
                "every shard slot needs at least one replica address".into(),
            ));
        }
        if snapshot.sharding.is_some_and(|c| c.n_shards != shards.len()) {
            return Err(ServeError::InconsistentSnapshot(
                "snapshot shard count != shard server count".into(),
            ));
        }
        let sets =
            shards.into_iter().map(|addrs| ReplicaSet::new(addrs.into_iter().map(Link::tcp)));
        let core = Service::build(snapshot, config, |blocker, titles, recorder| {
            let (gen, stats) = (blocker.gen_config(), FaultStats::new(recorder));
            Sharded::connect(gen, titles.len(), sets.collect(), net, stats)
        })?;
        let fleet = Arc::clone(&core.tier.fleet);
        let listener = TcpListener::bind(addr).map_err(flexer_store::StoreError::Io)?;
        let addr = listener.local_addr().map_err(flexer_store::StoreError::Io)?;
        let inner =
            Arc::new(Inner { core: RwLock::new(core), fleet, stop: AtomicBool::new(false) });
        let (ingest_tx, ingest_rx) = sync_channel::<IngestJob>(INGEST_LANE_DEPTH);
        let writer = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || writer_lane(&inner, &ingest_rx))
        };
        let janitor = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || janitor_lane(&inner))
        };
        Ok(Self { inner, listener, addr, ingest_tx, writer, janitor })
    }

    /// The address the router is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves client connections until a [`RouterRequest::Shutdown`]
    /// arrives (thread per connection, at most 64 at once; blocks the
    /// calling thread). On shutdown the shard servers are shut down too
    /// and the writer lane is drained.
    pub fn run(self) {
        let Self { inner, listener, ingest_tx, writer, janitor, .. } = self;
        let handler = {
            let inner = Arc::clone(&inner);
            move |request| handle(&inner, &ingest_tx, request)
        };
        endpoint::serve(listener, CLIENT_LIMITS, RouterResponse::Error, handler);
        // The lane closes once the last connection lets go of its sender:
        // wait for queued ingests to finish applying, then for the janitor
        // to observe the stop flag.
        inner.stop.store(true, Ordering::SeqCst);
        for lane in [writer, janitor] {
            let _ = lane.join();
        }
    }

    /// Spawns [`Self::run`] on a background thread (for in-process tests).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || self.run())
    }
}

/// The single-writer ingest lane: applies queued batches strictly in
/// arrival order, one at a time, each one `ingest_batch` call on the core.
fn writer_lane(inner: &Inner, jobs: &Receiver<IngestJob>) {
    while let Ok(job) = jobs.recv() {
        let titles: Vec<&str> = job.titles.iter().map(String::as_str).collect();
        let reports = inner.core.write().expect("router core lock").ingest_batch(&titles);
        let _ = job.reply.send(reports);
    }
}

/// Background replay/probe loop: replays pending insert lanes and pings
/// failed replicas so recovery does not wait for the next client request.
fn janitor_lane(inner: &Inner) {
    while !inner.stop.load(Ordering::SeqCst) {
        thread::sleep(JANITOR_PERIOD);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let fleet = &inner.fleet;
        let _lane = fleet.ingest_mutex.lock().expect("ingest order lock");
        for set in &fleet.sets {
            set.flush_pending(&fleet.net, &fleet.stats);
        }
    }
}

fn resolve_one(
    inner: &Inner,
    query: &ResolveQuery,
    intent: IntentId,
    top_k: usize,
) -> Result<ResolveResponse, ServeError> {
    // The budget and the latency sample start here, before the core lock.
    let t0 = Instant::now();
    let core = inner.core.read().expect("router core lock");
    let out = core.resolve_from(t0, query, &[intent], top_k);
    Ok(out?.pop().expect("one response per requested intent"))
}

/// One client request → its response; [`RouterRequest::Shutdown`] stops
/// the router after shutting down every replica.
fn handle(
    inner: &Inner,
    ingest_tx: &SyncSender<IngestJob>,
    request: RouterRequest,
) -> Reply<RouterResponse> {
    Reply::Answer(match request {
        RouterRequest::Hello => {
            let core = inner.core.read().expect("router core lock");
            RouterResponse::Hello {
                n_shards: inner.fleet.sets.len() as u64,
                n_records: core.n_records() as u64,
                n_intents: core.n_intents() as u64,
            }
        }
        RouterRequest::Resolve { query, intent, top_k } => RouterResponse::Resolve(
            resolve_one(inner, &query, intent as IntentId, top_k as usize)
                .map_err(|e| e.to_string()),
        ),
        RouterRequest::IngestBatch(titles) => {
            // Blocking send = backpressure: when the lane is full this
            // connection (and only ingest traffic) waits its turn.
            let (reply_tx, reply_rx) = sync_channel(1);
            let sent = ingest_tx.send(IngestJob { titles, reply: reply_tx });
            match sent.ok().and_then(|()| reply_rx.recv().ok()) {
                Some(reports) => RouterResponse::IngestBatch(
                    reports
                        .iter()
                        .map(|r| WireIngestReport {
                            record: r.record as u64,
                            first_pair: r.first_pair as u64,
                            n_pairs: r.n_pairs as u64,
                            n_suppressed: r.n_suppressed as u64,
                        })
                        .collect(),
                ),
                None => RouterResponse::Error("ingest lane closed".into()),
            }
        }
        RouterRequest::Stats => {
            let pending: usize = inner.fleet.sets.iter().map(ReplicaSet::pending_total).sum();
            RouterResponse::Stats(inner.fleet.stats.snapshot(pending as u64))
        }
        RouterRequest::Shutdown => {
            inner.fleet.shutdown();
            return Reply::Stop(RouterResponse::Shutdown);
        }
    })
}

/// A blocking client for one router connection — the typed counterpart of
/// the wire protocol, used by the ladder's `cluster_mixed` rung, the chaos
/// harness and the cluster tests.
pub struct RouterClient {
    stream: TcpStream,
}

impl RouterClient {
    /// Connects to a router.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connects with an I/O deadline: any single request/response
    /// exchange that takes longer than `io` fails instead of blocking
    /// forever (what the chaos harness uses to turn hangs into failures).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect: Duration,
        io: Duration,
    ) -> std::io::Result<Self> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let stream = TcpStream::connect_timeout(&sock, connect)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io))?;
        stream.set_write_timeout(Some(io))?;
        Ok(Self { stream })
    }

    fn call(&mut self, request: &RouterRequest) -> Result<RouterResponse, WireError> {
        write_message(&mut self.stream, request)?;
        read_message(&mut self.stream)
    }

    /// Deployment shape: `(n_shards, n_records, n_intents)`.
    pub fn hello(&mut self) -> Result<(u64, u64, u64), WireError> {
        match self.call(&RouterRequest::Hello)? {
            RouterResponse::Hello { n_shards, n_records, n_intents } => {
                Ok((n_shards, n_records, n_intents))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Resolves one query under one intent.
    pub fn resolve(
        &mut self,
        query: ResolveQuery,
        intent: IntentId,
        top_k: usize,
    ) -> Result<Result<ResolveResponse, String>, WireError> {
        let request = RouterRequest::Resolve { query, intent: intent as u64, top_k: top_k as u64 };
        match self.call(&request)? {
            RouterResponse::Resolve(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Ingests a batch of titles through the single-writer lane.
    pub fn ingest_batch(
        &mut self,
        titles: Vec<String>,
    ) -> Result<Vec<WireIngestReport>, WireError> {
        match self.call(&RouterRequest::IngestBatch(titles))? {
            RouterResponse::IngestBatch(reports) => Ok(reports),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the router's fault counters as `(name, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, WireError> {
        match self.call(&RouterRequest::Stats)? {
            RouterResponse::Stats(pairs) => Ok(pairs),
            other => Err(unexpected(&other)),
        }
    }

    /// Shuts the router (and its shard servers) down.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.call(&RouterRequest::Shutdown)? {
            RouterResponse::Shutdown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &RouterResponse) -> WireError {
    let message = match response {
        RouterResponse::Error(msg) => format!("router error: {msg}"),
        other => format!("unexpected router response {other:?}"),
    };
    WireError::Store(flexer_store::StoreError::Malformed(message))
}
