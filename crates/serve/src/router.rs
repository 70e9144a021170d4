//! [`Router`] — the networked front-end of the sharded resolution tier.
//!
//! # Topology
//!
//! The router owns everything *global*: the one [`Service`] every
//! deployment runs — scoring tier, corpus, caches — instantiated over the
//! `Remote` blocking tier, which holds the global half of sharded
//! blocking ([`flexer_block::GlobalBlocking`]: backend config, title
//! router, stop-gram counts; plan a query, merge the answers) beside the
//! shard servers that hold the shard-local half. Each of the N shard slots
//! is served by **R replicas** — shard-server processes that all booted
//! the same shard of the same snapshot — behind a `ReplicaSet`. A
//! candidate query is planned once against global state, fanned out
//! concurrently — one thread per shard, one framed request to the
//! healthiest replica with failover to its siblings — and merged back.
//! Planning and merging are the very methods the in-process
//! `ShardedBlocker` runs around *its* fan-out, so router answers are
//! **bit-identical** to `ShardedResolutionService` over the same snapshot
//! and call sequence whenever at least one in-sync replica per shard
//! answers (asserted in `tests/cluster.rs` and the chaos bench).
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
//! never hangs the query.
//!
//! # Writes: the single-writer lane
//!
//! Ingest mutates the shared scoring tier, the shards and the stop-gram
//! counts together, and its determinism depends on global insertion
//! order. All ingest therefore funnels through one writer thread fed by a
//! **bounded** channel: concurrent client batches queue in arrival order,
//! a full lane blocks further ingest connections (backpressure) without
//! slowing reads, and each batch is one `ingest_batch` call on the
//! service under the core's write lock — which, over the `Remote` tier,
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

use crate::blocking::{BlockingTier, StoredBlocking};
use crate::error::ServeError;
use crate::replica::{FaultStats, NetConfig, ReplicaSet};
use crate::service::{IngestReport, ServeConfig, Service};
use flexer_block::GlobalBlocking;
use flexer_store::{read_message, read_message_bounded, write_message, ModelSnapshot, WireError};
use flexer_types::{
    CandidateGenConfig, IntentId, ResolveQuery, ResolveResponse, RouterRequest, RouterResponse,
    ShardConfig, ShardRequest, ShardResponse, WireCandidates, WireIngestReport, WireQuery,
};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
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

/// Once a client starts a frame, it must complete within this budget (a
/// client stalling mid-frame would otherwise pin its thread forever).
const CLIENT_IO: Duration = Duration::from_secs(30);

/// The shard servers as the router reaches them. Shared between the
/// serving core (whose blocking tier queries and feeds them) and the
/// lanes that work beside it (janitor, stats, shutdown).
struct Fleet {
    sets: Vec<ReplicaSet>,
    net: NetConfig,
    stats: FaultStats,
    /// Serializes writer-lane and janitor insert traffic so sequenced
    /// batches leave in order even while the janitor is replaying.
    ingest_mutex: Mutex<()>,
}

/// The router's blocking tier: the global half of sharded blocking held
/// locally, the shard-local half behind the fleet's replica sets.
pub(crate) struct Remote {
    global: GlobalBlocking,
    fleet: Arc<Fleet>,
}

struct Inner {
    /// The one service every deployment runs, over the [`Remote`] tier.
    core: RwLock<Service<Remote>>,
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
    writer: Option<thread::JoinHandle<()>>,
    janitor: Option<thread::JoinHandle<()>>,
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
        let core = Service::build(snapshot, config, |stored, titles, recorder| {
            Remote::connect(&stored, titles.len(), shards, net, FaultStats::new(recorder))
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
        Ok(Self { inner, listener, addr, ingest_tx, writer: Some(writer), janitor: Some(janitor) })
    }

    /// The address the router is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves client connections until a [`RouterRequest::Shutdown`]
    /// arrives (thread per connection; blocks the calling thread). On
    /// shutdown the shard servers are shut down too and the writer lane
    /// is drained.
    pub fn run(mut self) {
        for stream in self.listener.incoming() {
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            let inner = Arc::clone(&self.inner);
            let ingest_tx = self.ingest_tx.clone();
            let addr = self.addr;
            thread::spawn(move || serve_connection(&inner, &ingest_tx, stream, addr));
        }
        // Close the lane and wait for queued ingests to finish applying,
        // then for the janitor to observe the stop flag.
        drop(self.ingest_tx);
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        if let Some(janitor) = self.janitor.take() {
            let _ = janitor.join();
        }
    }

    /// Spawns [`Self::run`] on a background thread (for in-process tests).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || self.run())
    }
}

/// One direct handshake with one replica (boot path: every replica must
/// answer for itself).
fn replica_hello(addr: &str, net: &NetConfig) -> Option<ShardResponse> {
    let sock = addr.to_socket_addrs().ok()?.next()?;
    let mut stream = TcpStream::connect_timeout(&sock, net.connect_timeout).ok()?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(net.io_timeout)).ok()?;
    write_message(&mut stream, &ShardRequest::Hello).ok()?;
    read_message_bounded::<ShardResponse>(&mut stream, net.io_timeout, net.io_timeout).ok()?
}

impl Remote {
    /// Handshakes with every replica of every shard slot and assembles the
    /// global blocking state from what they report. The router needs only
    /// the backend *configuration* from the snapshot — the blocking state
    /// itself lives in the shard servers.
    fn connect(
        stored: &StoredBlocking,
        n_records: usize,
        shards: Vec<Vec<String>>,
        net: NetConfig,
        stats: FaultStats,
    ) -> Result<Self, ServeError> {
        let n_slots = shards.len();
        if matches!(stored, StoredBlocking::Sharded(frames) if frames.n_shards() != n_slots) {
            return Err(ServeError::InconsistentSnapshot(
                "snapshot shard count != shard server count".into(),
            ));
        }
        let gen = stored.gen_config()?;
        let mut sets = Vec::with_capacity(n_slots);
        let mut bucket_sizes: Vec<(u64, u32)> = Vec::new();
        let mut shard_records = 0u64;
        for (s, replica_addrs) in shards.into_iter().enumerate() {
            let set = ReplicaSet::new(replica_addrs);
            let mut agreed_records: Option<u64> = None;
            for (r, replica) in set.replicas().iter().enumerate() {
                // Ask this specific replica (not the set) so a dead
                // sibling cannot mask a dead replica at boot.
                let Some(ShardResponse::Hello { shard, n_shards, n_records, backend, gram_counts }) =
                    replica_hello(replica.addr(), &net)
                else {
                    return Err(ServeError::InconsistentSnapshot(format!(
                        "shard {s} replica {r} ({}): no handshake reply",
                        replica.addr()
                    )));
                };
                if shard != s as u64 || n_shards != n_slots as u64 {
                    return Err(ServeError::InconsistentSnapshot(format!(
                        "shard {s} replica {r}: server identifies as shard {shard} of {n_shards}"
                    )));
                }
                if backend != gen.name() {
                    return Err(ServeError::InconsistentSnapshot(format!(
                        "shard {s} replica {r}: backend {backend} != router's {}",
                        gen.name()
                    )));
                }
                match agreed_records {
                    None => agreed_records = Some(n_records),
                    Some(expected) if expected != n_records => {
                        return Err(ServeError::InconsistentSnapshot(format!(
                            "shard {s}: replicas disagree on record count ({expected} vs {n_records})"
                        )));
                    }
                    Some(_) => {}
                }
                if r == 0 {
                    shard_records += n_records;
                    bucket_sizes.extend(gram_counts);
                }
            }
            sets.push(set);
        }
        if !matches!(gen, CandidateGenConfig::Exhaustive) && shard_records != n_records as u64 {
            return Err(ServeError::InconsistentSnapshot(format!(
                "shards hold {shard_records} records, snapshot lists {n_records}"
            )));
        }
        Ok(Self {
            global: GlobalBlocking::new(&gen, ShardConfig::of(n_slots), bucket_sizes, n_records),
            fleet: Arc::new(Fleet { sets, net, stats, ingest_mutex: Mutex::new(()) }),
        })
    }
}

impl BlockingTier for Remote {
    fn candidates(&self, title: &str, t0: Instant) -> Option<Vec<usize>> {
        self.candidates_batch(&[title], t0).pop().expect("one answer per title")
    }

    /// Every title's query is planned against the current global state,
    /// shipped as one `QueryBatch` round trip per shard, and merged per
    /// title. The whole fan-out, failover included, is budgeted from `t0`.
    fn candidates_batch(&self, titles: &[&str], t0: Instant) -> Vec<Option<Vec<usize>>> {
        let Some(queries) = titles.iter().map(|t| self.global.plan(t)).collect::<Option<Vec<_>>>()
        else {
            // The exhaustive backend: no fan-out happens at all.
            return vec![None; titles.len()];
        };
        let deadline = t0 + self.fleet.net.request_budget;
        let mut per_shard: Vec<_> = self
            .fleet
            .fan_out_batches(&queries, deadline, &self.global)
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        let merge_next = |_| {
            let answers = per_shard.iter_mut().map(|a| a.next().expect("one answer per query"));
            Some(self.global.merge(answers))
        };
        titles.iter().map(merge_next).collect()
    }

    /// Grows the global blocking state locally and the records themselves
    /// in their owning shards, as one sequenced `Insert` per shard to
    /// **every** replica.
    fn absorb(&mut self, titles: &[&str]) {
        let mut rows_by_shard: Vec<Vec<(u64, String)>> = vec![Vec::new(); self.fleet.sets.len()];
        for title in titles {
            let (shard, id) = self.global.admit(title);
            rows_by_shard[shard].push((id as u64, title.to_string()));
        }
        let _lane = self.fleet.ingest_mutex.lock().expect("ingest order lock");
        for (set, rows) in self.fleet.sets.iter().zip(rows_by_shard) {
            if !rows.is_empty() {
                set.insert(rows, &self.fleet.net, &self.fleet.stats);
            }
        }
    }

    fn backend(&self) -> &'static str {
        self.global.gen_config().name()
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

impl Fleet {
    /// Fans one `QueryBatch` out to every shard concurrently (one thread
    /// per shard slot, failover across that shard's replicas, everything
    /// bounded by `deadline`). This is where remote answers enter: a reply
    /// is usable when `global` accepts its answer to every query, anything
    /// else fails over like an error reply. A shard that cannot answer —
    /// every replica dead, desynced, stalled, lying or out of budget —
    /// contributes empty answers for the whole batch: its records drop out
    /// of the candidate set, the query survives.
    fn fan_out_batches(
        &self,
        queries: &[WireQuery],
        deadline: Instant,
        global: &GlobalBlocking,
    ) -> Vec<Vec<WireCandidates>> {
        let empty = || vec![WireCandidates::Ids(Vec::new()); queries.len()];
        let request = ShardRequest::QueryBatch(queries.to_vec());
        let usable = |response: &ShardResponse| {
            matches!(response, ShardResponse::CandidatesBatch(answers)
                if answers.len() == queries.len() && answers.iter().all(|a| global.accepts(a)))
        };
        thread::scope(|scope| {
            let handles: Vec<_> = self
                .sets
                .iter()
                .map(|set| {
                    let (request, usable) = (&request, &usable);
                    scope.spawn(move || {
                        match set.call_with_failover(
                            request,
                            &self.net,
                            deadline,
                            &self.stats,
                            usable,
                        ) {
                            Some(ShardResponse::CandidatesBatch(answers)) => answers,
                            _ => {
                                self.stats.degraded.inc();
                                empty()
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|_| empty())).collect()
        })
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

fn serve_connection(
    inner: &Inner,
    ingest_tx: &SyncSender<IngestJob>,
    mut stream: TcpStream,
    addr: SocketAddr,
) {
    loop {
        let request =
            match read_message_bounded::<RouterRequest>(&mut stream, CLIENT_IDLE, CLIENT_IO) {
                Ok(Some(request)) => request,
                Ok(None) => return, // idle past the reap window
                Err(WireError::Io(_)) => return,
                Err(e) => {
                    let _ = write_message(&mut stream, &RouterResponse::Error(e.to_string()));
                    return;
                }
            };
        let response = match request {
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
            RouterRequest::ResolveBatch { queries, intent, top_k } => RouterResponse::ResolveBatch(
                queries
                    .iter()
                    .map(|q| {
                        resolve_one(inner, q, intent as IntentId, top_k as usize)
                            .map_err(|e| e.to_string())
                    })
                    .collect(),
            ),
            RouterRequest::IngestBatch(titles) => {
                // Blocking send = backpressure: when the lane is full this
                // connection (and only ingest traffic) waits its turn.
                let (reply_tx, reply_rx) = sync_channel(1);
                match ingest_tx.send(IngestJob { titles, reply: reply_tx }) {
                    Ok(()) => match reply_rx.recv() {
                        Ok(reports) => RouterResponse::IngestBatch(
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
                        Err(_) => RouterResponse::Error("ingest lane closed".into()),
                    },
                    Err(_) => RouterResponse::Error("ingest lane closed".into()),
                }
            }
            RouterRequest::Stats => {
                let pending: usize = inner.fleet.sets.iter().map(ReplicaSet::pending_total).sum();
                RouterResponse::Stats(inner.fleet.stats.snapshot(pending as u64))
            }
            RouterRequest::Shutdown => {
                let net = &inner.fleet.net;
                let deadline = Instant::now() + net.io_timeout;
                for set in &inner.fleet.sets {
                    for replica in set.replicas() {
                        let _ = shutdown_replica(replica.addr(), net, deadline);
                    }
                }
                let _ = write_message(&mut stream, &RouterResponse::Shutdown);
                inner.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr);
                return;
            }
        };
        if write_message(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Sends one best-effort `Shutdown` to one replica over a fresh, bounded
/// connection.
fn shutdown_replica(addr: &str, net: &NetConfig, deadline: Instant) -> Option<()> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return None;
    }
    let sock = addr.to_socket_addrs().ok()?.next()?;
    let mut stream = TcpStream::connect_timeout(&sock, net.connect_timeout.min(remaining)).ok()?;
    stream.set_write_timeout(Some(net.io_timeout)).ok()?;
    write_message(&mut stream, &ShardRequest::Shutdown).ok()?;
    let _ = read_message_bounded::<ShardResponse>(&mut stream, net.io_timeout, net.io_timeout);
    Some(())
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

    /// Resolves a batch of queries under one intent, in order.
    pub fn resolve_batch(
        &mut self,
        queries: Vec<ResolveQuery>,
        intent: IntentId,
        top_k: usize,
    ) -> Result<Vec<Result<ResolveResponse, String>>, WireError> {
        let request =
            RouterRequest::ResolveBatch { queries, intent: intent as u64, top_k: top_k as u64 };
        match self.call(&request)? {
            RouterResponse::ResolveBatch(outcomes) => Ok(outcomes),
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
    let label = match response {
        RouterResponse::Hello { .. } => "Hello",
        RouterResponse::Resolve(_) => "Resolve",
        RouterResponse::ResolveBatch(_) => "ResolveBatch",
        RouterResponse::IngestBatch(_) => "IngestBatch",
        RouterResponse::Stats(_) => "Stats",
        RouterResponse::Shutdown => "Shutdown",
        RouterResponse::Error(msg) => {
            return WireError::Store(flexer_store::StoreError::Malformed(format!(
                "router error: {msg}"
            )))
        }
    };
    WireError::Store(flexer_store::StoreError::Malformed(format!(
        "unexpected router response {label}"
    )))
}
