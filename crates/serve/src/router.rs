//! [`Router`] — the networked front-end of the sharded resolution tier.
//!
//! # Topology
//!
//! The router owns everything *global*: the shared scoring tier (the same
//! [`ResolutionService`] the in-process [`crate::ShardedResolutionService`]
//! wraps, with its blocker slot holding the `Exhaustive` sentinel), the
//! global stop-gram counts, and the cross-shard candidate merge. Each of
//! the N shard slots is served by **R replicas** — shard-server processes
//! that all booted the same shard of the same snapshot — behind a
//! [`ReplicaSet`]. A candidate query is planned once against global state
//! ([`flexer_block::plan_query`]), fanned out concurrently — one thread
//! per shard, one framed request to the healthiest replica with failover
//! to its siblings — and merged back ([`flexer_block::merge_candidates`]).
//! Those are the exact functions the in-process service runs, so router
//! answers are **bit-identical** to `ShardedResolutionService` over the
//! same snapshot and call sequence whenever at least one in-sync replica
//! per shard answers (asserted in `tests/cluster.rs` and the chaos
//! bench).
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
//! slowing reads, and each batch is applied exactly like one in-process
//! `ingest_batch` call — pre-batched shard queries (one `QueryBatch`
//! round trip per shard), one `ingest_batch_core`, then sequenced
//! per-shard `Insert` fan-out to **every** replica.
//!
//! # Failure semantics
//!
//! A replica that fails a call backs off (capped exponential) and its
//! siblings absorb the traffic (`router.shard.failover`). A shard whose
//! every replica is unreachable degrades **its own** candidates only:
//! the fan-out substitutes an empty answer and the query proceeds over
//! the surviving shards (`router.shard.degraded`). Inserts an unreachable
//! replica misses are queued in that replica's replay lane and replayed
//! in original arrival order when it comes back — sequence numbers make
//! replay idempotent, so a recovered replica converges to exactly the
//! state it would have had. A background janitor thread replays pending
//! lanes and probes failed replicas with `Ping` so recovery does not wait
//! for query traffic.

use crate::error::ServeError;
use crate::replica::{FaultStats, NetConfig, ReplicaSet};
use crate::service::{IngestReport, ResolutionService, ServeConfig};
use flexer_block::{merge_candidates, plan_query, BlockerState};
use flexer_store::{read_message, read_message_bounded, write_message, ModelSnapshot, WireError};
use flexer_types::{
    CandidateGenConfig, IntentId, ResolveQuery, ResolveResponse, RouterRequest, RouterResponse,
    ShardConfig, ShardRequest, ShardResponse, ShardRouter, WireCandidates, WireIngestReport,
    WireQuery,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Short backend name of a candidate-generation config (matches
/// `BlockerState::kind_name`, which shard servers report in their
/// handshake).
fn gen_kind(gen: &CandidateGenConfig) -> &'static str {
    match gen {
        CandidateGenConfig::Exhaustive => "exhaustive",
        CandidateGenConfig::NGram(_) => "ngram",
        CandidateGenConfig::Ann(_) => "ann",
    }
}

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

/// The global (router-side) serving state: the shared scoring tier plus
/// the global blocking decisions the shards cannot make alone.
struct Core {
    service: ResolutionService,
    gen: CandidateGenConfig,
    gram_counts: HashMap<u64, u32>,
    title_router: ShardRouter,
}

struct Inner {
    core: RwLock<Core>,
    sets: Vec<ReplicaSet>,
    net: NetConfig,
    stats: FaultStats,
    stop: AtomicBool,
    /// Serializes writer-lane and janitor insert traffic so sequenced
    /// batches leave in order even while the janitor is replaying.
    ingest_mutex: Mutex<()>,
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
        mut snapshot: ModelSnapshot,
        config: ServeConfig,
        shards: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        net: NetConfig,
    ) -> Result<Self, ServeError> {
        let shard_config = ShardConfig::of(shards.len());
        shard_config.validate().map_err(ServeError::InconsistentSnapshot)?;
        if shards.iter().any(Vec::is_empty) {
            return Err(ServeError::InconsistentSnapshot(
                "every shard slot needs at least one replica address".into(),
            ));
        }
        // The router needs only the backend *configuration* locally — the
        // blocking state itself lives in the shard servers.
        let gen = match snapshot.sharding.take() {
            Some(frames) if frames.n_shards() == shards.len() => {
                frames.decode_shard(0)?.1.gen_config()
            }
            Some(_) => {
                return Err(ServeError::InconsistentSnapshot(
                    "snapshot shard count != shard server count".into(),
                ))
            }
            None => std::mem::replace(&mut snapshot.blocker, BlockerState::Exhaustive).gen_config(),
        };
        snapshot.blocker = BlockerState::Exhaustive;
        let n_records = snapshot.records.len();
        let service = ResolutionService::build(snapshot, config, false)?;
        let n_slots = shards.len();
        let mut sets = Vec::with_capacity(n_slots);
        let mut gram_counts: HashMap<u64, u32> = HashMap::new();
        let mut shard_records = 0u64;
        for (s, replica_addrs) in shards.into_iter().enumerate() {
            let set = ReplicaSet::new(replica_addrs);
            let mut agreed_records: Option<u64> = None;
            for (r, replica) in set.replicas().iter().enumerate() {
                // Ask this specific replica (not the set) so a dead
                // sibling cannot mask a dead replica at boot.
                let Some(ShardResponse::Hello {
                    shard,
                    n_shards,
                    n_records,
                    backend,
                    gram_counts: gc,
                }) = replica_hello(replica.addr(), &net)
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
                if backend != gen_kind(&gen) {
                    return Err(ServeError::InconsistentSnapshot(format!(
                        "shard {s} replica {r}: backend {backend} != router's {}",
                        gen_kind(&gen)
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
                    // Summed across shards, the per-shard bucket sizes are
                    // exactly the global stop-gram counts (buckets
                    // partition the corpus by record).
                    for (g, n) in gc {
                        *gram_counts.entry(g).or_insert(0) += n;
                    }
                }
            }
            sets.push(set);
        }
        if !matches!(gen, CandidateGenConfig::Exhaustive) && shard_records != n_records as u64 {
            return Err(ServeError::InconsistentSnapshot(format!(
                "shards hold {shard_records} records, snapshot lists {n_records}"
            )));
        }
        let listener = TcpListener::bind(addr).map_err(flexer_store::StoreError::Io)?;
        let addr = listener.local_addr().map_err(flexer_store::StoreError::Io)?;
        let inner = Arc::new(Inner {
            core: RwLock::new(Core {
                service,
                gen,
                gram_counts,
                title_router: ShardRouter::new(shard_config),
            }),
            sets,
            net,
            stats: FaultStats::default(),
            stop: AtomicBool::new(false),
            ingest_mutex: Mutex::new(()),
        });
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

/// The single-writer ingest lane: applies queued batches strictly in
/// arrival order, one at a time, each exactly like one in-process
/// `ingest_batch` call.
fn writer_lane(inner: &Inner, jobs: &Receiver<IngestJob>) {
    while let Ok(job) = jobs.recv() {
        let reports = apply_ingest(inner, &job.titles);
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
        let _lane = inner.ingest_mutex.lock().expect("ingest order lock");
        for set in &inner.sets {
            set.flush_pending(&inner.net, &inner.stats);
        }
    }
}

fn apply_ingest(inner: &Inner, titles: &[String]) -> Vec<IngestReport> {
    let mut core = inner.core.write().expect("router core lock");
    let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
    // Pre-batch candidate generation, exactly like the in-process batched
    // ingest: every title's query is planned against the *pre-batch*
    // global state, shipped as one QueryBatch round trip per shard, and
    // merged per title.
    let candidates: Vec<Vec<usize>> = {
        let _span = core.service.recorder().span("ingest.block");
        let plan =
            if core.service.config().exhaustive { None } else { plan_all(&core, &title_refs) };
        match plan {
            None => {
                let n = core.service.n_records();
                title_refs.iter().map(|_| (0..n).collect()).collect()
            }
            Some(queries) => {
                let deadline = Instant::now() + inner.net.request_budget;
                let per_shard = fan_out_batches(inner, &queries, deadline);
                (0..titles.len())
                    .map(|i| {
                        merge_candidates(
                            &core.gen,
                            per_shard.iter().map(|answers| answers[i].clone()),
                        )
                    })
                    .collect()
            }
        }
    };
    let reports = core.service.ingest_batch_core(&title_refs, candidates, false);
    // Grow the global blocking state: stop-gram counts locally, the
    // records themselves in their owning shards (global ids are the ones
    // the scoring tier just assigned).
    let mut rows_by_shard: Vec<Vec<(u64, String)>> = vec![Vec::new(); inner.sets.len()];
    for (title, report) in titles.iter().zip(&reports) {
        if let CandidateGenConfig::NGram(c) = &core.gen {
            for g in flexer_block::ngram::gram_vec(title, c.q) {
                *core.gram_counts.entry(g).or_insert(0) += 1;
            }
        }
        rows_by_shard[core.title_router.route(title)].push((report.record as u64, title.clone()));
    }
    let _lane = inner.ingest_mutex.lock().expect("ingest order lock");
    for (s, rows) in rows_by_shard.into_iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        inner.sets[s].insert(rows, &inner.net, &inner.stats);
    }
    reports
}

/// Plans every title's shard query against the current global state.
/// `None` means the backend is exhaustive and no fan-out happens at all.
fn plan_all(core: &Core, titles: &[&str]) -> Option<Vec<WireQuery>> {
    titles.iter().map(|t| plan_query(&core.gen, &core.gram_counts, t)).collect()
}

/// Fans one `QueryBatch` out to every shard concurrently (one thread per
/// shard slot, failover across that shard's replicas, everything bounded
/// by `deadline`). A shard that cannot answer — every replica dead,
/// desynced, stalled or out of budget — contributes empty answers for the
/// whole batch: its records drop out of the candidate set, the query
/// survives.
fn fan_out_batches(
    inner: &Inner,
    queries: &[WireQuery],
    deadline: Instant,
) -> Vec<Vec<WireCandidates>> {
    let empty = || vec![WireCandidates::Ids(Vec::new()); queries.len()];
    let request = ShardRequest::QueryBatch(queries.to_vec());
    thread::scope(|scope| {
        let handles: Vec<_> = (0..inner.sets.len())
            .map(|s| {
                let request = &request;
                scope.spawn(move || {
                    match inner.sets[s].call_with_failover(
                        request,
                        &inner.net,
                        deadline,
                        &inner.stats,
                    ) {
                        Some(ShardResponse::CandidatesBatch(answers))
                            if answers.len() == queries.len() =>
                        {
                            answers
                        }
                        _ => {
                            FaultStats::bump(&inner.stats.degraded, "router.shard.degraded");
                            empty()
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|_| empty())).collect()
    })
}

/// The record ids a title is paired against: the networked fan-out/merge,
/// or every record under exhaustive blocking.
fn candidate_records(inner: &Inner, core: &Core, title: &str, deadline: Instant) -> Vec<usize> {
    if core.service.config().exhaustive {
        return (0..core.service.n_records()).collect();
    }
    match plan_query(&core.gen, &core.gram_counts, title) {
        None => (0..core.service.n_records()).collect(),
        Some(query) => {
            let answers = fan_out_batches(inner, std::slice::from_ref(&query), deadline)
                .into_iter()
                .map(|mut batch| batch.pop().expect("one answer per query"));
            merge_candidates(&core.gen, answers)
        }
    }
}

fn resolve_one(
    inner: &Inner,
    query: &ResolveQuery,
    intent: IntentId,
    top_k: usize,
) -> Result<ResolveResponse, ServeError> {
    let t0 = Instant::now();
    let deadline = t0 + inner.net.request_budget;
    let core = inner.core.read().expect("router core lock");
    let record_candidates = match query {
        ResolveQuery::Record(title) => {
            let _span = core.service.recorder().span("resolve.block");
            Some(candidate_records(inner, &core, title, deadline))
        }
        _ => None,
    };
    let out = core.service.resolve_intents_with(query, &[intent], top_k, record_candidates);
    core.service.note_resolve(t0);
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
                    n_shards: inner.sets.len() as u64,
                    n_records: core.service.n_records() as u64,
                    n_intents: core.service.n_intents() as u64,
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
                let pending: usize = inner.sets.iter().map(ReplicaSet::pending_total).sum();
                RouterResponse::Stats(inner.stats.snapshot(pending as u64))
            }
            RouterRequest::Shutdown => {
                let deadline = Instant::now() + inner.net.io_timeout;
                for set in &inner.sets {
                    for replica in set.replicas() {
                        let _ = shutdown_replica(replica.addr(), &inner.net, deadline);
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
