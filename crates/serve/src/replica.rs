//! The sharded blocking tier: one fan-out over replicated shards, whether
//! a shard is a server across a socket or a handler in this process.
//!
//! [`Sharded`] is the [`BlockingTier`] of every sharded deployment — the
//! router's and the in-process `ShardedResolutionService`'s. It holds the
//! global half of sharded blocking ([`GlobalBlocking`]: backend config,
//! title router, stop-gram counts) beside a `Fleet` of shard slots, each
//! one `ReplicaSet`. A candidate query is planned once against the global
//! state, fanned out concurrently — one request per shard slot to the
//! healthiest replica, with failover to its siblings — and merged back;
//! an ingest sends one sequenced insert per shard to every replica.
//!
//! Every exchange with a shard is one `Replica::call`: the boot handshake,
//! queries, inserts and their replay, the janitor's probes and the
//! shutdown sweep. A replica is reached over one of two links:
//!
//! * **TCP**: a shard server's address. Each call is bounded by a
//!   `Deadline`, checks a pooled connection out (or dials one) and keeps
//!   the replica's health.
//! * **In-process**: the shard server's own handler, called directly —
//!   no socket, no codec, and no deadline to miss, so a local shard never
//!   times out, fails over or degrades.
//!
//! The replicas of one slot all boot the same shard of the same snapshot,
//! so any of them can answer any shard-local query **bit-identically** —
//! which is what makes failover a pure availability move: as long as one
//! replica of every shard is reachable, routed answers are byte-for-byte
//! the answers the in-process service gives.
//!
//! # Reads: failover within a budget
//!
//! A query carries an absolute deadline. Replicas are ranked healthiest
//! first — in-sync (no pending replay) before stale, known-good before
//! recently-failed, round-robin among equals — and tried in order until
//! one answers or the deadline passes. Every socket operation (connect,
//! write, read) is individually bounded, so the worst case overshoot past
//! the deadline is **one timeout quantum** (a read that legitimately
//! began just before the budget ran out): `Deadline::quantum` cuts each
//! operation's timeout to what is left of the budget.
//!
//! # Writes: sequenced fan-out with per-replica replay
//!
//! Inserts reach *every* replica. The set stamps each batch with a
//! monotonically increasing per-shard sequence number; a replica that
//! cannot be reached gets the batch queued in its own replay lane and
//! replayed **in original arrival order** when it comes back. Because the
//! server skips sequence numbers it has already applied, a batch whose
//! acknowledgement was lost in flight is safe to resend — replay is
//! idempotent, so convergence needs no guessing about what the dead
//! connection did or did not deliver.

use crate::blocking::BlockingTier;
use crate::endpoint::Reply;
use crate::error::ServeError;
use crate::server::Shard;
use flexer_block::GlobalBlocking;
use flexer_obs::{Counter, Recorder};
use flexer_store::{read_message_bounded, write_message};
use flexer_types::{
    CandidateGenConfig, ShardConfig, ShardRequest, ShardResponse, WireCandidates, WireQuery,
};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// First reconnect delay after a replica connection failure.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Reconnect delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Idle connections pooled per replica. Concurrent fan-outs each check a
/// connection out, so `POOL` warm streams serve `POOL` concurrent requests
/// without serializing on one socket.
const POOL: usize = 4;

/// The shortest timeout a socket operation gets: a zero timeout means
/// "block forever" to the socket API.
const MIN_QUANTUM: Duration = Duration::from_millis(1);

/// The instant a request's budget runs out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Instant);

impl Deadline {
    /// `budget` from now.
    pub(crate) fn after(budget: Duration) -> Self {
        Self::since(Instant::now(), budget)
    }

    /// `budget` from `start`.
    fn since(start: Instant, budget: Duration) -> Self {
        Self(start + budget)
    }

    /// Whether the budget has run out.
    fn expired(self) -> bool {
        Instant::now() >= self.0
    }

    /// The timeout for one socket operation: `io`, cut to what is left of
    /// the budget, and never below [`MIN_QUANTUM`].
    fn quantum(self, io: Duration) -> Duration {
        io.min(self.0.saturating_duration_since(Instant::now())).max(MIN_QUANTUM)
    }
}

/// Network behaviour of the router's shard-facing side: every socket
/// timeout and the per-request fan-out budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Budget for establishing one TCP connection to a replica.
    pub connect_timeout: Duration,
    /// Per-attempt I/O quantum: one complete request/response frame
    /// exchange with one replica must finish within it. This is the
    /// "timeout quantum" a request may overshoot its budget by.
    pub io_timeout: Duration,
    /// Per-request budget for the whole candidate fan-out, failover
    /// attempts included. Exhausted ⇒ the shard degrades for that request
    /// instead of holding the query hostage.
    pub request_budget: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(2000),
            request_budget: Duration::from_millis(4000),
        }
    }
}

/// The router's fault counters (`router.shard.*`): handles on the router
/// service's recorder, so they reach its `obs_snapshot` export as well as
/// the [`flexer_types::RouterRequest::Stats`] reply.
#[derive(Debug)]
pub struct FaultStats {
    /// Requests whose fan-out budget expired before any replica of some
    /// shard answered.
    pub timeout: Counter,
    /// Attempts on a sibling replica after the preferred one failed.
    pub failover: Counter,
    /// Fan-outs where a whole shard (every replica) contributed nothing.
    pub degraded: Counter,
    /// Insert batches queued for later replay on an unreachable replica.
    pub insert_deferred: Counter,
    /// Insert batches successfully replayed from a replica's pending lane.
    pub insert_replayed: Counter,
}

impl FaultStats {
    /// Registers the five counters on `recorder`.
    pub(crate) fn new(recorder: &Recorder) -> Self {
        Self {
            timeout: recorder.counter("router.shard.timeout"),
            failover: recorder.counter("router.shard.failover"),
            degraded: recorder.counter("router.shard.degraded"),
            insert_deferred: recorder.counter("router.shard.insert_deferred"),
            insert_replayed: recorder.counter("router.shard.insert_replayed"),
        }
    }

    /// Snapshot as `(name, value)` pairs, ascending by name (the wire
    /// `Stats` payload).
    pub fn snapshot(&self, pending: u64) -> Vec<(String, u64)> {
        vec![
            ("router.replica.pending".into(), pending),
            ("router.shard.degraded".into(), self.degraded.get()),
            ("router.shard.failover".into(), self.failover.get()),
            ("router.shard.insert_deferred".into(), self.insert_deferred.get()),
            ("router.shard.insert_replayed".into(), self.insert_replayed.get()),
            ("router.shard.timeout".into(), self.timeout.get()),
        ]
    }
}

/// Consecutive-failure count and the backoff window it opened.
#[derive(Debug)]
struct Health {
    fails: u32,
    next_retry: Instant,
}

/// One sequenced insert batch awaiting acknowledgement: the sequence
/// number and the `(global_id, title)` rows it carries.
type PendingBatch = (u64, Vec<(u64, String)>);

/// How a replica is reached (see module docs).
pub(crate) enum Link {
    /// A shard server's address and its pooled idle connections.
    Tcp { addr: String, idle: Mutex<Vec<TcpStream>> },
    /// A shard served in this process.
    Local(Shard),
}

impl Link {
    /// A link to the shard server at `addr`.
    pub(crate) fn tcp(addr: String) -> Self {
        Link::Tcp { addr, idle: Mutex::new(Vec::new()) }
    }
}

/// One replica of one shard: its link, health, and its ordered
/// insert-replay lane.
struct Replica {
    link: Link,
    health: Mutex<Health>,
    /// Sequenced insert batches this replica has not acknowledged, oldest
    /// first. The mutex doubles as the replica's *insert lane*: whoever
    /// sends inserts (the writer thread, or the janitor flushing) holds
    /// it across flush-then-send, so batches leave in sequence order.
    pending: Mutex<VecDeque<PendingBatch>>,
}

/// Outcome of one bounded replica call.
enum CallOutcome {
    Ok(ShardResponse),
    /// The attempt failed (connect/write/read/decode); a sibling may help.
    Failed,
    /// The request's deadline passed before or during the attempt; trying
    /// siblings would only dig the hole deeper.
    Deadline,
}

impl Replica {
    fn new(link: Link) -> Self {
        Self {
            link,
            health: Mutex::new(Health { fails: 0, next_retry: Instant::now() }),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// The replica's address (for logs and errors).
    fn addr(&self) -> &str {
        match &self.link {
            Link::Tcp { addr, .. } => addr,
            Link::Local(_) => "in-process",
        }
    }

    /// Whether `deadline` has passed for this replica: a local shard
    /// answers whatever the deadline.
    fn missed(&self, deadline: Deadline) -> bool {
        matches!(self.link, Link::Tcp { .. }) && deadline.expired()
    }

    /// Un-replayed insert batches queued for this replica.
    fn pending_len(&self) -> usize {
        self.pending.lock().expect("replica pending lock").len()
    }

    fn in_backoff(&self) -> bool {
        let h = self.health.lock().expect("replica health lock");
        h.fails > 0 && Instant::now() < h.next_retry
    }

    fn fails(&self) -> u32 {
        self.health.lock().expect("replica health lock").fails
    }

    fn note_ok(&self) {
        self.health.lock().expect("replica health lock").fails = 0;
    }

    fn note_fail(&self) {
        let mut h = self.health.lock().expect("replica health lock");
        h.fails = h.fails.saturating_add(1);
        let backoff =
            BACKOFF_BASE.saturating_mul(1u32 << h.fails.min(5).saturating_sub(1)).min(BACKOFF_CAP);
        h.next_retry = Instant::now() + backoff;
    }

    /// Pops a pooled connection or dials a fresh one to `addr` within
    /// `connect`.
    fn checkout(
        addr: &str,
        idle: &Mutex<Vec<TcpStream>>,
        connect: Duration,
    ) -> io::Result<(TcpStream, bool)> {
        if let Some(stream) = idle.lock().expect("replica pool lock").pop() {
            return Ok((stream, true));
        }
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&addr, connect)?;
        // Request-response framing: never sit on a partial segment waiting
        // for an ACK the peer is holding back.
        let _ = stream.set_nodelay(true);
        Ok((stream, false))
    }

    /// One request/response exchange. A local shard answers in a plain
    /// function call. Over TCP the round trip is bounded by `deadline`,
    /// with a single transparent retry on a fresh connection when a
    /// **pooled** stream turns out to be stale (the server reaps idle
    /// connections; that is not a replica failure). Health bookkeeping
    /// included. `idempotent` gates the stale retry: an insert whose
    /// response was lost may or may not have been applied, so it is never
    /// blind-resent here (sequence-numbered replay handles it instead).
    fn call(
        &self,
        request: &ShardRequest,
        net: &NetConfig,
        deadline: Deadline,
        idempotent: bool,
    ) -> CallOutcome {
        let (addr, idle) = match &self.link {
            Link::Local(shard) => {
                let (Reply::Answer(response) | Reply::Stop(response)) = shard.handle(request);
                return CallOutcome::Ok(response);
            }
            Link::Tcp { addr, idle } => (addr, idle),
        };
        let mut attempt = 0;
        loop {
            if deadline.expired() {
                return CallOutcome::Deadline;
            }
            let connect = deadline.quantum(net.connect_timeout);
            let (mut stream, pooled) = match Self::checkout(addr, idle, connect) {
                Ok(got) => got,
                Err(_) => {
                    self.note_fail();
                    return CallOutcome::Failed;
                }
            };
            match Self::round_trip(&mut stream, request, deadline.quantum(net.io_timeout)) {
                Some(response) => {
                    self.note_ok();
                    let mut idle = idle.lock().expect("replica pool lock");
                    if idle.len() < POOL {
                        idle.push(stream);
                    }
                    return CallOutcome::Ok(response);
                }
                None => {
                    // A stale pooled stream fails instantly on reuse; one
                    // fresh dial distinguishes "server reaped our idle
                    // connection" from "server is gone". The rest of the
                    // pool is likely stale too (the process restarted?).
                    if pooled && idempotent && attempt == 0 {
                        idle.lock().expect("replica pool lock").clear();
                        attempt = 1;
                        continue;
                    }
                    self.note_fail();
                    return CallOutcome::Failed;
                }
            }
        }
    }

    /// One write and one read on `stream`, each bounded by `budget`;
    /// `None` when either fails or the reply does not start in time.
    fn round_trip(
        stream: &mut TcpStream,
        request: &ShardRequest,
        budget: Duration,
    ) -> Option<ShardResponse> {
        stream.set_write_timeout(Some(budget)).ok()?;
        write_message(stream, request).ok()?;
        read_message_bounded(stream, budget, budget).ok()?
    }

    /// Replays this replica's pending insert batches in sequence order.
    /// Caller must hold the pending lock (passed in as `lane`). Returns
    /// `true` when the lane is empty afterwards.
    fn flush_lane(
        &self,
        lane: &mut VecDeque<PendingBatch>,
        net: &NetConfig,
        stats: &FaultStats,
    ) -> bool {
        while let Some((seq, rows)) = lane.front() {
            let request = ShardRequest::Insert { seq: *seq, rows: rows.clone() };
            match self.call(&request, net, Deadline::after(net.io_timeout), false) {
                CallOutcome::Ok(ShardResponse::Inserted { .. }) => {
                    lane.pop_front();
                    stats.insert_replayed.inc();
                }
                _ => return false,
            }
        }
        true
    }
}

/// The replicas standing in for one shard slot (see module docs).
pub(crate) struct ReplicaSet {
    replicas: Vec<Replica>,
    /// Rotates the preferred replica among equally healthy ones.
    rr: AtomicUsize,
    /// Next insert sequence number (1-based; the writer lane is the only
    /// caller, the atomic just keeps the type `Sync`).
    next_seq: AtomicU64,
}

impl ReplicaSet {
    pub(crate) fn new(links: impl IntoIterator<Item = Link>) -> Self {
        Self {
            replicas: links.into_iter().map(Replica::new).collect(),
            rr: AtomicUsize::new(0),
            next_seq: AtomicU64::new(1),
        }
    }

    pub(crate) fn pending_total(&self) -> usize {
        self.replicas.iter().map(Replica::pending_len).sum()
    }

    /// Whether every replica is a shard in this process.
    fn is_local(&self) -> bool {
        self.replicas.iter().all(|r| matches!(r.link, Link::Local(_)))
    }

    /// Replica indexes healthiest-first: in-sync before pending-replay,
    /// not-in-backoff before backed-off, fewer recent failures first,
    /// round-robin among exact ties. Backed-off replicas stay in the list
    /// — with a live deadline it is better to spend a connect attempt on
    /// a possibly-recovered replica than to degrade a whole shard.
    fn ranked(&self) -> Vec<usize> {
        let rotate = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.replicas.len();
        let mut order: Vec<usize> = (0..n).map(|i| (i + rotate) % n).collect();
        order.sort_by_key(|&i| {
            let r = &self.replicas[i];
            (r.pending_len().min(1), u32::from(r.in_backoff()), r.fails())
        });
        order
    }

    /// Sends one idempotent request (query/ping/hello) to the healthiest
    /// replica that gives a `usable` answer before `deadline`, failing
    /// over to siblings. `None` ⇒ the shard degrades for this request
    /// (every replica failed or the budget ran out; counters record which).
    pub(crate) fn call_with_failover(
        &self,
        request: &ShardRequest,
        net: &NetConfig,
        deadline: Deadline,
        stats: &FaultStats,
        usable: impl Fn(&ShardResponse) -> bool,
    ) -> Option<ShardResponse> {
        for (tried, i) in self.ranked().into_iter().enumerate() {
            let replica = &self.replicas[i];
            if replica.missed(deadline) {
                stats.timeout.inc();
                return None;
            }
            if tried > 0 {
                stats.failover.inc();
            }
            match replica.call(request, net, deadline, true) {
                CallOutcome::Ok(response) if usable(&response) => return Some(response),
                // An error reply, or an answer the caller cannot use (it
                // arrives from outside the program): a sibling may do better.
                CallOutcome::Ok(_) | CallOutcome::Failed => continue,
                CallOutcome::Deadline => {
                    stats.timeout.inc();
                    return None;
                }
            }
        }
        None
    }

    /// Fans one sequenced insert batch out to **every** replica (writer
    /// lane only). Unreachable replicas get the batch queued in their
    /// replay lane; reachable ones are flushed first so batches always
    /// arrive in sequence order.
    fn insert(&self, rows: Vec<(u64, String)>, net: &NetConfig, stats: &FaultStats) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        for replica in &self.replicas {
            let mut lane = replica.pending.lock().expect("replica pending lock");
            let in_sync = lane.is_empty() || replica.flush_lane(&mut lane, net, stats);
            if in_sync {
                let request = ShardRequest::Insert { seq, rows: rows.clone() };
                if matches!(
                    replica.call(&request, net, Deadline::after(net.io_timeout), false),
                    CallOutcome::Ok(ShardResponse::Inserted { .. })
                ) {
                    continue;
                }
            }
            stats.insert_deferred.inc();
            lane.push_back((seq, rows.clone()));
        }
    }

    /// Janitor pass: for every replica holding queued inserts (and not in
    /// backoff), ping it and replay its lane in order. Also probes
    /// recently-failed replicas so recovery is noticed without waiting
    /// for query traffic.
    pub(crate) fn flush_pending(&self, net: &NetConfig, stats: &FaultStats) {
        for replica in &self.replicas {
            if replica.in_backoff() {
                continue;
            }
            let mut lane = match replica.pending.try_lock() {
                Ok(lane) => lane,
                Err(_) => continue, // the writer lane is on it right now
            };
            let ping =
                || replica.call(&ShardRequest::Ping, net, Deadline::after(net.io_timeout), true);
            if lane.is_empty() {
                if replica.fails() > 0 {
                    let _ = ping();
                }
                continue;
            }
            // A cheap liveness probe before shipping potentially large
            // replay batches at a replica that is still down.
            if !matches!(ping(), CallOutcome::Ok(ShardResponse::Pong)) {
                continue;
            }
            replica.flush_lane(&mut lane, net, stats);
        }
    }
}

/// The shard slots as a sharded tier reaches them. Shared between the
/// serving core (whose blocking tier queries and feeds them) and the
/// router's lanes that work beside it (janitor, stats, shutdown).
pub(crate) struct Fleet {
    pub(crate) sets: Vec<ReplicaSet>,
    pub(crate) net: NetConfig,
    pub(crate) stats: FaultStats,
    /// Serializes writer-lane and janitor insert traffic so sequenced
    /// batches leave in order even while the janitor is replaying.
    pub(crate) ingest_mutex: Mutex<()>,
}

impl Fleet {
    /// Sends every replica a best-effort `Shutdown`, the whole sweep
    /// bounded by one I/O quantum.
    pub(crate) fn shutdown(&self) {
        let deadline = Deadline::after(self.net.io_timeout);
        for replica in self.sets.iter().flat_map(|set| &set.replicas) {
            let _ = replica.call(&ShardRequest::Shutdown, &self.net, deadline, true);
        }
    }

    /// Fans one `QueryBatch` out to every shard slot concurrently, with
    /// failover across a slot's replicas and everything bounded by
    /// `deadline`. A remote slot waits on its sockets, so each gets its own
    /// thread and the slowest bounds the fan-out; in-process slots answer
    /// with CPU work, which the `flexer-par` budget spreads. This is where
    /// remote answers enter: a reply is usable when `global` accepts its
    /// answer to every query, anything else fails over like an error
    /// reply. A shard that cannot answer — every replica dead, desynced,
    /// stalled, lying or out of budget — contributes empty answers for the
    /// whole batch: its records drop out of the candidate set, the query
    /// survives.
    fn fan_out_batches(
        &self,
        queries: &[WireQuery],
        deadline: Deadline,
        global: &GlobalBlocking,
    ) -> Vec<Vec<WireCandidates>> {
        let empty = || vec![WireCandidates::Ids(Vec::new()); queries.len()];
        let request = ShardRequest::QueryBatch(queries.to_vec());
        let usable = |response: &ShardResponse| {
            matches!(response, ShardResponse::CandidatesBatch(answers)
                if answers.len() == queries.len() && answers.iter().all(|a| global.accepts(a)))
        };
        let ask = |set: &ReplicaSet| match set.call_with_failover(
            &request,
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
        };
        if self.sets.iter().all(ReplicaSet::is_local) {
            return flexer_par::parallel_map_slice(&self.sets, ask);
        }
        thread::scope(|scope| {
            let handles: Vec<_> =
                self.sets.iter().map(|set| scope.spawn(move || ask(set))).collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|_| empty())).collect()
        })
    }
}

/// The blocking tier of every sharded deployment: the global half of
/// sharded blocking held here, the shard-local half behind the fleet's
/// replica sets (see module docs).
pub struct Sharded {
    pub(crate) global: GlobalBlocking,
    pub(crate) fleet: Arc<Fleet>,
}

impl Sharded {
    /// Handshakes with every replica of every shard slot and assembles the
    /// global blocking state from what they report; only the backend
    /// *configuration* comes from the snapshot, the blocking state itself
    /// lives in the shards. Every replica of a slot must report what the
    /// first one does: its record count and its sorted gram counts (the
    /// ANN backend reports no grams, so there the record count is all that
    /// is compared).
    pub(crate) fn connect(
        gen: CandidateGenConfig,
        n_records: usize,
        sets: Vec<ReplicaSet>,
        net: NetConfig,
        stats: FaultStats,
    ) -> Result<Self, ServeError> {
        let n_slots = sets.len();
        let mut bucket_sizes: Vec<(u64, u32)> = Vec::new();
        let mut shard_records = 0u64;
        for (s, set) in sets.iter().enumerate() {
            let mut first: Option<(u64, Vec<(u64, u32)>)> = None;
            for (r, replica) in set.replicas.iter().enumerate() {
                // Ask this specific replica (not the set) so a dead
                // sibling cannot mask a dead replica at boot.
                let hello = replica.call(
                    &ShardRequest::Hello,
                    &net,
                    Deadline::after(net.request_budget),
                    true,
                );
                let CallOutcome::Ok(ShardResponse::Hello {
                    shard,
                    n_shards,
                    n_records,
                    backend,
                    mut gram_counts,
                }) = hello
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
                gram_counts.sort_unstable();
                match &first {
                    None => first = Some((n_records, gram_counts)),
                    Some((held, grams)) if (*held, grams) != (n_records, &gram_counts) => {
                        return Err(ServeError::InconsistentSnapshot(format!(
                            "shard {s}: replica {r} holds other records than replica 0 \
                             ({n_records} vs {held} records, {} vs {} grams)",
                            gram_counts.len(),
                            grams.len()
                        )));
                    }
                    Some(_) => {}
                }
            }
            let (held, grams) = first.expect("every shard slot has a replica");
            shard_records += held;
            bucket_sizes.extend(grams);
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

impl BlockingTier for Sharded {
    /// Every title's query is planned against the current global state,
    /// shipped as one `QueryBatch` per shard, and merged per title. The
    /// whole fan-out, failover included, is budgeted from `t0`.
    fn candidates_batch(&self, titles: &[&str], t0: Instant) -> Vec<Option<Vec<usize>>> {
        let Some(queries) = titles.iter().map(|t| self.global.plan(t)).collect::<Option<Vec<_>>>()
        else {
            // The exhaustive backend: no fan-out happens at all.
            return vec![None; titles.len()];
        };
        let deadline = Deadline::since(t0, self.fleet.net.request_budget);
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

    /// Grows the global blocking state here and the records themselves
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
