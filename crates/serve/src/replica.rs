//! Replicated shard connections: health-ranked failover, deadline-bounded
//! socket I/O, per-replica connection pooling, and ordered, idempotent
//! insert replay.
//!
//! One `ReplicaSet` stands in front of each shard slot. Its replicas
//! all boot the same shard of the same snapshot, so any of them can
//! answer any shard-local query **bit-identically** — which is what makes
//! failover a pure availability move: as long as one replica of every
//! shard is reachable, routed answers are byte-for-byte the answers the
//! in-process `ShardedResolutionService` would give.
//!
//! # Reads: failover within a budget
//!
//! A query carries an absolute deadline. Replicas are ranked healthiest
//! first — in-sync (no pending replay) before stale, known-good before
//! recently-failed, round-robin among equals — and tried in order until
//! one answers or the deadline passes. Every socket operation (connect,
//! write, read) is individually bounded, so the worst case overshoot past
//! the deadline is **one timeout quantum** (a read that legitimately
//! began just before the budget ran out).
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

use flexer_obs::{Counter, Recorder};
use flexer_store::{read_message_bounded, write_message, WireError};
use flexer_types::{ShardRequest, ShardResponse};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// First reconnect delay after a replica connection failure.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Reconnect delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

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
    /// Idle connections pooled per replica. Concurrent fan-outs each
    /// check a connection out, so `pool` warm streams serve `pool`
    /// concurrent requests without serializing on one socket.
    pub pool: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(2000),
            request_budget: Duration::from_millis(4000),
            pool: 4,
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

/// One replica of one shard: its address, health, pooled idle
/// connections, and its ordered insert-replay lane.
pub(crate) struct Replica {
    addr: String,
    health: Mutex<Health>,
    idle: Mutex<Vec<TcpStream>>,
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
    fn new(addr: String) -> Self {
        Self {
            addr,
            health: Mutex::new(Health { fails: 0, next_retry: Instant::now() }),
            idle: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// The replica's address (for logs and errors).
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Un-replayed insert batches queued for this replica.
    pub(crate) fn pending_len(&self) -> usize {
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

    /// Pops a pooled connection or dials a fresh one within `connect`.
    fn checkout(&self, connect: Duration) -> io::Result<(TcpStream, bool)> {
        if let Some(stream) = self.idle.lock().expect("replica pool lock").pop() {
            return Ok((stream, true));
        }
        let addr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&addr, connect.max(Duration::from_millis(1)))?;
        // Request-response framing: never sit on a partial segment waiting
        // for an ACK the peer is holding back.
        let _ = stream.set_nodelay(true);
        Ok((stream, false))
    }

    fn checkin(&self, stream: TcpStream, cap: usize) {
        let mut idle = self.idle.lock().expect("replica pool lock");
        if idle.len() < cap {
            idle.push(stream);
        }
    }

    /// Drops every pooled connection (after a failure, siblings in the
    /// pool are likely stale too — e.g. the whole process restarted).
    fn drain_pool(&self) {
        self.idle.lock().expect("replica pool lock").clear();
    }

    /// One request/response round trip bounded by `deadline`, with a
    /// single transparent retry on a fresh connection when a **pooled**
    /// stream turns out to be stale (the server reaps idle connections;
    /// that is not a replica failure). Health bookkeeping included.
    /// `idempotent` gates the stale retry: an insert whose response was
    /// lost may or may not have been applied, so it is never blind-resent
    /// here (sequence-numbered replay handles it instead).
    fn call(
        &self,
        request: &ShardRequest,
        net: &NetConfig,
        deadline: Instant,
        idempotent: bool,
    ) -> CallOutcome {
        let mut attempt = 0;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return CallOutcome::Deadline;
            }
            let remaining = deadline - now;
            let connect = net.connect_timeout.min(remaining);
            let (mut stream, pooled) = match self.checkout(connect) {
                Ok(got) => got,
                Err(_) => {
                    self.note_fail();
                    return CallOutcome::Failed;
                }
            };
            let io_budget = net.io_timeout.min(deadline.saturating_duration_since(Instant::now()));
            let result = Self::round_trip(&mut stream, request, io_budget);
            match result {
                Ok(response) => {
                    self.note_ok();
                    self.checkin(stream, net.pool);
                    return CallOutcome::Ok(response);
                }
                Err(_) => {
                    drop(stream);
                    // A stale pooled stream fails instantly on reuse; one
                    // fresh dial distinguishes "server reaped our idle
                    // connection" from "server is gone".
                    if pooled && idempotent && attempt == 0 {
                        self.drain_pool();
                        attempt = 1;
                        continue;
                    }
                    self.note_fail();
                    return CallOutcome::Failed;
                }
            }
        }
    }

    fn round_trip(
        stream: &mut TcpStream,
        request: &ShardRequest,
        io_budget: Duration,
    ) -> Result<ShardResponse, WireError> {
        let budget = io_budget.max(Duration::from_millis(1));
        stream.set_write_timeout(Some(budget))?;
        write_message(stream, request)?;
        match read_message_bounded::<ShardResponse>(stream, budget, budget)? {
            Some(response) => Ok(response),
            None => Err(WireError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "replica response deadline exceeded",
            ))),
        }
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
            let deadline = Instant::now() + net.io_timeout;
            match self.call(&request, net, deadline, false) {
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
    pub(crate) fn new(addrs: Vec<String>) -> Self {
        Self {
            replicas: addrs.into_iter().map(Replica::new).collect(),
            rr: AtomicUsize::new(0),
            next_seq: AtomicU64::new(1),
        }
    }

    pub(crate) fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    pub(crate) fn pending_total(&self) -> usize {
        self.replicas.iter().map(Replica::pending_len).sum()
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
        deadline: Instant,
        stats: &FaultStats,
        usable: impl Fn(&ShardResponse) -> bool,
    ) -> Option<ShardResponse> {
        for (tried, i) in self.ranked().into_iter().enumerate() {
            if Instant::now() >= deadline {
                stats.timeout.inc();
                return None;
            }
            if tried > 0 {
                stats.failover.inc();
            }
            match self.replicas[i].call(request, net, deadline, true) {
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
    pub(crate) fn insert(&self, rows: Vec<(u64, String)>, net: &NetConfig, stats: &FaultStats) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        for replica in &self.replicas {
            let mut lane = replica.pending.lock().expect("replica pending lock");
            let in_sync = lane.is_empty() || replica.flush_lane(&mut lane, net, stats);
            if in_sync {
                let request = ShardRequest::Insert { seq, rows: rows.clone() };
                let deadline = Instant::now() + net.io_timeout;
                if matches!(
                    replica.call(&request, net, deadline, false),
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
            if lane.is_empty() {
                if replica.fails() > 0 {
                    let deadline = Instant::now() + net.io_timeout;
                    let _ = replica.call(&ShardRequest::Ping, net, deadline, true);
                }
                continue;
            }
            // A cheap liveness probe before shipping potentially large
            // replay batches at a replica that is still down.
            let deadline = Instant::now() + net.io_timeout;
            if !matches!(
                replica.call(&ShardRequest::Ping, net, deadline, true),
                CallOutcome::Ok(ShardResponse::Pong)
            ) {
                continue;
            }
            replica.flush_lane(&mut lane, net, stats);
        }
    }
}
