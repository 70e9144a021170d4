//! [`ShardServer`] — one shard of the blocking tier as a TCP process.
//!
//! A shard server boots **one** shard's state from a shard-aware (v3)
//! snapshot via `ShardFrames::decode_shard` — its global-id member list
//! and its [`BlockerState`] — without materializing any other shard, and
//! answers the shard-local half of candidate queries over the framed wire
//! protocol (`flexer_store::wire`). It holds no scoring state: matchers,
//! GNNs and pair indexes live in the router, which also owns every
//! *global* blocking decision (stop-gram filtering, cross-shard merges).
//! The shard runs exactly [`flexer_block::local_answer`] — the same
//! function the in-process [`crate::ShardedResolutionService`] fans out
//! to — so a networked deployment answers bit-identically by
//! construction.
//!
//! Every inbound byte is untrusted: frames are length-capped and
//! checksummed before decoding, and a connection that sends garbage gets
//! a [`ShardResponse::Error`] and a closed socket — never a panic, never
//! a poisoned server (see the corrupt-input proptests in `flexer-store`).
//! The connection surface is bounded too ([`ServerConfig`]): at most
//! `max_conns` concurrent connections, an idle connection is reaped after
//! `idle_timeout`, and a peer that stalls mid-frame (slow-loris) is cut
//! off after `io_timeout` — a misbehaving client can cost the server one
//! socket for a bounded time, never a thread forever.
//!
//! # Replicated inserts
//!
//! Under replication the router stamps every insert batch with a
//! monotonic per-shard sequence number and may *retry* a batch whose
//! first send died mid-flight (it cannot know whether the batch was
//! applied before the connection broke). The shard remembers the highest
//! applied sequence: a batch at or below it is acknowledged without
//! re-applying (exactly-once), a batch that *skips* ahead is refused with
//! an error — a gap means this replica missed an acknowledged batch
//! (e.g. it was restarted from the original snapshot) and silently
//! serving from diverged state would break the bit-identity contract.

use crate::error::ServeError;
use flexer_block::{local_answer, BlockerState};
use flexer_store::{read_message_bounded, write_message, ModelSnapshot, WireError};
use flexer_types::{ShardRequest, ShardResponse, WireCandidates, WireQuery};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::Duration;

/// Connection-surface limits of a [`ShardServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum concurrent connections; excess connections are refused
    /// with an error frame and closed immediately.
    pub max_conns: usize,
    /// A connection that sends no request for this long is reaped.
    pub idle_timeout: Duration,
    /// Once a frame's first byte arrives, the rest must follow within
    /// this budget (defeats slow-loris byte dribbling).
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            idle_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// One shard's mutable serving state: the member list mapping local to
/// global record ids, the shard-local blocker index, and the replication
/// high-water mark.
struct ShardState {
    members: Vec<u32>,
    state: BlockerState,
    /// Highest applied insert sequence number (0 = none yet). Guarded by
    /// the same lock as the state it versions.
    last_seq: u64,
}

struct Inner {
    shard: usize,
    n_shards: usize,
    config: ServerConfig,
    state: RwLock<ShardState>,
    active: AtomicUsize,
    stop: AtomicBool,
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, ready-to-serve shard server (see module docs).
pub struct ShardServer {
    inner: Arc<Inner>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl ShardServer {
    /// Boots shard `shard` of a shard-aware snapshot file and binds
    /// `addr` (use port 0 for an ephemeral port; the bound address is
    /// [`Self::local_addr`]).
    pub fn load(
        path: impl AsRef<Path>,
        shard: usize,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, ServeError> {
        let snapshot = ModelSnapshot::load(path)?;
        Self::from_snapshot(snapshot, shard, addr)
    }

    /// Boots shard `shard` from an already-loaded snapshot with default
    /// connection limits.
    pub fn from_snapshot(
        snapshot: ModelSnapshot,
        shard: usize,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, ServeError> {
        Self::with_config(snapshot, shard, addr, ServerConfig::default())
    }

    /// [`Self::from_snapshot`] with explicit connection limits.
    pub fn with_config(
        mut snapshot: ModelSnapshot,
        shard: usize,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let frames = snapshot
            .sharding
            .take()
            .ok_or_else(|| ServeError::InconsistentSnapshot("snapshot is not sharded".into()))?;
        let n_shards = frames.n_shards();
        let (members, state) = frames.decode_shard(shard)?;
        // `local_answer` maps local ids through `members` by index, so the
        // two sides of the frame must agree before anything is served.
        if !matches!(state, BlockerState::Exhaustive) && members.len() != state.len() {
            return Err(ServeError::InconsistentSnapshot(format!(
                "shard {shard}: {} members for {} indexed records",
                members.len(),
                state.len()
            )));
        }
        let listener = TcpListener::bind(addr).map_err(flexer_store::StoreError::Io)?;
        let addr = listener.local_addr().map_err(flexer_store::StoreError::Io)?;
        Ok(Self {
            inner: Arc::new(Inner {
                shard,
                n_shards,
                config,
                state: RwLock::new(ShardState { members, state, last_seq: 0 }),
                active: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
            }),
            listener,
            addr,
        })
    }

    /// The address the server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves connections until a [`ShardRequest::Shutdown`] arrives
    /// (thread per connection; blocks the calling thread).
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            // Admission control: reserve a slot before spawning; refuse
            // (with a best-effort error frame) when the server is full.
            if self.inner.active.fetch_add(1, Ordering::SeqCst) >= self.inner.config.max_conns {
                self.inner.active.fetch_sub(1, Ordering::SeqCst);
                let _ = stream.set_write_timeout(Some(self.inner.config.io_timeout));
                let _ = write_message(
                    &mut stream,
                    &ShardResponse::Error("shard server at connection capacity".into()),
                );
                continue;
            }
            let inner = Arc::clone(&self.inner);
            let addr = self.addr;
            thread::spawn(move || {
                let _guard = ConnGuard(&inner.active);
                serve_connection(&inner, stream, addr);
            });
        }
    }

    /// Spawns [`Self::run`] on a background thread (for in-process tests).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || self.run())
    }
}

fn serve_connection(inner: &Inner, mut stream: TcpStream, addr: SocketAddr) {
    let _ = stream.set_write_timeout(Some(inner.config.io_timeout));
    loop {
        let request = match read_message_bounded::<ShardRequest>(
            &mut stream,
            inner.config.idle_timeout,
            inner.config.io_timeout,
        ) {
            Ok(Some(request)) => request,
            Ok(None) => return,              // idle past the reap window
            Err(WireError::Io(_)) => return, // peer hung up, died or stalled mid-frame
            Err(e) => {
                // Corrupt frame: the stream may be desynchronized, so
                // answer with the error and drop the connection rather
                // than guess where the next frame starts.
                let _ = write_message(&mut stream, &ShardResponse::Error(e.to_string()));
                return;
            }
        };
        // A shut-down server answers nothing, pooled connections
        // included — in-process `spawn` must behave like the process
        // dying, not like a half-alive server.
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let response = match request {
            ShardRequest::Hello => hello(inner),
            ShardRequest::Ping => ShardResponse::Pong,
            ShardRequest::Query(q) => {
                let state = inner.state.read().expect("shard state lock");
                answer(&q, &state)
            }
            ShardRequest::QueryBatch(qs) => {
                let state = inner.state.read().expect("shard state lock");
                let answers: Vec<WireCandidates> = qs
                    .iter()
                    .map(|q| match answer(q, &state) {
                        ShardResponse::Candidates(c) => c,
                        // Backend mismatch: an empty answer keeps the
                        // batch aligned; the router treats it as a
                        // degraded shard.
                        _ => WireCandidates::Ids(Vec::new()),
                    })
                    .collect();
                ShardResponse::CandidatesBatch(answers)
            }
            ShardRequest::Insert { seq, rows } => {
                let mut state = inner.state.write().expect("shard state lock");
                if seq != 0 && seq <= state.last_seq {
                    // Replay of an already-applied batch (the router
                    // retried after a dead connection): acknowledge
                    // without re-applying.
                    ShardResponse::Inserted { n_records: state.members.len() as u64 }
                } else if seq != 0 && seq > state.last_seq + 1 {
                    // This replica missed a batch the router believes was
                    // delivered (restarted from a stale snapshot?).
                    // Refusing keeps it visibly degraded instead of
                    // silently diverged.
                    ShardResponse::Error(format!(
                        "insert sequence gap: got {seq}, applied through {}",
                        state.last_seq
                    ))
                } else {
                    for (gid, title) in &rows {
                        state.state.insert(title);
                        state.members.push(*gid as u32);
                    }
                    if seq != 0 {
                        state.last_seq = seq;
                    }
                    ShardResponse::Inserted { n_records: state.members.len() as u64 }
                }
            }
            ShardRequest::Shutdown => {
                let _ = write_message(&mut stream, &ShardResponse::Shutdown);
                inner.stop.store(true, Ordering::SeqCst);
                // The accept loop is parked in `accept`; poke it awake so
                // it observes the stop flag and exits.
                let _ = TcpStream::connect(addr);
                return;
            }
        };
        if write_message(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn hello(inner: &Inner) -> ShardResponse {
    let state = inner.state.read().expect("shard state lock");
    ShardResponse::Hello {
        shard: inner.shard as u64,
        n_shards: inner.n_shards as u64,
        n_records: state.members.len() as u64,
        backend: state.state.kind_name().to_string(),
        gram_counts: state.state.bucket_sizes(),
    }
}

fn answer(query: &WireQuery, state: &ShardState) -> ShardResponse {
    match local_answer(query, &state.state, &state.members) {
        Some(c) => ShardResponse::Candidates(c),
        None => ShardResponse::Error(format!(
            "query does not match the {} backend",
            state.state.kind_name()
        )),
    }
}
