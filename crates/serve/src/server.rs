//! [`ShardServer`] — one shard of the blocking tier as a TCP process.
//!
//! A shard server boots **one** shard's state from a sharded snapshot —
//! its global-id member list and its [`BlockerState`], built by
//! [`build_shard`] from the corpus titles and the snapshot's `ShardConfig`
//! without indexing any other shard's records — and answers the
//! shard-local half of candidate queries over the framed wire protocol
//! (`flexer_store::wire`). It holds no scoring state: matchers,
//! GNNs and pair indexes live in the router, which also owns every
//! *global* blocking decision (stop-gram filtering, cross-shard merges).
//! Its handler, `Shard`, is the whole shard: the in-process
//! [`crate::ShardedResolutionService`] calls the very same handler through
//! an in-process link (`crate::replica`), so a networked deployment
//! answers bit-identically by construction.
//!
//! Every inbound byte is untrusted: frames are length-capped and
//! checksummed before decoding, and a connection that sends garbage gets
//! a [`ShardResponse::Error`] and a closed socket — never a panic, never
//! a poisoned server (see the corrupt-input proptests in `flexer-store`).
//! The connection surface is the crate's one framed endpoint, at fixed
//! limits: at most 64 concurrent connections, an idle connection reaped
//! after 60 s, and a peer that stalls mid-frame (slow-loris) or stops
//! reading cut off after 10 s. A misbehaving client can cost the server
//! one socket for a bounded time, never a thread forever.
//!
//! # Replicated inserts
//!
//! Under replication the router stamps every insert batch with a
//! monotonic per-shard sequence number, starting at 1, and may *retry* a
//! batch whose first send died mid-flight (it cannot know whether the
//! batch was applied before the connection broke). The shard remembers
//! the highest applied sequence (0 before the first): a batch at or below
//! it is acknowledged without re-applying (exactly-once; a batch stamped
//! 0 is never applied), a batch that *skips* ahead is refused with
//! an error — a gap means this replica missed an acknowledged batch
//! (e.g. it was restarted from the original snapshot) and silently
//! serving from diverged state would break the bit-identity contract.
//! A batch's rows are checked before any is applied: every global id must
//! fit a `u32` and rise strictly above the shard's last member. A batch
//! that fails is refused whole, and its sequence number stays open.

use crate::endpoint::{self, Limits, Reply};
use crate::error::ServeError;
use flexer_block::{build_shard, local_answer, BlockerState};
use flexer_store::ModelSnapshot;
use flexer_types::{CandidateGenConfig, ShardConfig, ShardRequest, ShardResponse, WireCandidates};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::RwLock;
use std::thread;
use std::time::Duration;

/// The shard server's connection surface (see module docs).
const LIMITS: Limits =
    Limits { max_conns: 64, idle: Duration::from_secs(60), io: Duration::from_secs(10) };

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

/// One shard: its place in the deployment and its state, answering
/// [`ShardRequest`]s — behind a socket here, or called directly by an
/// in-process link.
pub(crate) struct Shard {
    shard: usize,
    n_shards: usize,
    state: RwLock<ShardState>,
}

/// A bound, ready-to-serve shard server (see module docs).
pub struct ShardServer {
    shard: Shard,
    listener: TcpListener,
    addr: SocketAddr,
}

impl ShardServer {
    /// Boots shard `shard` of a sharded snapshot file and binds
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

    /// Boots shard `shard` from an already-loaded sharded snapshot.
    pub fn from_snapshot(
        snapshot: ModelSnapshot,
        shard: usize,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, ServeError> {
        let config = snapshot
            .sharding
            .ok_or_else(|| ServeError::InconsistentSnapshot("snapshot is not sharded".into()))?;
        if shard >= config.n_shards {
            return Err(ServeError::InconsistentSnapshot(format!(
                "shard {shard} out of range ({} shards)",
                config.n_shards
            )));
        }
        let titles = snapshot.records.iter().map(String::as_str);
        let shard = Shard::boot(&snapshot.blocker.gen_config(), config, titles, shard);
        let listener = TcpListener::bind(addr).map_err(flexer_store::StoreError::Io)?;
        let addr = listener.local_addr().map_err(flexer_store::StoreError::Io)?;
        Ok(Self { shard, listener, addr })
    }

    /// The address the server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves connections until a [`ShardRequest::Shutdown`] arrives
    /// (thread per connection; blocks the calling thread).
    pub fn run(self) {
        let shard = self.shard;
        endpoint::serve(self.listener, LIMITS, ShardResponse::Error, move |r| shard.handle(&r));
    }

    /// Spawns [`Self::run`] on a background thread (for in-process tests).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || self.run())
    }
}

impl Shard {
    /// Shard `shard` of `config` over the corpus `titles` (see
    /// [`build_shard`]), before any insert.
    pub(crate) fn boot<'a>(
        gen: &CandidateGenConfig,
        config: ShardConfig,
        titles: impl IntoIterator<Item = &'a str>,
        shard: usize,
    ) -> Self {
        let (members, state) = build_shard(gen, config, titles, shard);
        let state = RwLock::new(ShardState { members, state, last_seq: 0 });
        Self { shard, n_shards: config.n_shards, state }
    }

    /// Answers one request; `Stop` after a `Shutdown`.
    pub(crate) fn handle(&self, request: &ShardRequest) -> Reply<ShardResponse> {
        Reply::Answer(match request {
            ShardRequest::Hello => self.hello(),
            ShardRequest::Ping => ShardResponse::Pong,
            ShardRequest::QueryBatch(qs) => {
                let state = self.state.read().expect("shard state lock");
                // A query of the other backend gets an empty answer, which
                // keeps the batch aligned.
                let answers = qs.iter().map(|q| {
                    local_answer(q, &state.state, &state.members)
                        .unwrap_or(WireCandidates::Ids(Vec::new()))
                });
                ShardResponse::CandidatesBatch(answers.collect())
            }
            ShardRequest::Insert { seq, rows } => {
                let mut state = self.state.write().expect("shard state lock");
                if *seq <= state.last_seq {
                    // Replay of an already-applied batch (the router
                    // retried after a dead connection): acknowledge
                    // without re-applying.
                    ShardResponse::Inserted { n_records: state.members.len() as u64 }
                } else if *seq > state.last_seq + 1 {
                    // This replica missed a batch the router believes was
                    // delivered (restarted from a stale snapshot?).
                    // Refusing keeps it visibly degraded instead of
                    // silently diverged.
                    ShardResponse::Error(format!(
                        "insert sequence gap: got {seq}, applied through {}",
                        state.last_seq
                    ))
                } else if let Err(e) = check_rows(rows, state.members.last().copied()) {
                    // Nothing applied, `last_seq` kept: a valid batch at
                    // this sequence number still applies.
                    ShardResponse::Error(e)
                } else {
                    for (gid, title) in rows {
                        state.state.insert(title);
                        state.members.push(*gid as u32);
                    }
                    state.last_seq = *seq;
                    ShardResponse::Inserted { n_records: state.members.len() as u64 }
                }
            }
            ShardRequest::Shutdown => return Reply::Stop(ShardResponse::Shutdown),
        })
    }

    fn hello(&self) -> ShardResponse {
        let state = self.state.read().expect("shard state lock");
        ShardResponse::Hello {
            shard: self.shard as u64,
            n_shards: self.n_shards as u64,
            n_records: state.members.len() as u64,
            backend: state.state.kind_name().to_string(),
            gram_counts: state.state.bucket_sizes(),
        }
    }
}

/// Whether an insert batch may be applied after a shard whose last member
/// is `last`: every global id must fit a `u32` (the member list's width)
/// and rise strictly, above `last` — the ascending order `local_answer`'s
/// member lists are built in. Checked for the whole batch before any row
/// is applied.
fn check_rows(rows: &[(u64, String)], last: Option<u32>) -> Result<(), String> {
    let mut floor = last.map(u64::from);
    for &(gid, _) in rows {
        if gid > u64::from(u32::MAX) {
            return Err(format!("insert row id {gid} does not fit a u32"));
        }
        if let Some(p) = floor.filter(|&p| gid <= p) {
            return Err(format!("insert row ids must ascend: {gid} after {p}"));
        }
        floor = Some(gid);
    }
    Ok(())
}
