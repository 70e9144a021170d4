//! Wire-message vocabulary of the networked shard deployment.
//!
//! A sharded service can run as real processes: N `shard-server`s each
//! owning one shard's blocker state, and a `router` front-end that owns
//! the shared scoring tier and fans candidate queries out over TCP. These
//! are the request/response types both sides of each hop exchange —
//! plain data, kept here (like [`crate::query`]) so the store's codecs,
//! the serving tier and the bench harness agree on them without depending
//! on each other. Framing, encoding and the hardened decode paths live in
//! `flexer-store::wire`.
//!
//! Two hops, two protocols:
//!
//! * **router ↔ shard-server** ([`ShardRequest`]/[`ShardResponse`]): the
//!   split of `flexer_block`'s sharded candidate query. The router owns
//!   the *global* state a shard cannot see (stop-gram counts, merge
//!   order); a shard answers purely shard-local queries over its own
//!   index, with record ids already mapped back to global space. Queries
//!   always travel as a batch, one round trip per shard per request (a
//!   single resolve is a batch of one); tag 1, once a single query and its
//!   answer, decodes as an unknown tag.
//! * **client ↔ router** ([`RouterRequest`]/[`RouterResponse`]): the
//!   public resolve/ingest surface, mirroring the in-process
//!   `ShardedResolutionService` API.

use crate::query::{ResolveQuery, ResolveResponse};

/// The shard-local half of one candidate query, as planned by the router
/// (the holder of global blocker state).
#[derive(Debug, Clone, PartialEq)]
pub enum WireQuery {
    /// q-gram backend: the query's gram hashes that survived the *global*
    /// stop-gram filter. The shard answers with its local shared-count
    /// survivors.
    Grams(Vec<u64>),
    /// ANN backend: the embedded query vector. The shard answers with its
    /// local k nearest records and their distances.
    Embedding(Vec<f32>),
}

/// One shard's answer to a [`WireQuery`], in global record-id space.
#[derive(Debug, Clone, PartialEq)]
pub enum WireCandidates {
    /// q-gram survivors (global record ids, ascending).
    Ids(Vec<u32>),
    /// ANN hits as `(distance, global record id)`, the shard's local
    /// top-k; the router merges across shards and truncates back to k.
    Hits(Vec<(f32, u32)>),
}

/// A request from the router to one shard server.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// Handshake: identify yourself and ship the state the router must
    /// aggregate globally (record count, per-gram bucket sizes).
    Hello,
    /// A batch of candidate queries: every title of a request, one round
    /// trip per shard (a single resolve is a batch of one).
    QueryBatch(Vec<WireQuery>),
    /// Append records owned by this shard, as `(global id, title)` in
    /// global insertion order (the router assigns global ids).
    Insert {
        /// Monotonic per-shard sequence number the router stamps on every
        /// insert batch (1-based; 0 means "unsequenced, always apply").
        /// Replicas remember the highest applied sequence and skip
        /// batches at or below it, so a replayed batch — the router
        /// cannot know whether a failed send was applied before the
        /// connection died — is applied **exactly once**, in original
        /// arrival order.
        seq: u64,
        /// The records, in global insertion order.
        rows: Vec<(u64, String)>,
    },
    /// Liveness probe: answered with [`ShardResponse::Pong`] without
    /// touching shard state. The router's deadline machinery uses it to
    /// cheaply re-check a replica before trusting it with replay traffic.
    Ping,
    /// Stop serving and exit cleanly.
    Shutdown,
}

/// A shard server's reply to one [`ShardRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponse {
    /// Handshake reply.
    Hello {
        /// The shard index this server owns.
        shard: u64,
        /// Total shards in the layout the server booted from.
        n_shards: u64,
        /// Records this shard holds.
        n_records: u64,
        /// Candidate-generation backend name (`"ngram"`, `"ann"`,
        /// `"exhaustive"`) — must agree with the router's snapshot.
        backend: String,
        /// This shard's `(gram hash, bucket size)` pairs, ascending by
        /// hash (q-gram backend; empty otherwise). Summed across shards
        /// these are exactly the global stop-gram counts.
        gram_counts: Vec<(u64, u32)>,
    },
    /// Answers to [`ShardRequest::QueryBatch`], in query order.
    CandidatesBatch(Vec<WireCandidates>),
    /// Acknowledges [`ShardRequest::Insert`] with the new record count.
    Inserted {
        /// Records this shard holds after the insert.
        n_records: u64,
    },
    /// Acknowledges [`ShardRequest::Ping`].
    Pong,
    /// Acknowledges [`ShardRequest::Shutdown`]; the server exits after
    /// writing it.
    Shutdown,
    /// The request could not be served (malformed, out of order, …).
    Error(String),
}

/// A client request to the router front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterRequest {
    /// Handshake: deployment shape.
    Hello,
    /// Resolve one query under one intent.
    Resolve {
        /// The resolution query.
        query: ResolveQuery,
        /// The intent to rank under.
        intent: u64,
        /// Maximum matches returned.
        top_k: u64,
    },
    /// Resolve a batch of queries under one intent.
    ResolveBatch {
        /// The resolution queries, answered in order.
        queries: Vec<ResolveQuery>,
        /// The intent to rank under.
        intent: u64,
        /// Maximum matches returned per query.
        top_k: u64,
    },
    /// Ingest a batch of record titles (the single-writer lane).
    IngestBatch(Vec<String>),
    /// Fetch the router's fault counters (timeouts, failovers, degrades,
    /// deferred inserts, pending replay depth) as `(name, value)` pairs —
    /// the chaos harness asserts failover actually happened through these.
    Stats,
    /// Stop serving and exit cleanly (shard servers are shut down too).
    Shutdown,
}

/// What one ingested title added, mirrored from the serving tier's
/// `IngestReport` in fixed-width fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireIngestReport {
    /// Id of the newly ingested record.
    pub record: u64,
    /// Pair id of the first candidate pair created for it.
    pub first_pair: u64,
    /// Number of candidate pairs created.
    pub n_pairs: u64,
    /// Pre-existing records the blocker pruned.
    pub n_suppressed: u64,
}

/// The router's reply to one [`RouterRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum RouterResponse {
    /// Handshake reply.
    Hello {
        /// Shards behind this router.
        n_shards: u64,
        /// Records currently served.
        n_records: u64,
        /// Intents the loaded model answers.
        n_intents: u64,
    },
    /// Answer to [`RouterRequest::Resolve`] (`Err` carries the serving
    /// error's display string).
    Resolve(Result<ResolveResponse, String>),
    /// Answers to [`RouterRequest::ResolveBatch`], in query order.
    ResolveBatch(Vec<Result<ResolveResponse, String>>),
    /// Per-title reports for [`RouterRequest::IngestBatch`].
    IngestBatch(Vec<WireIngestReport>),
    /// Answer to [`RouterRequest::Stats`]: `(counter name, value)` pairs,
    /// ascending by name.
    Stats(Vec<(String, u64)>),
    /// Acknowledges [`RouterRequest::Shutdown`].
    Shutdown,
    /// The request could not be served.
    Error(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_types_are_plain_data() {
        let q = ShardRequest::QueryBatch(vec![WireQuery::Grams(vec![1, 2, 3])]);
        assert_eq!(q.clone(), q);
        let r = RouterResponse::IngestBatch(vec![WireIngestReport {
            record: 9,
            first_pair: 100,
            n_pairs: 4,
            n_suppressed: 5,
        }]);
        assert_eq!(r.clone(), r);
    }
}
