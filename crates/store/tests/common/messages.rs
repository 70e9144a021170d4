//! One sample of every FLEXWIRE message, with every shape a codec writes:
//! empty and non-empty lists, an `Ok` outcome, extreme integers,
//! negative zero and subnormal floats. `wire.rs`'s round-trip test and the
//! byte pins in `tests/pinned_bytes.rs` both run over it.

use flexer_types::{
    IntentId, MatchTarget, RankedMatch, ResolveQuery, ResolveResponse, RouterRequest,
    RouterResponse, ShardRequest, ShardResponse, WireCandidates, WireIngestReport, WireQuery,
};

/// The samples, one list per message type.
pub fn sample_messages(
) -> (Vec<ShardRequest>, Vec<ShardResponse>, Vec<RouterRequest>, Vec<RouterResponse>) {
    let resp = ResolveResponse {
        intent: 2 as IntentId,
        matches: vec![
            RankedMatch { target: MatchTarget::Record(7), score: 0.875, matched: true },
            RankedMatch { target: MatchTarget::Pair(3), score: 0.25, matched: false },
            RankedMatch { target: MatchTarget::AdHoc, score: -0.0, matched: false },
        ],
    };
    let shard_reqs = vec![
        ShardRequest::Hello,
        ShardRequest::QueryBatch(vec![
            WireQuery::Embedding(vec![0.5, -1.25, f32::MIN_POSITIVE]),
            WireQuery::Grams(vec![]),
        ]),
        ShardRequest::Insert { seq: 7, rows: vec![(9, "acme widget".into()), (10, String::new())] },
        ShardRequest::Ping,
        ShardRequest::Shutdown,
    ];
    let shard_resps = vec![
        ShardResponse::Hello {
            shard: 1,
            n_shards: 4,
            n_records: 1000,
            backend: "ngram".into(),
            gram_counts: vec![(3, 2), (u64::MAX, 1)],
        },
        ShardResponse::CandidatesBatch(vec![
            WireCandidates::Hits(vec![(0.125, 4), (2.5, 9)]),
            WireCandidates::Ids(vec![]),
        ]),
        ShardResponse::Inserted { n_records: 1001 },
        ShardResponse::Pong,
        ShardResponse::Shutdown,
        ShardResponse::Error("nope".into()),
    ];
    let router_reqs = vec![
        RouterRequest::Hello,
        RouterRequest::Resolve {
            query: ResolveQuery::Record("nike shoe".into()),
            intent: 0,
            top_k: 5,
        },
        RouterRequest::IngestBatch(vec!["x".into(), "y z".into()]),
        RouterRequest::Stats,
        RouterRequest::Shutdown,
    ];
    let router_resps = vec![
        RouterResponse::Hello { n_shards: 2, n_records: 30, n_intents: 3 },
        RouterResponse::Resolve(Ok(resp)),
        RouterResponse::IngestBatch(vec![WireIngestReport {
            record: 30,
            first_pair: 100,
            n_pairs: 4,
            n_suppressed: 26,
        }]),
        RouterResponse::Stats(vec![
            ("router.shard.failover".into(), 3),
            ("router.shard.timeout".into(), u64::MAX),
        ]),
        RouterResponse::Shutdown,
        RouterResponse::Error("bad frame".into()),
    ];
    (shard_reqs, shard_resps, router_reqs, router_resps)
}
