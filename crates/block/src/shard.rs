//! Sharded blocking — candidate generation partitioned across N shards
//! behind a deterministic title router, in two halves.
//!
//! Each shard holds a [`BlockerState`] over only the records routed to it
//! plus the member list mapping shard-local ids back to global record ids
//! ([`build_shard`]), and answers the shard-local half of a query
//! ([`local_answer`]). [`GlobalBlocking`] holds what no shard can decide
//! alone: it plans a query before the fan-out and merges the answers
//! after it. The merge is exact, not approximate — for any shard count the
//! merged candidate set is **identical** to what the monolithic blocker
//! over the same records would return:
//!
//! * **q-gram**: a record's shared-gram count with a query is computed
//!   entirely inside its own shard (gram sets are per-record), so the
//!   per-shard surviving sets are disjoint and their union is the global
//!   surviving set — *provided* the stop-gram decision is global. Shard
//!   buckets are `~1/N` of global buckets, so a per-shard `max_bucket`
//!   test would keep grams the monolithic blocker skips; the global half
//!   therefore keeps corpus-wide gram counts and pre-filters the query's
//!   grams against them before the fan-out
//!   ([`crate::NGramIndex::candidates_for_grams`] applies no local cap).
//! * **ANN**: every global top-k record is also in its own shard's top-k,
//!   so merging all shards' hits by `(distance, global id)` and truncating
//!   to `k` reproduces the monolithic `(distance, insertion-id)` ordering
//!   exactly — shard-local insertion order is global insertion order
//!   restricted to the shard.
//! * **Exhaustive**: stateless on both sides.
//!
//! That equivalence (tested here and property-tested in
//! `tests/proptests.rs`, over `build_shard` → `plan` → `local_answer` →
//! `merge`) is what lets the serving tier treat sharding as a pure
//! scale-out move: same answers, shard-local work.

use crate::ngram::gram_vec;
use crate::BlockerState;
use flexer_types::{
    CandidateGenConfig, RecordId, ShardConfig, ShardRouter, WireCandidates, WireQuery,
};
use std::collections::HashMap;

/// The **global** half of sharded blocking — everything a candidate query
/// needs that no shard can decide alone: the backend configuration, the
/// title router, the corpus-wide gram counts behind the stop-gram decision
/// and the number of records placed so far. The serving tier holds it
/// beside its shards — in process or behind shard servers, reached through
/// one fan-out either way — and runs these methods around that fan-out of
/// [`local_answer`], so every deployment answers bit-identically by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalBlocking {
    gen: CandidateGenConfig,
    router: ShardRouter,
    /// Global gram → total bucket size across shards (q-gram backend only):
    /// the corpus-level stop-gram signal per-shard buckets cannot provide.
    gram_counts: HashMap<u64, u32>,
    n_records: usize,
}

impl GlobalBlocking {
    /// Global state over `n_records` records already placed on their
    /// shards. `bucket_sizes` lists every shard's `(gram, bucket size)`
    /// pairs: buckets partition the corpus by record, so summed across
    /// shards they are exactly the global gram counts.
    pub fn new(
        gen: &CandidateGenConfig,
        config: ShardConfig,
        bucket_sizes: impl IntoIterator<Item = (u64, u32)>,
        n_records: usize,
    ) -> Self {
        let mut gram_counts: HashMap<u64, u32> = HashMap::new();
        for (g, n) in bucket_sizes {
            *gram_counts.entry(g).or_insert(0) += n;
        }
        Self { gen: *gen, router: ShardRouter::new(config), gram_counts, n_records }
    }

    /// Plans the shard-local half of a candidate query: the
    /// stop-gram-filtered gram list (q-gram) or the embedded query vector
    /// (ANN). `None` means no fan-out is needed — the exhaustive backend
    /// pairs against every record without consulting shards.
    pub fn plan(&self, title: &str) -> Option<WireQuery> {
        match &self.gen {
            CandidateGenConfig::Exhaustive => None,
            CandidateGenConfig::NGram(c) => {
                let kept: Vec<u64> = gram_vec(title, c.q)
                    .into_iter()
                    .filter(|g| {
                        self.gram_counts.get(g).map_or(true, |&n| n as usize <= c.max_bucket)
                    })
                    .collect();
                Some(WireQuery::Grams(kept))
            }
            CandidateGenConfig::Ann(c) => {
                Some(WireQuery::Embedding(crate::ann::embed_title(title, c)))
            }
        }
    }

    /// Merges per-shard answers back into the global candidate set,
    /// exactly as the monolithic blocker would have produced it: q-gram
    /// survivor sets are disjoint across shards, so their union sorted
    /// ascending is the global set; ANN hits merge by `(distance, global
    /// id)` — the monolithic insertion-id ordering — and truncate to the
    /// backend's `k`. Non-finite distances and repeated ids (impossible
    /// locally, where shard answers are disjoint; conceivable from a corrupt
    /// peer) are dropped rather than trusted into the result.
    pub fn merge(&self, answers: impl IntoIterator<Item = WireCandidates>) -> Vec<RecordId> {
        let mut ids: Vec<u32> = Vec::new();
        let mut hits: Vec<(f32, u32)> = Vec::new();
        for answer in answers {
            match answer {
                WireCandidates::Ids(v) => ids.extend(v),
                WireCandidates::Hits(v) => hits.extend(v),
            }
        }
        if let CandidateGenConfig::Ann(c) = &self.gen {
            hits.retain(|(d, _)| d.is_finite());
            hits.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("finite after retain").then_with(|| a.1.cmp(&b.1))
            });
            hits.truncate(c.k);
            ids.extend(hits.into_iter().map(|(_, g)| g));
        }
        let mut out: Vec<RecordId> = ids.into_iter().map(|g| g as RecordId).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether one shard's answer may enter [`Self::merge`]: the backend's
    /// shape (ids under q-gram, at most `k` hits under ANN), every id a
    /// record placed so far. A peer's answer is outside input; one that
    /// fails this is as unusable as no answer.
    pub fn accepts(&self, answer: &WireCandidates) -> bool {
        let placed = |g: u32| (g as usize) < self.n_records;
        match (&self.gen, answer) {
            (CandidateGenConfig::NGram(_), WireCandidates::Ids(ids)) => {
                ids.iter().all(|&g| placed(g))
            }
            (CandidateGenConfig::Ann(c), WireCandidates::Hits(hits)) => {
                hits.len() <= c.k && hits.iter().all(|&(_, g)| placed(g))
            }
            _ => false,
        }
    }

    /// Places one more record: counts its grams into the stop-gram state
    /// and returns `(owning shard, global id)`. Global ids are assigned
    /// sequentially, so callers must admit in record-id order.
    pub fn admit(&mut self, title: &str) -> (usize, RecordId) {
        if let CandidateGenConfig::NGram(c) = &self.gen {
            for g in gram_vec(title, c.q) {
                *self.gram_counts.entry(g).or_insert(0) += 1;
            }
        }
        self.n_records += 1;
        (self.router.route(title), self.n_records - 1)
    }

    /// The shard configuration.
    pub fn shard_config(&self) -> ShardConfig {
        self.router.config()
    }

    /// The candidate-generation backend every shard runs.
    pub fn gen_config(&self) -> CandidateGenConfig {
        self.gen
    }
}

/// One shard's answer to a planned query, over its own blocker state and
/// global-id member list: q-gram shared-count survivors as global ids, or
/// the shard-local ANN top-k as `(distance, global id)`. Every shard runs
/// it, in process or in a shard-server process. `None` when the query does
/// not match the shard's backend.
pub fn local_answer(
    query: &WireQuery,
    state: &BlockerState,
    members: &[u32],
) -> Option<WireCandidates> {
    match (query, state) {
        (WireQuery::Grams(kept), BlockerState::NGram(ix)) => Some(WireCandidates::Ids(
            ix.candidates_for_grams(kept).into_iter().map(|l| members[l]).collect(),
        )),
        (WireQuery::Embedding(q), BlockerState::Ann(ix)) => Some(WireCandidates::Hits(
            ix.nearest(q).into_iter().map(|n| (n.dist, members[n.id])).collect(),
        )),
        _ => None,
    }
}

/// Shard `shard` alone — its global-id member list and its blocker state —
/// built by routing every title and indexing only the ones it owns. Every
/// shard of the serving tier boots from this.
pub fn build_shard<'a>(
    gen: &CandidateGenConfig,
    config: ShardConfig,
    titles: impl IntoIterator<Item = &'a str>,
    shard: usize,
) -> (Vec<u32>, BlockerState) {
    let router = ShardRouter::new(config);
    let mut members = Vec::new();
    let mut state = BlockerState::build(gen, []);
    for (global, title) in titles.into_iter().enumerate() {
        if router.route(title) == shard {
            state.insert(title);
            members.push(global as u32);
        }
    }
    (members, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_types::{AnnBlockerConfig, NGramBlockerConfig};

    fn titles() -> Vec<String> {
        (0..40)
            .map(|i| match i % 4 {
                0 => format!("nike lunar force model {i}"),
                1 => format!("adidas superstar mesh {i}"),
                2 => format!("philips sonicare head {i}"),
                _ => format!("canon eos camera body {i}"),
            })
            .collect()
    }

    /// The sharded answer composed from its pieces: every shard built
    /// alone, the global half from their bucket sizes, then plan →
    /// local answers → merge.
    fn sharded(
        gen: &CandidateGenConfig,
        n_shards: usize,
        titles: &[String],
        query: &str,
    ) -> Option<Vec<RecordId>> {
        let config = ShardConfig::of(n_shards);
        let shards: Vec<_> = (0..n_shards)
            .map(|s| build_shard(gen, config, titles.iter().map(String::as_str), s))
            .collect();
        let sizes = shards.iter().flat_map(|(_, state)| state.bucket_sizes());
        let global = GlobalBlocking::new(gen, config, sizes, titles.len());
        let planned = global.plan(query)?;
        Some(
            global.merge(shards.iter().map(|(m, state)| local_answer(&planned, state, m).unwrap())),
        )
    }

    fn assert_equivalent(gen: &CandidateGenConfig, queries: &[&str]) {
        let titles = titles();
        let mono = BlockerState::build(gen, titles.iter().map(|t| t.as_str()));
        for n_shards in [1usize, 2, 3, 7] {
            for q in queries {
                let merged = sharded(gen, n_shards, &titles, q);
                assert_eq!(merged, mono.candidates(q), "{n_shards} shards, query {q:?}");
            }
        }
    }

    #[test]
    fn ngram_sharding_is_exactly_the_monolithic_blocker() {
        assert_equivalent(
            &CandidateGenConfig::NGram(NGramBlockerConfig::default()),
            &["nike lunar force", "sonicare replacement head", "zzzz qqqq", ""],
        );
    }

    #[test]
    fn ngram_stop_gram_decision_is_global() {
        // A gram shared by every title: global bucket (40) blows a cap of
        // 8, but each of 7 shards holds ≤ 8 — a per-shard cap would keep
        // it and over-generate candidates.
        let gen =
            CandidateGenConfig::NGram(NGramBlockerConfig { q: 4, min_shared: 1, max_bucket: 8 });
        let shared: Vec<String> = (0..40).map(|i| format!("common stem {i}")).collect();
        let mono = BlockerState::build(&gen, shared.iter().map(|t| t.as_str()));
        let query = "common stem fresh";
        assert_eq!(sharded(&gen, 7, &shared, query), mono.candidates(query));
    }

    #[test]
    fn ann_sharding_is_exactly_the_monolithic_blocker() {
        assert_equivalent(
            &CandidateGenConfig::Ann(AnnBlockerConfig { q: 3, dim: 32, k: 5 }),
            &["nike lunar force", "canon camera", "unrelated zzzz"],
        );
    }

    #[test]
    fn exhaustive_sharding_is_stateless() {
        let gen = CandidateGenConfig::Exhaustive;
        let titles = titles();
        assert_eq!(sharded(&gen, 3, &titles, "anything"), None);
        let refs = titles.iter().map(String::as_str);
        let held = (0..3).map(|s| build_shard(&gen, ShardConfig::of(3), refs.clone(), s).0.len());
        assert_eq!(held.sum::<usize>(), titles.len());
    }
}
