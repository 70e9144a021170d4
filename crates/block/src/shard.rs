//! [`ShardedBlocker`] — the candidate-generation tier partitioned across
//! N shards behind a deterministic title router.
//!
//! Each shard holds a [`BlockerState`] over only the records routed to it
//! (plus the member list mapping shard-local ids back to global record
//! ids), so per-shard indexes stay `n/N`-sized and candidate queries fan
//! out over shard-local state via `flexer-par`. The merge is exact, not
//! approximate — for any shard count the merged candidate set is
//! **identical** to what the monolithic blocker over the same records
//! would return:
//!
//! * **q-gram**: a record's shared-gram count with a query is computed
//!   entirely inside its own shard (gram sets are per-record), so the
//!   per-shard surviving sets are disjoint and their union is the global
//!   surviving set — *provided* the stop-gram decision is global. Shard
//!   buckets are `~1/N` of global buckets, so a per-shard `max_bucket`
//!   test would keep grams the monolithic blocker skips; the sharded
//!   blocker therefore maintains global gram counts and pre-filters the
//!   query's grams against them before fanning out
//!   ([`crate::NGramIndex::candidates_for_grams`] applies no local cap).
//! * **ANN**: every global top-k record is also in its own shard's top-k,
//!   so merging all shards' hits by `(distance, global id)` and truncating
//!   to `k` reproduces the monolithic `(distance, insertion-id)` ordering
//!   exactly — shard-local insertion order is global insertion order
//!   restricted to the shard.
//! * **Exhaustive**: stateless on both sides.
//!
//! That equivalence (tested here and property-tested in
//! `tests/proptests.rs`) is what lets the serving tier treat sharding as
//! a pure scale-out move: same answers, shard-local work.

use crate::ngram::gram_vec;
use crate::BlockerState;
use flexer_types::{
    CandidateGenConfig, RecordId, ShardConfig, ShardRouter, WireCandidates, WireQuery,
};
use std::collections::HashMap;

/// The **global** half of sharded blocking — everything a candidate query
/// needs that no shard can decide alone: the backend configuration, the
/// title router, the corpus-wide gram counts behind the stop-gram decision
/// and the number of records placed so far. Both deployments hold exactly
/// this state — [`ShardedBlocker`] beside its in-process shards, the
/// networked router beside its replica sets — and run these methods around
/// their own fan-out of [`local_answer`], so they answer bit-identically
/// by construction.
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

    /// Number of records placed across all shards.
    pub fn n_records(&self) -> usize {
        self.n_records
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
/// the shard-local ANN top-k as `(distance, global id)`. Runs identically
/// inside [`ShardedBlocker`] and inside a shard-server process. `None`
/// when the query does not match the shard's backend (a protocol error on
/// the networked path, unreachable in process).
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

/// Shard `shard` of [`ShardedBlocker::build`] alone — its global-id member
/// list and its blocker state — built by routing every title and indexing
/// only the ones it owns. A shard server boots from this; it equals
/// `(members()[shard], shards()[shard])` of the full build (tested).
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

/// Whole nanoseconds since `t0` (saturating into `u64`).
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// An incremental blocker partitioned across N shards (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedBlocker {
    /// The stop-gram counts and the router the shards are placed by.
    global: GlobalBlocking,
    /// Shard-local blocker state; local record ids are per-shard sequential.
    shards: Vec<BlockerState>,
    /// `members[s][local] = global` record id, ascending by construction.
    members: Vec<Vec<u32>>,
}

impl ShardedBlocker {
    /// Empty sharded blocker for a candidate-generation backend.
    pub fn new(gen: &CandidateGenConfig, config: ShardConfig) -> Self {
        let shards = (0..config.n_shards).map(|_| BlockerState::build(gen, [])).collect();
        Self {
            global: GlobalBlocking::new(gen, config, [], 0),
            shards,
            members: vec![Vec::new(); config.n_shards],
        }
    }

    /// Builds a sharded blocker by routing `titles` in record-id order —
    /// the partitioned equivalent of [`BlockerState::build`].
    pub fn build<'a>(
        gen: &CandidateGenConfig,
        config: ShardConfig,
        titles: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let mut out = Self::new(gen, config);
        for t in titles {
            out.insert(t);
        }
        out
    }

    /// Routes and indexes one record title; returns `(shard, global id)`.
    /// Global ids are assigned sequentially, so callers must insert in
    /// record-id order (the same contract as [`BlockerState::insert`]).
    pub fn insert(&mut self, title: &str) -> (usize, RecordId) {
        let (shard, global) = self.global.admit(title);
        self.shards[shard].insert(title);
        self.members[shard].push(global as u32);
        (shard, global)
    }

    /// Batched insert: places every title globally (ids, member lists and
    /// gram counts, serially in input order), then fans the shard-local
    /// index updates out across shards in parallel (shards are
    /// independent). The final state is identical to inserting the titles
    /// one by one.
    pub fn insert_batch(&mut self, titles: &[&str]) -> Vec<(usize, RecordId)> {
        let rec = flexer_obs::global();
        let t0 = std::time::Instant::now();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut out = Vec::with_capacity(titles.len());
        for (i, title) in titles.iter().enumerate() {
            let (shard, global) = self.global.admit(title);
            self.members[shard].push(global as u32);
            per_shard[shard].push(i);
            out.push((shard, global));
        }
        rec.record_span_ns("shard.ingest.merge", elapsed_ns(t0));
        // Group-by-shard, parallel shard-local ingest: each shard absorbs
        // its titles in input order, exactly as serial inserts would. Each
        // shard's wall time aggregates under `shard.ingest.local.<s>`, the
        // balance evidence (max/mean imbalance across shards).
        flexer_par::for_each_row_mut(&mut self.shards, 1, |s, shard| {
            let t0 = std::time::Instant::now();
            for &i in &per_shard[s] {
                shard[0].insert(titles[i]);
            }
            rec.record_span_ns_indexed("shard.ingest.local", s, elapsed_ns(t0));
        });
        out
    }

    /// Candidate record ids (global, ascending) for a new title: the fan
    /// out / merge of the per-shard candidate queries. `None` means "all
    /// records" (the exhaustive backend). The result is identical to the
    /// monolithic [`BlockerState::candidates`] over the same records, for
    /// any shard count.
    pub fn candidates(&self, title: &str) -> Option<Vec<RecordId>> {
        let rec = flexer_obs::global();
        let query = self.global.plan(title)?;
        let t0 = std::time::Instant::now();
        let answers = self.fan_out(&query);
        let t1 = std::time::Instant::now();
        let out = self.global.merge(answers);
        rec.record_span_ns("shard.fanout", (t1 - t0).as_nanos() as u64);
        rec.record_span_ns("shard.merge", elapsed_ns(t1));
        Some(out)
    }

    /// The per-shard halves of a planned query, fanned out via
    /// `flexer-par` — the in-process equivalent of the router's
    /// one-request-per-shard-server fan-out.
    fn fan_out(&self, query: &WireQuery) -> Vec<WireCandidates> {
        flexer_par::parallel_map(self.shards.len(), |s| {
            local_answer(query, &self.shards[s], &self.members[s])
                .expect("shard backend matches the planned query")
        })
    }

    /// Number of records indexed across all shards.
    pub fn len(&self) -> usize {
        self.global.n_records()
    }

    /// Whether no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard configuration.
    pub fn shard_config(&self) -> ShardConfig {
        self.global.shard_config()
    }

    /// The candidate-generation backend every shard runs.
    pub fn gen_config(&self) -> CandidateGenConfig {
        self.global.gen_config()
    }

    /// Per-shard blocker states.
    pub fn shards(&self) -> &[BlockerState] {
        &self.shards
    }

    /// Per-shard global-id member lists.
    pub fn members(&self) -> &[Vec<u32>] {
        &self.members
    }

    /// Records held by each shard — the balance diagnostic benches report.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
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

    fn assert_equivalent(gen: &CandidateGenConfig, queries: &[&str]) {
        let titles = titles();
        let mono = BlockerState::build(gen, titles.iter().map(|t| t.as_str()));
        for n_shards in [1usize, 2, 3, 7] {
            let sharded = ShardedBlocker::build(
                gen,
                ShardConfig::of(n_shards),
                titles.iter().map(|t| t.as_str()),
            );
            assert_eq!(sharded.len(), titles.len());
            for q in queries {
                let merged = sharded.candidates(q);
                assert_eq!(merged, mono.candidates(q), "{n_shards} shards, query {q:?}");
            }
            for s in 0..n_shards {
                let built = build_shard(
                    gen,
                    ShardConfig::of(n_shards),
                    titles.iter().map(|t| t.as_str()),
                    s,
                );
                assert_eq!(built, (sharded.members()[s].clone(), sharded.shards()[s].clone()));
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
        let sharded =
            ShardedBlocker::build(&gen, ShardConfig::of(7), shared.iter().map(|t| t.as_str()));
        let query = "common stem fresh";
        assert_eq!(sharded.candidates(query), mono.candidates(query));
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
        let sharded =
            ShardedBlocker::build(&gen, ShardConfig::of(3), titles.iter().map(|t| t.as_str()));
        assert_eq!(sharded.candidates("anything"), None);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), titles.len());
    }

    #[test]
    fn insert_batch_matches_serial_inserts() {
        let gen = CandidateGenConfig::NGram(NGramBlockerConfig::default());
        let titles = titles();
        let refs: Vec<&str> = titles.iter().map(|t| t.as_str()).collect();
        let mut serial = ShardedBlocker::new(&gen, ShardConfig::of(4));
        let serial_ids: Vec<(usize, RecordId)> = refs.iter().map(|t| serial.insert(t)).collect();
        let mut batched = ShardedBlocker::new(&gen, ShardConfig::of(4));
        let batch_ids = batched.insert_batch(&refs);
        assert_eq!(serial_ids, batch_ids);
        assert_eq!(serial, batched);
    }
}
