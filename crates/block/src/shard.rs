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
//!   ([`NGramIndex::candidates_for_grams`] applies no local cap).
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
use crate::{AnnRecordIndex, BlockerState, NGramIndex};
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

    /// The shard a title routes to.
    pub fn shard_of(&self, title: &str) -> usize {
        self.router.route(title)
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

/// Whole nanoseconds since `t0` (saturating into `u64`).
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// An incremental blocker partitioned across N shards (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedBlocker {
    /// Derived state, never serialized: `from_parts` and `truncated`
    /// rebuild it from the shards.
    global: GlobalBlocking,
    /// Shard-local blocker state; local record ids are per-shard sequential.
    shards: Vec<BlockerState>,
    /// `members[s][local] = global` record id, ascending by construction.
    members: Vec<Vec<u32>>,
}

/// Every shard's `(gram, bucket size)` pairs — what [`GlobalBlocking::new`]
/// sums into the global gram counts.
fn bucket_sizes(shards: &[BlockerState]) -> impl Iterator<Item = (u64, u32)> + '_ {
    shards.iter().flat_map(BlockerState::bucket_sizes)
}

impl ShardedBlocker {
    /// Empty sharded blocker for a candidate-generation backend.
    pub fn new(gen: &CandidateGenConfig, config: ShardConfig) -> Self {
        let shards = (0..config.n_shards)
            .map(|_| BlockerState::build(gen, std::iter::empty::<&str>()))
            .collect();
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

    /// Shard-local candidate work for a title, without the merge: the
    /// number of candidates each shard's query produces. For q-gram
    /// backends the per-shard surviving sets are disjoint, so the counts
    /// sum to the global candidate count; for ANN they are the merged
    /// top-k attributed back to the owning shards. `None` for the
    /// exhaustive backend (shards hold no state).
    pub fn local_candidate_counts(&self, title: &str) -> Option<Vec<usize>> {
        let query = self.global.plan(title)?;
        let answers = self.fan_out(&query);
        match self.global.gen_config() {
            CandidateGenConfig::Exhaustive => None,
            CandidateGenConfig::NGram(_) => Some(
                answers
                    .iter()
                    .map(|a| match a {
                        WireCandidates::Ids(v) => v.len(),
                        WireCandidates::Hits(v) => v.len(),
                    })
                    .collect(),
            ),
            CandidateGenConfig::Ann(_) => {
                // Attribute each record of the merged top-k back to its
                // owning shard (every global id lives on exactly one).
                let merged = self.global.merge(answers.iter().cloned());
                Some(
                    answers
                        .iter()
                        .map(|a| match a {
                            WireCandidates::Hits(v) => v
                                .iter()
                                .filter(|(_, g)| merged.binary_search(&(*g as RecordId)).is_ok())
                                .count(),
                            WireCandidates::Ids(v) => v.len(),
                        })
                        .collect(),
                )
            }
        }
    }

    /// A copy truncated back to the first `n_records` global records — the
    /// exact inverse of the inserts past that watermark, shard by shard.
    pub fn truncated(&self, n_records: usize) -> Self {
        let n = n_records.min(self.len());
        let limit = n as u32;
        let members: Vec<Vec<u32>> =
            self.members.iter().map(|m| m[..m.partition_point(|&g| g < limit)].to_vec()).collect();
        let shards: Vec<BlockerState> =
            self.shards.iter().zip(&members).map(|(s, m)| s.truncated(m.len())).collect();
        let global =
            GlobalBlocking::new(&self.gen_config(), self.shard_config(), bucket_sizes(&shards), n);
        Self { global, shards, members }
    }

    /// Reassembles the monolithic [`BlockerState`] the shards partition —
    /// equal to building the unsharded state over the same titles in
    /// global id order (tested). Used when an unsharded service loads a
    /// sharded snapshot.
    pub fn merged(&self) -> BlockerState {
        match &self.gen_config() {
            CandidateGenConfig::Exhaustive => BlockerState::Exhaustive,
            CandidateGenConfig::NGram(c) => {
                let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
                for (s, shard) in self.shards.iter().enumerate() {
                    let BlockerState::NGram(ix) = shard else {
                        unreachable!("q-gram config implies q-gram shards")
                    };
                    for (g, ids) in ix.sorted_buckets() {
                        buckets
                            .entry(g)
                            .or_default()
                            .extend(ids.iter().map(|&l| self.members[s][l as usize]));
                    }
                }
                let mut parts: Vec<(u64, Vec<u32>)> = buckets
                    .into_iter()
                    .map(|(g, mut ids)| {
                        ids.sort_unstable();
                        (g, ids)
                    })
                    .collect();
                parts.sort_unstable_by_key(|&(g, _)| g);
                BlockerState::NGram(
                    NGramIndex::from_parts(*c, self.len(), parts)
                        .expect("merged shards form a valid index"),
                )
            }
            CandidateGenConfig::Ann(c) => {
                let mut data = vec![0.0f32; self.len() * c.dim];
                for (s, shard) in self.shards.iter().enumerate() {
                    let BlockerState::Ann(ix) = shard else {
                        unreachable!("ANN config implies ANN shards")
                    };
                    for (local, &global) in self.members[s].iter().enumerate() {
                        let g = global as usize;
                        data[g * c.dim..(g + 1) * c.dim]
                            .copy_from_slice(&ix.data()[local * c.dim..(local + 1) * c.dim]);
                    }
                }
                BlockerState::Ann(
                    AnnRecordIndex::from_parts(*c, data).expect("merged shards form a valid index"),
                )
            }
        }
    }

    /// Reassembles a sharded blocker from serialized parts, validating
    /// that the members are a partition of `0..n_records` and that every
    /// shard runs the same backend. (Routing consistency cannot be checked
    /// here — titles are not part of the state — so decoders trust the
    /// writer's routing, exactly as the monolithic codec trusts insertion
    /// order.)
    pub fn from_parts(
        config: ShardConfig,
        shards: Vec<BlockerState>,
        members: Vec<Vec<u32>>,
        n_records: usize,
    ) -> Result<Self, String> {
        config.validate()?;
        if shards.len() != config.n_shards {
            return Err(format!(
                "{} shard states for a {}-shard config",
                shards.len(),
                config.n_shards
            ));
        }
        if members.len() != shards.len() {
            return Err(format!("{} member lists for {} shards", members.len(), shards.len()));
        }
        let gen = shards[0].gen_config();
        for (s, state) in shards.iter().enumerate() {
            if state.gen_config() != gen {
                return Err(format!("shard {s} runs a different backend than shard 0"));
            }
            if !matches!(gen, CandidateGenConfig::Exhaustive) && state.len() != members[s].len() {
                return Err(format!(
                    "shard {s} indexes {} records but lists {} members",
                    state.len(),
                    members[s].len()
                ));
            }
            if !members[s].windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("shard {s} member ids are not strictly ascending"));
            }
        }
        let mut all: Vec<u32> = members.iter().flatten().copied().collect();
        all.sort_unstable();
        if all.len() != n_records || all.iter().enumerate().any(|(i, &g)| g as usize != i) {
            return Err(format!("shard members do not partition 0..{n_records} exactly"));
        }
        let global = GlobalBlocking::new(&gen, config, bucket_sizes(&shards), n_records);
        Ok(Self { global, shards, members })
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

    /// The shard a title routes to.
    pub fn shard_of(&self, title: &str) -> usize {
        self.global.shard_of(title)
    }

    /// Per-shard blocker states (serialization / inspection).
    pub fn shards(&self) -> &[BlockerState] {
        &self.shards
    }

    /// Per-shard global-id member lists (serialization / inspection).
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
                let counts = sharded.local_candidate_counts(q);
                assert_eq!(
                    counts.as_ref().map(|c| c.iter().sum::<usize>()),
                    merged.as_ref().map(Vec::len),
                    "{n_shards} shards, query {q:?}: local counts must sum to the merge"
                );
                assert_eq!(counts.map(|c| c.len()), merged.map(|_| n_shards));
            }
            assert_eq!(sharded.merged(), mono, "{n_shards} shards: merged state");
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
        assert_eq!(sharded.merged(), BlockerState::Exhaustive);
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

    #[test]
    fn truncation_is_exact_inverse_of_inserts() {
        let gen = CandidateGenConfig::NGram(NGramBlockerConfig::default());
        let titles = titles();
        let mut sharded = ShardedBlocker::build(
            &gen,
            ShardConfig::of(3),
            titles[..25].iter().map(|t| t.as_str()),
        );
        let watermark = sharded.clone();
        for t in &titles[25..] {
            sharded.insert(t);
        }
        assert_eq!(sharded.truncated(25), watermark);
        assert_eq!(sharded.truncated(100), sharded);
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let gen = CandidateGenConfig::NGram(NGramBlockerConfig::default());
        let titles = titles();
        let sharded =
            ShardedBlocker::build(&gen, ShardConfig::of(3), titles.iter().map(|t| t.as_str()));
        let rebuilt = ShardedBlocker::from_parts(
            sharded.shard_config(),
            sharded.shards().to_vec(),
            sharded.members().to_vec(),
            sharded.len(),
        )
        .unwrap();
        assert_eq!(rebuilt, sharded);

        // Members failing to partition 0..n are rejected.
        let mut bad_members = sharded.members().to_vec();
        bad_members[0].pop();
        assert!(ShardedBlocker::from_parts(
            sharded.shard_config(),
            sharded.shards().to_vec(),
            bad_members,
            sharded.len(),
        )
        .is_err());
        // Shard-count mismatch is rejected.
        assert!(ShardedBlocker::from_parts(
            ShardConfig::of(2),
            sharded.shards().to_vec(),
            sharded.members().to_vec(),
            sharded.len(),
        )
        .is_err());
    }
}
