//! [`Service`] — online multi-intent resolution over a frozen model
//! snapshot, generic over where its candidates come from
//! ([`BlockingTier`]). [`ResolutionService`] is the instantiation with one
//! resident blocker; the other tier, `crate::replica::Sharded`, serves both
//! `crate::shard` (in process) and `crate::router` (over TCP).
//!
//! # Two serving paths
//!
//! * **Transductive (exact).** At load, the service replays each intent's
//!   frozen GNN over the snapshot's multiplex graph once — the "warm
//!   forward". Because every kernel is deterministic, the recomputed
//!   scores are bit-identical to the batch model's, and corpus-pair
//!   queries ([`ResolveQuery::CorpusPair`]) are answered from this cache
//!   exactly: a reloaded service reproduces the batch predictions to the
//!   bit (verified at load; the service refuses inconsistent snapshots).
//!
//! * **Inductive (incremental).** New records and ad-hoc pairs are
//!   embedded per intent by the snapshot's matchers, localized via the
//!   per-layer ANN indexes, and scored by
//!   [`GnnModel::forward_inductive`](flexer_graph::GnnModel::forward_inductive)
//!   over their k-NN neighbourhood, whose states are *pinned* from the
//!   warm forward. Edges point into a node and k-NN wiring is fixed from
//!   the initial representations (§4.1.3), so inserting a node never
//!   perturbs stored predictions — ingest is strictly additive.
//!
//! [`Service::ingest`] makes the inductive path durable: the new
//! record's candidate pairs join the ANN indexes (incremental
//! [`AnyIndex::add`]), their per-depth node states extend the pinned state
//! matrices, and their scores become servable corpus pairs.
//!
//! # The hot-pair cache
//!
//! A pair's inductive inputs — its per-intent embedding and its k nearest
//! served pairs in every layer — depend only on the two titles and, for
//! the neighbour lists, on the index rows present. Both sit in one LRU
//! entry. The lists carry the pair-index length they were computed at:
//! indexes only grow, so a list is never wrong, only *behind*, and a
//! lookup either reuses it, or resumes each layer's scan over the rows
//! appended since ([`VectorIndex::search_batch_since`]) — bit-identical to
//! searching from scratch, which is what a cache miss does.
//!
//! The entry also memoizes the pair's P scores, one per intent, each
//! marked "not scored yet" until a forward under that intent fills it. The
//! states a pair's nodes read are pinned and its edges point into it, so
//! the scores are a pure function of the embedding and the trimmed lists:
//! a resume that moves any layer's list clears the memo, one that brings
//! every list back identical keeps it. A resolve forwards only the
//! candidates whose memo lacks a requested intent (`serve.forward.rows`
//! counts their nodes, `serve.forward.memo_hits` the rest), so a hot
//! resolve runs no GNN. The forward fills the slots in place, in the block
//! the cache entry shares, so a memo that grows costs no copy and no
//! write-back (the router's one-intent calls grow it P times per title).
//!
//! What a hot resolve still does is bookkeeping over its candidates, and
//! each stage pays for the answer rather than for a general tool:
//!
//! * *Keys hashed once.* An entry's key mixes two 128-bit title digests,
//!   and each digest is a SipHash under random keys drawn once per service
//!   (`Sides` carries them, so a stored record, a query title and a
//!   title-pair query digest alike). The key is thus already unpredictable
//!   hash output, and the cache map takes its bits as they are instead of
//!   SipHashing them again ([`LruCache::with_hasher`]). Unkeyed digests
//!   would let whoever picks titles pick colliding map slots.
//! * *Ranking by selection.* Only the top `k` of ≈120 candidates are
//!   answered, so each candidate packs into one `u64` (complemented score
//!   bits over its list position), a selection moves the `k` best to the
//!   front and only they are sorted: the (score desc, record id asc) order
//!   of a full sort, bit for bit (`rank`).
//!
//! Ingest bypasses the cache (its keys are one-shot), and the
//! per-candidate reference kernel this path is tested against
//! (`service/reference.rs`, compiled into test builds only) localizes
//! uncached and never reads the memo, as the oracle.
//!
//! # The side store
//!
//! Half of a candidate pair is a stored record, and everything the pair
//! featurizer reads of it is a function of its title: the service keeps
//! that — summarized tokens, every hashed slot the record can contribute
//! (`flexer_matcher::SideStore`), a 128-bit title digest for the cache key
//! — beside `records`, filled at build, appended at ingest, rebuilt on
//! load. A cache miss then costs what depends on the pair; `obs_snapshot`
//! exports the store's size as gauge `serve.sides.bytes`.
//!
//! # Candidate generation
//!
//! Resolution has one shape — title → candidates → score → rank —
//! wherever the candidates come from, so the service is written once over
//! a [`BlockingTier`]: the snapshot's incremental blocker kept resident
//! ([`BlockerState`]), or the same blocker partitioned over shards reached
//! through one fan-out — in-process shards or shard servers behind the
//! router. `ingest()` and record-level
//! `resolve()` pair a new title only against the tier's *blocked
//! candidates* — O(candidates) instead of O(records) — and the tier
//! absorbs every ingested title. Blocking only selects which pairs are
//! scored: a surviving pair's score is bit-identical to what the
//! exhaustive path would produce, because both paths score against the
//! same pre-ingest state, and every tier returns the same candidate set.
//! A snapshot whose blocker is [`flexer_block::BlockerState::Exhaustive`]
//! serves the all-pairs parity baseline.

use crate::arena::PinnedArena;
use crate::blocking::BlockingTier;
use crate::cache::LruCache;
use crate::error::ServeError;
use crate::metrics::{self, Counters};
use flexer_ann::{AnyIndex, Neighbor, VectorIndex};
use flexer_block::BlockerState;
use flexer_graph::{BatchInductiveTrace, BatchPass, GnnModel, NeighborArena, RowSource};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{PairFeaturizer, PairScratch, SideStore};
use flexer_nn::activation::is_match;
use flexer_nn::{Matrix, SparseMatrix};
use flexer_obs::{MetricsSnapshot, Recorder};
use flexer_store::ModelSnapshot;
use flexer_types::{
    DenseRecordId, IntentId, MatchTarget, RankedMatch, ResolveQuery, ResolveResponse,
};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::path::Path;
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tunables of the serving tier.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Capacity of the hot-pair LRU cache (embedding, neighbour lists and
    /// memoized scores); 0 caches, so memoizes, nothing.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { cache_capacity: 1024 }
    }
}

/// What one [`Service::ingest`] call added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Id of the newly ingested record.
    pub record: usize,
    /// Pair id of the first candidate pair created for it.
    pub first_pair: usize,
    /// Number of candidate pairs created (one per blocked candidate; one
    /// per pre-existing record under the exhaustive backend).
    pub n_pairs: usize,
    /// Pre-existing records the blocker pruned (0 when exhaustive).
    pub n_suppressed: usize,
}

/// Per-intent pair embedding of one (a, b) title pair: a `P × dim` matrix
/// whose row `p` is the intent-`p` representation — one allocation per
/// pair, shared by reference through the LRU cache.
type PairEmbedding = Matrix;

/// Pads a layer's neighbour list that holds fewer pair ids than its stride
/// (an index with fewer than `k` rows).
const NO_NEIGHBOR: u32 = u32::MAX;

/// A memo slot whose intent is not scored yet: `f32::NAN`'s bits (a NaN
/// score is never taken from the memo, so it is forwarded again).
const UNSCORED: u32 = 0x7FC0_0000;

/// The hot-pair cache's value: a pair's embedding, where it sits in every
/// intent layer, and what each intent's GNN scored it over those lists —
/// everything a repeated pair would recompute.
///
/// Neighbours are wired from the initial representations only (§4.1.3) and
/// the indexes are append-only, so the lists are a pure function of the
/// embedding and the index rows present: nothing invalidates them, rows
/// appended past `watermark` can only displace entries, and resuming each
/// layer's scan from `watermark` ([`VectorIndex::search_batch_since`])
/// brings them up to date bit-identically to a search from scratch.
///
/// Edges point into the pair's nodes and the served states they read are
/// pinned (index rows at depth 0, pinned arena rows below), so a score is a
/// pure function of the embedding and the trimmed lists: the memo holds
/// while the lists do. [`Service::localize`] keeps the block, memo and all,
/// when a resume brings every list back identical, and makes a new one with
/// an empty memo when a resume moves any layer's list.
#[derive(Debug, Clone)]
struct LocatedPair {
    emb: Arc<PairEmbedding>,
    /// Per intent layer the ids of the k nearest served pairs in rank
    /// order: P lists of one stride (`min(k, watermark)`), back to back,
    /// short ones padded with [`NO_NEIGHBOR`]; then the memo, P slots, one
    /// per intent: the bits of the match likelihood that intent's GNN gives
    /// the pair over these lists, or [`UNSCORED`]. Empty until the pair is
    /// first localized. One block, shared with the cache entry: the lists
    /// never change once made, and a forward fills memo slots in place, so
    /// a memo that grows is neither copied nor re-inserted. Every writer
    /// of a slot writes the same bits, so the slots are relaxed atomics.
    /// Distances are not kept (they would double the entry): a resume
    /// recomputes its k prior distances with the exact fold every scan
    /// kernel reproduces ([`flexer_ann::l2_sq`]). Never serialized: the
    /// cache is serving state.
    hood: Arc<[AtomicU32]>,
    /// Pair-index length `hood` was computed at.
    watermark: usize,
}

impl LocatedPair {
    /// Layer `q` of `p_layers`' list, padding trimmed.
    fn layer(&self, q: usize, p_layers: usize) -> impl Iterator<Item = u32> + '_ {
        let stride = self.hood.len().saturating_sub(p_layers) / p_layers;
        let list = self.hood[q * stride..(q + 1) * stride].iter().map(|id| id.load(Relaxed));
        list.take_while(|&id| id != NO_NEIGHBOR)
    }

    /// Intent `p`'s memoized score, if it was scored over these lists.
    fn score(&self, p: IntentId, p_layers: usize) -> Option<f32> {
        let at = (self.hood.len() + p).checked_sub(p_layers)?;
        let score = f32::from_bits(self.hood[at].load(Relaxed));
        (!score.is_nan()).then_some(score)
    }

    /// Memoizes intent `p`'s score of a localized pair.
    fn memoize(&self, p: IntentId, p_layers: usize, score: f32) {
        self.hood[self.hood.len() - p_layers + p].store(score.to_bits(), Relaxed);
    }
}

/// One candidate batch between its cache lookup and its write-back.
struct PairBatch {
    pairs: Vec<LocatedPair>,
    /// One cache key per pair, hashed once for the lookup and the
    /// write-back; empty when the batch bypasses the cache (ingest).
    keys: Vec<PairKey>,
    /// The lookup's misses, ascending: no cache entry yet.
    missed: Vec<usize>,
    /// The lookup's hits whose lists [`Service::localize`] brought
    /// forward: their cache entries are behind.
    relocated: Vec<usize>,
}

/// Inductive scores of one candidate batch, in the shape the kernel that
/// scored it produces them.
enum ScoredBatch {
    /// Per-candidate, per-intent `(score, trace)` pairs — the reference
    /// kernel of test builds.
    #[cfg(test)]
    Reference(Vec<Vec<(f32, flexer_graph::InductiveTrace)>>),
    /// One batched trace per intent, all candidates at once — what the
    /// service ships.
    Batched(Vec<BatchInductiveTrace>),
}

/// Phase-1 output of one ingested title: per-candidate embeddings and the
/// batch's inductive scores.
type ScoredCandidates = (Vec<Arc<PairEmbedding>>, ScoredBatch);

/// Per-thread scratch of the batched scoring path, reused across queries:
/// the flat neighbour-id arena, its offsets, and the stacked candidate
/// feature buffer. Keeping these warm removes every per-query growth
/// allocation from the steady-state hot path.
#[derive(Default)]
struct BatchScratch {
    ids: Vec<u32>,
    offsets: Vec<usize>,
    features: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// The online resolution service over blocking tier `B`.
#[derive(Debug)]
pub struct Service<B> {
    snapshot: ModelSnapshot,
    config: ServeConfig,
    /// Score through the per-candidate reference kernel; set by
    /// `ResolutionService::reference` only.
    #[cfg(test)]
    reference_kernel: bool,
    /// Pairs the loaded snapshot was trained on (ingested pairs live past
    /// this watermark).
    n_train_pairs: usize,
    /// Records the loaded snapshot shipped (ingested records live past
    /// this watermark).
    n_train_records: usize,
    /// Serving-tier corpus: snapshot records plus everything ingested.
    records: Vec<String>,
    /// What a pair embedding reads of each record in `records`, derived
    /// from its title when it arrives (never serialized).
    sides: Sides,
    /// The candidate-generation tier over `records`; grows with ingest.
    pub(crate) tier: B,
    /// Serving-tier candidate pairs (dense record-id refs), pair-id order.
    pairs: Vec<(DenseRecordId, DenseRecordId)>,
    /// Per intent layer: ANN index over initial representations; grows
    /// with ingest. Its id-major `data()` buffer doubles as the depth-0
    /// row source of the batched inductive forward.
    indexes: Vec<AnyIndex>,
    /// `pinned[p]`: under intent `p`'s GNN, the flat per-depth states of
    /// every served pair node — the state *entering* GNN layer `j + 1`
    /// (i.e. the output of layer `j`) lives at arena depth `j`, keyed by
    /// dense pair id; grows with ingest. Depth-0 inputs are the initial
    /// representations held by `indexes`.
    pinned: Vec<PinnedArena>,
    /// `scores[p][pair]`: match likelihood of every served pair under
    /// intent `p`; the transductive warm-forward values for training
    /// pairs, inductive values for ingested ones.
    scores: Vec<Vec<f32>>,
    cache: Mutex<PairCache>,
    /// Everything this service times and counts: the end-to-end `resolve`
    /// span, its stages, and the counters below. Its own, not the
    /// process-global recorder, so two services in one process count apart.
    recorder: Recorder,
    counters: Counters,
}

/// The service over one resident blocker — the unsharded deployment.
pub type ResolutionService = Service<BlockerState>;

impl ResolutionService {
    /// Builds a service from a validated snapshot: runs the warm forward
    /// per intent, pins the per-depth node states, and verifies the
    /// recomputed scores reproduce the snapshot's batch scores exactly.
    ///
    /// A sharded snapshot is served from its one resident blocker here
    /// (its shards would hold the same records and answer the same — see
    /// `flexer_block::shard`); its shard layout is kept for `to_snapshot`.
    /// Use `ShardedResolutionService` to serve partitioned.
    pub fn new(snapshot: ModelSnapshot, config: ServeConfig) -> Result<Self, ServeError> {
        Self::build(snapshot, config, |blocker, _, _| Ok(blocker))
    }

    /// Loads a `.flexer` snapshot file and builds the service over it.
    pub fn load(path: impl AsRef<Path>, config: ServeConfig) -> Result<Self, ServeError> {
        Self::new(ModelSnapshot::load(path)?, config)
    }

    /// Reassembles the complete training-time snapshot. Ingested
    /// records/pairs are serving-tier state and are *not* part of it
    /// (index and blocker contents are truncated back to the training
    /// watermarks), so the result is always byte-identical to the
    /// snapshot loaded.
    pub fn to_snapshot(&self) -> ModelSnapshot {
        let mut snapshot = self.export_model();
        snapshot.blocker = self.tier.truncated(self.n_train_records);
        snapshot
    }

    /// Persists the training-time snapshot (see [`Self::to_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        Ok(self.to_snapshot().save(path)?)
    }
}

impl<B: BlockingTier> Service<B> {
    /// The constructor behind every deployment: validation and the warm
    /// forward are the same everywhere; `unpack` makes the blocking tier
    /// from the blocker the snapshot decoded, the corpus titles and the
    /// service's recorder (a tier that counts registers its counters
    /// there).
    pub(crate) fn build(
        mut snapshot: ModelSnapshot,
        config: ServeConfig,
        unpack: impl FnOnce(BlockerState, &[String], &Recorder) -> Result<B, ServeError>,
    ) -> Result<Self, ServeError> {
        snapshot.validate()?;
        let p_intents = snapshot.n_intents();
        let n_pairs = snapshot.n_pairs();
        let graph = &snapshot.graph;
        for (p, matcher) in snapshot.matchers.iter().enumerate() {
            if matcher.embedding_dim() != graph.dim {
                return Err(ServeError::InconsistentSnapshot(format!(
                    "matcher {p} embeds into {} dims, graph features have {}",
                    matcher.embedding_dim(),
                    graph.dim
                )));
            }
        }

        let mut pinned = Vec::with_capacity(p_intents);
        let mut scores = Vec::with_capacity(p_intents);
        for (p, trained) in snapshot.trained.iter().enumerate() {
            let trace = trained.model.forward(graph);
            // The warm forward must reproduce the batch scores bit-for-bit
            // — the end-to-end serving invariant. A mismatch means the
            // snapshot's graph and weights do not belong together.
            let recomputed = trained.model.intent_scores(graph, &trace, p);
            if recomputed != trained.scores {
                return Err(ServeError::InconsistentSnapshot(format!(
                    "warm forward of intent {p} does not reproduce the snapshot's batch scores"
                )));
            }
            let l = trained.model.n_layers();
            let dims: Vec<usize> =
                (0..l.saturating_sub(1)).map(|j| trace.hidden(j).cols()).collect();
            let mut arena = PinnedArena::new(p_intents, dims);
            for j in 0..l.saturating_sub(1) {
                let full = trace.hidden(j);
                let d = full.cols();
                for q in 0..p_intents {
                    // Layer-q node rows are contiguous (node id =
                    // q·n_pairs + i): one block copy per (depth, layer).
                    arena.append_block(j, q, &full.data()[q * n_pairs * d..(q + 1) * n_pairs * d]);
                }
            }
            arena.add_rows(n_pairs);
            pinned.push(arena);
            scores.push(recomputed);
        }

        // The service takes ownership of the ANN indexes and the blocking
        // tier (they grow with ingest); `to_snapshot` reconstructs the
        // training-time prefix on demand. Keeping second copies inside
        // `self.snapshot` would double the dominant memory cost at scale.
        let indexes = std::mem::take(&mut snapshot.indexes);
        let recorder = Recorder::new();
        let blocker = std::mem::replace(&mut snapshot.blocker, BlockerState::Exhaustive);
        let tier = unpack(blocker, &snapshot.records, &recorder)?;
        let records = std::mem::take(&mut snapshot.records);
        let sides = Sides::of(&snapshot.featurizer, &snapshot.df, &records);
        Ok(Self {
            n_train_pairs: n_pairs,
            n_train_records: records.len(),
            records,
            sides,
            tier,
            pairs: snapshot
                .pairs
                .iter()
                .map(|&(a, b)| (DenseRecordId::new(a as usize), DenseRecordId::new(b as usize)))
                .collect(),
            indexes,
            pinned,
            scores,
            cache: Mutex::new(LruCache::with_hasher(config.cache_capacity, Default::default())),
            counters: Counters::new(&recorder),
            recorder,
            snapshot,
            config,
            #[cfg(test)]
            reference_kernel: false,
        })
    }

    /// The serving configuration in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The training-time model state this service was built from (graph,
    /// matchers, trained GNNs, corpus metadata, the loaded `sharding`). The
    /// `indexes` and `records` fields are **empty** here and `blocker` is
    /// the `Exhaustive` sentinel — the service owns the growing ANN
    /// indexes, the corpus titles ([`Self::record_title`]) and the blocking
    /// tier; `to_snapshot` reassembles a complete snapshot.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// The training-time snapshot without its blocking tier: what
    /// `to_snapshot` is on every deployment before the tier writes itself
    /// in. Ingested records/pairs are serving-tier state and are *not*
    /// part of it (indexes and records are cut back to the training
    /// watermarks).
    pub(crate) fn export_model(&self) -> ModelSnapshot {
        let mut snapshot = self.snapshot.clone();
        snapshot.indexes = self.indexes.iter().map(|i| i.truncated(self.n_train_pairs)).collect();
        snapshot.records = self.train_titles().to_vec();
        snapshot
    }

    /// The titles the loaded snapshot shipped, id order.
    pub(crate) fn train_titles(&self) -> &[String] {
        &self.records[..self.n_train_records]
    }

    /// Number of served records (snapshot + ingested).
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// Number of served candidate pairs (snapshot + ingested).
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of pairs the loaded snapshot was trained on; pairs at or
    /// past this watermark were ingested online.
    pub fn n_train_pairs(&self) -> usize {
        self.n_train_pairs
    }

    /// Number of records the loaded snapshot shipped; records at or past
    /// this watermark were ingested online.
    pub fn n_train_records(&self) -> usize {
        self.n_train_records
    }

    /// Name of the candidate-generation backend in effect.
    pub fn blocker_kind(&self) -> &'static str {
        self.tier.backend()
    }

    /// Number of intents `P`.
    pub fn n_intents(&self) -> usize {
        self.snapshot.n_intents()
    }

    /// Title of a served record.
    pub fn record_title(&self, id: usize) -> &str {
        &self.records[id]
    }

    /// The two record ids of a served candidate pair.
    pub fn pair_records(&self, pair: usize) -> (usize, usize) {
        let (a, b) = self.pairs[pair];
        (a.index(), b.index())
    }

    /// Full observability snapshot: every span path, counter and value
    /// histogram this service recorded, merged with the process-global
    /// recorder's (training, `store.*`, `block.*`), plus instantaneous
    /// state gauges (arena occupancy, served records/pairs, cache hit rate).
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.recorder.set_gauge("serve.records", self.records.len() as f64);
        self.recorder.set_gauge("serve.pairs", self.pairs.len() as f64);
        self.recorder.set_gauge("serve.sides.bytes", self.sides.store.bytes() as f64);
        self.recorder
            .set_gauge("serve.arena.rows", self.pinned.first().map_or(0.0, |a| a.n_rows() as f64));
        self.recorder.set_gauge("serve.cache.hit_rate", self.counters.hit_rate());
        let merged = Recorder::new();
        merged.merge_from(flexer_obs::global());
        merged.merge_from(&self.recorder);
        merged.snapshot()
    }

    /// Resolves one query under one intent, returning up to `top_k`
    /// ranked candidates (pair queries return a single candidate).
    pub fn resolve(
        &self,
        query: &ResolveQuery,
        intent: IntentId,
        top_k: usize,
    ) -> Result<ResolveResponse, ServeError> {
        let out = self.resolve_from(Instant::now(), query, &[intent], top_k);
        Ok(out?.pop().expect("one response per requested intent"))
    }

    /// Resolves one query under **every** intent — the flexible-ER answer
    /// shape: one resolution per intent, not one global truth.
    pub fn resolve_all_intents(
        &self,
        query: &ResolveQuery,
        top_k: usize,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        let intents: Vec<IntentId> = (0..self.n_intents()).collect();
        self.resolve_from(Instant::now(), query, &intents, top_k)
    }

    /// One timed resolve of a request that started at `t0`: the `resolve`
    /// span and a networked tier's fan-out budget both run from there, so
    /// a front-end that waited before calling (the router takes its core
    /// lock) passes the instant it read the request.
    pub(crate) fn resolve_from(
        &self,
        t0: Instant,
        query: &ResolveQuery,
        intents: &[IntentId],
        top_k: usize,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        // Errors count as resolves too, so the counts stay comparable
        // across endpoints.
        let out = self.resolve_intents(t0, query, intents, top_k);
        metrics::record_resolve(&self.recorder, t0.elapsed());
        out
    }

    /// Resolves a batch of queries under one intent, fanning out across
    /// the `flexer-par` thread budget. Results are in query order and
    /// bit-identical to serial resolves.
    pub fn resolve_batch(
        &self,
        queries: &[ResolveQuery],
        intent: IntentId,
        top_k: usize,
    ) -> Vec<Result<ResolveResponse, ServeError>> {
        flexer_par::parallel_map(queries.len(), |i| self.resolve(&queries[i], intent, top_k))
    }

    /// Ingests a new record: creates one candidate pair per **blocked
    /// candidate** (every pre-existing record under the exhaustive
    /// backend), embeds the pairs per intent,
    /// **incrementally** inserts the embeddings into the per-layer ANN
    /// indexes, scores each pair inductively under every intent, and makes
    /// the pairs servable. The blocking tier then absorbs the new record.
    ///
    /// Scoring is two-phase: every candidate pair is embedded, localized
    /// and scored against the *pre-ingest* state before anything mutates.
    /// That makes a surviving pair's score independent of which other
    /// pairs this ingest creates — so blocked and exhaustive ingests from
    /// the same service state produce bit-identical scores on the pairs
    /// both create. Exactly a singleton [`Self::ingest_batch`].
    pub fn ingest(&mut self, title: &str) -> IngestReport {
        self.ingest_batch(&[title]).pop().expect("one report per ingested title")
    }

    /// Ingests a batch of records that arrived **together**: every title's
    /// candidate pairs are generated and scored against the pre-batch
    /// state (batch members are not candidates of each other), the
    /// scoring fans out across the `flexer-par` thread budget, and one
    /// serial merge step applies the mutations in input order.
    ///
    /// The batch is *simultaneous*, not a shorthand for sequential
    /// [`Self::ingest`] calls: scoring against the pre-batch state is what
    /// makes every title's phase-1 work independent (hence parallel), and
    /// it is the semantics every blocking tier reproduces bit-identically
    /// (any shard count, in process or over the wire). Results are
    /// bit-identical at any thread count.
    pub fn ingest_batch(&mut self, titles: &[&str]) -> Vec<IngestReport> {
        let candidates = {
            let _span = self.recorder.span("ingest.block");
            self.candidate_records(titles, Instant::now())
        };
        let pre_batch_records = self.records.len();
        self.recorder.record_value("ingest.batch_titles", titles.len() as u64);

        // Phase 1 (read-only): embed, localize and score each title's
        // candidate pairs against the pre-batch state. Titles are
        // independent by construction, so they fan out; per-title scoring
        // fans out again over candidates (nested regions split the thread
        // budget).
        let scored: Vec<ScoredCandidates> = {
            let _span = self.recorder.span("ingest.score");
            flexer_par::parallel_map(titles.len(), |i| {
                self.score_candidates(titles[i], &candidates[i])
            })
        };

        // Phase 2 (mutate): make the scored pairs servable, in input
        // order — pair ids, pinned rows and ANN inserts all append in the
        // same global sequence a serial ingest of the batch would produce.
        let mut reports = Vec::with_capacity(titles.len());
        {
            // Guard a clone (cheap `Arc` handle) so the span borrow does
            // not pin `self` immutably across the mutating merge.
            let recorder = self.recorder.clone();
            let _span = recorder.span("ingest.merge");
            for ((&title, cands), (embeddings, batch)) in titles.iter().zip(&candidates).zip(scored)
            {
                reports.push(self.apply_scored(title, cands, embeddings, batch, pre_batch_records));
            }
        }
        self.counters.ingest_records.add(titles.len() as u64);
        // The records now have their ids; the blocking tier indexes them.
        self.tier.absorb(titles);
        self.recorder
            .set_gauge("serve.arena.rows", self.pinned.first().map_or(0.0, |a| a.n_rows() as f64));
        reports
    }

    /// Phase-1 worker: per-intent embeddings and inductive scores (plus
    /// traces, for pinning) of `title` against each candidate record, all
    /// read-only against the current state. The embedding stage bypasses
    /// the LRU cache: ingest pairs are one-shot keys that would evict the
    /// hot query set without ever being asked for again.
    fn score_candidates(&self, title: &str, candidates: &[usize]) -> ScoredCandidates {
        let mut batch = self.embed_pairs(&self.sides, candidates, title, false);
        let intents: Vec<IntentId> = (0..self.n_intents()).collect();
        #[cfg(test)]
        {
            if self.reference_kernel {
                return self.score_candidates_reference(batch, &intents);
            }
        }
        self.localize(&mut batch);
        let pairs: Vec<&LocatedPair> = batch.pairs.iter().collect();
        let scored = ScoredBatch::Batched(self.score_pairs_batched(&pairs, &intents));
        (batch.pairs.into_iter().map(|pair| pair.emb).collect(), scored)
    }

    /// Phase-2 worker: appends one scored record's pairs to the serving
    /// state. `suppress_base` is the corpus size the candidates were
    /// generated against (the pre-batch watermark).
    fn apply_scored(
        &mut self,
        title: &str,
        candidates: &[usize],
        embeddings: Vec<Arc<PairEmbedding>>,
        scored: ScoredBatch,
        suppress_base: usize,
    ) -> IngestReport {
        let record = self.records.len();
        let first_pair = self.pairs.len();
        let p_intents = self.n_intents();
        match scored {
            #[cfg(test)]
            ScoredBatch::Reference(per_pair) => {
                self.apply_reference(per_pair, candidates, record, &embeddings)
            }
            ScoredBatch::Batched(traces) => {
                for (j, &other) in candidates.iter().enumerate() {
                    for (p, trace) in traces.iter().enumerate() {
                        self.scores[p].push(trace.score(j, p));
                        for t in 0..self.pinned[p].depths() {
                            for q in 0..p_intents {
                                self.pinned[p].push_row(t, q, trace.candidate_hidden(t, j, q));
                            }
                        }
                        self.pinned[p].add_rows(1);
                    }
                    self.append_pair(other, record, &embeddings[j]);
                }
            }
        }
        self.records.push(title.to_string());
        self.sides.push(title, &self.snapshot.df);
        IngestReport {
            record,
            first_pair,
            n_pairs: candidates.len(),
            n_suppressed: suppress_base - candidates.len(),
        }
    }

    /// Makes one scored pair servable: its per-intent embedding rows join
    /// the ANN indexes and it gets the next dense pair id.
    fn append_pair(&mut self, other: usize, record: usize, emb: &PairEmbedding) {
        for (q, index) in self.indexes.iter_mut().enumerate() {
            index.add(emb.row(q));
        }
        self.pairs.push((DenseRecordId::new(other), DenseRecordId::new(record)));
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The record ids each new title is paired against: the blocking
    /// tier's candidates, or every stored record when the tier is
    /// exhaustive. `t0` is when the request asking started.
    fn candidate_records(&self, titles: &[&str], t0: Instant) -> Vec<Vec<usize>> {
        let found = self.tier.candidates_batch(titles, t0);
        found.into_iter().map(|c| c.unwrap_or_else(|| (0..self.records.len()).collect())).collect()
    }

    fn resolve_intents(
        &self,
        t0: Instant,
        query: &ResolveQuery,
        intents: &[IntentId],
        top_k: usize,
    ) -> Result<Vec<ResolveResponse>, ServeError> {
        let p_total = self.n_intents();
        for &p in intents {
            if p >= p_total {
                return Err(ServeError::IntentOutOfRange(p, p_total));
            }
        }
        if intents.is_empty() {
            return Ok(Vec::new());
        }
        match query {
            ResolveQuery::CorpusPair(pair) => {
                if *pair >= self.pairs.len() {
                    return Err(ServeError::UnknownPair(*pair, self.pairs.len()));
                }
                Ok(intents
                    .iter()
                    .map(|&p| {
                        let score = self.scores[p][*pair];
                        ResolveResponse {
                            intent: p,
                            matches: vec![RankedMatch {
                                target: MatchTarget::Pair(*pair),
                                score,
                                matched: is_match(score),
                            }],
                        }
                    })
                    .collect())
            }
            ResolveQuery::TitlePair(a, b) => {
                let mut batch = {
                    let _span = self.recorder.span("resolve.embed");
                    let mut left = Sides::new(&self.snapshot.featurizer, &self.sides.keys);
                    left.push(a, &self.snapshot.df);
                    self.embed_pairs(&left, &[0], b, true)
                };
                let scores = {
                    let _span = self.recorder.span("resolve.forward");
                    self.score_resolve_batch(&mut batch, intents)
                };
                Ok(intents
                    .iter()
                    .zip(scores)
                    .map(|(&p, scores)| ResolveResponse {
                        intent: p,
                        matches: vec![RankedMatch {
                            target: MatchTarget::AdHoc,
                            score: scores[0],
                            matched: is_match(scores[0]),
                        }],
                    })
                    .collect())
            }
            ResolveQuery::Record(title) => {
                // Query-driven collective ER: pair the query against its
                // blocked candidates (every served record when exhaustive)
                // and rank. Every tier is timed under the same span path.
                let candidates = {
                    let _span = self.recorder.span("resolve.block");
                    self.candidate_records(&[title.as_str()], t0).pop().expect("one set per title")
                };
                self.counters.resolve_candidates.add(candidates.len() as u64);
                if candidates.is_empty() {
                    let none = |&p| ResolveResponse { intent: p, matches: Vec::new() };
                    return Ok(intents.iter().map(none).collect());
                }
                let mut batch = {
                    let _span = self.recorder.span("resolve.embed");
                    self.embed_pairs(&self.sides, &candidates, title, true)
                };
                let scores = {
                    let _span = self.recorder.span("resolve.forward");
                    self.score_resolve_batch(&mut batch, intents)
                };
                let _span = self.recorder.span("resolve.rank");
                let mut keys = Vec::with_capacity(candidates.len());
                let ranked = intents
                    .iter()
                    .zip(&scores)
                    .map(|(&p, scores)| ResolveResponse {
                        intent: p,
                        matches: rank(scores, &candidates, top_k, &mut keys),
                    })
                    .collect();
                // Released inside the stage: the batch's entries are a
                // resolve's last work when every score came from the memo.
                drop((batch, scores, candidates));
                Ok(ranked)
            }
        }
    }

    /// Match likelihoods of a resolve's candidate batch — `scores[pi][j]`:
    /// requested intent `pi`, candidate `j` — and the batch's one cache
    /// write-back.
    ///
    /// The batch is localized first, since a memo holds only over the lists
    /// it was scored on. Then only the candidates whose memo lacks a
    /// requested intent are forwarded, as one batch under every requested
    /// intent one of them lacks; the rest answer from their memo. A
    /// candidate's score does not depend on which others share its batch
    /// (`flexer-graph`'s batch contract), so the answer is the bits a
    /// forward of the whole batch gives.
    fn score_resolve_batch(&self, batch: &mut PairBatch, intents: &[IntentId]) -> Vec<Vec<f32>> {
        #[cfg(test)]
        {
            if self.reference_kernel {
                let scores = self.score_resolve_reference(batch, intents);
                self.write_back(batch);
                return scores;
            }
        }
        self.localize(batch);
        let p_total = self.n_intents();
        let lacks = |pair: &LocatedPair| intents.iter().any(|&p| pair.score(p, p_total).is_none());
        let forward: Vec<&LocatedPair> = batch.pairs.iter().filter(|pair| lacks(pair)).collect();
        self.counters.memo_hits.add((batch.pairs.len() - forward.len()) as u64);
        if !forward.is_empty() {
            let run: Vec<IntentId> = intents
                .iter()
                .copied()
                .filter(|&p| forward.iter().any(|pair| pair.score(p, p_total).is_none()))
                .collect();
            let traces = self.score_pairs_batched(&forward, &run);
            // Into the blocks the cache entries share: a hit whose memo
            // grows needs no write-back.
            for (trace, &p) in traces.iter().zip(&run) {
                for (c, pair) in forward.iter().enumerate() {
                    pair.memoize(p, p_total, trace.score(c, p));
                }
            }
        }
        let scores = intents
            .iter()
            .map(|&p| {
                let score = |pair: &LocatedPair| pair.score(p, p_total).expect("memoized");
                batch.pairs.iter().map(score).collect()
            })
            .collect();
        self.write_back(batch);
        scores
    }

    /// Per-intent embeddings of the pairs (`lefts[id]`, `title`) for `ids`;
    /// misses are featurized and run through all P matchers as one batch.
    /// The left sides are stored ones — the service's own for candidate
    /// records — so a pair costs what depends on the pair: nothing is
    /// tokenized, hashed or cloned per candidate.
    ///
    /// `use_cache` routes the batch through the hot-pair LRU (resolve
    /// traffic, where repeats are the point): a hit brings its neighbour
    /// lists along, a miss starts unlocated, and [`Self::write_back`]
    /// stores what the batch computed once it is localized. Ingest passes
    /// `false`: its `(stored record, new title)` keys are one-shot — the
    /// new title is about to *become* a record, so the same pairing never
    /// recurs as a query — and caching them both serialized parallel
    /// phase-1 workers on the cache lock and evicted the genuinely hot
    /// entries. That eviction churn is why blocked ingest used to *lose*
    /// to exhaustive at small corpus sizes. A zero-capacity cache stores
    /// nothing, so its service takes the uncached path for resolves too.
    fn embed_pairs(&self, lefts: &Sides, ids: &[usize], title: &str, use_cache: bool) -> PairBatch {
        let mut pairs: Vec<Option<LocatedPair>> = vec![None; ids.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut keys: Vec<PairKey> = Vec::new();
        if use_cache && self.config.cache_capacity > 0 {
            // The title is digested once, under the keys of `lefts`, and
            // every key mixes two digests, before the lock is taken; the
            // write-back reuses the keys.
            let right = lefts.digest(title);
            keys = ids.iter().map(|&id| PairKey::new(lefts.digests[id], right)).collect();
            // One lock pass covers the lookups; an all-hit batch touches no
            // other lock — keys are fixed-width hashes and values are
            // shared `Arc`s.
            let mut cache = self.cache.lock().expect("cache lock");
            for (i, key) in keys.iter().enumerate() {
                match cache.get(key) {
                    Some(hit) => pairs[i] = Some(hit.clone()),
                    None => misses.push(i),
                }
            }
            self.counters.cache_hits.add((ids.len() - misses.len()) as u64);
            self.counters.cache_misses.add(misses.len() as u64);
        } else {
            misses.extend(0..ids.len());
        }
        if !misses.is_empty() {
            let featurizer = &self.snapshot.featurizer;
            let mut features = SparseMatrix::with_cols(featurizer.total_dim());
            {
                let _span = self.recorder.span("featurize");
                // Pre-size from the candidate count. A feature row of two
                // catalogue titles averages ≈115 non-zeros and long titles
                // pass 128, so this is an estimate that saves most of the
                // incremental growth, not a bound.
                features.reserve(misses.len(), misses.len() * 128);
                let mut row: Vec<(u32, f32)> = Vec::new();
                let mut scratch = PairScratch::default();
                // The right-hand title is the same across the whole batch:
                // prepared, its slots hashed, once per candidate set.
                let side = featurizer.prepare_side(title, &self.snapshot.df);
                for &i in &misses {
                    lefts.store.pair_features(ids[i], &side, &mut scratch, &mut row);
                    features.push_row_unsorted(&mut row);
                }
            }
            let per_intent: Vec<Matrix> = {
                let _span = self.recorder.span("infer");
                self.snapshot.matchers.iter().map(|m| m.embed(&features)).collect()
            };
            let dim = self.snapshot.graph.dim;
            // Never localized: every layer's scan state before row 0 (one
            // shared empty list, not an allocation per miss).
            let unlocated: Arc<[AtomicU32]> = Arc::new([]);
            for (j, &i) in misses.iter().enumerate() {
                let mut emb = Matrix::zeros(per_intent.len(), dim);
                for (q, e) in per_intent.iter().enumerate() {
                    emb.row_mut(q).copy_from_slice(e.row(j));
                }
                pairs[i] =
                    Some(LocatedPair { emb: Arc::new(emb), hood: unlocated.clone(), watermark: 0 });
            }
        }
        PairBatch {
            pairs: pairs.into_iter().map(|pair| pair.expect("every slot filled")).collect(),
            keys,
            missed: misses,
            relocated: Vec::new(),
        }
    }

    /// Stores what a batch computed — embeddings of the lookup's misses,
    /// brought-forward neighbour lists of its hits — in one lock pass.
    fn write_back(&self, batch: &PairBatch) {
        if batch.keys.is_empty() {
            return;
        }
        let mut missed = &batch.missed[..];
        // Flood guard: a miss batch that would occupy more than half the
        // cache (a corpus-sized record query) would evict the entire hot
        // set for entries of mostly one-shot keys — compute but skip
        // caching those. The capacity is config, so the guard itself needs
        // no lock.
        if missed.len() > self.config.cache_capacity / 2 {
            self.counters.flood_rejections.add(missed.len() as u64);
            missed = &[];
        }
        if missed.is_empty() && batch.relocated.is_empty() {
            return;
        }
        let mut cache = self.cache.lock().expect("cache lock");
        for &i in missed.iter().chain(&batch.relocated) {
            cache.insert(batch.keys[i], batch.pairs[i].clone());
        }
    }

    /// Brings every pair's neighbour lists up to the current pair-index
    /// length. Lists already there are reused as they are; the rest resume
    /// from their watermark over the appended tail only — from row 0, a
    /// search from scratch, for a pair that was never localized. Pairs that
    /// share a watermark go through each layer's index as one query-blocked
    /// pass (groups of candidates share every cache-hot index block), and
    /// every list is bitwise what a single-query `search` returns — the
    /// `search_batch_since` contract. A pair whose resume moved any layer's
    /// trimmed list gets a new block with an empty memo; one whose lists all
    /// came back identical keeps its block, memo and all. A pair that was
    /// never localized gets its block even when no pair is served (P empty
    /// lists, then its memo).
    fn localize(&self, batch: &mut PairBatch) {
        let t_localize = Instant::now();
        let n = self.pairs.len();
        let k = self.snapshot.k;
        let p_total = self.n_intents();
        let mut behind: Vec<(usize, usize)> = batch
            .pairs
            .iter()
            .enumerate()
            .filter(|(_, pair)| pair.watermark < n || pair.hood.is_empty())
            .map(|(i, pair)| (pair.watermark, i))
            .collect();
        self.counters.localize_reused.add(((batch.pairs.len() - behind.len()) * p_total) as u64);
        behind.sort_unstable();
        let stride = k.min(n);
        let mut rest = &behind[..];
        while let Some(&(since, _)) = rest.first() {
            let (group, tail) = rest.split_at(rest.partition_point(|&(w, _)| w == since));
            rest = tail;
            // The group's new blocks, member-major: P lists, then P memo
            // slots.
            let per_pair = p_total * stride + p_total;
            let mut hoods = vec![NO_NEIGHBOR; group.len() * per_pair];
            for (q, index) in self.indexes.iter().enumerate() {
                let queries: Vec<&[f32]> =
                    group.iter().map(|&(_, i)| batch.pairs[i].emb.row(q)).collect();
                let priors: Vec<Vec<Neighbor>> = group
                    .iter()
                    .zip(&queries)
                    .map(|(&(_, i), query)| {
                        let hit = |id: u32| {
                            let id = id as usize;
                            Neighbor { id, dist: flexer_ann::l2_sq(query, index.vector(id)) }
                        };
                        batch.pairs[i].layer(q, p_total).map(hit).collect()
                    })
                    .collect();
                let priors: Vec<&[Neighbor]> = priors.iter().map(Vec::as_slice).collect();
                let (lists, scanned) = index.scan_batch_since(&queries, k, since, &priors);
                self.counters.localize_rows_scanned.add(scanned);
                for (g, list) in lists.iter().enumerate() {
                    let at = g * per_pair + q * stride;
                    for (slot, hit) in hoods[at..at + stride].iter_mut().zip(list) {
                        *slot = hit.id as u32;
                    }
                }
            }
            for (g, &(_, i)) in group.iter().enumerate() {
                let hood = &mut hoods[g * per_pair..(g + 1) * per_pair];
                let pair = &mut batch.pairs[i];
                // The memo outlives a resume that brings every list back
                // identical, and no other.
                let kept = pair.hood.len() == per_pair
                    && (0..p_total).all(|q| {
                        let list = hood[q * stride..(q + 1) * stride].iter().copied();
                        pair.layer(q, p_total).eq(list.take_while(|&id| id != NO_NEIGHBOR))
                    });
                if !kept {
                    hood[p_total * stride..].fill(UNSCORED);
                    pair.hood = hood.iter().map(|&bits| AtomicU32::new(bits)).collect();
                }
                pair.watermark = n;
                // A hit whose entry fell behind (`missed` ascends); the
                // write-back stores the lookup's misses anyway.
                if batch.missed.binary_search(&i).is_err() {
                    batch.relocated.push(i);
                }
            }
            let lists = (group.len() * p_total) as u64;
            if since == 0 {
                self.counters.localize_searched.add(lists);
            } else {
                self.counters.localize_resumed.add(lists);
                self.counters.localize_tail_rows.add(lists * (n - since) as u64);
            }
        }
        // An explicit flat path (not a nested span): resolves and ingest's
        // phase-1 workers share this call, like the forward's below.
        self.recorder.record_span_ns("forward.localize", t_localize.elapsed().as_nanos() as u64);
    }

    /// Scores a batch of localized pairs under every requested intent in
    /// one batched GNN forward — the data-oriented hot path. The neighbour
    /// ids are copied flat out of the pairs' lists into one arena, the
    /// candidates' embeddings are stacked into one `(B·P) × dim` feature
    /// matrix, and stored states are *sliced* from the pinned arenas and
    /// index buffers — no per-candidate gather matrices, no per-candidate
    /// graph builds. Intent `p`'s GNN evaluates what is read from it: every
    /// node below its last layer (ingest pins them), the layer-`p` nodes
    /// there (the score). Bit-identical to the per-candidate
    /// `forward_inductive` for every candidate (`flexer-graph`'s batch
    /// contract).
    fn score_pairs_batched(
        &self,
        pairs: &[&LocatedPair],
        intents: &[IntentId],
    ) -> Vec<BatchInductiveTrace> {
        let p_total = self.n_intents();
        let dim = self.snapshot.graph.dim;
        let b = pairs.len();
        self.counters.forward_rows.add((b * p_total) as u64);
        // Explicit flat paths (not nested spans): resolves and ingest's
        // phase-1 workers share this call, and a nested guard would file
        // the stage under a different parent on each (`resolve.forward` on
        // a resolve, whatever a `flexer-par` worker thread's stack holds on
        // an ingest). One name per stage totals it across both.
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let BatchScratch { ids, offsets, features } = &mut *scratch;
            // Pre-size every gather buffer from the candidate count so a
            // batch bigger than any seen before grows each vector at most
            // once instead of amortizing doublings mid-loop.
            ids.clear();
            ids.reserve(b * p_total * self.snapshot.k);
            offsets.clear();
            offsets.reserve(b * p_total + 1);
            offsets.push(0);
            for pair in pairs {
                for q in 0..p_total {
                    ids.extend(pair.layer(q, p_total));
                    offsets.push(ids.len());
                }
            }
            features.clear();
            features.reserve(b * p_total * dim);
            for pair in pairs {
                features.extend_from_slice(pair.emb.data());
            }
            let stacked = Matrix::from_vec(b * p_total, dim, std::mem::take(features));
            let arena = NeighborArena::new(ids, offsets, p_total);
            let t_gnn = Instant::now();
            let first: Vec<RowSource<'_>> =
                self.indexes.iter().map(|index| RowSource::new(index.data(), dim)).collect();
            let deeper: Vec<_> = intents.iter().map(|&p| self.pinned[p].sources()).collect();
            let mut passes = Vec::with_capacity(intents.len());
            for (&p, deeper) in intents.iter().zip(&deeper) {
                let model = &self.snapshot.trained[p].model;
                passes.push(BatchPass { model, deeper, target: Some(p) });
            }
            let traces = GnnModel::forward_inductive_passes(&stacked, &arena, &first, &passes);
            self.recorder.record_span_ns("forward.gnn", t_gnn.elapsed().as_nanos() as u64);
            // Aggregate rows the kernel built; rows through a SAGE GEMM.
            let concat_rows: usize = traces.iter().map(|t| t.concat_rows).sum();
            let gemm_rows: usize = traces.iter().flat_map(|t| &t.hidden).map(Matrix::rows).sum();
            self.recorder.add("serve.forward.concat_rows", concat_rows as u64);
            self.recorder.add("serve.forward.gemm_rows", gemm_rows as u64);
            *features = stacked.into_vec();
            traces
        })
    }
}

/// What the service derives from a record's title when the record arrives
/// and keeps beside it: the featurizer's stored left side and the digest
/// the record's cache keys are mixed from, under the service's digest
/// `keys`. Both are pure functions of the title and the keys, so a load
/// rebuilds them (under new keys) instead of reading them.
#[derive(Debug)]
struct Sides {
    store: SideStore,
    digests: Vec<TitleDigest>,
    /// The SipHash keys every digest of this service is taken under —
    /// drawn once per service, shared by every `Sides` it makes, so a
    /// stored title and the same title asked for by a query digest alike.
    keys: RandomState,
}

impl Sides {
    fn new(featurizer: &PairFeaturizer, keys: &RandomState) -> Self {
        let store = SideStore::new(featurizer.clone());
        Self { store, digests: Vec::new(), keys: keys.clone() }
    }

    /// The sides of `titles` under fresh keys, every array reserved before
    /// it is filled.
    fn of(featurizer: &PairFeaturizer, df: &DfTable, titles: &[String]) -> Self {
        let mut sides = Self::new(featurizer, &RandomState::new());
        sides.store.reserve(titles.iter().map(String::as_str));
        sides.digests.reserve_exact(titles.len());
        for title in titles {
            sides.push(title, df);
        }
        sides
    }

    fn push(&mut self, title: &str, df: &DfTable) {
        self.store.push_title(title, df);
        self.digests.push(self.digest(title));
    }

    /// `title`'s digest under this service's keys.
    fn digest(&self, title: &str) -> TitleDigest {
        let (hi, lo) = (self.keys.hash_one((0u8, title)), self.keys.hash_one((1u8, title)));
        TitleDigest((u128::from(hi) << 64) | u128::from(lo))
    }
}

/// 128 hashed bits of one title: two domain-separated SipHash-1-3 streams
/// under the service's random keys ([`Sides::digest`]). Keyed, because the
/// cache map hashes no further (`KeyBits`): someone who picks the titles
/// must not be able to pick colliding map slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TitleDigest(u128);

/// Fixed-width hashed cache key of an ordered title pair: a mix of the two
/// titles' digests, so a candidate batch hashes one title — the query —
/// and no stored one. Each title is hashed on its own, which keeps the
/// pair encoding injective without a length prefix (`("x·y", "z")` and
/// `("x", "y·z")` mix different digests), the odd multiplier and the
/// rotation keep `(a, b)` apart from `(b, a)`, and 128 hashed bits make an
/// accidental collision astronomically unlikely at cache scale. Building
/// one allocates nothing. Its bits are already keyed hash output, so its
/// [`Hash`] hands the cache map its low 64 bits as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairKey(u128);

impl PairKey {
    fn new(a: TitleDigest, b: TitleDigest) -> Self {
        const ODD: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835;
        Self(a.0.wrapping_mul(ODD).rotate_left(64) ^ b.0)
    }
}

impl Hash for PairKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0 as u64);
    }
}

/// The cache map's hasher: a [`PairKey`]'s bits pass through unhashed.
#[derive(Debug, Default)]
struct KeyBits(u64);

impl Hasher for KeyBits {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the cache map hashes only `PairKey`s, one u64 each");
    }

    fn write_u64(&mut self, bits: u64) {
        self.0 = bits;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hot-pair cache: keys are keyed hash bits, so the map takes them as
/// they are.
type PairCache = LruCache<PairKey, LocatedPair, BuildHasherDefault<KeyBits>>;

/// The `top_k` best of a record resolve's candidates under one intent —
/// candidate `j` is record `candidates[j]` with score `scores[j]` — by
/// score descending, then record id ascending.
///
/// Pays for the answer, not the candidate list: each candidate packs into
/// one `u64` (the complemented bits of its score above its position), a
/// selection moves the `top_k` smallest keys to the front, and only those
/// are sorted. A score is a probability, so finite and ≥ 0 (`-0.0` ranks
/// as `+0.0`), and its bits ascend with its value: ascending keys are
/// descending scores. Candidates ascend by record id (every
/// [`BlockingTier`] returns them so, and the exhaustive list is `0..n`),
/// so position order breaks ties in record-id order. `keys` is the
/// caller's buffer, reused across intents.
fn rank(
    scores: &[f32],
    candidates: &[usize],
    top_k: usize,
    keys: &mut Vec<u64>,
) -> Vec<RankedMatch> {
    assert!(u32::try_from(scores.len()).is_ok(), "a position must fit in 32 bits");
    keys.clear();
    keys.extend(scores.iter().enumerate().map(|(j, &score)| {
        assert!(score.is_finite() && score >= 0.0, "scores are finite probabilities: {score}");
        (u64::from(!(score + 0.0).to_bits()) << 32) | j as u64
    }));
    let top = top_k.min(keys.len());
    if top < keys.len() {
        keys.select_nth_unstable(top);
    }
    keys[..top].sort_unstable();
    keys[..top]
        .iter()
        .map(|&key| {
            let j = key as u32 as usize;
            let score = scores[j];
            RankedMatch {
                target: MatchTarget::Record(candidates[j]),
                score,
                matched: is_match(score),
            }
        })
        .collect()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_block::BlockerState;
    use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
    use flexer_datasets::AmazonMiConfig;
    use flexer_store::IndexKind;
    use flexer_types::Scale;

    fn tiny_snapshot() -> ModelSnapshot {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(5).generate();
        let config = FlexErConfig::fast();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
        model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).unwrap()
    }

    /// One of the service's own counters, as its snapshot exports it.
    fn counter<B: BlockingTier>(svc: &Service<B>, name: &str) -> u64 {
        svc.obs_snapshot().counter(name).unwrap_or_else(|| panic!("counter {name} missing"))
    }

    /// A record query nothing blocks with, and a call that asks for no
    /// intent, answer without embedding, localizing or scoring anything.
    #[test]
    fn degenerate_batches_skip_the_forward() {
        let snapshot = tiny_snapshot();
        let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        let work = |svc: &ResolutionService| {
            (counter(svc, "serve.forward.rows"), counter(svc, "serve.cache.misses"))
        };

        let known = ResolveQuery::record(svc.record_title(0));
        assert!(!svc.resolve_all_intents(&known, 5).unwrap()[0].matches.is_empty());
        let before = work(&svc);
        // A cold service: every candidate missed, and each became P new nodes.
        let candidates = counter(&svc, "serve.resolve.candidates");
        assert_eq!(before, (candidates * svc.n_intents() as u64, candidates));

        // No gram in common with any product title.
        let alien = ResolveQuery::record("§§§§§§ ¶¶¶¶¶¶");
        let answers = svc.resolve_all_intents(&alien, 5).unwrap();
        assert_eq!(answers.len(), svc.n_intents());
        for (p, answer) in answers.iter().enumerate() {
            assert_eq!((answer.intent, answer.matches.len()), (p, 0));
        }
        assert_eq!(svc.resolve(&alien, 1, 5).unwrap().matches, []);

        for query in [&known, &alien, &ResolveQuery::pair("alpha widget", "beta gadget")] {
            assert_eq!(svc.resolve_intents(Instant::now(), query, &[], 5).unwrap(), []);
        }
        assert_eq!(work(&svc), before, "a degenerate resolve must not reach the forward");

        // An ingest nothing blocks with creates no pair.
        let report = svc.ingest("§§§§§§ ¶¶¶¶¶¶");
        assert_eq!((report.n_pairs, svc.n_pairs()), (0, svc.n_train_pairs()));
        assert_eq!(work(&svc), before);
        // And the record it became is now a candidate of itself.
        assert_eq!(svc.resolve_all_intents(&alien, 5).unwrap()[0].matches.len(), 1);
    }

    /// Every served record has a stored side and a digest, and they are
    /// what its title yields when prepared afresh — after the build, after
    /// an ingest batch of titles at the store's edges, after save → load.
    #[test]
    fn stored_sides_are_the_titles_prepared_afresh() {
        fn assert_fresh(svc: &ResolutionService) {
            assert_eq!(svc.sides.store.len(), svc.n_records());
            assert_eq!(svc.sides.digests.len(), svc.n_records());
            let mut fresh = Sides::new(&svc.snapshot.featurizer, &svc.sides.keys);
            for id in 0..svc.n_records() {
                fresh.push(svc.record_title(id), &svc.snapshot.df);
                assert_eq!(svc.sides.store.side(id), fresh.store.side(id), "record {id}");
                assert_eq!(svc.sides.digests[id], fresh.digests[id], "record {id}");
            }
            assert_eq!(svc.sides.store.bytes(), fresh.store.bytes());
            let gauge = svc.obs_snapshot().gauge("serve.sides.bytes");
            assert_eq!(gauge, Some(fresh.store.bytes() as f64));
        }

        // Exhaustive, so the edge titles below pair with every record: as
        // the right side when they arrive, as stored left sides after.
        let snapshot = ModelSnapshot { blocker: BlockerState::Exhaustive, ..tiny_snapshot() };
        let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        assert_fresh(&svc);
        assert!(svc.snapshot().records.is_empty(), "the service holds the titles once");

        let one_long_token = "x".repeat(100_000);
        let past_the_budget: Vec<String> = (0..40).map(|i| format!("word{i}")).collect();
        let past_the_budget = past_the_budget.join(" ");
        assert!(past_the_budget.split(' ').count() > svc.snapshot().featurizer.max_tokens);
        let edge = ["", one_long_token.as_str(), past_the_budget.as_str(), "plain new widget 42"];
        let held = svc.sides.store.bytes();
        let reports = svc.ingest_batch(&edge);
        assert_eq!(reports.len(), edge.len());
        assert_fresh(&svc);
        // Nothing truncated: the long token is held whole.
        assert!(svc.sides.store.bytes() > held + 100_000);
        for title in edge {
            let by_record = svc.resolve_all_intents(&ResolveQuery::record(title), 5).unwrap();
            assert_eq!(by_record.len(), svc.n_intents());
            assert_eq!(by_record[0].matches.len(), 5);
            svc.resolve_all_intents(&ResolveQuery::pair(title, &one_long_token), 1).unwrap();
            svc.resolve_all_intents(&ResolveQuery::pair(svc.record_title(0), title), 1).unwrap();
        }

        // The store is rebuilt, not read: a reload serves the training
        // records, each with its side, and exports the bytes it loaded.
        let bytes = svc.to_snapshot().to_bytes();
        let loaded = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.records.len(), svc.n_train_records());
        let reloaded = ResolutionService::new(loaded, ServeConfig::default()).unwrap();
        assert_eq!(reloaded.n_records(), svc.n_train_records());
        assert_fresh(&reloaded);
        assert_eq!(reloaded.to_snapshot().to_bytes(), bytes);
    }

    /// The cache key is one function of the two titles on every route: a
    /// record query leaves each (candidate, title) pair where the same pair
    /// asked for by its titles finds it — memoized score included, so that
    /// query runs no forward. The key is ordered.
    #[test]
    fn title_pair_and_record_queries_share_cache_entries() {
        let svc = ResolutionService::new(tiny_snapshot(), ServeConfig::default()).unwrap();
        let title = format!("{} (2nd listing)", svc.record_title(1));
        let ranked = svc.resolve(&ResolveQuery::record(&title), 0, 3).unwrap();
        let MatchTarget::Record(candidate) = ranked.matches[0].target else {
            panic!("a record query ranks records");
        };
        let stored = svc.record_title(candidate).to_string();
        let cache = |svc: &ResolutionService| {
            (counter(svc, "serve.cache.hits"), counter(svc, "serve.cache.misses"))
        };
        let candidates = counter(&svc, "serve.resolve.candidates");
        assert_eq!(cache(&svc), (0, candidates));

        let forward = |svc: &ResolutionService| {
            (counter(svc, "serve.forward.rows"), counter(svc, "serve.forward.memo_hits"))
        };
        let p = svc.n_intents() as u64;
        assert_eq!(forward(&svc), (candidates * p, 0));

        let by_titles = svc.resolve(&ResolveQuery::pair(&stored, &title), 0, 1).unwrap();
        assert_eq!(cache(&svc), (1, candidates));
        assert_eq!(forward(&svc), (candidates * p, 1), "the record query's memo answers");
        assert_eq!(by_titles.matches[0].score.to_bits(), ranked.matches[0].score.to_bits());

        svc.resolve(&ResolveQuery::pair(&title, &stored), 0, 1).unwrap();
        assert_eq!(cache(&svc), (1, candidates + 1));
        assert_eq!(forward(&svc), ((candidates + 1) * p, 1));
    }

    /// Digest keys are drawn per service: two services over one snapshot
    /// digest every title differently, yet give the same answers, bit for
    /// bit, and count the same cache hits and misses — before and after an
    /// ingest, on record and title-pair queries, cold and repeated.
    #[test]
    fn services_under_different_digest_keys_answer_alike() {
        let snapshot = tiny_snapshot();
        let mut services = [snapshot.clone(), snapshot]
            .map(|s| ResolutionService::new(s, ServeConfig::default()).unwrap());
        let [one, two] = &services;
        assert_ne!(one.sides.digest("a title"), two.sides.digest("a title"));
        assert!((0..one.n_records()).all(|id| one.sides.digests[id] != two.sides.digests[id]));

        let queries: Vec<ResolveQuery> = (0..4)
            .flat_map(|id| {
                let stored = one.record_title(id).to_string();
                let fresh = format!("{stored} (2nd listing)");
                [
                    ResolveQuery::record(&stored),
                    ResolveQuery::record(&fresh),
                    ResolveQuery::pair(&stored, &fresh),
                    ResolveQuery::pair(&fresh, one.record_title(id + 1)),
                ]
            })
            .collect();
        let drive = |svc: &ResolutionService| {
            let answers: Vec<Vec<ResolveResponse>> =
                queries.iter().map(|q| svc.resolve_all_intents(q, 5).unwrap()).collect();
            let bits: Vec<(usize, MatchTarget, u32)> = answers
                .iter()
                .flatten()
                .flat_map(|r| {
                    r.matches.iter().map(move |m| (r.intent, m.target, m.score.to_bits()))
                })
                .collect();
            let counts = ["serve.cache.hits", "serve.cache.misses", "serve.forward.memo_hits"]
                .map(|name| counter(svc, name));
            (bits, counts)
        };
        for round in 0..2 {
            let [one, two] = &services;
            let (a, b) = (drive(one), drive(two));
            assert!(!a.0.is_empty());
            assert_eq!(a, b, "round {round}");
            assert!(a.1[0] > 0, "repeated queries hit");
            for svc in &mut services {
                svc.ingest_batch(&["nike lunar force duckboot (new)", "plain new widget 42"]);
            }
        }
    }

    /// Ranking by selection returns what sorting every candidate by
    /// (score desc, record id asc) and truncating returns, bit for bit:
    /// scores on a coarse grid (ties everywhere, 0.0 and 1.0 included),
    /// ascending record ids with gaps, `top_k` at 0, 1, 10 and past the
    /// candidate count.
    mod rank_by_selection {
        use super::*;
        use proptest::prelude::*;

        /// The full sort `rank` replaced.
        fn sort_then_truncate(
            scores: &[f32],
            candidates: &[usize],
            top_k: usize,
        ) -> Vec<RankedMatch> {
            let mut ranked: Vec<RankedMatch> = scores
                .iter()
                .zip(candidates)
                .map(|(&score, &r)| RankedMatch {
                    target: MatchTarget::Record(r),
                    score,
                    matched: is_match(score),
                })
                .collect();
            let id = |m: &RankedMatch| match m.target {
                MatchTarget::Record(r) => r,
                _ => unreachable!(),
            };
            ranked.sort_by(|x, y| {
                y.score.partial_cmp(&x.score).expect("scores are finite").then(id(x).cmp(&id(y)))
            });
            ranked.truncate(top_k);
            ranked
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn matches_sort_then_truncate(
                cells in prop::collection::vec((0u32..9, 1usize..4), 0..40),
                k in 0usize..4,
            ) {
                // Grid scores 0, 1/8, …, 1; ids ascend by gaps of 1–3.
                let scores: Vec<f32> = cells.iter().map(|&(q, _)| q as f32 / 8.0).collect();
                let candidates: Vec<usize> =
                    cells.iter().scan(0, |id, &(_, gap)| { *id += gap; Some(*id) }).collect();
                let top_k = [0, 1, 10, cells.len() + 3][k];
                let mut keys = Vec::new();
                let got = rank(&scores, &candidates, top_k, &mut keys);
                let want = sort_then_truncate(&scores, &candidates, top_k);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.target, w.target);
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                    prop_assert_eq!(g.matched, w.matched);
                }
            }
        }

        #[test]
        fn negative_zero_ranks_as_zero() {
            let got = rank(&[0.0, -0.0, 0.5], &[3, 4, 9], 3, &mut Vec::new());
            let ids: Vec<MatchTarget> = got.iter().map(|m| m.target).collect();
            assert_eq!(ids, [9, 3, 4].map(MatchTarget::Record));
            assert_eq!(got[2].score.to_bits(), (-0.0f32).to_bits());
        }

        #[test]
        #[should_panic(expected = "scores are finite probabilities")]
        fn a_non_finite_score_panics() {
            rank(&[0.5, f32::NAN], &[0, 1], 1, &mut Vec::new());
        }
    }

    /// Two services in one process keep their own counts: work on one never
    /// shows up in the other's snapshot.
    #[test]
    fn two_services_count_independently() {
        let snapshot = tiny_snapshot();
        let busy = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let idle = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        let query = ResolveQuery::record(busy.record_title(0));
        busy.resolve_all_intents(&query, 5).unwrap();
        busy.resolve(&query, 0, 5).unwrap();

        let resolves =
            |svc: &ResolutionService| svc.obs_snapshot().span("resolve").map(|s| s.count);
        assert_eq!(resolves(&busy), Some(2));
        assert!(counter(&busy, "serve.forward.rows") > 0);
        assert_eq!(resolves(&idle), None);
        assert_eq!(counter(&idle, "serve.forward.rows"), 0);
    }
}
