//! The per-candidate reference kernel — one uncached single-query
//! localization, one gather and one [`GnnModel::forward_inductive`] per
//! candidate and intent — and the differential tests that hold the shipped
//! batched path to it. Test builds only: a service booted through
//! [`ResolutionService::reference`] scores resolves and ingests through
//! this kernel, and every case below demands **bit-identical** responses,
//! ingest reports and served state from the two — for every query shape
//! and GNN shape, at any thread count, under any shard layout, with
//! cached, resumed and pruned localization, and with scores answered from
//! the hot-pair cache's memo.
//!
//! [`GnnModel::forward_inductive`]: flexer_graph::GnnModel::forward_inductive

use super::{PairBatch, PairEmbedding, ScoredBatch, ScoredCandidates, Service};
use crate::{BlockingTier, ResolutionService, ServeConfig, ServeError};
use flexer_ann::VectorIndex;
use flexer_graph::InductiveTrace;
use flexer_nn::Matrix;
use flexer_store::ModelSnapshot;
use flexer_types::IntentId;
use std::sync::Arc;

impl ResolutionService {
    /// A default-configured service that scores through the reference
    /// kernel.
    pub(crate) fn reference(snapshot: ModelSnapshot) -> Result<Self, ServeError> {
        let mut svc = Self::new(snapshot, ServeConfig::default())?;
        svc.reference_kernel = true;
        Ok(svc)
    }
}

impl<B: BlockingTier> Service<B> {
    /// `(score, trace)` per candidate and requested intent. Candidates are
    /// independent: each runs the exact serial scoring, so the fan-out is
    /// bit-identical at any thread count.
    fn reference_traces(
        &self,
        batch: &PairBatch,
        intents: &[IntentId],
    ) -> Vec<Vec<(f32, InductiveTrace)>> {
        flexer_par::parallel_map(batch.pairs.len(), |j| {
            let emb = &batch.pairs[j].emb;
            let neighbors = self.neighbors_of(emb);
            intents.iter().map(|&p| self.score_pair_inductive(emb, &neighbors, p)).collect()
        })
    }

    /// Ingest phase 1 on the reference kernel.
    pub(super) fn score_candidates_reference(
        &self,
        batch: PairBatch,
        intents: &[IntentId],
    ) -> ScoredCandidates {
        let per_pair = self.reference_traces(&batch, intents);
        let embeddings = batch.pairs.iter().map(|pair| Arc::clone(&pair.emb)).collect();
        (embeddings, ScoredBatch::Reference(per_pair))
    }

    /// A resolve's `scores[pi][j]` on the reference kernel.
    pub(super) fn score_resolve_reference(
        &self,
        batch: &PairBatch,
        intents: &[IntentId],
    ) -> Vec<Vec<f32>> {
        let per_pair = self.reference_traces(batch, intents);
        (0..intents.len()).map(|pi| per_pair.iter().map(|s| s[pi].0).collect()).collect()
    }

    /// Ingest phase 2 from reference traces: the [`ScoredBatch::Reference`]
    /// arm of `apply_scored`.
    pub(super) fn apply_reference(
        &mut self,
        per_pair: Vec<Vec<(f32, InductiveTrace)>>,
        candidates: &[usize],
        record: usize,
        embeddings: &[Arc<PairEmbedding>],
    ) {
        let p_intents = self.n_intents();
        for (j, (per_intent, &other)) in per_pair.into_iter().zip(candidates).enumerate() {
            for (p, (score, trace)) in per_intent.into_iter().enumerate() {
                self.scores[p].push(score);
                for t in 0..self.pinned[p].depths() {
                    for q in 0..p_intents {
                        self.pinned[p].push_row(t, q, trace.hidden[t].row(q));
                    }
                }
                self.pinned[p].add_rows(1);
            }
            self.append_pair(other, record, &embeddings[j]);
        }
    }

    /// Per-layer k-NN pair ids of a new pair's embedding (rank order).
    fn neighbors_of(&self, emb: &PairEmbedding) -> Vec<Vec<usize>> {
        let k = self.snapshot.k;
        let rows = emb.chunks_exact(self.snapshot.graph.dim);
        self.indexes
            .iter()
            .zip(rows)
            .map(|(index, row)| index.search(row, k).into_iter().map(|h| h.id).collect())
            .collect()
    }

    /// Scores one new pair under one intent's frozen GNN; returns the match
    /// likelihood and the full inductive trace (for ingest).
    fn score_pair_inductive(
        &self,
        emb: &PairEmbedding,
        neighbors: &[Vec<usize>],
        intent: IntentId,
    ) -> (f32, InductiveTrace) {
        let p_total = self.n_intents();
        let dim = self.snapshot.graph.dim;
        let model = &self.snapshot.trained[intent].model;
        let neighbor_inputs: Vec<Vec<Matrix>> = (0..model.n_layers())
            .map(|t| {
                (0..p_total)
                    .map(|q| {
                        let ids = &neighbors[q];
                        let d = if t == 0 { dim } else { self.pinned[intent].dim(t - 1) };
                        let mut m = Matrix::zeros(ids.len(), d);
                        for (row, &id) in ids.iter().enumerate() {
                            let src = if t == 0 {
                                self.indexes[q].vector(id)
                            } else {
                                self.pinned[intent].row(t - 1, q, id)
                            };
                            m.row_mut(row).copy_from_slice(src);
                        }
                        m
                    })
                    .collect()
            })
            .collect();
        let emb = Matrix::from_vec(p_total, dim, emb.to_vec());
        let trace = model.forward_inductive(&emb, &neighbor_inputs);
        let score = trace.scores()[intent];
        (score, trace)
    }
}

mod tests {
    use crate::service::{LocatedPair, PairKey};
    use crate::{BlockingTier, ResolutionService, ServeConfig, Service, ShardedResolutionService};
    use flexer_core::{FlexErConfig, FlexErModel, InParallelModel, PipelineContext};
    use flexer_datasets::AmazonMiConfig;
    use flexer_graph::CsrGraph;
    use flexer_nn::Matrix;
    use flexer_store::{IndexKind, ModelSnapshot};
    use flexer_types::{
        LabelMatrix, MatchTarget, ResolveQuery, ResolveResponse, Scale, ShardConfig,
    };
    use std::sync::Arc;
    use std::time::Instant;

    /// Trains on the tiny AmazonMI benchmark and snapshots the result.
    fn fit_snapshot(config: &FlexErConfig) -> ModelSnapshot {
        fit_snapshot_on(AmazonMiConfig::at_scale(Scale::Tiny), config)
    }

    fn fit_snapshot_on(corpus: AmazonMiConfig, config: &FlexErConfig) -> ModelSnapshot {
        let bench = corpus.with_seed(23).generate();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), config).unwrap();
        model.to_snapshot(&ctx, &base, config, IndexKind::Flat).unwrap()
    }

    /// One shared training run for the whole test binary.
    fn trained_snapshot() -> ModelSnapshot {
        static SHARED: std::sync::OnceLock<ModelSnapshot> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| fit_snapshot(&FlexErConfig::fast())).clone()
    }

    /// The query mix every parity test drives: ad-hoc pairs, repeated titles
    /// (cache hits), record queries over known and novel titles.
    fn query_mix<B: BlockingTier>(svc: &Service<B>) -> Vec<ResolveQuery> {
        let mut queries = vec![
            ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016"),
            ResolveQuery::pair("alpha widget", "beta gadget"),
            ResolveQuery::record("BrandNew UltraWidget 9000 Pro Edition"),
        ];
        for i in (0..svc.n_records()).step_by(7).take(6) {
            queries.push(ResolveQuery::record(svc.record_title(i)));
        }
        // Repeats: the second occurrence is served from the embedding cache.
        queries.push(ResolveQuery::record(svc.record_title(0)));
        queries.push(ResolveQuery::pair("Nike Air Max 2016", "NIKE air max 2016"));
        queries
    }

    /// Every answer to the query mix, whichever blocking tier serves it.
    fn drive<B: BlockingTier>(svc: &Service<B>) -> Vec<ResolveResponse> {
        let mut out = Vec::new();
        for q in query_mix(svc) {
            out.extend(svc.resolve_all_intents(&q, 10).unwrap());
        }
        out
    }

    #[test]
    fn batched_and_reference_kernels_agree_on_every_query_shape() {
        let snapshot = trained_snapshot();
        let batched = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let reference = ResolutionService::reference(snapshot).unwrap();
        assert_eq!(
            drive(&batched),
            drive(&reference),
            "batched responses diverge from the reference kernel"
        );
    }

    #[test]
    fn batched_ingest_reproduces_reference_state_exactly() {
        let titles = [
            "BrandNew UltraWidget 9000 Pro Edition",
            "Nike Air Max 2016 second listing",
            "totally unrelated garden hose 5m",
        ];
        let snapshot = trained_snapshot();
        let mut batched = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let mut reference = ResolutionService::reference(snapshot).unwrap();
        let rb = batched.ingest_batch(&titles.iter().map(|t| &**t).collect::<Vec<_>>());
        let rr = reference.ingest_batch(&titles.iter().map(|t| &**t).collect::<Vec<_>>());
        assert_eq!(rb, rr, "ingest reports diverge");
        // Every ingested pair's served score must be bit-identical, and the
        // pinned state must feed later queries identically.
        for pair in batched.n_train_pairs()..batched.n_pairs() {
            assert_eq!(
                batched.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                reference.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                "ingested pair {pair} scores diverge"
            );
        }
        assert_eq!(drive(&batched), drive(&reference), "post-ingest queries diverge");
    }

    /// The served forward asks each intent's GNN for what is read from it —
    /// every node below the last layer, the intent's own nodes at the last —
    /// and that shape depends on the GNN's: a one-layer GNN's first layer is
    /// its last, a three-layer one has a whole middle layer. For each:
    /// identical resolves for every query shape, one intent per call (the
    /// router's shape) equal to that intent of the all-intents call,
    /// identical ingest reports and ingested scores, and the exported
    /// snapshot byte-identical after the ingests.
    #[test]
    fn batched_and_reference_kernels_agree_for_every_gnn_shape() {
        use flexer_graph::GnnConfig;
        let shapes = [
            GnnConfig { n_layers: 1, ..GnnConfig::fast() },
            GnnConfig { n_layers: 3, ..GnnConfig::fast() },
        ];
        let titles = ["BrandNew UltraWidget 9000 Pro Edition", "Nike Air Max 2016 second listing"];
        for gnn in shapes {
            let shape = format!("{} layers", gnn.n_layers);
            let snapshot = fit_snapshot(&FlexErConfig { gnn, ..FlexErConfig::fast() });
            let bytes = snapshot.to_bytes();
            let mut batched =
                ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
            let mut reference = ResolutionService::reference(snapshot).unwrap();
            assert_eq!(drive(&batched), drive(&reference), "{shape}: responses diverge");
            for query in query_mix(&batched) {
                let all = batched.resolve_all_intents(&query, 10).unwrap();
                for (p, want) in all.iter().enumerate() {
                    assert_eq!(
                        &batched.resolve(&query, p, 10).unwrap(),
                        want,
                        "{shape}: intent {p}"
                    );
                }
            }
            assert_eq!(batched.ingest_batch(&titles), reference.ingest_batch(&titles), "{shape}");
            for pair in batched.n_train_pairs()..batched.n_pairs() {
                assert_eq!(
                    batched.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                    reference.resolve_all_intents(&ResolveQuery::CorpusPair(pair), 1).unwrap(),
                    "{shape}: ingested pair {pair} scores diverge"
                );
            }
            assert_eq!(drive(&batched), drive(&reference), "{shape}: post-ingest queries diverge");
            assert_eq!(batched.to_snapshot().to_bytes(), bytes, "{shape}: batched export diverges");
            assert_eq!(reference.to_snapshot().to_bytes(), bytes, "{shape}: reference export");
        }
    }

    #[test]
    fn batched_path_is_thread_count_invariant() {
        let snapshot = trained_snapshot();
        let svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        let serial = flexer_par::with_threads(1, || drive(&svc));
        let parallel = flexer_par::with_threads(8, || drive(&svc));
        assert_eq!(serial, parallel, "thread budget must not change any response bit");
    }

    #[test]
    fn sharded_service_matches_reference_for_every_shard_count() {
        let snapshot = trained_snapshot();
        let mut reference = ResolutionService::reference(snapshot.clone()).unwrap();
        let titles = ["BrandNew UltraWidget 9000 Pro Edition", "Nike Air Max 2016 second listing"];
        let ref_reports = titles.map(|t| reference.ingest(t));
        let ref_responses = drive(&reference);
        for n_shards in [1usize, 2, 5] {
            let mut sharded = ShardedResolutionService::new(
                snapshot.clone(),
                ServeConfig::default(),
                ShardConfig::of(n_shards),
            )
            .unwrap();
            let reports = titles.map(|t| sharded.ingest(t));
            assert_eq!(reports, ref_reports, "{n_shards}-shard ingest reports diverge");
            assert_eq!(
                drive(&sharded),
                ref_responses,
                "{n_shards}-shard batched responses diverge from the unsharded reference kernel"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_survives_batched_ingest() {
        // `to_snapshot` truncates the grown indexes back to the training
        // watermark via the slice-borrowing `AnyIndex::truncated`; the result
        // must stay byte-identical to the loaded snapshot.
        let snapshot = trained_snapshot();
        let original = snapshot.to_bytes();
        let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        svc.ingest("BrandNew UltraWidget 9000 Pro Edition");
        svc.ingest("another listing entirely");
        assert_eq!(
            svc.to_snapshot().to_bytes(),
            original,
            "ingest must not leak into the exported training-time snapshot"
        );
    }

    /// Resolve → ingest → resolve the same title, arranged so that the last
    /// record resolve's one candidate batch holds all three localization
    /// outcomes: the pair a title-pair query brought up to date after the
    /// ingest (reused as it is), the other pre-ingest candidates (resumed over
    /// the appended index tail) and the freshly ingested near-duplicate
    /// (searched from scratch). Ends with the router's call shape, one
    /// resolve per intent. Returns every answer in order.
    fn resolve_ingest_resolve<B: BlockingTier>(svc: &mut Service<B>) -> Vec<ResolveResponse> {
        let title = svc.record_title(0).to_string();
        let query = ResolveQuery::record(title.clone());
        let mut out = svc.resolve_all_intents(&query, 10).unwrap();
        let MatchTarget::Record(best) = out[0].matches[0].target else {
            panic!("a record query ranks records");
        };
        let cache = |svc: &Service<B>| {
            let snap = svc.obs_snapshot();
            (snap.counter("serve.cache.hits").unwrap(), snap.counter("serve.cache.misses").unwrap())
        };
        let before = cache(svc);
        let report = svc.ingest(&format!("{title} second listing"));
        assert!(report.n_pairs > 0, "the ingest must grow the pair indexes");
        let pair = ResolveQuery::pair(svc.record_title(best), &title);
        out.extend(svc.resolve_all_intents(&pair, 10).unwrap());
        out.extend(svc.resolve_all_intents(&query, 10).unwrap());
        let after = cache(svc);
        if svc.config().cache_capacity > 0 {
            // The title-pair query and every pre-ingest candidate hit the
            // cache; the ingested record's pair is the batch's one miss.
            assert!(after.0 > before.0 + 1, "pre-ingest pairs must be cache hits");
            assert_eq!(after.1, before.1 + 1, "the new record's pair is new");
        }
        for intent in 0..svc.n_intents() {
            out.push(svc.resolve(&query, intent, 10).unwrap());
        }
        assert_eq!(
            out[out.len() - svc.n_intents()..],
            svc.resolve_all_intents(&query, 10).unwrap()[..]
        );
        out
    }

    /// The localization cache changes no answer: reused, resumed and
    /// searched-from-scratch neighbour lists are bit-identical to the
    /// uncached per-candidate reference kernel and to a service that caches
    /// nothing — at the trained `k`, at a `k` past the index's rows (every
    /// search returns a short list, which the cache has to pad) and at
    /// `k = 0`, Table 8's no-intra-layer-edges ablation, where every list is
    /// empty; unsharded and for every shard count, and again on a service
    /// rebuilt from the exported snapshot.
    #[test]
    fn cached_localization_is_invisible_across_ingest_backends_and_shards() {
        use flexer_ann::VectorIndex;
        // A sixth of the tiny corpus's pairs keeps a `k` past the rows cheap.
        let few = AmazonMiConfig { n_pairs: 64, ..AmazonMiConfig::at_scale(Scale::Tiny) };
        let short = fit_snapshot_on(few, &FlexErConfig::fast().with_k(64 + 3));
        let index = &short.indexes[0];
        let found = index.search(index.vector(0), short.k).len();
        assert!(0 < found && found < short.k, "k past the rows must produce short lists");
        let snapshots = [trained_snapshot(), short, fit_snapshot(&FlexErConfig::fast().with_k(0))];
        for snapshot in snapshots {
            let boot = |config| ResolutionService::new(snapshot.clone(), config).unwrap();
            let mut oracle = ResolutionService::reference(snapshot.clone()).unwrap();
            let want = resolve_ingest_resolve(&mut oracle);
            let mut uncached = boot(ServeConfig { cache_capacity: 0 });
            assert_eq!(
                resolve_ingest_resolve(&mut uncached),
                want,
                "cache_capacity 0 diverges from the reference kernel"
            );
            let mut svc = boot(ServeConfig::default());
            assert_eq!(
                resolve_ingest_resolve(&mut svc),
                want,
                "cached localization diverges from the reference kernel"
            );
            for n_shards in [1usize, 2, 5] {
                let shards = ShardConfig::of(n_shards);
                let mut sharded =
                    ShardedResolutionService::new(snapshot.clone(), ServeConfig::default(), shards)
                        .unwrap();
                assert_eq!(
                    resolve_ingest_resolve(&mut sharded),
                    want,
                    "{n_shards}-shard cached localization diverges"
                );
            }
            // The cache is serving-tier state: none of it reaches the exported
            // snapshot, and a service booted from the export starts cold and
            // answers the same.
            let exported = svc.to_snapshot();
            assert_eq!(exported.to_bytes(), snapshot.to_bytes());
            let reloaded = ModelSnapshot::from_bytes(&exported.to_bytes()).unwrap();
            let mut again = ResolutionService::new(reloaded, ServeConfig::default()).unwrap();
            assert_eq!(resolve_ingest_resolve(&mut again), want, "reloaded service diverges");
        }
    }

    /// The flat index answers from a partition it grows itself: a list splits
    /// when it passes 64 members, so an index of more than `64 · L` rows holds
    /// more than `L` lists. Ingest until every layer has split at least eight
    /// times, then: (a) the batched and the per-candidate reference kernel
    /// still agree on every answer bit, (b) lists cached at the training
    /// watermark and resumed across all those splits equal lists searched from
    /// scratch, (c) the grown indexes cut back by `AnyIndex::truncated` answer
    /// as indexes built from the prefix rows, and (d) the partition never
    /// reaches the snapshot: save → load → save is byte-identical.
    #[test]
    fn pruned_localization_is_invisible_after_every_layer_has_split_many_times() {
        use flexer_ann::{AnyIndex, FlatIndex, VectorIndex};
        let snapshot = trained_snapshot();
        let boot = |config: ServeConfig| ResolutionService::new(snapshot.clone(), config).unwrap();
        let mut batched = boot(ServeConfig::default());
        let mut uncached = boot(ServeConfig { cache_capacity: 0 });
        let mut reference = ResolutionService::reference(snapshot.clone()).unwrap();
        // Caches the query mix's neighbour lists at the training watermark.
        assert_eq!(drive(&batched), drive(&reference));
        let mut listing = 0;
        while batched.n_pairs() <= 64 * 9 {
            let of = listing * 3 % batched.n_train_records();
            let title = format!("{} listing {listing}", batched.record_title(of));
            let report = batched.ingest(&title);
            assert_eq!(report, reference.ingest(&title), "ingest {listing} diverges");
            assert_eq!(report, uncached.ingest(&title));
            listing += 1;
        }
        let resumed = |svc: &ResolutionService| {
            svc.obs_snapshot().counter("serve.localize.resumed").unwrap_or(0)
        };
        let before = resumed(&batched);
        let want = drive(&reference);
        assert_eq!(drive(&batched), want, "resumed lists diverge from the reference kernel");
        assert!(
            resumed(&batched) > before,
            "the lists cached before the ingests must have been resumed"
        );
        assert_eq!(drive(&uncached), want, "from-scratch lists diverge from the reference kernel");

        let exported = batched.to_snapshot();
        for (cut, trained) in exported.indexes.iter().zip(&snapshot.indexes) {
            let rebuilt = AnyIndex::Flat(FlatIndex::from_rows(trained.dim(), trained.data()));
            for id in 0..trained.len() {
                let query = trained.vector(id);
                let bits = |index: &AnyIndex| -> Vec<(usize, u32)> {
                    let hits = index.search(query, snapshot.k + 1);
                    hits.iter().map(|hit| (hit.id, hit.dist.to_bits())).collect()
                };
                assert_eq!(bits(cut), bits(&rebuilt), "truncated index diverges on row {id}");
            }
        }
        let bytes = exported.to_bytes();
        assert_eq!(bytes, snapshot.to_bytes(), "the partition must not reach the snapshot");
        assert_eq!(ModelSnapshot::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    /// One of the service's own counters, as its snapshot exports it.
    fn counter<B: BlockingTier>(svc: &Service<B>, name: &str) -> u64 {
        svc.obs_snapshot().counter(name).unwrap_or_else(|| panic!("counter {name} missing"))
    }

    /// The blocked candidates of a record query for `title`.
    fn candidates_of<B: BlockingTier>(svc: &Service<B>, title: &str) -> Vec<usize> {
        svc.candidate_records(&[title], Instant::now()).pop().expect("one set per title")
    }

    /// The cache entry of the pair (stored record `id`, `title`), if any.
    fn entry<B: BlockingTier>(
        svc: &Service<B>,
        id: usize,
        title: &str,
    ) -> Option<Arc<LocatedPair>> {
        let key = PairKey::new(svc.sides.digests[id], svc.sides.digest(title));
        svc.cache.lock().unwrap().get(&key).cloned()
    }

    /// The query mix twice: the second pass's answers, once it is checked to
    /// have forwarded nothing and answered every candidate from the memo.
    fn hot_pass<B: BlockingTier>(svc: &Service<B>) -> Vec<ResolveResponse> {
        let warm = drive(svc);
        let work = |svc: &Service<B>| {
            let rows = counter(svc, "serve.forward.rows");
            (
                rows,
                counter(svc, "serve.forward.memo_hits"),
                counter(svc, "serve.resolve.candidates"),
            )
        };
        let before = work(svc);
        let hot = drive(svc);
        let after = work(svc);
        assert_eq!(hot, warm, "the hot pass answers as the warm one");
        assert_eq!(after.0, before.0, "a hot pass forwards no node");
        // Every record query's candidates, and each title pair's one.
        let mix = query_mix(svc);
        let title_pairs = mix.iter().filter(|q| matches!(q, ResolveQuery::TitlePair(..))).count();
        assert_eq!(after.1 - before.1, after.2 - before.2 + title_pairs as u64);
        hot
    }

    /// The memo changes no answer: after a warm pass of the query mix, a
    /// repeated pass runs no GNN at all and answers bit-identically to the
    /// uncached reference kernel and to a service that caches (so memoizes)
    /// nothing — unsharded and through the sharded tier.
    #[test]
    fn hot_pass_answers_from_the_memo_bit_identically() {
        let snapshot = trained_snapshot();
        let want = drive(&ResolutionService::reference(snapshot.clone()).unwrap());
        let uncached =
            ResolutionService::new(snapshot.clone(), ServeConfig { cache_capacity: 0 }).unwrap();
        assert_eq!(drive(&uncached), want, "cache_capacity 0 diverges from the reference kernel");
        assert_eq!(drive(&uncached), want);
        assert_eq!(counter(&uncached, "serve.forward.memo_hits"), 0, "nothing to memoize in");
        let unsharded = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        assert_eq!(hot_pass(&unsharded), want, "memoized scores diverge");
        let sharded =
            ShardedResolutionService::new(snapshot, ServeConfig::default(), ShardConfig::of(2))
                .unwrap();
        assert_eq!(hot_pass(&sharded), want, "sharded memoized scores diverge");
    }

    /// Ingests of near-duplicates of a cached query's candidates move some of
    /// their cached lists and leave others as they were. The resolve after
    /// them forwards exactly the moved ones and the new records' pairs, keeps
    /// every other memo through its resume, and answers with the bits of a
    /// fresh service that replayed the same ingests.
    #[test]
    fn memo_survives_a_resume_that_leaves_the_lists_as_they_were() {
        let snapshot = trained_snapshot();
        let mut svc = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let title = svc.record_title(0).to_string();
        let query = ResolveQuery::record(title.clone());
        let warm = svc.resolve_all_intents(&query, 10).unwrap();
        let duplicates: Vec<String> = warm[0].matches[..3]
            .iter()
            .map(|m| match m.target {
                MatchTarget::Record(r) => format!("{} (2nd listing)", svc.record_title(r)),
                _ => panic!("a record query ranks records"),
            })
            .collect();
        let duplicates: Vec<&str> = duplicates.iter().map(String::as_str).collect();
        let cached: Vec<(usize, Arc<LocatedPair>)> = candidates_of(&svc, &title)
            .into_iter()
            .map(|id| (id, entry(&svc, id, &title).expect("the warm resolve cached it")))
            .collect();
        svc.ingest_batch(&duplicates);
        let mut fresh = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        fresh.ingest_batch(&duplicates);

        let work = |svc: &ResolutionService| {
            let names = ["serve.forward.rows", "serve.forward.memo_hits", "serve.localize.resumed"];
            names.map(|name| counter(svc, name))
        };
        let before = work(&svc);
        let answer = svc.resolve_all_intents(&query, 10).unwrap();
        assert_eq!(answer, fresh.resolve_all_intents(&query, 10).unwrap(), "answers diverge");
        let after = work(&svc);

        let p = svc.n_intents();
        let (mut moved, mut kept, mut new) = (0, 0, 0);
        for id in candidates_of(&svc, &title) {
            let now = entry(&svc, id, &title).expect("the resolve cached it");
            let Some((_, old)) = cached.iter().find(|(cached, _)| *cached == id) else {
                new += 1;
                continue;
            };
            if (0..p).any(|q| now.layer(q, p).ne(old.layer(q, p))) {
                moved += 1;
            } else {
                assert!(Arc::ptr_eq(&now.hood, &old.hood), "record {id}: block, so memo, not kept");
                kept += 1;
            }
        }
        assert!(moved > 0 && kept > 0 && new > 0, "moved {moved}, kept {kept}, new {new}");
        let p = p as u64;
        assert_eq!(after[2] - before[2], (moved + kept) * p, "every cached list was behind");
        assert_eq!(after[0] - before[0], (moved + new) * p, "only moved and new pairs forwarded");
        assert_eq!(after[1] - before[1], kept, "every kept memo answered");
    }

    /// A resolve under one intent memoizes that intent only. The
    /// all-intents resolve after it forwards every candidate under the other
    /// intents and no pass under that one, answers it from the memo, and
    /// every answer keeps the reference kernel's bits. After that, no single
    /// intent forwards anything.
    #[test]
    fn one_intent_then_all_forwards_only_the_missing_intents() {
        let snapshot = trained_snapshot();
        let svc = ResolutionService::new(snapshot.clone(), ServeConfig::default()).unwrap();
        let reference = ResolutionService::reference(snapshot).unwrap();
        let title = svc.record_title(14).to_string();
        let query = ResolveQuery::record(title.clone());
        let p = svc.n_intents();
        let one = svc.resolve(&query, 1, 10).unwrap();
        assert_eq!(one, reference.resolve(&query, 1, 10).unwrap());
        let candidates = candidates_of(&svc, &title);
        let memo = |id| {
            let pair = entry(&svc, id, &title).expect("cached");
            (0..p).map(|q| pair.score(q, p)).collect::<Vec<_>>()
        };
        for &id in &candidates {
            let memo = memo(id);
            assert!((0..p).all(|q| memo[q].is_none() == (q != 1)), "record {id}: {memo:?}");
        }

        let names = [
            "serve.forward.rows",
            "serve.forward.concat_rows",
            "serve.forward.gemm_rows",
            "serve.forward.memo_hits",
        ];
        let work = |svc: &ResolutionService| names.map(|name| counter(svc, name));
        let before = work(&svc);
        let all = svc.resolve_all_intents(&query, 10).unwrap();
        let after = work(&svc);
        assert_eq!(all[1], one, "the memoized intent keeps its bits");
        assert_eq!(all, reference.resolve_all_intents(&query, 10).unwrap());
        let (b, p64) = (candidates.len() as u64, p as u64);
        // Two-layer GNNs, one pass per missing intent: the first layer's
        // concat shared (B·P rows) and each pass's last layer on its own
        // intent's B nodes; per pass a first-layer GEMM over B·P rows and a
        // last-layer one over B.
        let passes = p64 - 1;
        assert_eq!(after[0] - before[0], b * p64, "every candidate lacked an intent");
        assert_eq!(after[1] - before[1], b * p64 + passes * b);
        assert_eq!(after[2] - before[2], passes * (b * p64 + b), "no pass under intent 1");
        assert_eq!(after[3], before[3]);
        for &id in &candidates {
            let memo = memo(id);
            assert!(memo.iter().all(Option::is_some), "record {id}: {memo:?}");
        }

        for (q, want) in all.iter().enumerate() {
            assert_eq!(&svc.resolve(&query, q, 10).unwrap(), want, "intent {q}");
        }
        assert_eq!(counter(&svc, "serve.forward.rows"), after[0], "every intent memoized");
        assert_eq!(counter(&svc, "serve.forward.memo_hits"), after[3] + p64 * b);
    }

    /// The trained snapshot with every pair cut: its records stay, so
    /// record queries have candidates, but no pair is served.
    fn pairless_snapshot() -> ModelSnapshot {
        let mut snapshot = trained_snapshot();
        snapshot.pairs.clear();
        snapshot.indexes = snapshot.indexes.iter().map(|index| index.truncated(0)).collect();
        snapshot.predictions = LabelMatrix::zeros(0, snapshot.intents.len());
        for trained in &mut snapshot.trained {
            trained.scores.clear();
            trained.preds.clear();
        }
        let graph = &mut snapshot.graph;
        graph.n_pairs = 0;
        graph.features = Matrix::zeros(0, graph.dim);
        graph.intra = CsrGraph::from_in_neighbors(&[]);
        graph.inter = CsrGraph::from_in_neighbors(&[]);
        snapshot.validate().expect("a snapshot may serve no pair");
        snapshot
    }

    /// With no pair served, every ad-hoc pair is scored over empty lists,
    /// still localized (P empty lists and a memo): the answers, a hot pass
    /// from the memo, and an ingest into the empty graph all keep the
    /// reference kernel's bits.
    #[test]
    fn a_service_with_no_pairs_scores_over_empty_lists() {
        let snapshot = pairless_snapshot();
        let mut reference = ResolutionService::reference(snapshot.clone()).unwrap();
        let mut svc = ResolutionService::new(snapshot, ServeConfig::default()).unwrap();
        let want = drive(&reference);
        assert_eq!(hot_pass(&svc), want, "a pairless service diverges");
        let title = "BrandNew UltraWidget 9000 Pro Edition";
        assert_eq!(svc.ingest(title), reference.ingest(title));
        assert!(svc.n_pairs() > 0, "the ingest serves its pairs");
        assert_eq!(drive(&svc), drive(&reference), "after the first ingest");
    }
}
