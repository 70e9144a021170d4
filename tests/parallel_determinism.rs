//! Parallel-execution determinism: FlexER's per-intent fan-out, the
//! in-parallel baseline, and the underlying kernels must produce
//! bit-identical results for every thread count — 1 thread, the default
//! budget, and an oversubscribed budget. Under `RAYON_NUM_THREADS=1` every
//! fan-out is a plain loop and the pinned digests must still hold, proving
//! the serial and parallel configurations agree.
//!
//! The digests also hold at either vector width: the repository's
//! `.cargo/config.toml` builds for `x86-64-v3` (256-bit AVX2), and
//! `RUSTFLAGS=-Ctarget-cpu=x86-64` builds the portable SSE2 baseline. Rust
//! neither fuses `a * b + c` into an FMA nor reassociates a float fold, so
//! each kernel's per-lane fold order is the same at both widths; a digest
//! that holds at one width and fails at the other names a kernel whose bits
//! depend on it.

use flexer::par::with_threads;
use flexer::prelude::*;
use flexer_core::{FlexErModel, InParallelModel, PipelineContext};
use flexer_types::LabelMatrix;

fn context() -> (PipelineContext, FlexErConfig) {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(77).generate();
    let config = FlexErConfig::fast().with_seed(13);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    (ctx, config)
}

/// Full pipeline (in-parallel base + FlexER) under a fixed thread budget.
fn run_pipeline(threads: usize) -> (LabelMatrix, LabelMatrix, Vec<Vec<f32>>) {
    with_threads(threads, || {
        let (ctx, config) = context();
        let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
        let flexer =
            FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("fits");
        let scores: Vec<Vec<f32>> = flexer.trained.iter().map(|t| t.scores.clone()).collect();
        (base.predictions, flexer.predictions, scores)
    })
}

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    let (base_1, flexer_1, scores_1) = run_pipeline(1);
    for threads in [2usize, 4, 8] {
        let (base_n, flexer_n, scores_n) = run_pipeline(threads);
        assert_eq!(base_1, base_n, "in-parallel predictions differ at {threads} threads");
        assert_eq!(flexer_1, flexer_n, "FlexER predictions differ at {threads} threads");
        // Scores are raw f32s — bit-identical, not just approximately equal.
        assert_eq!(scores_1, scores_n, "per-intent GNN scores differ at {threads} threads");
    }
}

#[test]
fn default_budget_matches_single_thread() {
    // The default budget (RAYON_NUM_THREADS / available parallelism) must
    // agree with the forced-serial run too.
    let (base_1, flexer_1, scores_1) = run_pipeline(1);
    let (ctx, config) = context();
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
    let flexer = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("fits");
    assert_eq!(base_1, base.predictions);
    assert_eq!(flexer_1, flexer.predictions);
    let scores: Vec<Vec<f32>> = flexer.trained.iter().map(|t| t.scores.clone()).collect();
    assert_eq!(scores_1, scores);
}

#[test]
fn subset_fit_borrows_and_stays_deterministic() {
    let run = |threads: usize| {
        with_threads(threads, || {
            let (ctx, config) = context();
            let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
            let eq = ctx.equivalence_id().expect("equivalence intent");
            let trained =
                FlexErModel::fit_subset_for_target(&ctx, &base.embeddings(), &[eq, 1], eq, &config)
                    .expect("subset fits");
            (trained.preds, trained.scores)
        })
    };
    let (preds_1, scores_1) = run(1);
    let (preds_4, scores_4) = run(4);
    assert_eq!(preds_1, preds_4);
    assert_eq!(scores_1, scores_4);
}

/// FNV-1a over a sequence of lists: each list's length, then its items.
fn fnv1a<L: ExactSizeIterator<Item = u32>>(lists: impl Iterator<Item = L>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for list in lists {
        eat(list.len() as u32);
        list.for_each(&mut eat);
    }
    h
}

/// The fit-time k-NN graph goes through the index's query-grouped,
/// pruned search. Its edge lists are the exact k nearest under the
/// (distance, id) order, so they are a property of the embeddings alone:
/// the same at every thread count, and pinned so that a change to the
/// index that moves one edge is a decision, not a side effect.
#[test]
fn knn_edge_lists_are_pinned_at_any_thread_count() {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(11).generate();
    let config = FlexErConfig::fast().with_seed(11);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
    for threads in [1usize, 4] {
        let graph = with_threads(threads, || {
            flexer::graph::build_intent_graph(&base.embeddings(), config.k)
        });
        // Every node's in-degree and neighbour ids.
        let hoods = (0..graph.n_nodes()).map(|v| graph.intra.in_neighbors(v).iter().copied());
        assert_eq!(
            (graph.n_intra_edges(), fnv1a(hoods)),
            (7_720, 0x472E_FB51_67C2_D230),
            "{threads} threads"
        );
    }
}

/// Every trained number downstream of a fit — the five intents' GNN scores
/// and the matcher representations they were trained on — pinned by
/// digest at 1 and 4 threads. The values were taken before the GNN
/// training pass, the streaming weight-gradient kernel and the zipped Adam
/// step replaced the whole-graph pass and the loops they had been, and did
/// not move: a rewrite of any of them that changes one bit of one score is
/// a decision, not a side effect.
#[test]
fn trained_scores_and_embeddings_are_pinned_at_any_thread_count() {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(11).generate();
    let config = FlexErConfig::fast().with_seed(11);
    for threads in [1usize, 4] {
        let (embeddings, scores) = with_threads(threads, || {
            let ctx =
                PipelineContext::new(bench.clone(), &config.matcher).expect("valid benchmark");
            let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
            let flexer =
                FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("fits");
            let scores: Vec<Vec<f32>> = flexer.trained.iter().map(|t| t.scores.clone()).collect();
            let embeddings: Vec<Vec<f32>> =
                base.embeddings().iter().map(|m| m.data().to_vec()).collect();
            (embeddings, scores)
        });
        let digest =
            |vectors: &[Vec<f32>]| fnv1a(vectors.iter().map(|v| v.iter().map(|x| x.to_bits())));
        assert_eq!(scores.len(), 5, "AmazonMI has five intents");
        assert_eq!(
            (digest(&embeddings), digest(&scores)),
            (0x6997_BDCC_9DCB_E7E9, 0xAC43_53F3_ECA5_03EF),
            "{threads} threads: (embeddings, scores) digests {:#X} {:#X}",
            digest(&embeddings),
            digest(&scores)
        );
    }
}

/// What the serving tier answers, pinned by digest at 1 and 4 threads:
/// never-seen titles resolved under every intent, ingested as one batch,
/// then resolved again. That runs the sparse input layer, the matchers'
/// batched embedding, the pruned search from scratch and resumed over the
/// ingested tail, and the batched GNN forward. Every other serving test
/// holds two paths to each other inside one build; this one holds the
/// answers themselves, so a codegen change that moved both paths the same
/// way still fails here.
#[test]
fn served_answers_are_pinned_at_any_thread_count() {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(11).generate();
    let config = FlexErConfig::fast().with_seed(11);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    let base = InParallelModel::fit(&ctx, &config.matcher).expect("in-parallel fits");
    let flexer = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).expect("fits");
    let snapshot = flexer.to_snapshot(&ctx, &base, &config, IndexKind::Flat).expect("exports");
    for threads in [1usize, 4] {
        let digest = with_threads(threads, || {
            let mut svc = ResolutionService::new(snapshot.clone(), ServeConfig::default())
                .expect("the snapshot serves");
            let titles: Vec<String> = (0..8)
                .map(|i| format!("{} listing {i}", svc.record_title(i * 3 % svc.n_train_records())))
                .collect();
            // Per answer, (record id, score bits) of every ranked match.
            let answers = |svc: &ResolutionService| -> Vec<Vec<u32>> {
                let mut lists = Vec::new();
                for title in &titles {
                    let query = ResolveQuery::record(title.clone());
                    for response in svc.resolve_all_intents(&query, 10).expect("resolves") {
                        let mut list = Vec::new();
                        for m in &response.matches {
                            let MatchTarget::Record(id) = m.target else {
                                panic!("a record query ranks records");
                            };
                            list.extend([id as u32, m.score.to_bits()]);
                        }
                        lists.push(list);
                    }
                }
                lists
            };
            let mut lists = answers(&svc);
            let batch: Vec<&str> = titles.iter().map(String::as_str).collect();
            for r in svc.ingest_batch(&batch) {
                lists.push(
                    [r.record, r.first_pair, r.n_pairs, r.n_suppressed].map(|x| x as u32).into(),
                );
            }
            lists.extend(answers(&svc));
            fnv1a(lists.into_iter().map(Vec::into_iter))
        });
        assert_eq!(digest, 0xBB09_21DA_116C_3FD5, "{threads} threads: served digest {digest:#X}");
    }
}
