//! §7: FlexER consumes record-pair representations from *any* matcher.
//! Its own are the in-parallel matchers' (`FlexErModel::fit`); these tests
//! hand it externally supplied embeddings instead.

use flexer::prelude::*;
use flexer_core::{evaluate_on_split, FlexErModel, PipelineContext};
use flexer_nn::Matrix;

fn context(seed: u64) -> (PipelineContext, FlexErConfig) {
    let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(seed).generate();
    let config = FlexErConfig::fast().with_seed(seed);
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    (ctx, config)
}

/// "We wish to test FlexER with additional matchers that produce record
/// pair representations" (§7): any embedding matrix of the right shape
/// works — here, a hand-rolled similarity sketch per intent.
#[test]
fn external_matcher_embeddings_are_accepted() {
    let (ctx, config) = context(205);
    let n = ctx.benchmark.n_pairs();
    let dim = 8;
    // Fake "matcher": embeddings derived from title-length statistics, one
    // matrix per intent with a per-intent offset.
    let embeddings: Vec<Matrix> = (0..ctx.n_intents())
        .map(|p| {
            Matrix::from_fn(n, dim, |i, j| {
                let (a, b) = ctx.benchmark.pair_titles(i);
                let la = a.len() as f32;
                let lb = b.len() as f32;
                ((la - lb).abs() * 0.01 + j as f32 * 0.1 + p as f32).sin()
            })
        })
        .collect();
    let refs: Vec<&Matrix> = embeddings.iter().collect();
    let model = FlexErModel::fit_from_embeddings(&ctx, &refs, &config).expect("external fit");
    assert_eq!(model.predictions.n_pairs(), n);
    // Weak features give weak predictions, but the pipeline stays sound:
    let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
    assert!(report.mi_f1.is_finite());
}

#[test]
fn mismatched_external_embedding_shapes_are_rejected() {
    let (ctx, config) = context(207);
    let n = ctx.benchmark.n_pairs();
    let good = Matrix::zeros(n, 8);
    let bad_dim = Matrix::zeros(n, 4);
    let refs: Vec<&Matrix> =
        (0..ctx.n_intents() - 1).map(|_| &good).chain(std::iter::once(&bad_dim)).collect();
    // Dimension mismatch across layers panics in graph construction by
    // contract; count mismatch errors cleanly first.
    let too_few: Vec<&Matrix> = vec![&good];
    assert!(FlexErModel::fit_from_embeddings(&ctx, &too_few, &config).is_err());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FlexErModel::fit_from_embeddings(&ctx, &refs, &config)
    }));
    assert!(result.is_err(), "dimension mismatch must not silently succeed");
}
