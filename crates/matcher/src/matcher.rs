//! The binary (single-intent) matcher — the in-parallel building block.
//!
//! Architecture: sparse hashed features → hidden ReLU layer → embedding
//! ReLU layer → 2 logits. The embedding activation is the pair's
//! intent-based representation (DITTO's `[cls]` analogue, §4.1.1): training
//! the same architecture independently per intent yields representations in
//! *different latent spaces*, exactly the property the multiplex graph is
//! designed around.

use crate::config::MatcherConfig;
use crate::train::{minibatches, PairCorpus};
use flexer_nn::activation::{is_match, match_probabilities, relu_backward_inplace, relu_inplace};
use flexer_nn::loss::softmax_cross_entropy;
use flexer_nn::select::{f1, Selection};
use flexer_nn::{Adam, Linear, Matrix, Mlp, MlpConfig, Optimizer, SparseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Inference output over a pair set.
#[derive(Debug, Clone)]
pub struct MatcherOutput {
    /// Likelihood score `P(match)` per pair (the ŷ of Eq. 1).
    pub scores: Vec<f32>,
    /// Thresholded binary predictions (argmax of the two logits).
    pub preds: Vec<bool>,
    /// Intent-based representation per pair (`[cls]` analogue).
    pub embeddings: Matrix,
}

/// A trained binary matcher.
#[derive(Debug, Clone)]
pub struct BinaryMatcher {
    input: Linear,
    head: Mlp,
    /// Validation F1 of the selected (best) epoch.
    pub best_valid_f1: f64,
}

impl BinaryMatcher {
    /// Reassembles a matcher from its weights (the snapshot-import path).
    /// Panics unless the trunk output feeds the head input.
    pub fn from_parts(input: Linear, head: Mlp, best_valid_f1: f64) -> Self {
        assert_eq!(
            input.out_dim(),
            head.layer(0).in_dim(),
            "trunk output width must match head input width"
        );
        Self { input, head, best_valid_f1 }
    }

    /// The sparse-input trunk layer (snapshot export).
    pub fn input(&self) -> &Linear {
        &self.input
    }

    /// The dense head (embedding layer + logits; snapshot export).
    pub fn head(&self) -> &Mlp {
        &self.head
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.head.layer(self.head.n_layers() - 1).in_dim()
    }

    /// Trains a matcher on one intent's labels with cross-entropy (Eq. 1),
    /// Adam, optional span-deletion augmentation, and validation-F1 model
    /// selection ([`Selection`], offered after each epoch, no patience).
    ///
    /// `labels` covers *all* corpus pairs; only `train_idx` rows contribute
    /// gradients and only `valid_idx` rows drive model selection — the test
    /// rows stay untouched, as in the paper's protocol.
    pub fn train(
        corpus: &PairCorpus,
        labels: &[bool],
        train_idx: &[usize],
        valid_idx: &[usize],
        config: &MatcherConfig,
    ) -> Self {
        assert_eq!(labels.len(), corpus.len(), "labels must cover the corpus");
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0xB1AA));
        let input = Linear::new(&mut rng, corpus.featurizer.total_dim(), config.hidden_dim);
        let head = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: config.hidden_dim,
                hidden: vec![config.embedding_dim],
                output_dim: 2,
            },
        );
        let mut model = Self { input, head, best_valid_f1: 0.0 };
        let mut opt = Adam::new(config.adam());

        let mut selection = Selection::new(None);
        for _epoch in 0..config.epochs {
            for batch in minibatches(train_idx, config.batch_size, &mut rng) {
                let mut t = Instant::now();
                let (x, rows) = corpus.batch(&batch, config.augment, &mut rng);
                let targets: Vec<usize> = rows.iter().map(|&i| labels[i] as usize).collect();
                model.step(&x, &targets, &mut opt, &mut t);
            }
            let preds = model.infer_rows(&corpus.features, valid_idx).preds;
            let score = f1(preds.into_iter().zip(valid_idx.iter().map(|&i| labels[i])));
            selection.offer(score, || model.clone());
        }
        let (best_valid_f1, best, _) = selection.finish();
        Self { best_valid_f1, ..best }
    }

    /// One Adam step on a batch's cross-entropy. The time since `*t` up to
    /// the gradients is `matcher.fit.step`, the update `matcher.fit.apply`
    /// (flat spans: fits run on `flexer-par` workers).
    fn step(&mut self, x: &SparseMatrix, targets: &[usize], opt: &mut Adam, t: &mut Instant) {
        let mut h = self.input.forward_sparse(x);
        relu_inplace(&mut h);
        let trace = self.head.forward_trace(&h);
        let (_, grad_logits) = softmax_cross_entropy(trace.output(), targets, None);

        self.input.zero_grad();
        self.head.zero_grad();
        let mut dh = self.head.backward(&trace, &grad_logits);
        relu_backward_inplace(&mut dh, &h);
        self.input.backward_sparse(x, &dh);
        let rec = flexer_obs::global();
        rec.lap("matcher.fit.step", t);

        opt.begin_step();
        let used = self.input.apply(opt, 0);
        self.head.apply(opt, used);
        rec.lap("matcher.fit.apply", t);
    }

    /// Runs inference on a subset of corpus rows.
    pub fn infer_rows(&self, features: &SparseMatrix, rows: &[usize]) -> MatcherOutput {
        let sub = features.select_rows(rows);
        self.infer(&sub)
    }

    /// Intent-based representation of every row of a feature matrix: the
    /// sparse input layer and the head up to its embedding layer, nothing
    /// of the logits head — what a serving cache miss needs. The head runs
    /// its batched row-parallel forward pass (bit-identical to the serial
    /// trace at any thread count).
    pub fn embed(&self, features: &SparseMatrix) -> Matrix {
        // Sparse input layer: the matmul has no dense B to pack, but the
        // bias + ReLU passes fuse into one sweep over the hidden states.
        let mut h = features.matmul_dense(&self.input.w);
        flexer_nn::kernels::bias_relu_inplace(&mut h, &self.input.b, true);
        self.head.embed_batch(&h)
    }

    /// Runs inference on every row of a feature matrix:
    /// [`embed`](Self::embed) plus the logits head.
    pub fn infer(&self, features: &SparseMatrix) -> MatcherOutput {
        let embeddings = self.embed(features);
        let scores = match_probabilities(&self.head.logits(&embeddings));
        let preds = scores.iter().map(|&s| is_match(s)).collect();
        MatcherOutput { scores, preds, embeddings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::{Scale, Split};

    fn trained_on_eq() -> (PairCorpus, BinaryMatcher, flexer_types::MierBenchmark) {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(11).generate();
        let config = MatcherConfig::fast();
        let corpus = PairCorpus::from_benchmark(&bench, &config);
        let labels = bench.labels.column(0);
        let matcher = BinaryMatcher::train(
            &corpus,
            &labels,
            &bench.split_indices(Split::Train),
            &bench.split_indices(Split::Valid),
            &config,
        );
        (corpus, matcher, bench)
    }

    #[test]
    fn learns_equivalence_better_than_chance() {
        // Other tests fit on the same global recorder concurrently: each
        // count grows by at least this fit's minibatch steps.
        let stages = ["matcher.fit.step", "matcher.fit.apply"];
        let counts =
            || stages.map(|s| flexer_obs::global().snapshot().span(s).map_or(0, |h| h.count));
        let before = counts();
        let (corpus, matcher, bench) = trained_on_eq();
        let config = MatcherConfig::fast();
        let n_train = bench.split_indices(Split::Train).len();
        let steps = (config.epochs * n_train.div_ceil(config.batch_size)) as u64;
        for ((stage, b), a) in stages.iter().zip(before).zip(counts()) {
            assert!(a - b >= steps, "{stage}: {b} -> {a}, {steps} steps taken");
        }
        let test_idx = bench.split_indices(Split::Test);
        let out = matcher.infer_rows(&corpus.features, &test_idx);
        let labels = test_idx.iter().map(|&i| bench.labels.get(i, 0));
        let f1 = f1(out.preds.into_iter().zip(labels));
        // Eq. positives are ~15%; an untrained or constant matcher sits
        // near 0 or ~0.26 F1. A trained one must be far above.
        assert!(f1 > 0.55, "test F1 = {f1:.3}");
        // The tiny validation split holds only ~10 positives; allow slack.
        assert!(matcher.best_valid_f1 > 0.45, "valid F1 = {:.3}", matcher.best_valid_f1);
    }

    #[test]
    fn output_shapes_consistent() {
        let (corpus, matcher, bench) = trained_on_eq();
        let out = matcher.infer(&corpus.features);
        assert_eq!(out.scores.len(), bench.n_pairs());
        assert_eq!(out.preds.len(), bench.n_pairs());
        assert_eq!(out.embeddings.rows(), bench.n_pairs());
        assert_eq!(out.embeddings.cols(), matcher.embedding_dim());
        for &s in &out.scores {
            assert!((0.0..=1.0).contains(&s));
            assert!(s.is_finite());
        }
    }

    #[test]
    fn embed_is_infer_without_the_logits_head() {
        let (corpus, matcher, _) = trained_on_eq();
        assert_eq!(matcher.embed(&corpus.features), matcher.infer(&corpus.features).embeddings);
    }

    #[test]
    fn preds_match_score_threshold() {
        let (corpus, matcher, _) = trained_on_eq();
        let out = matcher.infer(&corpus.features);
        for (p, s) in out.preds.iter().zip(&out.scores) {
            assert_eq!(*p, *s > 0.5);
        }
    }

    #[test]
    fn from_parts_roundtrips_inference() {
        let (corpus, matcher, _) = trained_on_eq();
        let rebuilt = BinaryMatcher::from_parts(
            matcher.input().clone(),
            matcher.head().clone(),
            matcher.best_valid_f1,
        );
        let a = matcher.infer(&corpus.features);
        let b = rebuilt.infer(&corpus.features);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.embeddings, b.embeddings);
    }

    #[test]
    fn deterministic_training() {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(3).generate();
        let config = MatcherConfig::fast().with_seed(21);
        let corpus = PairCorpus::from_benchmark(&bench, &config);
        let labels = bench.labels.column(0);
        let train = bench.split_indices(Split::Train);
        let valid = bench.split_indices(Split::Valid);
        let a = BinaryMatcher::train(&corpus, &labels, &train, &valid, &config);
        let b = BinaryMatcher::train(&corpus, &labels, &train, &valid, &config);
        let oa = a.infer(&corpus.features);
        let ob = b.infer(&corpus.features);
        assert_eq!(oa.scores, ob.scores);
    }

    #[test]
    fn different_seeds_give_different_latent_spaces() {
        // §4.1.1: independently trained representations live in different
        // latent spaces — verify embeddings differ across seeds.
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(3).generate();
        let config_a = MatcherConfig::fast().with_seed(1);
        let config_b = MatcherConfig::fast().with_seed(2);
        let corpus = PairCorpus::from_benchmark(&bench, &config_a);
        let labels = bench.labels.column(0);
        let train = bench.split_indices(Split::Train);
        let valid = bench.split_indices(Split::Valid);
        let a = BinaryMatcher::train(&corpus, &labels, &train, &valid, &config_a);
        let b = BinaryMatcher::train(&corpus, &labels, &train, &valid, &config_b);
        let ea = a.infer(&corpus.features).embeddings;
        let eb = b.infer(&corpus.features).embeddings;
        let mut diff = 0.0f32;
        for i in 0..ea.rows() {
            diff += Matrix::row_l2_sq(&ea, i, &eb, i);
        }
        assert!(diff > 1e-3, "embeddings unexpectedly identical");
    }

    #[test]
    #[should_panic(expected = "labels must cover the corpus")]
    fn label_length_checked() {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(3).generate();
        let config = MatcherConfig::fast();
        let corpus = PairCorpus::from_benchmark(&bench, &config);
        let _ = BinaryMatcher::train(&corpus, &[true], &[0], &[1], &config);
    }
}
