//! The multi-task matcher of §3.3 / §5.2.2.
//!
//! One shared trunk, a binary head per intent *and* a multi-label sigmoid
//! head, trained jointly: per-intent cross entropy plus the weighted
//! multi-label BCE of Eq. 2 (equal weights, the heuristic the paper settles
//! on after finding no gain from learned weights). "After fine-tuning the
//! multi-task network, we extract the intent-based representations, using
//! the latent representation of the layer prior to the output, per intent"
//! — reproduced by the per-intent embedding layers.

use crate::config::MatcherConfig;
use crate::matcher::MatcherOutput;
use crate::train::{minibatches, PairCorpus};
use flexer_nn::activation::{
    is_match, match_probabilities, relu_backward_inplace, relu_inplace, sigmoid,
};
use flexer_nn::loss::{multilabel_bce_with_logits, softmax_cross_entropy};
use flexer_nn::select::{f1, Selection};
use flexer_nn::{Adam, Linear, Matrix, Optimizer, SparseMatrix};
use flexer_types::LabelMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A trained multi-task matcher over `P` intents.
#[derive(Debug, Clone)]
pub struct MultiTaskMatcher {
    trunk: Linear,
    emb_layers: Vec<Linear>,
    heads: Vec<Linear>,
    ml_head: Linear,
    /// Mean validation F1 (over intents) of the selected epoch.
    pub best_valid_f1: f64,
}

impl MultiTaskMatcher {
    /// Number of intents.
    pub fn n_intents(&self) -> usize {
        self.heads.len()
    }

    /// Trains the multi-task network on all intents jointly — a *single*
    /// training phase, the efficiency argument of §3.3. Model selection is
    /// the binary matcher's ([`Selection`] after each epoch, no patience)
    /// on the mean validation F1 over intents.
    pub fn train(
        corpus: &PairCorpus,
        labels: &LabelMatrix,
        train_idx: &[usize],
        valid_idx: &[usize],
        config: &MatcherConfig,
    ) -> Self {
        assert_eq!(labels.n_pairs(), corpus.len(), "labels must cover the corpus");
        let n_intents = labels.n_intents();
        assert!(n_intents > 0, "at least one intent required");
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x311B));
        let (hidden, embedding) = (config.hidden_dim, config.embedding_dim);
        let mut model = Self {
            trunk: Linear::new(&mut rng, corpus.featurizer.total_dim(), hidden),
            emb_layers: (0..n_intents).map(|_| Linear::new(&mut rng, hidden, embedding)).collect(),
            heads: (0..n_intents).map(|_| Linear::new(&mut rng, embedding, 2)).collect(),
            ml_head: Linear::new(&mut rng, hidden, n_intents),
            best_valid_f1: 0.0,
        };
        let mut opt = Adam::new(config.adam());

        let mut selection = Selection::new(None);
        for _epoch in 0..config.epochs {
            for batch in minibatches(train_idx, config.batch_size, &mut rng) {
                let mut t = Instant::now();
                let (x, rows) = corpus.batch(&batch, config.augment, &mut rng);
                model.step(&x, &rows, labels, config.multilabel_weight, &mut opt, &mut t);
            }
            let mut total = 0.0;
            for p in 0..n_intents {
                let preds = model.infer_intent_rows(&corpus.features, valid_idx, p).preds;
                total += f1(preds.into_iter().zip(valid_idx.iter().map(|&i| labels.get(i, p))));
            }
            selection.offer(total / n_intents as f64, || model.clone());
        }
        let (best_valid_f1, best, _) = selection.finish();
        Self { best_valid_f1, ..best }
    }

    /// One Adam step on a batch: the per-intent cross-entropies plus the
    /// weighted multi-label BCE, all backpropagated into the shared trunk.
    /// Timed as the binary matcher's step: `matcher.fit.step` since `*t`,
    /// then `matcher.fit.apply`.
    fn step(
        &mut self,
        x: &SparseMatrix,
        rows: &[usize],
        labels: &LabelMatrix,
        multilabel_weight: f32,
        opt: &mut Adam,
        t: &mut Instant,
    ) {
        let (n, n_intents) = (x.rows(), self.n_intents());
        let h = self.trunk_forward(x);

        // Accumulate trunk gradient from every head.
        let mut dh = Matrix::zeros(n, h.cols());
        self.trunk.zero_grad();
        self.ml_head.zero_grad();

        // Per-intent binary heads (CE each; losses are summed, the usual
        // multi-task convention, so each head keeps full gradient).
        for p in 0..n_intents {
            let targets: Vec<usize> = rows.iter().map(|&i| labels.get(i, p) as usize).collect();
            let (emb_layer, head) = (&mut self.emb_layers[p], &mut self.heads[p]);
            let mut emb = emb_layer.forward(&h);
            relu_inplace(&mut emb);
            let (_, grad_logits) = softmax_cross_entropy(&head.forward(&emb), &targets, None);
            emb_layer.zero_grad();
            head.zero_grad();
            let mut demb = head.backward(&emb, &grad_logits);
            relu_backward_inplace(&mut demb, &emb);
            dh.add_scaled(&emb_layer.backward(&h, &demb), 1.0);
        }

        // Multi-label head (Eq. 2), equal intent weights.
        let ml_targets = Matrix::from_fn(n, n_intents, |bi, p| f32::from(labels.get(rows[bi], p)));
        let ml_logits = self.ml_head.forward(&h);
        let (_, mut ml_grad) =
            multilabel_bce_with_logits(&ml_logits, &ml_targets, &vec![1.0; n_intents]);
        ml_grad.scale(multilabel_weight);
        dh.add_scaled(&self.ml_head.backward(&h, &ml_grad), 1.0);

        // Trunk backward.
        relu_backward_inplace(&mut dh, &h);
        self.trunk.backward_sparse(x, &dh);
        let rec = flexer_obs::global();
        rec.lap("matcher.fit.step", t);

        opt.begin_step();
        let mut slot = self.trunk.apply(opt, 0);
        for (emb_layer, head) in self.emb_layers.iter_mut().zip(&mut self.heads) {
            slot += emb_layer.apply(opt, slot);
            slot += head.apply(opt, slot);
        }
        self.ml_head.apply(opt, slot);
        rec.lap("matcher.fit.apply", t);
    }

    fn trunk_forward(&self, features: &SparseMatrix) -> Matrix {
        let mut h = self.trunk.forward_sparse(features);
        relu_inplace(&mut h);
        h
    }

    /// Inference for one intent over all feature rows.
    pub fn infer_intent(&self, features: &SparseMatrix, intent: usize) -> MatcherOutput {
        let h = self.trunk_forward(features);
        let mut emb = self.emb_layers[intent].forward(&h);
        relu_inplace(&mut emb);
        let scores = match_probabilities(&self.heads[intent].forward(&emb));
        let preds = scores.iter().map(|&s| is_match(s)).collect();
        MatcherOutput { scores, preds, embeddings: emb }
    }

    /// Inference for one intent over a row subset.
    pub fn infer_intent_rows(
        &self,
        features: &SparseMatrix,
        rows: &[usize],
        intent: usize,
    ) -> MatcherOutput {
        let sub = features.select_rows(rows);
        self.infer_intent(&sub, intent)
    }

    /// The multi-label head's sigmoid scores (one row per pair, one column
    /// per intent).
    pub fn infer_multilabel(&self, features: &SparseMatrix) -> Matrix {
        let h = self.trunk_forward(features);
        let mut probs = self.ml_head.forward(&h);
        for v in probs.data_mut() {
            *v = sigmoid(*v);
        }
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::{Scale, Split};

    fn setup() -> (PairCorpus, MultiTaskMatcher, flexer_types::MierBenchmark) {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(19).generate();
        // The shared-trunk network needs more epochs than a single binary
        // matcher to satisfy all heads at tiny scale.
        let config = MatcherConfig {
            epochs: 30,
            hidden_dim: 64,
            embedding_dim: 32,
            ..MatcherConfig::fast()
        };
        let corpus = PairCorpus::from_benchmark(&bench, &config);
        let matcher = MultiTaskMatcher::train(
            &corpus,
            &bench.labels,
            &bench.split_indices(Split::Train),
            &bench.split_indices(Split::Valid),
            &config,
        );
        (corpus, matcher, bench)
    }

    #[test]
    fn learns_all_intents_above_chance() {
        let (corpus, matcher, bench) = setup();
        let test_idx = bench.split_indices(Split::Test);
        for p in 0..bench.n_intents() {
            let out = matcher.infer_intent_rows(&corpus.features, &test_idx, p);
            let labels = test_idx.iter().map(|&i| bench.labels.get(i, p));
            let f1 = f1(out.preds.into_iter().zip(labels));
            assert!(f1 > 0.45, "intent {p} F1 = {f1:.3}");
        }
    }

    #[test]
    fn embeddings_differ_across_intents() {
        let (corpus, matcher, _) = setup();
        let e0 = matcher.infer_intent(&corpus.features, 0).embeddings;
        let e1 = matcher.infer_intent(&corpus.features, 1).embeddings;
        let mut diff = 0.0f32;
        for i in 0..e0.rows() {
            diff += Matrix::row_l2_sq(&e0, i, &e1, i);
        }
        assert!(diff > 1e-3, "intent embeddings should live in different spaces");
    }

    #[test]
    fn multilabel_scores_shape_and_range() {
        let (corpus, matcher, bench) = setup();
        let ml = matcher.infer_multilabel(&corpus.features);
        assert_eq!(ml.rows(), bench.n_pairs());
        assert_eq!(ml.cols(), bench.n_intents());
        for v in ml.data() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn single_training_phase_covers_all_intents() {
        let (_, matcher, bench) = setup();
        assert_eq!(matcher.n_intents(), bench.n_intents());
        assert!(matcher.best_valid_f1 > 0.4);
    }
}
