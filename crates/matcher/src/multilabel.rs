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
use crate::train::{f1_binary, minibatches, PairCorpus};
use flexer_nn::activation::{relu_backward_inplace, relu_inplace, softmax_rows};
use flexer_nn::loss::{multilabel_bce_with_logits, softmax_cross_entropy};
use flexer_nn::{Adam, AdamConfig, Linear, Matrix, Optimizer, SparseMatrix};
use flexer_types::LabelMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// training phase, the efficiency argument of §3.3.
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
        let fdim = corpus.featurizer.total_dim();
        let mut trunk = Linear::new(&mut rng, fdim, config.hidden_dim);
        let mut emb_layers: Vec<Linear> = (0..n_intents)
            .map(|_| Linear::new(&mut rng, config.hidden_dim, config.embedding_dim))
            .collect();
        let mut heads: Vec<Linear> =
            (0..n_intents).map(|_| Linear::new(&mut rng, config.embedding_dim, 2)).collect();
        let mut ml_head = Linear::new(&mut rng, config.hidden_dim, n_intents);
        let mut opt = Adam::new(AdamConfig { lr: config.learning_rate, ..Default::default() });
        let intent_weights = vec![1.0f32; n_intents];

        let mut best: Option<(f64, Self)> = None;
        for _epoch in 0..config.epochs {
            for batch in minibatches(train_idx, config.batch_size, &mut rng) {
                let mut x = corpus.features.select_rows(&batch);
                let mut row_ids: Vec<usize> = batch.clone();
                if config.augment {
                    for &i in &batch {
                        x.push_row_unsorted(&mut corpus.augmented_row(i, &mut rng));
                        row_ids.push(i);
                    }
                }
                let n = x.rows();

                // Forward trunk.
                let mut h = trunk.forward_sparse(&x);
                relu_inplace(&mut h);

                // Accumulate trunk gradient from every head.
                let mut dh = Matrix::zeros(n, config.hidden_dim);
                trunk.zero_grad();
                ml_head.zero_grad();

                // Per-intent binary heads (CE each; losses are summed, the usual
                // multi-task convention, so each head keeps full gradient).
                for p in 0..n_intents {
                    let targets: Vec<usize> =
                        row_ids.iter().map(|&i| labels.get(i, p) as usize).collect();
                    let mut emb = emb_layers[p].forward(&h);
                    relu_inplace(&mut emb);
                    let logits = heads[p].forward(&emb);
                    let (_, grad_logits) = softmax_cross_entropy(&logits, &targets, None);
                    emb_layers[p].zero_grad();
                    heads[p].zero_grad();
                    let mut demb = heads[p].backward(&emb, &grad_logits);
                    relu_backward_inplace(&mut demb, &emb);
                    let dh_p = emb_layers[p].backward(&h, &demb);
                    dh.add_scaled(&dh_p, 1.0);
                }

                // Multi-label head (Eq. 2).
                let ml_logits = ml_head.forward(&h);
                let mut ml_targets = Matrix::zeros(n, n_intents);
                for (bi, &i) in row_ids.iter().enumerate() {
                    for p in 0..n_intents {
                        if labels.get(i, p) {
                            ml_targets.set(bi, p, 1.0);
                        }
                    }
                }
                let (_, mut ml_grad) =
                    multilabel_bce_with_logits(&ml_logits, &ml_targets, &intent_weights);
                ml_grad.scale(config.multilabel_weight);
                let dh_ml = ml_head.backward(&h, &ml_grad);
                dh.add_scaled(&dh_ml, 1.0);

                // Trunk backward.
                relu_backward_inplace(&mut dh, &h);
                trunk.backward_sparse(&x, &dh);

                opt.begin_step();
                let mut slot = trunk.apply(&mut opt, 0);
                for p in 0..n_intents {
                    slot += emb_layers[p].apply(&mut opt, slot);
                    slot += heads[p].apply(&mut opt, slot);
                }
                ml_head.apply(&mut opt, slot);
            }

            // Validation: mean F1 over intents.
            let snapshot = Self {
                trunk: trunk.clone(),
                emb_layers: emb_layers.clone(),
                heads: heads.clone(),
                ml_head: ml_head.clone(),
                best_valid_f1: 0.0,
            };
            let mut total = 0.0;
            for p in 0..n_intents {
                let out = snapshot.infer_intent_rows(&corpus.features, valid_idx, p);
                let vl: Vec<bool> = valid_idx.iter().map(|&i| labels.get(i, p)).collect();
                total += f1_binary(&out.preds, &vl);
            }
            let mean_f1 = total / n_intents as f64;
            if best.as_ref().map_or(true, |(b, _)| mean_f1 > *b) {
                let mut chosen = snapshot;
                chosen.best_valid_f1 = mean_f1;
                best = Some((mean_f1, chosen));
            }
        }
        best.expect("epochs > 0").1
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
        let logits = self.heads[intent].forward(&emb);
        let probs = softmax_rows(&logits);
        let scores: Vec<f32> = (0..probs.rows()).map(|i| probs.get(i, 1)).collect();
        let preds: Vec<bool> = scores.iter().map(|&s| s > 0.5).collect();
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
        let logits = self.ml_head.forward(&h);
        let mut probs = logits;
        for v in probs.data_mut() {
            *v = flexer_nn::activation::sigmoid(*v);
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
            let labels: Vec<bool> = test_idx.iter().map(|&i| bench.labels.get(i, p)).collect();
            let f1 = f1_binary(&out.preds, &labels);
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
