//! Transductive GNN training per target intent (§4.3, §5.2.1).
//!
//! The graph spans train ∪ validation ∪ test pairs; the cross-entropy loss
//! is computed on the target intent's layer restricted to *training* pairs
//! (a sample-weight mask), model selection uses validation F1, and the
//! reported predictions come from the best epoch. "FlexER is trained over
//! P versions of the same graph, one for each intent" — callers invoke
//! this once per target intent.
//!
//! An epoch is one full-batch pass: [`GnnModel::train_forward`] yields the
//! target layer's logits (scored for selection before the update, from the
//! forward the update needs anyway), [`GnnModel::train_backward`] leaves
//! the parameter gradients, Adam applies them. That pass computes only
//! what this loss reads — the first layer's input once per fit, no
//! gradient into the node features, the last layer on the target layer's
//! rows — and returns the weights of the whole-graph forward and backward
//! it replaced, bit for bit; `model.rs` says why each skipped term is dead
//! or exactly zero, and why the layers below the last stay whole-graph.
//! The whole-graph pass survives in this crate's tests as the reference
//! every combination of layer count, aggregation, target, `k` and `P` is
//! diffed against.

use crate::model::GnnModel;
use crate::multiplex::MultiplexGraph;
use crate::sage::Aggregation;
use flexer_nn::activation::{is_match, match_probabilities};
use flexer_nn::loss::softmax_cross_entropy;
use flexer_nn::select::{f1, Selection};
use flexer_nn::{Adam, AdamConfig, Matrix, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// GNN training hyperparameters — defaults follow §5.2.1: Adam lr 0.01,
/// weight decay 5e-4, up to 150 epochs, 2 GraphSAGE layers of width `h1`
/// (3-layer uses `h1/2` past the first).
#[derive(Debug, Clone, PartialEq)]
pub struct GnnConfig {
    /// First hidden width `h1` (paper sweeps {100..500}).
    pub hidden_dim: usize,
    /// Number of GraphSAGE layers (2 or 3 in the paper).
    pub n_layers: usize,
    /// Maximum epochs (paper: 150).
    pub epochs: usize,
    /// Early-stop patience on validation F1: the fit stops after this many
    /// epochs in a row without improvement. Default 25, where the paper
    /// trains the full 150 epochs; whether that changes which model is
    /// selected is unmeasured (ROADMAP item 1). `patience = epochs` disables
    /// it.
    pub patience: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// L2 weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Relation handling (the ablation switch; FlexER uses relation-typed).
    pub aggregation: Aggregation,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 100,
            n_layers: 2,
            epochs: 150,
            patience: 25,
            learning_rate: 0.01,
            weight_decay: 5e-4,
            aggregation: Aggregation::RelationTyped,
            seed: 0,
        }
    }
}

impl GnnConfig {
    /// Layer widths derived from `hidden_dim`/`n_layers` (3-layer models
    /// halve the width after the first layer, §5.2.1).
    pub fn layer_dims(&self) -> Vec<usize> {
        assert!(self.n_layers >= 1, "at least one layer");
        let mut dims = vec![self.hidden_dim];
        for _ in 1..self.n_layers {
            dims.push(if self.n_layers >= 3 {
                (self.hidden_dim / 2).max(1)
            } else {
                self.hidden_dim
            });
        }
        dims
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A fast preset for unit tests.
    pub fn fast() -> Self {
        Self { hidden_dim: 24, epochs: 40, patience: 40, ..Default::default() }
    }

    /// The fit's optimizer: Adam with this learning rate and L2 weight
    /// decay (the defaults are the paper's, §5.2.1).
    pub fn adam(&self) -> AdamConfig {
        AdamConfig { lr: self.learning_rate, weight_decay: self.weight_decay, ..Default::default() }
    }
}

/// Result of training one intent's GNN.
#[derive(Debug, Clone)]
pub struct TrainedGnn {
    /// The selected (best-validation) model.
    pub model: GnnModel,
    /// Validation F1 of the selected epoch.
    pub best_valid_f1: f64,
    /// Match likelihood per pair (all pairs, selected epoch).
    pub scores: Vec<f32>,
    /// Binary prediction per pair (argmax of Eq. 5).
    pub preds: Vec<bool>,
    /// Number of epochs actually run (≤ `epochs` with early stopping).
    pub epochs_run: usize,
}

/// Trains the GNN for one target intent over the multiplex graph.
pub fn train_for_intent(
    graph: &MultiplexGraph,
    target_layer: usize,
    labels: &[bool],
    train_pairs: &[usize],
    valid_pairs: &[usize],
    config: &GnnConfig,
) -> TrainedGnn {
    assert!(target_layer < graph.n_layers, "target layer out of range");
    assert_eq!(labels.len(), graph.n_pairs, "labels must cover every pair");
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x6E4E));
    let mut model = GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), config.aggregation);
    let mut opt = Adam::new(config.adam());

    let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    let train_weight = train_mask(graph.n_pairs, train_pairs);

    let mut pass = model.train_pass(graph, target_layer);
    let mut selection = Selection::new(Some(config.patience));
    // One flat span per stage of an epoch (fits run on `flexer-par`
    // workers, whose span stacks are not the caller's).
    let rec = flexer_obs::global();
    for _epoch in 0..config.epochs {
        let mut t = Instant::now();
        let logits = model.train_forward(graph, &mut pass);
        rec.lap("graph.fit.forward", &mut t);
        // Offer the pre-update state this forward pass already computed,
        // then update — one full-batch pass per epoch.
        let more = offer(&mut selection, &model, &logits, labels, valid_pairs);
        rec.lap("graph.fit.select", &mut t);
        if !more {
            break;
        }
        let (_, grad_logits) = softmax_cross_entropy(&logits, &targets, Some(&train_weight));
        model.train_backward(graph, &mut pass, &grad_logits);
        rec.lap("graph.fit.backward", &mut t);
        opt.begin_step();
        model.apply(&mut opt);
        rec.lap("graph.fit.apply", &mut t);
    }
    finish(selection)
}

/// Offers `model`, whose target-layer logits are `logits`, at its
/// validation F1; the scores go with it.
fn offer(
    selection: &mut Selection<(GnnModel, Vec<f32>)>,
    model: &GnnModel,
    logits: &Matrix,
    labels: &[bool],
    valid_pairs: &[usize],
) -> bool {
    let scores = match_probabilities(logits);
    let score = f1(valid_pairs.iter().map(|&i| (is_match(scores[i]), labels[i])));
    selection.offer(score, || (model.clone(), scores))
}

/// The selected epoch as a [`TrainedGnn`].
fn finish(selection: Selection<(GnnModel, Vec<f32>)>) -> TrainedGnn {
    let (best_valid_f1, (model, scores), epochs_run) = selection.finish();
    let preds = scores.iter().map(|&s| is_match(s)).collect();
    TrainedGnn { model, best_valid_f1, scores, preds, epochs_run }
}

/// The loss's sample weights: 1 on the training pairs, 0 elsewhere.
fn train_mask(n_pairs: usize, train_pairs: &[usize]) -> Vec<f32> {
    let mut weight = vec![0.0f32; n_pairs];
    for &i in train_pairs {
        weight[i] = 1.0;
    }
    weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_intent_graph;
    use crate::model::TrainPass;
    use rand::Rng;

    /// Synthetic two-intent setting where intent 0's labels are a noisy
    /// function of its embedding and intent 1 carries the denoised signal —
    /// the cross-layer structure FlexER is designed to exploit.
    fn synthetic() -> (MultiplexGraph, Vec<bool>, Vec<usize>, Vec<usize>, Vec<usize>) {
        let n = 120;
        let mut rng = StdRng::seed_from_u64(99);
        let mut labels = Vec::with_capacity(n);
        let mut e0 = Matrix::zeros(n, 8);
        let mut e1 = Matrix::zeros(n, 8);
        for i in 0..n {
            let class = i % 2 == 0;
            labels.push(class);
            let center = if class { 1.0 } else { -1.0 };
            for j in 0..8 {
                // Layer 0: noisy view; layer 1: clean view.
                e0.set(i, j, center + rng.gen_range(-1.5f32..1.5));
                e1.set(i, j, center + rng.gen_range(-0.2f32..0.2));
            }
        }
        let graph = build_intent_graph(&[e0, e1], 4);
        let train: Vec<usize> = (0..n).filter(|i| i % 5 < 3).collect();
        let valid: Vec<usize> = (0..n).filter(|i| i % 5 == 3).collect();
        let test: Vec<usize> = (0..n).filter(|i| i % 5 == 4).collect();
        (graph, labels, train, valid, test)
    }

    #[test]
    fn learns_from_cross_layer_signal() {
        let (graph, labels, train, valid, test) = synthetic();
        // Other tests fit on the same global recorder concurrently: each
        // count grows by at least this fit's epochs (`fast` never stops early).
        let stages =
            ["graph.fit.forward", "graph.fit.select", "graph.fit.backward", "graph.fit.apply"];
        let counts =
            || stages.map(|s| flexer_obs::global().snapshot().span(s).map_or(0, |h| h.count));
        let before = counts();
        let trained = train_for_intent(&graph, 0, &labels, &train, &valid, &GnnConfig::fast());
        for ((stage, b), a) in stages.iter().zip(before).zip(counts()) {
            assert!(a - b >= trained.epochs_run as u64, "{stage}: {b} -> {a}");
        }
        let f1 = f1(test.iter().map(|&i| (trained.preds[i], labels[i])));
        assert!(f1 > 0.8, "test F1 = {f1:.3}");
        assert!(trained.best_valid_f1 > 0.8);
    }

    #[test]
    fn deterministic_per_seed() {
        let (graph, labels, train, valid, _) = synthetic();
        let a = train_for_intent(&graph, 0, &labels, &train, &valid, &GnnConfig::fast());
        let b = train_for_intent(&graph, 0, &labels, &train, &valid, &GnnConfig::fast());
        assert_eq!(a.preds, b.preds);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn early_stopping_bounds_epochs() {
        let (graph, labels, train, valid, _) = synthetic();
        let config = GnnConfig { epochs: 150, patience: 3, ..GnnConfig::fast() };
        let trained = train_for_intent(&graph, 0, &labels, &train, &valid, &config);
        assert!(trained.epochs_run <= 150);
        // With patience 3 and quick convergence, far fewer epochs run.
        assert!(trained.epochs_run < 150, "early stopping never triggered");
    }

    #[test]
    fn layer_dims_follow_paper_rule() {
        let two = GnnConfig { hidden_dim: 100, n_layers: 2, ..Default::default() };
        assert_eq!(two.layer_dims(), vec![100, 100]);
        let three = GnnConfig { hidden_dim: 100, n_layers: 3, ..Default::default() };
        assert_eq!(three.layer_dims(), vec![100, 50, 50]);
    }

    #[test]
    fn adam_is_the_paper_optimizer() {
        let c = GnnConfig::default().adam();
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.weight_decay, 5e-4);
    }

    /// ROADMAP item 1's first suspect, pinned as today's behaviour: the
    /// pre-update state of the first epoch is a selection candidate, so
    /// when validation F1 never rises above 0 (here: no validation
    /// positives) the fit returns its untrained initialisation.
    #[test]
    fn zero_valid_f1_selects_the_untrained_initialisation() {
        let (graph, mut labels, train, valid, _) = synthetic();
        for &i in &valid {
            labels[i] = false;
        }
        let config = GnnConfig { patience: 5, ..GnnConfig::fast() };
        let trained = train_for_intent(&graph, 0, &labels, &train, &valid, &config);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x6E4E));
        let init = GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), config.aggregation);
        assert_same_parameters(&trained.model, &init, "selected model");
        assert_eq!(trained.best_valid_f1, 0.0);
        assert_eq!(trained.epochs_run, 1 + config.patience);
    }

    #[test]
    fn scores_and_preds_aligned() {
        let (graph, labels, train, valid, _) = synthetic();
        let trained = train_for_intent(&graph, 1, &labels, &train, &valid, &GnnConfig::fast());
        assert_eq!(trained.scores.len(), graph.n_pairs);
        for (p, s) in trained.preds.iter().zip(&trained.scores) {
            assert_eq!(*p, *s > 0.5);
        }
    }

    /// `train_for_intent` as it stood before the training pass: every
    /// epoch a whole-graph `forward`, `intent_logits`, and the whole-graph
    /// `backward` — the reference.
    fn reference_fit(
        graph: &MultiplexGraph,
        target_layer: usize,
        labels: &[bool],
        train_pairs: &[usize],
        valid_pairs: &[usize],
        config: &GnnConfig,
    ) -> TrainedGnn {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x6E4E));
        let mut model =
            GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), config.aggregation);
        let mut opt = Adam::new(config.adam());
        let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
        let train_weight = train_mask(graph.n_pairs, train_pairs);
        let mut selection = Selection::new(Some(config.patience));
        for _epoch in 0..config.epochs {
            let trace = model.forward(graph);
            let logits = model.intent_logits(graph, &trace, target_layer);
            if !offer(&mut selection, &model, &logits, labels, valid_pairs) {
                break;
            }
            let (_, grad_logits) = softmax_cross_entropy(&logits, &targets, Some(&train_weight));
            model.backward(graph, &trace, target_layer, &grad_logits);
            opt.begin_step();
            model.apply(&mut opt);
        }
        finish(selection)
    }

    /// Weights, biases and the gradients behind them, every layer and the
    /// head, under `==`.
    fn assert_same_parameters(got: &GnnModel, want: &GnnModel, what: &str) {
        let linears = |m: &GnnModel| {
            let mut all: Vec<flexer_nn::Linear> =
                m.sage_layers().iter().map(|l| l.linear().clone()).collect();
            all.push(m.head().clone());
            all
        };
        for (i, (g, w)) in linears(got).iter().zip(&linears(want)).enumerate() {
            assert_eq!(g.w, w.w, "{what}: weights of linear {i}");
            assert_eq!(g.b, w.b, "{what}: bias of linear {i}");
            assert_eq!(g.grad_w, w.grad_w, "{what}: weight gradient of linear {i}");
            assert_eq!(g.grad_b, w.grad_b, "{what}: bias gradient of linear {i}");
        }
    }

    /// `n` pairs under `p_layers` intents: a k-NN multiplex graph over
    /// random representations (`k = 0`: inter-layer edges only), or — for
    /// `k = None` — hand-assembled ragged lists with isolated nodes,
    /// unequal degrees and a repeated neighbour, so a wrong degree or a
    /// wrong node shows. Labels follow the first coordinate, noisily.
    fn fixture(
        p_layers: usize,
        k: Option<usize>,
        seed: u64,
    ) -> (MultiplexGraph, Vec<bool>, Vec<usize>, Vec<usize>) {
        let (n, dim) = (26usize, 5usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<bool> = (0..n).map(|i| (i * 7 + seed as usize) % 3 != 0).collect();
        let embeddings: Vec<Matrix> = (0..p_layers)
            .map(|_| {
                Matrix::from_fn(n, dim, |i, j| {
                    let center = if labels[i] && j == 0 { 0.8 } else { -0.2 };
                    center + rng.gen_range(-1.0f32..1.0)
                })
            })
            .collect();
        let graph = match k {
            Some(k) => build_intent_graph(&embeddings, k),
            None => {
                let lists: Vec<Vec<Vec<usize>>> = (0..p_layers)
                    .map(|q| {
                        (0..n)
                            .map(|i| match (i + q) % 5 {
                                0 => vec![],
                                1 => vec![(i + 1) % n],
                                2 => vec![(i + 3) % n, (i + 3) % n, (i + 9) % n],
                                _ => (1..=(i % 4) + 2).map(|s| (i + s * 5) % n).collect(),
                            })
                            .collect()
                    })
                    .collect();
                let refs: Vec<&Matrix> = embeddings.iter().collect();
                MultiplexGraph::assemble(n, p_layers, Matrix::vconcat(&refs), &lists)
            }
        };
        let train: Vec<usize> = (0..n).filter(|i| i % 4 < 2).collect();
        let valid: Vec<usize> = (0..n).filter(|i| i % 4 == 2).collect();
        (graph, labels, train, valid)
    }

    /// Every combination the pass has to cover: 1-, 2- and 3-layer models,
    /// both aggregations, `P ∈ {1, 2, 3}`, `k ∈ {0, 4}` plus the ragged
    /// graph — the caller loops the target layers.
    fn for_each_setting(mut f: impl FnMut(&GnnConfig, Option<usize>, usize, &str)) {
        for n_layers in 1..=3usize {
            for aggregation in [Aggregation::RelationTyped, Aggregation::Pooled] {
                for p_layers in 1..=3usize {
                    for k in [Some(0), Some(4), None] {
                        let config = GnnConfig {
                            hidden_dim: 6,
                            n_layers,
                            aggregation,
                            seed: (n_layers * 10 + p_layers) as u64,
                            ..GnnConfig::fast()
                        };
                        let what = format!("{n_layers}L {aggregation:?} P={p_layers} k={k:?}");
                        f(&config, k, p_layers, &what);
                    }
                }
            }
        }
    }

    /// Step by step against the whole-graph reference: the same logits
    /// going in, and the same weights, biases, gradients and Adam moments
    /// coming out, after each of ten epochs (so after 1, 2 and 10), from
    /// one `TrainPass` whose first-layer input was built before the first.
    #[test]
    fn training_pass_steps_are_bitwise_the_whole_graph_pass() {
        for_each_setting(|config, k, p_layers, what| {
            let (graph, labels, train, _) = fixture(p_layers, k, 5);
            let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
            let weight = train_mask(graph.n_pairs, &train);
            for target in 0..p_layers {
                let mut rng = StdRng::seed_from_u64(config.seed);
                let mut want =
                    GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), config.aggregation);
                let mut got = want.clone();
                let (mut want_opt, mut got_opt) =
                    (Adam::new(config.adam()), Adam::new(config.adam()));
                let mut pass = got.train_pass(&graph, target);
                for epoch in 1..=10 {
                    let what = format!("{what} target {target} epoch {epoch}");
                    let trace = want.forward(&graph);
                    let want_logits = want.intent_logits(&graph, &trace, target);
                    let (_, grad) = softmax_cross_entropy(&want_logits, &targets, Some(&weight));
                    want.backward(&graph, &trace, target, &grad);
                    want_opt.begin_step();
                    want.apply(&mut want_opt);

                    let got_logits = got.train_forward(&graph, &mut pass);
                    assert_eq!(got_logits, want_logits, "{what}: logits");
                    let (_, grad) = softmax_cross_entropy(&got_logits, &targets, Some(&weight));
                    got.train_backward(&graph, &mut pass, &grad);
                    got_opt.begin_step();
                    got.apply(&mut got_opt);

                    assert_same_parameters(&got, &want, &what);
                    assert_eq!(got_opt, want_opt, "{what}: Adam moments");
                }
            }
        });
    }

    /// Whole fits against the reference fit: scores, predictions, selected
    /// epoch's F1 and weights, and epochs run — for 1, 2 and 10 epochs and
    /// with early stopping cutting in.
    #[test]
    fn fits_are_bitwise_the_whole_graph_fits() {
        let mut stopped_early = false;
        for_each_setting(|config, k, p_layers, what| {
            let (graph, labels, train, valid) = fixture(p_layers, k, 9);
            let stopping = [(1, 1), (2, 2), (10, 10), (40, 2)];
            for target in 0..p_layers {
                for (epochs, patience) in stopping {
                    // The ragged graph and the long runs on one target only.
                    if (k.is_none() || epochs == 40) && target + 1 != p_layers {
                        continue;
                    }
                    let config = GnnConfig { epochs, patience, ..config.clone() };
                    let what = format!("{what} target {target} epochs {epochs}/{patience}");
                    let got = train_for_intent(&graph, target, &labels, &train, &valid, &config);
                    let want = reference_fit(&graph, target, &labels, &train, &valid, &config);
                    assert_eq!(got.scores, want.scores, "{what}: scores");
                    assert_eq!(got.preds, want.preds, "{what}: preds");
                    assert_eq!(got.best_valid_f1, want.best_valid_f1, "{what}: F1");
                    assert_eq!(got.epochs_run, want.epochs_run, "{what}: epochs run");
                    assert_same_parameters(&got.model, &want.model, &what);
                    stopped_early |= epochs == 40 && got.epochs_run < 40;
                }
            }
        });
        assert!(stopped_early, "no setting exercised early stopping");
    }

    /// An optimizer that moves one parameter by a fixed amount and reads no
    /// gradient: `GnnModel::apply` with it perturbs a weight *and*
    /// refreshes the packs the forward reads.
    struct Nudge {
        slot: usize,
        index: usize,
        delta: f32,
    }

    impl Optimizer for Nudge {
        fn begin_step(&mut self) {}

        fn update(&mut self, slot: usize, value: &mut [f32], _grad: &[f32]) {
            if slot == self.slot {
                value[self.index] += self.delta;
            }
        }
    }

    /// The training pass's gradients are the derivative of the masked
    /// target-layer loss its own forward computes — central differences on
    /// every parameter of every layer and the head, not a comparison with
    /// the reference.
    #[test]
    fn training_pass_gradients_match_finite_differences() {
        for (n_layers, aggregation) in [
            (1usize, Aggregation::RelationTyped),
            (2, Aggregation::RelationTyped),
            (3, Aggregation::RelationTyped),
            (2, Aggregation::Pooled),
        ] {
            let (graph, labels, train, _) = fixture(3, None, 21);
            let target = 1;
            let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
            let weight = train_mask(graph.n_pairs, &train);
            let config = GnnConfig { hidden_dim: 4, n_layers, aggregation, ..GnnConfig::fast() };
            let mut rng = StdRng::seed_from_u64(31);
            let mut model = GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), aggregation);
            let mut pass = model.train_pass(&graph, target);
            let loss_of = |model: &GnnModel, pass: &mut TrainPass| {
                let logits = model.train_forward(&graph, pass);
                softmax_cross_entropy(&logits, &targets, Some(&weight))
            };
            let (_, grad_logits) = loss_of(&model, &mut pass);
            model.train_backward(&graph, &mut pass, &grad_logits);

            // Slot order of `GnnModel::apply`: each layer's weights then
            // bias, then the head's.
            let mut analytic: Vec<Vec<f32>> = Vec::new();
            for layer in model.sage_layers() {
                analytic.push(layer.linear().grad_w.data().to_vec());
                analytic.push(layer.linear().grad_b.clone());
            }
            analytic.push(model.head().grad_w.data().to_vec());
            analytic.push(model.head().grad_b.clone());

            let eps = 1e-2f32;
            for (slot, grads) in analytic.iter().enumerate() {
                let scale = grads.iter().fold(0.0f32, |m, g| m.max(g.abs()));
                assert!(scale > 1e-4, "{n_layers}L {aggregation:?}: slot {slot} has no gradient");
                for (index, &want) in grads.iter().enumerate() {
                    let mut up = model.clone();
                    up.apply(&mut Nudge { slot, index, delta: eps });
                    let mut down = model.clone();
                    down.apply(&mut Nudge { slot, index, delta: -eps });
                    let numeric =
                        (loss_of(&up, &mut pass).0 - loss_of(&down, &mut pass).0) / (2.0 * eps);
                    assert!(
                        (numeric - want).abs() <= 0.03 * scale + 2e-3,
                        "{n_layers}L {aggregation:?} slot {slot}[{index}]: {numeric} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "target layer out of range")]
    fn target_layer_checked() {
        let (graph, labels, train, valid, _) = synthetic();
        let _ = train_for_intent(&graph, 9, &labels, &train, &valid, &GnnConfig::fast());
    }
}
