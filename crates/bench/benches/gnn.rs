//! Criterion bench for GNN training epochs (Table 9's 2L vs 3L columns):
//! one full-batch epoch over a tiny AmazonMI multiplex graph, then the
//! split of one epoch — forward / loss / backward / apply — at the two
//! graph shapes the `ladder` benchmark fits (its single `graph.fit_s`
//! cannot say which part moved), and the Adam step of the matcher's input
//! layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexer_bench::{matcher_config, DatasetKind};
use flexer_core::{InParallelModel, PipelineContext};
use flexer_graph::{build_intent_graph, train_for_intent, GnnConfig, GnnModel};
use flexer_nn::activation::match_probabilities;
use flexer_nn::loss::softmax_cross_entropy;
use flexer_nn::{Adam, AdamConfig, Matrix, Optimizer};
use flexer_types::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_gnn(c: &mut Criterion) {
    let bench = DatasetKind::AmazonMi.generate(Scale::Tiny, 5);
    let mcfg = matcher_config(Scale::Tiny, 5);
    let ctx = PipelineContext::new(bench, &mcfg).expect("valid benchmark");
    let base = InParallelModel::fit(&ctx, &mcfg).expect("fit in-parallel");
    let embeddings: Vec<Matrix> = base.outputs.iter().map(|o| o.embeddings.clone()).collect();
    let graph = build_intent_graph(&embeddings, 6);
    let labels = ctx.benchmark.labels.column(0);
    let train = ctx.train_idx();
    let valid = ctx.valid_idx();

    let mut group = c.benchmark_group("gnn_train");
    group.sample_size(10);
    for &layers in &[2usize, 3] {
        group.bench_with_input(
            BenchmarkId::new("epochs10", format!("{layers}L")),
            &layers,
            |b, &l| {
                b.iter(|| {
                    let config = GnnConfig {
                        n_layers: l,
                        hidden_dim: 32,
                        epochs: 10,
                        patience: 10,
                        ..Default::default()
                    };
                    train_for_intent(&graph, 0, &labels, &train, &valid, &config).best_valid_f1
                })
            },
        );
    }
    group.finish();
}

/// One epoch of `train_for_intent`, part by part, on a synthetic multiplex
/// graph of the `ladder`'s fit shapes: `batch_fit` (AmazonMI small: 3 081
/// pairs × 5 intents = 15 405 nodes) and the serving workloads (600 pairs
/// × 3 intents = 1 800 nodes); 16-wide representations, k = 6, two layers
/// of width 24 (`FlexErConfig::fast`).
fn bench_epoch_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnn_epoch");
    group.sample_size(20);
    for (n_pairs, p_layers) in [(3_081usize, 5usize), (600, 3)] {
        let mut rng = StdRng::seed_from_u64(17);
        let labels: Vec<bool> = (0..n_pairs).map(|_| rng.gen_range(0..4) == 0).collect();
        let embeddings: Vec<Matrix> = (0..p_layers)
            .map(|_| {
                Matrix::from_fn(n_pairs, 16, |i, _| {
                    (if labels[i] { 0.5 } else { -0.5 }) + rng.gen_range(-1.0f32..1.0)
                })
            })
            .collect();
        let graph = build_intent_graph(&embeddings, 6);
        let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
        let weight: Vec<f32> = (0..n_pairs).map(|i| (i % 5 < 3) as u8 as f32).collect();
        let config = GnnConfig::fast();
        let mut model =
            GnnModel::new(&mut rng, graph.dim, &config.layer_dims(), config.aggregation);
        let mut opt = Adam::new(config.adam());
        let mut pass = model.train_pass(&graph, 0);
        let shape = format!("{}nodes", graph.n_nodes());

        group.bench_function(BenchmarkId::new("forward", &shape), |b| {
            b.iter(|| model.train_forward(&graph, &mut pass))
        });
        let logits = model.train_forward(&graph, &mut pass);
        group.bench_function(BenchmarkId::new("loss", &shape), |b| {
            b.iter(|| {
                (
                    match_probabilities(&logits),
                    softmax_cross_entropy(&logits, &targets, Some(&weight)),
                )
            })
        });
        let (_, grad_logits) = softmax_cross_entropy(&logits, &targets, Some(&weight));
        group.bench_function(BenchmarkId::new("backward", &shape), |b| {
            b.iter(|| model.train_backward(&graph, &mut pass, &grad_logits))
        });
        group.bench_function(BenchmarkId::new("apply", &shape), |b| {
            b.iter(|| {
                opt.begin_step();
                model.apply(&mut opt);
            })
        });
    }
    group.finish();
}

/// `Adam::update` over the matcher's 4 104 × 32 input layer — one of the
/// 1 740 steps of a matcher fit, most of whose time it was.
fn bench_adam(c: &mut Criterion) {
    let n = 4_104 * 32;
    let mut rng = StdRng::seed_from_u64(3);
    let mut value: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
    // A sparse input layer's gradient: most rows untouched by a batch.
    let grad: Vec<f32> = (0..n)
        .map(|i| if (i / 32) % 9 == 0 { rng.gen_range(-1e-2f32..1e-2) } else { 0.0 })
        .collect();
    let mut opt = Adam::new(AdamConfig::default());
    let mut group = c.benchmark_group("adam_update");
    group.sample_size(200);
    group.bench_function("4104x32", |b| {
        b.iter(|| {
            opt.begin_step();
            opt.update(0, &mut value, &grad);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_gnn, bench_epoch_split, bench_adam);
criterion_main!(benches);
