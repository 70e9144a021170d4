//! Fixtures the store's integration tests share (each `tests/*.rs`
//! compiles this module on its own and uses its own subset of it).
#![allow(dead_code)]

pub mod messages;

use flexer_ann::{AnyIndex, FlatIndex};
use flexer_block::BlockerState;
use flexer_graph::{Aggregation, GnnModel, MultiplexGraph, TrainedGnn};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{BinaryMatcher, PairFeaturizer};
use flexer_nn::{Linear, Matrix, Mlp, MlpConfig};
use flexer_store::ModelSnapshot;
use flexer_types::{CandidateGenConfig, Intent, IntentSet, LabelMatrix, NGramBlockerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A minimal but fully valid snapshot (passes `ModelSnapshot::validate`):
/// one intent, two records, one pair, consistent dims throughout.
pub fn tiny_snapshot() -> ModelSnapshot {
    let mut rng = StdRng::seed_from_u64(7);
    let dim = 3;
    let records = vec!["acme anvil 10kg".to_string(), "acme anvil ten kg".to_string()];
    let graph = MultiplexGraph::assemble(
        1,
        1,
        Matrix::from_vec(1, dim, vec![0.25, -1.5, 2.0]),
        &[vec![vec![]]],
    );
    let blocker = BlockerState::build(
        &CandidateGenConfig::NGram(NGramBlockerConfig::default()),
        records.iter().map(|r| r.as_str()),
    );
    ModelSnapshot {
        intents: IntentSet::new(vec![Intent::named(0, "Eq.")]),
        k: 1,
        records,
        pairs: vec![(0, 1)],
        featurizer: PairFeaturizer::new(16),
        df: DfTable::build(std::iter::empty()),
        matchers: vec![BinaryMatcher::from_parts(
            Linear::new(&mut rng, 8, 4),
            Mlp::new(&mut rng, &MlpConfig { input_dim: 4, hidden: vec![4], output_dim: 2 }),
            0.5,
        )],
        graph,
        trained: vec![TrainedGnn {
            model: GnnModel::new(&mut rng, dim, &[4, 4], Aggregation::Pooled),
            best_valid_f1: 0.5,
            scores: vec![0.75],
            preds: vec![true],
            epochs_run: 1,
        }],
        predictions: LabelMatrix::zeros(1, 1),
        indexes: vec![AnyIndex::Flat(FlatIndex::from_rows(dim, &[0.25, -1.5, 2.0]))],
        blocker,
        sharding: None,
    }
}
