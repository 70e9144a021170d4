//! Export a trained [`FlexErModel`] into a `flexer-store` snapshot (and
//! reassemble one from it).
//!
//! The export bundles what no single stage owns by itself: the pipeline
//! context contributes the corpus (records, pairs, featurizer, document
//! frequencies, intents), the in-parallel base contributes the per-intent
//! matcher weights (§4.1.1's intent-based representations), and the model
//! contributes the multiplex graph, the P trained GNNs and the batch
//! predictions. Per intent layer, an ANN index is built over that layer's
//! slice of the stacked graph features — the *initial* representations the
//! paper fixes the intra-layer k-NN on (§4.1.3) — so a serving tier can
//! wire new nodes incrementally.

use crate::baselines::in_parallel::InParallelModel;
use crate::config::FlexErConfig;
use crate::context::PipelineContext;
use crate::error::CoreError;
use crate::flexer::FlexErModel;
use flexer_ann::{AnyIndex, FlatIndex};
use flexer_block::BlockerState;
use flexer_store::{IndexKind, ModelSnapshot};

impl FlexErModel {
    /// Packages this trained model (plus its representation stage and
    /// corpus context) into a self-contained snapshot.
    ///
    /// `index` names the per-layer index; [`IndexKind::Flat`], exact search
    /// as in the paper, is the only kind.
    pub fn to_snapshot(
        &self,
        ctx: &PipelineContext,
        base: &InParallelModel,
        config: &FlexErConfig,
        index: IndexKind,
    ) -> Result<ModelSnapshot, CoreError> {
        let p = ctx.n_intents();
        if base.n_intents() != p {
            return Err(CoreError::IntentOutOfRange(base.n_intents(), p));
        }
        if self.graph.n_layers != p {
            return Err(CoreError::IntentOutOfRange(self.graph.n_layers, p));
        }
        let n_pairs = self.graph.n_pairs;
        let dim = self.graph.dim;

        // One index per intent layer over that layer's block of the
        // stacked initial representations (rows are layer-major, so each
        // block is contiguous).
        let IndexKind::Flat = index;
        let indexes: Vec<AnyIndex> = (0..p)
            .map(|q| {
                let block = &self.graph.features.data()[q * n_pairs * dim..(q + 1) * n_pairs * dim];
                AnyIndex::Flat(FlatIndex::from_rows(dim, block))
            })
            .collect();

        let records: Vec<String> =
            ctx.benchmark.dataset.iter().map(|r| r.title().to_string()).collect();
        let pairs: Vec<(u32, u32)> =
            ctx.benchmark.candidates.iter().map(|(_, pr)| (pr.a as u32, pr.b as u32)).collect();
        // The candidate-generation tier ships as its config; the state
        // here is what decoding the snapshot rebuilds from the records.
        let blocker = BlockerState::build(&config.candidates, records.iter().map(|r| r.as_str()));

        Ok(ModelSnapshot {
            intents: ctx.benchmark.intents.clone(),
            k: config.k,
            records,
            pairs,
            featurizer: ctx.corpus.featurizer.clone(),
            df: ctx.corpus.df.clone(),
            matchers: base.matchers.clone(),
            graph: self.graph.clone(),
            trained: self.trained.clone(),
            predictions: self.predictions.clone(),
            indexes,
            blocker,
            // Exporters emit the monolithic layout; a sharded service
            // re-exports under its own `ShardConfig`.
            sharding: None,
        })
    }

    /// Reassembles the batch model held inside a snapshot.
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Self {
        Self {
            graph: snapshot.graph.clone(),
            trained: snapshot.trained.clone(),
            predictions: snapshot.predictions.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::Scale;

    fn trained() -> (PipelineContext, InParallelModel, FlexErModel, FlexErConfig) {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(41).generate();
        let config = FlexErConfig::fast();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
        (ctx, base, model, config)
    }

    #[test]
    fn export_validates_and_roundtrips_bytes() {
        let (ctx, base, model, config) = trained();
        let snapshot = model.to_snapshot(&ctx, &base, &config, IndexKind::Flat).unwrap();
        snapshot.validate().unwrap();
        assert_eq!(snapshot.n_intents(), ctx.n_intents());
        assert_eq!(snapshot.n_pairs(), ctx.benchmark.n_pairs());
        assert_eq!(snapshot.k, config.k);

        // save → load → save is byte-identical (the acceptance invariant).
        let bytes = snapshot.to_bytes();
        let reloaded = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded.to_bytes(), bytes);

        // The reassembled batch model carries identical predictions.
        let rebuilt = FlexErModel::from_snapshot(&reloaded);
        assert_eq!(rebuilt.predictions, model.predictions);
        for (a, b) in rebuilt.trained.iter().zip(&model.trained) {
            assert_eq!(a.scores, b.scores);
            assert_eq!(a.preds, b.preds);
        }
    }
}
