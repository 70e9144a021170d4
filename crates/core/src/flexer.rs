//! FlexER (§4): intent-based representations → multiplex intents graph →
//! GNN → per-intent predictions.
//!
//! The three phases of the paper map directly onto this module:
//! *graph creation* ([`flexer_graph::build_intent_graph`] over the matcher
//! embeddings), *message propagation* (the GraphSAGE layers), and
//! *prediction per intent* — "FlexER is trained over P versions of the same
//! graph, one for each intent, to allow proper fine-tuning with respect to
//! the target intent" (§4.3).
//!
//! The *P* per-intent GNNs are trained on independent copies of the model
//! state over a shared read-only graph, so [`FlexErModel::fit_from_embeddings`]
//! fans them out across the `flexer-par` thread budget. Each intent keeps
//! its own derived seed (`gnn.seed + p`), exactly as in the serial loop, so
//! predictions are bit-identical for any thread count (set
//! `RAYON_NUM_THREADS=1` to force serial execution).

use crate::baselines::in_parallel::InParallelModel;
use crate::config::FlexErConfig;
use crate::context::PipelineContext;
use crate::error::CoreError;
use flexer_graph::{build_intent_graph, train_for_intent, MultiplexGraph, TrainedGnn};
use flexer_nn::Matrix;
use flexer_types::{IntentId, LabelMatrix};

/// A fully trained FlexER model.
#[derive(Debug, Clone)]
pub struct FlexErModel {
    /// The multiplex intents graph (all intents).
    pub graph: MultiplexGraph,
    /// One trained GNN per target intent.
    pub trained: Vec<TrainedGnn>,
    /// Per-intent predictions over every candidate pair.
    pub predictions: LabelMatrix,
}

impl FlexErModel {
    /// Fits FlexER end to end: the in-parallel matchers, then the graph and
    /// GNN stages over their representations.
    pub fn fit(ctx: &PipelineContext, config: &FlexErConfig) -> Result<Self, CoreError> {
        let base = InParallelModel::fit(ctx, &config.matcher)?;
        Self::fit_from_embeddings(ctx, &base.embeddings(), config)
    }

    /// Fits the graph + GNN stages from existing per-intent embeddings
    /// (lets the harness reuse one in-parallel base across FlexER variants,
    /// as the paper reuses its DITTO representations).
    pub fn fit_from_embeddings(
        ctx: &PipelineContext,
        embeddings: &[&Matrix],
        config: &FlexErConfig,
    ) -> Result<Self, CoreError> {
        let n_intents = ctx.n_intents();
        if embeddings.len() != n_intents {
            return Err(CoreError::IntentOutOfRange(embeddings.len(), n_intents));
        }
        // Graph construction borrows the embeddings directly — no
        // P × |C| × d copy of the representation matrices.
        let graph = build_intent_graph(embeddings, config.k);
        let train = ctx.train_idx();
        let valid = ctx.valid_idx();
        // "P versions of the same graph": the per-intent trainings share the
        // read-only graph and are independent, so fan them out. Each keeps
        // the same derived seed as the serial loop ⇒ bit-identical output.
        let trained = flexer_par::parallel_map(n_intents, |p| {
            let labels = ctx.benchmark.labels.column(p);
            let gnn_config = config.gnn.clone().with_seed(config.gnn.seed.wrapping_add(p as u64));
            train_for_intent(&graph, p, &labels, &train, &valid, &gnn_config)
        });
        let columns: Vec<Vec<bool>> = trained.iter().map(|t| t.preds.clone()).collect();
        let predictions = LabelMatrix::from_columns(&columns).expect("P >= 1");
        Ok(Self { graph, trained, predictions })
    }

    /// Fits FlexER over a *subset* of intent layers and returns the trained
    /// GNN for one target intent — the §5.5.1 intent-interrelationship
    /// analysis (Figure 6 builds the graph with every subset containing the
    /// equivalence intent).
    ///
    /// `embeddings` are the full per-intent representations; `subset` lists
    /// the intent ids whose layers enter the graph; `target` must be a
    /// member of `subset`.
    pub fn fit_subset_for_target(
        ctx: &PipelineContext,
        embeddings: &[&Matrix],
        subset: &[IntentId],
        target: IntentId,
        config: &FlexErConfig,
    ) -> Result<TrainedGnn, CoreError> {
        if subset.is_empty() {
            return Err(CoreError::EmptyIntentSubset);
        }
        let n_intents = ctx.n_intents();
        for &p in subset {
            if p >= n_intents {
                return Err(CoreError::IntentOutOfRange(p, n_intents));
            }
        }
        let target_pos = subset
            .iter()
            .position(|&p| p == target)
            .ok_or(CoreError::IntentOutOfRange(target, subset.len()))?;
        let layers: Vec<&Matrix> = subset.iter().map(|&p| embeddings[p]).collect();
        let graph = build_intent_graph(&layers, config.k);
        let labels = ctx.benchmark.labels.column(target);
        let gnn_config = config.gnn.clone().with_seed(config.gnn.seed.wrapping_add(target as u64));
        Ok(train_for_intent(
            &graph,
            target_pos,
            &labels,
            &ctx.train_idx(),
            &ctx.valid_idx(),
            &gnn_config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::evaluate_on_split;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::{Scale, Split};

    fn setup() -> (PipelineContext, InParallelModel, FlexErConfig) {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(41).generate();
        let config = FlexErConfig::fast();
        let ctx = PipelineContext::new(bench, &config.matcher).unwrap();
        let base = InParallelModel::fit(&ctx, &config.matcher).unwrap();
        (ctx, base, config)
    }

    #[test]
    fn full_fit_produces_all_intent_predictions() {
        let (ctx, base, config) = setup();
        let model = FlexErModel::fit_from_embeddings(&ctx, &base.embeddings(), &config).unwrap();
        assert_eq!(model.predictions.n_intents(), ctx.n_intents());
        assert_eq!(model.predictions.n_pairs(), ctx.benchmark.n_pairs());
        assert_eq!(model.graph.n_layers, ctx.n_intents());
        assert_eq!(model.trained.len(), ctx.n_intents());
        let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
        assert!(report.mi_f1 > 0.6, "MI-F = {:.3}", report.mi_f1);
    }

    #[test]
    fn subset_fit_trains_requested_target() {
        let (ctx, base, config) = setup();
        let eq = ctx.equivalence_id().unwrap();
        let trained =
            FlexErModel::fit_subset_for_target(&ctx, &base.embeddings(), &[eq, 1], eq, &config)
                .unwrap();
        assert_eq!(trained.preds.len(), ctx.benchmark.n_pairs());
        assert!(trained.best_valid_f1 > 0.0);
    }

    #[test]
    fn subset_errors() {
        let (ctx, base, config) = setup();
        let e = base.embeddings();
        assert!(matches!(
            FlexErModel::fit_subset_for_target(&ctx, &e, &[], 0, &config),
            Err(CoreError::EmptyIntentSubset)
        ));
        assert!(matches!(
            FlexErModel::fit_subset_for_target(&ctx, &e, &[99], 99, &config),
            Err(CoreError::IntentOutOfRange(99, _))
        ));
        // target not in subset
        assert!(FlexErModel::fit_subset_for_target(&ctx, &e, &[1, 2], 0, &config).is_err());
    }

    #[test]
    fn embedding_count_checked() {
        let (ctx, base, config) = setup();
        let e = base.embeddings();
        let too_few = &e[..2];
        assert!(matches!(
            FlexErModel::fit_from_embeddings(&ctx, too_few, &config),
            Err(CoreError::IntentOutOfRange(2, _))
        ));
    }
}
