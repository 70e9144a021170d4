//! The multi-label baseline (§3.3): one jointly trained multi-task matcher
//! — a single training phase for all intents, whose per-intent heads yield
//! the resolutions.

use crate::context::PipelineContext;
use crate::error::CoreError;
use flexer_matcher::{MatcherConfig, MultiTaskMatcher};
use flexer_types::LabelMatrix;

/// The jointly trained multi-label model.
#[derive(Debug, Clone)]
pub struct MultiLabelModel {
    /// The shared-trunk multi-task matcher.
    pub matcher: MultiTaskMatcher,
    /// Predictions as a label matrix.
    pub predictions: LabelMatrix,
}

impl MultiLabelModel {
    /// Trains the multi-task network on all intents jointly. Training is a
    /// single shared phase (§3.3), but the per-intent head inferences over
    /// the full candidate set are independent and fan out across the
    /// `flexer-par` thread budget. Only each head's decisions are kept.
    pub fn fit(ctx: &PipelineContext, config: &MatcherConfig) -> Result<Self, CoreError> {
        let matcher = MultiTaskMatcher::train(
            &ctx.corpus,
            &ctx.benchmark.labels,
            &ctx.train_idx(),
            &ctx.valid_idx(),
            config,
        );
        let columns: Vec<Vec<bool>> = flexer_par::parallel_map(ctx.n_intents(), |p| {
            matcher.infer_intent(&ctx.corpus.features, p).preds
        });
        let predictions = LabelMatrix::from_columns(&columns).expect("P >= 1");
        Ok(Self { matcher, predictions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::evaluate_on_split;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::{Scale, Split};

    #[test]
    fn fits_and_predicts_all_intents() {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(31).generate();
        let config = MatcherConfig { epochs: 25, ..MatcherConfig::fast() };
        let ctx = PipelineContext::new(bench, &config).unwrap();
        let model = MultiLabelModel::fit(&ctx, &config).unwrap();
        assert_eq!(model.predictions.n_intents(), ctx.n_intents());
        let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
        assert!(report.mi_f1 > 0.55, "MI-F = {:.3}", report.mi_f1);
    }
}
