//! The in-parallel baseline (§3.2): one independently trained binary
//! matcher per intent — Read et al.'s binary-relevance decomposition of the
//! multi-label problem. Its per-intent `[cls]` embeddings are also the
//! node initialization of FlexER's multiplex graph (§5.2.2).

use crate::context::PipelineContext;
use crate::error::CoreError;
use flexer_matcher::matcher::MatcherOutput;
use flexer_matcher::{BinaryMatcher, MatcherConfig};
use flexer_nn::Matrix;
use flexer_types::LabelMatrix;

/// `P` binary matchers with their full-candidate-set outputs.
#[derive(Debug, Clone)]
pub struct InParallelModel {
    /// One matcher per intent (id order).
    pub matchers: Vec<BinaryMatcher>,
    /// Per-intent inference over every candidate pair.
    pub outputs: Vec<MatcherOutput>,
    /// Predictions as a label matrix (pairs × intents).
    pub predictions: LabelMatrix,
}

impl InParallelModel {
    /// Trains `P` matchers, one per intent, each from its own seed so the
    /// latent spaces are independent (§4.1.1). The per-intent trainings are
    /// fully independent (binary relevance), so they fan out across the
    /// `flexer-par` thread budget; every intent keeps the same derived seed
    /// as the serial loop, making the result bit-identical at any thread
    /// count.
    pub fn fit(ctx: &PipelineContext, config: &MatcherConfig) -> Result<Self, CoreError> {
        let train = ctx.train_idx();
        let valid = ctx.valid_idx();
        let fitted = flexer_par::parallel_map(ctx.n_intents(), |p| {
            let labels = ctx.benchmark.labels.column(p);
            let intent_config = config.clone().with_seed(config.seed.wrapping_add(p as u64));
            let matcher =
                BinaryMatcher::train(&ctx.corpus, &labels, &train, &valid, &intent_config);
            let output = matcher.infer(&ctx.corpus.features);
            (matcher, output)
        });
        let mut matchers = Vec::with_capacity(fitted.len());
        let mut outputs = Vec::with_capacity(fitted.len());
        let mut columns: Vec<Vec<bool>> = Vec::with_capacity(fitted.len());
        for (matcher, output) in fitted {
            columns.push(output.preds.clone());
            matchers.push(matcher);
            outputs.push(output);
        }
        let predictions = LabelMatrix::from_columns(&columns).expect("P >= 1");
        Ok(Self { matchers, outputs, predictions })
    }

    /// The per-intent pair embeddings (node initializations for FlexER).
    pub fn embeddings(&self) -> Vec<&Matrix> {
        self.outputs.iter().map(|o| &o.embeddings).collect()
    }

    /// Number of intents.
    pub fn n_intents(&self) -> usize {
        self.matchers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::evaluate_on_split;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::{Scale, Split};

    fn fit() -> (PipelineContext, InParallelModel) {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(23).generate();
        let config = MatcherConfig::fast();
        let ctx = PipelineContext::new(bench, &config).unwrap();
        let model = InParallelModel::fit(&ctx, &config).unwrap();
        (ctx, model)
    }

    #[test]
    fn one_matcher_per_intent() {
        let (ctx, model) = fit();
        assert_eq!(model.n_intents(), ctx.n_intents());
        assert_eq!(model.predictions.n_pairs(), ctx.benchmark.n_pairs());
        assert_eq!(model.embeddings().len(), ctx.n_intents());
    }

    #[test]
    fn solves_mier_above_chance() {
        let (ctx, model) = fit();
        let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
        assert!(report.mi_f1 > 0.6, "MI-F = {:.3}", report.mi_f1);
        assert!(report.mi_accuracy > 0.4, "MI-Acc = {:.3}", report.mi_accuracy);
    }

    #[test]
    fn matchers_trained_independently() {
        let (_, model) = fit();
        // Different seeds per intent ⇒ different embeddings even where
        // predictions agree.
        let e = model.embeddings();
        let mut diff = 0.0f32;
        for i in 0..e[0].rows().min(50) {
            diff += flexer_nn::Matrix::row_l2_sq(e[0], i, e[1], i);
        }
        assert!(diff > 1e-3);
    }
}
