//! The shared pipeline context: one benchmark, one featurized corpus.
//!
//! Featurization (the serialized-pair analogue of tokenizing for a
//! transformer) is intent-independent, so every model — Naïve,
//! In-parallel, Multi-label and FlexER — shares a single [`PairCorpus`],
//! exactly as the paper reuses one `C_train` with different labels.

use crate::error::CoreError;
use flexer_matcher::train::PairCorpus;
use flexer_matcher::MatcherConfig;
use flexer_types::{MierBenchmark, Split};

/// A validated benchmark plus its featurized pair corpus.
#[derive(Debug, Clone)]
pub struct PipelineContext {
    /// The benchmark.
    pub benchmark: MierBenchmark,
    /// Featurized candidate pairs (shared across all models).
    pub corpus: PairCorpus,
}

impl PipelineContext {
    /// Validates the benchmark and featurizes its candidate set.
    pub fn new(benchmark: MierBenchmark, config: &MatcherConfig) -> Result<Self, CoreError> {
        benchmark.validate()?;
        if benchmark.candidates.is_empty() {
            return Err(CoreError::EmptyCandidateSet);
        }
        let corpus = PairCorpus::from_benchmark(&benchmark, config);
        Ok(Self { benchmark, corpus })
    }

    /// Train pair indices.
    pub fn train_idx(&self) -> Vec<usize> {
        self.benchmark.split_indices(Split::Train)
    }

    /// Validation pair indices.
    pub fn valid_idx(&self) -> Vec<usize> {
        self.benchmark.split_indices(Split::Valid)
    }

    /// Test pair indices.
    pub fn test_idx(&self) -> Vec<usize> {
        self.benchmark.split_indices(Split::Test)
    }

    /// Number of intents.
    pub fn n_intents(&self) -> usize {
        self.benchmark.n_intents()
    }

    /// The equivalence intent id, or an error for benchmarks without one.
    pub fn equivalence_id(&self) -> Result<usize, CoreError> {
        self.benchmark.intents.equivalence_id().ok_or(CoreError::NoEquivalenceIntent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_datasets::AmazonMiConfig;
    use flexer_types::Scale;

    #[test]
    fn builds_and_exposes_splits() {
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(2).generate();
        let n = bench.n_pairs();
        let ctx = PipelineContext::new(bench, &MatcherConfig::fast()).unwrap();
        let total = ctx.train_idx().len() + ctx.valid_idx().len() + ctx.test_idx().len();
        assert_eq!(total, n);
        assert_eq!(ctx.corpus.len(), n);
        assert_eq!(ctx.equivalence_id().unwrap(), 0);
        assert_eq!(ctx.n_intents(), 5);
    }

    #[test]
    fn rejects_corrupted_benchmark() {
        let mut bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(2).generate();
        bench.entity_maps.pop();
        let err = PipelineContext::new(bench, &MatcherConfig::fast()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidBenchmark(_)));
    }
}
