//! Matcher hyperparameters.

use crate::features::PairFeaturizer;
use flexer_nn::AdamConfig;

/// Training configuration for binary and multi-task matchers. Defaults
/// mirror the paper's DITTO setup where a CPU-scale analogue exists:
/// 15 epochs, batch size 16, data augmentation on.
#[derive(Debug, Clone, PartialEq)]
pub struct MatcherConfig {
    /// Featurization settings.
    pub featurizer: PairFeaturizer,
    /// Trunk hidden width (the "contextual encoder" capacity).
    pub hidden_dim: usize,
    /// Pair-embedding width — the `[cls]` analogue fed to the multiplex
    /// graph (the paper's is 768; ours defaults to 64 for CPU scale).
    pub embedding_dim: usize,
    /// Training epochs (paper: 15).
    pub epochs: usize,
    /// Minibatch size (paper: 16).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Span-deletion augmentation (the one DITTO optimization the paper
    /// keeps).
    pub augment: bool,
    /// RNG seed for init/shuffling/augmentation.
    pub seed: u64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            featurizer: PairFeaturizer::default(),
            hidden_dim: 96,
            embedding_dim: 64,
            epochs: 15,
            batch_size: 64,
            learning_rate: 1e-3,
            augment: true,
            seed: 0,
        }
    }
}

impl MatcherConfig {
    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The fit's optimizer: Adam with this learning rate, no weight decay.
    pub(crate) fn adam(&self) -> AdamConfig {
        AdamConfig { lr: self.learning_rate, ..Default::default() }
    }

    /// A fast low-capacity preset for unit tests.
    pub fn fast() -> Self {
        Self {
            featurizer: PairFeaturizer::new(1 << 12),
            hidden_dim: 32,
            embedding_dim: 16,
            epochs: 12,
            batch_size: 64,
            augment: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_training_shape() {
        let c = MatcherConfig::default();
        assert_eq!(c.epochs, 15);
        assert!(c.augment);
    }

    #[test]
    fn builders() {
        let c = MatcherConfig::fast().with_seed(9);
        assert_eq!(c.seed, 9);
        assert!(c.epochs < MatcherConfig::default().epochs);
    }
}
