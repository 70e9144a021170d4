//! FlexER configuration.

use flexer_graph::GnnConfig;
use flexer_matcher::MatcherConfig;
use flexer_types::CandidateGenConfig;

/// Which matcher provides the intent-based representations that initialize
/// the multiplex graph (§5.2.2 describes both; §5.3–5.4 report the
/// independent ones, our default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepresentationSource {
    /// Independent per-intent matchers (the in-parallel baseline).
    #[default]
    InParallel,
    /// The per-intent embedding layers of the multi-task network.
    MultiTask,
}

/// End-to-end FlexER configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexErConfig {
    /// Matcher (representation) stage.
    pub matcher: MatcherConfig,
    /// GNN stage.
    pub gnn: GnnConfig,
    /// Intra-layer nearest-neighbour count `k ∈ {0,2,4,6,8,10}` (§5.2.1);
    /// 0 disables intra-layer edges.
    pub k: usize,
    /// Representation source.
    pub representation: RepresentationSource,
    /// Candidate-generation backend: which blocker produces candidate
    /// pairs, and the incremental blocker state snapshots carry for the
    /// serving tier.
    pub candidates: CandidateGenConfig,
}

impl Default for FlexErConfig {
    fn default() -> Self {
        Self {
            matcher: MatcherConfig::default(),
            gnn: GnnConfig::default(),
            k: 6,
            representation: RepresentationSource::InParallel,
            candidates: CandidateGenConfig::default(),
        }
    }
}

impl FlexErConfig {
    /// A fast preset for unit tests.
    pub fn fast() -> Self {
        Self { matcher: MatcherConfig::fast(), gnn: GnnConfig::fast(), k: 4, ..Default::default() }
    }

    /// Sets `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets both stage seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.matcher.seed = seed;
        self.gnn.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = FlexErConfig::default();
        assert_eq!(c.k, 6);
        assert_eq!(c.gnn.learning_rate, 0.01);
        assert_eq!(c.representation, RepresentationSource::InParallel);
        assert_eq!(c.candidates.name(), "ngram");
    }

    #[test]
    fn builders() {
        let c = FlexErConfig::fast().with_k(2).with_seed(7);
        assert_eq!(c.k, 2);
        assert_eq!(c.matcher.seed, 7);
        assert_eq!(c.gnn.seed, 7);
    }
}
