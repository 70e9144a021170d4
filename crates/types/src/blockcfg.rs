//! Candidate-generation configuration and diagnostics.
//!
//! Blocking is a first-class pipeline tier (the `flexer-block` crate): the
//! batch pipeline, the serving tier and the snapshot store all agree on
//! *which* backend generates candidate pairs through [`CandidateGenConfig`],
//! and every blocking pass accounts for what it pruned in a
//! [`BlockingReport`] instead of dropping pairs silently.

/// Configuration of the character q-gram inverted-index blocker (the
/// paper's §5.1 candidate generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NGramBlockerConfig {
    /// Gram length (the paper uses 4).
    pub q: usize,
    /// Minimum number of shared grams for a pair to survive.
    pub min_shared: usize,
    /// Inverted-index buckets larger than this are skipped (stop-gram
    /// suppression); the skip is accounted for in [`BlockingReport`].
    pub max_bucket: usize,
}

impl Default for NGramBlockerConfig {
    fn default() -> Self {
        Self { q: 4, min_shared: 1, max_bucket: 64 }
    }
}

/// Configuration of the record-level ANN blocker: titles are feature-hashed
/// into `dim`-dimensional gram-count vectors and each record is paired with
/// its `k` nearest neighbours under L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnnBlockerConfig {
    /// Gram length feeding the hashed embedding.
    pub q: usize,
    /// Hashed embedding dimensionality.
    pub dim: usize,
    /// Number of nearest neighbours each record is paired with.
    pub k: usize,
}

impl Default for AnnBlockerConfig {
    fn default() -> Self {
        Self { q: 3, dim: 64, k: 8 }
    }
}

/// Which backend generates candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CandidateGenConfig {
    /// Every record pair is a candidate (quadratic; parity baseline only).
    Exhaustive,
    /// The q-gram inverted-index blocker.
    NGram(NGramBlockerConfig),
    /// The record-level ANN blocker.
    Ann(AnnBlockerConfig),
}

impl Default for CandidateGenConfig {
    fn default() -> Self {
        CandidateGenConfig::NGram(NGramBlockerConfig::default())
    }
}

impl CandidateGenConfig {
    /// Short backend name for logs and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            CandidateGenConfig::Exhaustive => "exhaustive",
            CandidateGenConfig::NGram(_) => "ngram",
            CandidateGenConfig::Ann(_) => "ann",
        }
    }
}

/// What a blocking pass considered and what it pruned. Buckets above
/// `max_bucket` used to be skipped with no signal; the report makes that
/// suppression explicit so benchmarks and operators can see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BlockingReport {
    /// Distinct grams in the inverted index (ANN blockers report 0).
    pub grams_indexed: usize,
    /// Buckets skipped for exceeding `max_bucket` (stop-grams).
    pub grams_skipped: usize,
    /// Within-bucket comparisons actually enumerated.
    pub comparisons_considered: u64,
    /// Within-bucket comparisons suppressed by the bucket cap.
    pub comparisons_suppressed: u64,
    /// Candidate pairs emitted.
    pub candidates: usize,
}

impl BlockingReport {
    /// Fraction of the all-pairs space the candidate set retains
    /// (`candidates / C(n_records, 2)`); 0 for degenerate corpora.
    pub fn retention(&self, n_records: usize) -> f64 {
        let all = n_records.saturating_mul(n_records.saturating_sub(1)) / 2;
        if all == 0 {
            0.0
        } else {
            self.candidates as f64 / all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_blocker() {
        match CandidateGenConfig::default() {
            CandidateGenConfig::NGram(c) => {
                assert_eq!(c.q, 4);
                assert_eq!(c.min_shared, 1);
            }
            other => panic!("default must be the q-gram blocker, got {other:?}"),
        }
    }

    #[test]
    fn retention_is_a_fraction_of_all_pairs() {
        let report = BlockingReport { candidates: 5, ..Default::default() };
        assert_eq!(report.retention(5), 0.5); // C(5,2) = 10
        assert_eq!(report.retention(0), 0.0);
        assert_eq!(report.retention(1), 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CandidateGenConfig::Exhaustive.name(), "exhaustive");
        assert_eq!(CandidateGenConfig::default().name(), "ngram");
        assert_eq!(CandidateGenConfig::Ann(AnnBlockerConfig::default()).name(), "ann");
    }
}
