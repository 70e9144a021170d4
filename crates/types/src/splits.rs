//! Train/validation/test splits over candidate pairs.
//!
//! The paper splits every benchmark 3:1:1 at the pair level (§5.1). Splits
//! are assigned by a seeded shuffle so the per-intent positive rates are
//! naturally similar across subsets, as in Table 4.

use crate::error::TypesError;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which subset a candidate pair belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Training subset (matcher fine-tuning and GNN loss).
    Train,
    /// Validation subset (model selection).
    Valid,
    /// Test subset (reported metrics).
    Test,
}

impl Split {
    /// All splits in reporting order.
    pub const ALL: [Split; 3] = [Split::Train, Split::Valid, Split::Test];

    /// Reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Split::Train => "Train",
            Split::Valid => "Valid",
            Split::Test => "Test",
        }
    }
}

/// Integer split ratios, e.g. the paper's `3:1:1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRatios {
    /// Training share.
    pub train: u32,
    /// Validation share.
    pub valid: u32,
    /// Test share.
    pub test: u32,
}

impl SplitRatios {
    /// The paper's 3:1:1 ratio.
    pub const PAPER: SplitRatios = SplitRatios { train: 3, valid: 1, test: 1 };

    fn total(&self) -> u32 {
        self.train + self.valid + self.test
    }
}

impl Default for SplitRatios {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Per-pair split assignment aligned with a candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitAssignment {
    assignment: Vec<Split>,
}

impl SplitAssignment {
    /// Randomly assigns `n_pairs` pairs to splits with the given ratios,
    /// deterministically for a seed. Counts are exact (remainders go to
    /// train) and the permutation is a seeded Fisher–Yates shuffle.
    pub fn random(n_pairs: usize, ratios: SplitRatios, seed: u64) -> Result<Self, TypesError> {
        let total = ratios.total();
        if total == 0 {
            return Err(TypesError::InvalidSplitRatios);
        }
        let n_valid = n_pairs * ratios.valid as usize / total as usize;
        let n_test = n_pairs * ratios.test as usize / total as usize;
        let n_train = n_pairs - n_valid - n_test;

        let mut order: Vec<usize> = (0..n_pairs).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);

        let mut assignment = vec![Split::Train; n_pairs];
        for (rank, &idx) in order.iter().enumerate() {
            assignment[idx] = if rank < n_train {
                Split::Train
            } else if rank < n_train + n_valid {
                Split::Valid
            } else {
                Split::Test
            };
        }
        Ok(Self { assignment })
    }

    /// Builds an assignment directly from per-pair splits.
    pub fn from_vec(assignment: Vec<Split>) -> Self {
        Self { assignment }
    }

    /// Number of pairs covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Pair indices belonging to a split, ascending.
    pub fn indices_of(&self, split: Split) -> Vec<usize> {
        self.assignment.iter().enumerate().filter_map(|(i, &s)| (s == split).then_some(i)).collect()
    }

    /// Count of pairs in a split.
    pub fn count_of(&self, split: Split) -> usize {
        self.assignment.iter().filter(|&&s| s == split).count()
    }

    /// Full per-pair assignment slice.
    pub fn assignment(&self) -> &[Split] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_respected_exactly() {
        let s = SplitAssignment::random(100, SplitRatios::PAPER, 1).unwrap();
        assert_eq!(s.count_of(Split::Train), 60);
        assert_eq!(s.count_of(Split::Valid), 20);
        assert_eq!(s.count_of(Split::Test), 20);
    }

    #[test]
    fn remainder_goes_to_train() {
        let s = SplitAssignment::random(7, SplitRatios::PAPER, 1).unwrap();
        // 7*1/5 = 1 valid, 1 test, 5 train
        assert_eq!(s.count_of(Split::Train), 5);
        assert_eq!(s.count_of(Split::Valid), 1);
        assert_eq!(s.count_of(Split::Test), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SplitAssignment::random(50, SplitRatios::PAPER, 9).unwrap();
        let b = SplitAssignment::random(50, SplitRatios::PAPER, 9).unwrap();
        let c = SplitAssignment::random(50, SplitRatios::PAPER, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indices_partition_the_range() {
        let s = SplitAssignment::random(30, SplitRatios::PAPER, 3).unwrap();
        let mut all: Vec<usize> = Split::ALL.iter().flat_map(|&sp| s.indices_of(sp)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn zero_ratio_rejected() {
        let r = SplitRatios { train: 0, valid: 0, test: 0 };
        assert!(SplitAssignment::random(10, r, 0).is_err());
    }

    #[test]
    fn empty_assignment() {
        let s = SplitAssignment::random(0, SplitRatios::PAPER, 0).unwrap();
        assert!(s.is_empty());
        assert!(s.indices_of(Split::Train).is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(Split::Train.name(), "Train");
        assert_eq!(Split::Valid.name(), "Valid");
        assert_eq!(Split::Test.name(), "Test");
    }
}
