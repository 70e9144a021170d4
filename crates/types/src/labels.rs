//! Per-intent binary label matrices — the `y^p_ij` of Section 3.
//!
//! A [`LabelMatrix`] holds one binary label per (candidate pair, intent).
//! Ground-truth matrices are derived by the generators from entity maps;
//! prediction matrices are produced by matchers, baselines and FlexER.

use crate::error::TypesError;
use crate::intent::IntentId;

/// Dense `|C| × P` binary matrix stored row-major (pair-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMatrix {
    n_pairs: usize,
    n_intents: usize,
    bits: Vec<bool>,
}

impl LabelMatrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(n_pairs: usize, n_intents: usize) -> Self {
        Self { n_pairs, n_intents, bits: vec![false; n_pairs * n_intents] }
    }

    /// Builds a matrix from per-intent label columns (`columns[p][i]` is the
    /// label of pair `i` under intent `p`).
    pub fn from_columns(columns: &[Vec<bool>]) -> Result<Self, TypesError> {
        if columns.is_empty() {
            return Err(TypesError::NoIntents);
        }
        let n_pairs = columns[0].len();
        for c in columns {
            if c.len() != n_pairs {
                return Err(TypesError::LengthMismatch(n_pairs, c.len()));
            }
        }
        let n_intents = columns.len();
        let mut m = Self::zeros(n_pairs, n_intents);
        for (p, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m.set(i, p, v);
            }
        }
        Ok(m)
    }

    /// Number of pairs (rows).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of intents (columns).
    pub fn n_intents(&self) -> usize {
        self.n_intents
    }

    #[inline]
    fn idx(&self, pair: usize, intent: IntentId) -> usize {
        debug_assert!(pair < self.n_pairs && intent < self.n_intents);
        pair * self.n_intents + intent
    }

    /// Label of `pair` under `intent`.
    #[inline]
    pub fn get(&self, pair: usize, intent: IntentId) -> bool {
        self.bits[self.idx(pair, intent)]
    }

    /// Sets the label of `pair` under `intent`.
    #[inline]
    pub fn set(&mut self, pair: usize, intent: IntentId, value: bool) {
        let i = self.idx(pair, intent);
        self.bits[i] = value;
    }

    /// The full label vector `Y_ij` of a pair across intents.
    pub fn row(&self, pair: usize) -> Vec<bool> {
        (0..self.n_intents).map(|p| self.get(pair, p)).collect()
    }

    /// The label column of one intent across all pairs.
    pub fn column(&self, intent: IntentId) -> Vec<bool> {
        (0..self.n_pairs).map(|i| self.get(i, intent)).collect()
    }

    /// Count of positive labels under an intent.
    pub fn positives(&self, intent: IntentId) -> usize {
        (0..self.n_pairs).filter(|&i| self.get(i, intent)).count()
    }

    /// Fraction of positive labels under an intent (`%Pos` of Table 4);
    /// 0 for an empty matrix.
    pub fn positive_rate(&self, intent: IntentId) -> f64 {
        if self.n_pairs == 0 {
            0.0
        } else {
            self.positives(intent) as f64 / self.n_pairs as f64
        }
    }

    /// Positive rate restricted to a subset of pair indices.
    pub fn positive_rate_over(&self, intent: IntentId, pairs: &[usize]) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let pos = pairs.iter().filter(|&&i| self.get(i, intent)).count();
        pos as f64 / pairs.len() as f64
    }

    /// Restricts the matrix to a subset of pair indices, preserving order.
    pub fn select_pairs(&self, pairs: &[usize]) -> Self {
        let mut out = Self::zeros(pairs.len(), self.n_intents);
        for (new_i, &old_i) in pairs.iter().enumerate() {
            for p in 0..self.n_intents {
                out.set(new_i, p, self.get(old_i, p));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabelMatrix {
        // pairs: 0..4, intents: eq, brand
        LabelMatrix::from_columns(&[vec![true, false, false, false], vec![true, true, true, false]])
            .unwrap()
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!((m.n_pairs(), m.n_intents()), (4, 2));
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
        assert!(m.get(2, 1));
        assert_eq!(m.row(0), vec![true, true]);
        assert_eq!(m.column(0), vec![true, false, false, false]);
    }

    #[test]
    fn positive_rates() {
        let m = sample();
        assert!((m.positive_rate(0) - 0.25).abs() < 1e-12);
        assert!((m.positive_rate(1) - 0.75).abs() < 1e-12);
        assert!((m.positive_rate_over(1, &[0, 3]) - 0.5).abs() < 1e-12);
        assert_eq!(m.positive_rate_over(1, &[]), 0.0);
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = LabelMatrix::from_columns(&[vec![true], vec![true, false]]);
        assert_eq!(err, Err(TypesError::LengthMismatch(1, 2)));
    }

    #[test]
    fn empty_columns_rejected() {
        assert_eq!(LabelMatrix::from_columns(&[]), Err(TypesError::NoIntents));
    }

    #[test]
    fn select_pairs_preserves_labels() {
        let m = sample();
        let s = m.select_pairs(&[2, 0]);
        assert_eq!(s.n_pairs(), 2);
        assert_eq!(s.row(0), m.row(2));
        assert_eq!(s.row(1), m.row(0));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = LabelMatrix::zeros(3, 2);
        m.set(2, 1, true);
        assert!(m.get(2, 1));
        assert_eq!(m.positives(1), 1);
        assert_eq!(m.positives(0), 0);
    }

    #[test]
    fn empty_matrix_rate_is_zero() {
        let m = LabelMatrix::zeros(0, 1);
        assert_eq!(m.positive_rate(0), 0.0);
    }
}
