//! Candidate record pairs (the set `C ⊆ D × D` produced by blocking).

use crate::error::TypesError;
use crate::record::RecordId;

/// A candidate record pair `(r_i, r_j)` with `i < j` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairRef {
    /// First record id (the smaller one).
    pub a: RecordId,
    /// Second record id (the larger one).
    pub b: RecordId,
}

impl PairRef {
    /// Creates a normalized pair (`a < b`); self-pairs are rejected.
    pub fn new(a: RecordId, b: RecordId) -> Result<Self, TypesError> {
        if a == b {
            return Err(TypesError::SelfPair(a));
        }
        Ok(if a < b { Self { a, b } } else { Self { a: b, b: a } })
    }
}

/// The ordered candidate set `C` over which matchers operate. Pair indices
/// into this set are the node identities of the multiplex intents graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateSet {
    pairs: Vec<PairRef>,
}

impl CandidateSet {
    /// Empty candidate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a candidate set, dropping duplicates while preserving first
    /// occurrence order.
    pub fn from_pairs(pairs: Vec<PairRef>) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(pairs.len());
        let mut out = Vec::with_capacity(pairs.len());
        for p in pairs {
            if seen.insert(p) {
                out.push(p);
            }
        }
        Self { pairs: out }
    }

    /// Appends a pair if not already present; returns its index.
    pub fn insert(&mut self, pair: PairRef) -> usize {
        if let Some(idx) = self.pairs.iter().position(|p| *p == pair) {
            idx
        } else {
            self.pairs.push(pair);
            self.pairs.len() - 1
        }
    }

    /// Number of candidate pairs `|C|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pair at index.
    pub fn get(&self, idx: usize) -> Option<PairRef> {
        self.pairs.get(idx).copied()
    }

    /// Iterator over `(index, pair)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, PairRef)> + '_ {
        self.pairs.iter().copied().enumerate()
    }

    /// Slice of all pairs in index order.
    pub fn pairs(&self) -> &[PairRef] {
        &self.pairs
    }

    /// Validates every referenced record id against a dataset size.
    pub fn validate_for(&self, n_records: usize) -> Result<(), TypesError> {
        for p in &self.pairs {
            if p.a >= n_records {
                return Err(TypesError::UnknownRecord(p.a));
            }
            if p.b >= n_records {
                return Err(TypesError::UnknownRecord(p.b));
            }
        }
        Ok(())
    }
}

impl std::ops::Index<usize> for CandidateSet {
    type Output = PairRef;
    fn index(&self, idx: usize) -> &PairRef {
        &self.pairs[idx]
    }
}

impl FromIterator<PairRef> for CandidateSet {
    fn from_iter<T: IntoIterator<Item = PairRef>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_normalize_order() {
        let p = PairRef::new(5, 2).unwrap();
        assert_eq!((p.a, p.b), (2, 5));
        assert_eq!(p, PairRef::new(2, 5).unwrap());
    }

    #[test]
    fn self_pair_rejected() {
        assert_eq!(PairRef::new(3, 3), Err(TypesError::SelfPair(3)));
    }

    #[test]
    fn duplicates_dropped_preserving_order() {
        let p01 = PairRef::new(0, 1).unwrap();
        let p12 = PairRef::new(1, 2).unwrap();
        let c = CandidateSet::from_pairs(vec![p01, p12, p01]);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], p01);
        assert_eq!(c[1], p12);
    }

    #[test]
    fn insert_returns_existing_index() {
        let mut c = CandidateSet::new();
        let p = PairRef::new(0, 1).unwrap();
        assert_eq!(c.insert(p), 0);
        assert_eq!(c.insert(PairRef::new(1, 2).unwrap()), 1);
        assert_eq!(c.insert(p), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn validation_catches_out_of_range() {
        let c = CandidateSet::from_pairs(vec![PairRef::new(0, 9).unwrap()]);
        assert!(c.validate_for(10).is_ok());
        assert_eq!(c.validate_for(5), Err(TypesError::UnknownRecord(9)));
    }
}
