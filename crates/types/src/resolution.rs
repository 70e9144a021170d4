//! Resolutions `M ⊆ C` and their algebra (Definitions 1, 3 and 4).

use crate::entity::EntityMap;
use crate::error::TypesError;
use crate::pair::CandidateSet;

/// A resolution: the subset of candidate pairs a matcher resolves as
/// representing the same entity. Stored as a membership mask aligned with a
/// [`CandidateSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    members: Vec<bool>,
}

impl Resolution {
    /// Empty resolution over `n_pairs` candidates.
    pub fn empty(n_pairs: usize) -> Self {
        Self { members: vec![false; n_pairs] }
    }

    /// Builds a resolution from a membership mask.
    pub fn from_mask(members: Vec<bool>) -> Self {
        Self { members }
    }

    /// Builds a resolution from the indices of matched pairs.
    pub fn from_indices(n_pairs: usize, indices: &[usize]) -> Self {
        let mut m = Self::empty(n_pairs);
        for &i in indices {
            m.members[i] = true;
        }
        m
    }

    /// Number of candidate pairs the resolution is defined over.
    pub fn n_pairs(&self) -> usize {
        self.members.len()
    }

    /// Whether pair `idx` is in `M`.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        self.members.get(idx).copied().unwrap_or(false)
    }

    /// Adds/removes a pair.
    pub fn set(&mut self, idx: usize, member: bool) {
        self.members[idx] = member;
    }

    /// `|M|` — number of matched pairs.
    pub fn len(&self) -> usize {
        self.members.iter().filter(|&&m| m).count()
    }

    /// Whether no pair is matched.
    pub fn is_empty(&self) -> bool {
        !self.members.iter().any(|&m| m)
    }

    /// Indices of matched pairs in ascending order.
    pub fn indices(&self) -> Vec<usize> {
        self.members.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect()
    }

    /// Membership mask.
    pub fn mask(&self) -> &[bool] {
        &self.members
    }

    /// **Definition 1 (Resolution Satisfaction).** `M ⊨ θ` iff for every
    /// candidate pair, membership in `M` is equivalent to correspondence
    /// under `θ`.
    pub fn satisfies(
        &self,
        candidates: &CandidateSet,
        theta: &EntityMap,
    ) -> Result<bool, TypesError> {
        if candidates.len() != self.members.len() {
            return Err(TypesError::LengthMismatch(candidates.len(), self.members.len()));
        }
        for (idx, pair) in candidates.iter() {
            if self.contains(idx) != theta.corresponds(pair.a, pair.b)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **Definition 3 (Overlapping Intents)** lifted to resolutions: `M` and
    /// `M'` overlap iff some candidate pair belongs to both.
    pub fn overlaps(&self, other: &Resolution) -> bool {
        self.members.iter().zip(other.members.iter()).any(|(&a, &b)| a && b)
    }

    /// **Definition 4 (Subsumed Intents)** lifted to resolutions: `self` is a
    /// sub-intent resolution of `other` iff no pair is in `self` but outside
    /// `other` (i.e. `self ⊆ other`).
    pub fn subsumed_by(&self, other: &Resolution) -> bool {
        self.members.iter().zip(other.members.iter()).all(|(&a, &b)| !a || b)
    }

    /// The resolution induced by the ground-truth mapping: the golden
    /// standard `M* = {(ri,rj) | y_ij = 1}` of Section 5.2.3.
    pub fn golden(candidates: &CandidateSet, theta: &EntityMap) -> Result<Self, TypesError> {
        let mut m = Self::empty(candidates.len());
        for (idx, pair) in candidates.iter() {
            m.members[idx] = theta.corresponds(pair.a, pair.b)?;
        }
        Ok(m)
    }

    /// Builds a resolution from per-pair boolean predictions.
    pub fn from_predictions(preds: &[bool]) -> Self {
        Self { members: preds.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::PairRef;

    fn candidates() -> CandidateSet {
        CandidateSet::from_pairs(vec![
            PairRef::new(0, 1).unwrap(),
            PairRef::new(0, 2).unwrap(),
            PairRef::new(1, 2).unwrap(),
        ])
    }

    #[test]
    fn golden_satisfies_its_theta() {
        let c = candidates();
        let theta = EntityMap::new(vec![7, 7, 9]);
        let m = Resolution::golden(&c, &theta).unwrap();
        assert!(m.satisfies(&c, &theta).unwrap());
        assert_eq!(m.indices(), vec![0]);
    }

    #[test]
    fn non_golden_fails_satisfaction() {
        let c = candidates();
        let theta = EntityMap::new(vec![7, 7, 9]);
        let m = Resolution::from_indices(3, &[0, 1]);
        assert!(!m.satisfies(&c, &theta).unwrap());
    }

    #[test]
    fn satisfaction_requires_matching_lengths() {
        let c = candidates();
        let theta = EntityMap::new(vec![7, 7, 9]);
        let m = Resolution::empty(2);
        assert!(m.satisfies(&c, &theta).is_err());
    }

    #[test]
    fn overlap_and_subsumption() {
        // eq ⊆ brand: paper's example — (r1,r2) in both.
        let eq = Resolution::from_indices(3, &[0]);
        let brand = Resolution::from_indices(3, &[0, 1, 2]);
        let cat = Resolution::from_indices(3, &[1]);
        assert!(eq.overlaps(&brand));
        assert!(eq.subsumed_by(&brand));
        assert!(!brand.subsumed_by(&eq));
        assert!(!eq.overlaps(&cat));
        // Overlapping but not subsumed.
        let a = Resolution::from_indices(3, &[0, 1]);
        let b = Resolution::from_indices(3, &[1, 2]);
        assert!(a.overlaps(&b));
        assert!(!a.subsumed_by(&b) && !b.subsumed_by(&a));
    }

    #[test]
    fn empty_resolution_is_subsumed_by_everything() {
        let none = Resolution::empty(3);
        let any = Resolution::from_indices(3, &[2]);
        assert!(none.subsumed_by(&any));
        assert!(none.subsumed_by(&none));
        assert!(!none.overlaps(&any));
        assert!(none.is_empty());
    }

    #[test]
    fn indices_mask_roundtrip() {
        let m = Resolution::from_indices(5, &[1, 3]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.indices(), vec![1, 3]);
        let m2 = Resolution::from_mask(m.mask().to_vec());
        assert_eq!(m, m2);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let m = Resolution::empty(2);
        assert!(!m.contains(10));
    }
}
