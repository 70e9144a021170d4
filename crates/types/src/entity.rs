//! Entity sets and entity mappings (the `E` and `θ : D → E` of Section 2.1).
//!
//! An [`EntityMap`] assigns each record of a dataset to a real-world entity.
//! Under a given resolution intent `(E, θ)`, two records correspond iff
//! `θ(r_i) = θ(r_j)`. Ground-truth maps are produced by the benchmark
//! generators; models never see them directly — only pair labels derived
//! from them.

use crate::error::TypesError;
use crate::record::RecordId;

/// Identifier of a real-world entity in some entity set `E`.
pub type EntityId = u64;

/// A total mapping `θ : D → E` for a dataset of `n` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityMap {
    assignments: Vec<EntityId>,
}

impl EntityMap {
    /// Builds a map from per-record entity assignments (index = record id).
    pub fn new(assignments: Vec<EntityId>) -> Self {
        Self { assignments }
    }

    /// `θ(r)` — the entity of record `r`.
    pub fn entity_of(&self, record: RecordId) -> Result<EntityId, TypesError> {
        self.assignments.get(record).copied().ok_or(TypesError::UnknownRecord(record))
    }

    /// Whether `θ(r_i) = θ(r_j)`, i.e. the pair corresponds under this intent.
    pub fn corresponds(&self, a: RecordId, b: RecordId) -> Result<bool, TypesError> {
        Ok(self.entity_of(a)? == self.entity_of(b)?)
    }

    /// Number of records covered.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Validates that the map covers a dataset of `n_records` records.
    pub fn validate_for(&self, n_records: usize) -> Result<(), TypesError> {
        if self.assignments.len() == n_records {
            Ok(())
        } else {
            Err(TypesError::IncompleteEntityMap {
                records: n_records,
                mapped: self.assignments.len(),
            })
        }
    }

    /// Raw assignment slice (index = record id).
    pub fn assignments(&self) -> &[EntityId] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correspondence_follows_assignments() {
        let theta = EntityMap::new(vec![1, 1, 2]);
        assert!(theta.corresponds(0, 1).unwrap());
        assert!(!theta.corresponds(0, 2).unwrap());
    }

    #[test]
    fn out_of_range_record_errors() {
        let theta = EntityMap::new(vec![0]);
        assert!(theta.entity_of(3).is_err());
        assert!(theta.corresponds(0, 3).is_err());
    }

    #[test]
    fn validation() {
        let theta = EntityMap::new(vec![0, 0]);
        assert!(theta.validate_for(2).is_ok());
        assert!(matches!(
            theta.validate_for(3),
            Err(TypesError::IncompleteEntityMap { records: 3, mapped: 2 })
        ));
    }
}
