//! Resolution intents (Definition 2) and intent sets `Π`.
//!
//! An intent is a pair `(E, θ)`. The *model* perceives intents only as label
//! columns; the human-readable [`Intent::name`] ("Eq.", "Brand", …) exists
//! purely for reporting, exactly as the paper's predicate labels do
//! ("such labeling is for illustration purposes only", §2.2).

/// Position of an intent inside an [`IntentSet`] (the paper's `p ∈ 1..P`).
pub type IntentId = usize;

/// A named resolution intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intent {
    /// Index of the intent in its set.
    pub id: IntentId,
    /// Reporting name, e.g. `"Eq."` or `"Main-Cat."`.
    pub name: String,
    /// Whether this is the *equivalence* intent underlying universal entity
    /// resolution (§2.2). Exactly one intent per benchmark is equivalence.
    pub is_equivalence: bool,
}

impl Intent {
    /// Creates a non-equivalence intent.
    pub fn named(id: IntentId, name: impl Into<String>) -> Self {
        Self { id, name: name.into(), is_equivalence: false }
    }

    /// Creates the equivalence intent.
    pub fn equivalence(id: IntentId) -> Self {
        Self { id, name: "Eq.".to_string(), is_equivalence: true }
    }
}

/// An ordered set of intents `Π = {π1, …, πP}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntentSet {
    intents: Vec<Intent>,
}

impl IntentSet {
    /// Builds a set, re-assigning ids to positions.
    pub fn new(mut intents: Vec<Intent>) -> Self {
        for (i, intent) in intents.iter_mut().enumerate() {
            intent.id = i;
        }
        Self { intents }
    }

    /// Number of intents `P`.
    pub fn len(&self) -> usize {
        self.intents.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intents.is_empty()
    }

    /// Iterator in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Intent> {
        self.intents.iter()
    }

    /// Lookup by id.
    pub fn get(&self, id: IntentId) -> Option<&Intent> {
        self.intents.get(id)
    }

    /// The id of the equivalence intent, if the set declares one.
    pub fn equivalence_id(&self) -> Option<IntentId> {
        self.intents.iter().find(|i| i.is_equivalence).map(|i| i.id)
    }

    /// Names of all intents in id order.
    pub fn names(&self) -> Vec<&str> {
        self.intents.iter().map(|i| i.name.as_str()).collect()
    }
}

impl std::ops::Index<IntentId> for IntentSet {
    type Output = Intent;
    fn index(&self, id: IntentId) -> &Intent {
        &self.intents[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntentSet {
        IntentSet::new(vec![
            Intent::equivalence(0),
            Intent::named(0, "Brand"),
            Intent::named(0, "Main-Cat."),
        ])
    }

    #[test]
    fn ids_follow_positions() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].id, 1);
        assert_eq!(s[2].name, "Main-Cat.");
    }

    #[test]
    fn equivalence_lookup() {
        let s = sample();
        assert_eq!(s.equivalence_id(), Some(0));
        assert!(s[0].is_equivalence);
        assert!(!s[1].is_equivalence);
    }

    #[test]
    fn name_lookup() {
        let s = sample();
        assert_eq!(s.names(), vec!["Eq.", "Brand", "Main-Cat."]);
    }

    #[test]
    fn empty_set_has_no_equivalence() {
        let s = IntentSet::default();
        assert!(s.is_empty());
        assert_eq!(s.equivalence_id(), None);
    }
}
