//! Records and datasets (the set `D` of Section 2.1).
//!
//! A [`Record`] is a tuple of named attribute values. All three paper
//! benchmarks match on the `title` attribute only, while the remaining
//! attributes (brand, category set, ...) are used exclusively for intent
//! labelling — the same separation is enforced here by convention: matchers
//! read [`Record::title`], labelers read [`Record::attr`].

use crate::error::TypesError;

/// Index of a record inside its [`Dataset`] (the paper's `r_i`).
pub type RecordId = usize;

/// A named attribute value, e.g. `("brand", "Nike")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Attribute value; empty string models a null value.
    pub value: String,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Self { name: name.into(), value: value.into() }
    }
}

/// A single data record `r = ⟨r.a1, …, r.ak⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position of the record in its dataset.
    pub id: RecordId,
    /// Attribute list; the first attribute is conventionally `title`.
    pub attributes: Vec<Attribute>,
}

impl Record {
    /// Builds a record holding only a title, the minimal shape used by the
    /// paper's matchers.
    pub fn with_title(id: RecordId, title: impl Into<String>) -> Self {
        Self { id, attributes: vec![Attribute::new("title", title)] }
    }

    /// Returns the value of the named attribute, if present and non-null.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
            .filter(|v| !v.is_empty())
    }

    /// The record's title — the only attribute the matching phase may read.
    pub fn title(&self) -> &str {
        self.attr("title").unwrap_or("")
    }

    /// Adds or replaces an attribute and returns `self` for chaining.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute { name, value });
        }
        self
    }
}

/// A dataset `D = {r1, …, rn}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dataset {
    records: Vec<Record>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from records, re-assigning ids to positions so that
    /// `dataset.get(r.id)` is always the record itself.
    pub fn from_records(mut records: Vec<Record>) -> Self {
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i;
        }
        Self { records }
    }

    /// Appends a record, assigning it the next id, and returns that id.
    pub fn push(&mut self, mut record: Record) -> RecordId {
        let id = self.records.len();
        record.id = id;
        self.records.push(record);
        id
    }

    /// Number of records `|D|`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record lookup by id.
    pub fn get(&self, id: RecordId) -> Result<&Record, TypesError> {
        self.records.get(id).ok_or(TypesError::UnknownRecord(id))
    }

    /// Iterator over records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Slice view of all records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }
}

impl std::ops::Index<RecordId> for Dataset {
    type Output = Record;
    fn index(&self, id: RecordId) -> &Record {
        &self.records[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn title_access() {
        let r = Record::with_title(0, "Nike Men's Lunar Force 1 Duckboot");
        assert_eq!(r.title(), "Nike Men's Lunar Force 1 Duckboot");
        assert_eq!(r.attr("brand"), None);
    }

    #[test]
    fn with_attr_adds_and_replaces() {
        let r = Record::with_title(0, "t").with_attr("brand", "Nike");
        assert_eq!(r.attr("brand"), Some("Nike"));
        let r = r.with_attr("brand", "Adidas");
        assert_eq!(r.attr("brand"), Some("Adidas"));
        assert_eq!(r.attributes.len(), 2);
    }

    #[test]
    fn null_attribute_reads_as_none() {
        let r = Record::with_title(0, "t").with_attr("brand", "");
        assert_eq!(r.attr("brand"), None);
    }

    #[test]
    fn record_without_title_has_empty_title() {
        let r = Record { id: 0, attributes: vec![] };
        assert_eq!(r.title(), "");
    }

    #[test]
    fn dataset_push_assigns_sequential_ids() {
        let mut d = Dataset::new();
        let a = d.push(Record::with_title(99, "a"));
        let b = d.push(Record::with_title(99, "b"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(d.get(1).unwrap().title(), "b");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn from_records_reindexes() {
        let d = Dataset::from_records(vec![Record::with_title(7, "x"), Record::with_title(7, "y")]);
        assert_eq!(d[0].id, 0);
        assert_eq!(d[1].id, 1);
    }

    #[test]
    fn unknown_record_errors() {
        let d = Dataset::new();
        assert_eq!(d.get(0), Err(TypesError::UnknownRecord(0)));
    }
}
