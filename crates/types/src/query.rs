//! Serving-time query and response types.
//!
//! Batch FlexER (§4) answers every intent for every candidate pair at
//! training time; the online resolution tier (`flexer-serve`) answers the
//! same question — "do these records correspond, under intent `p`?"
//! (Definition 2, Problem 1) — at query time against a frozen model
//! snapshot. These types are the wire vocabulary of that tier, kept in
//! `flexer-types` so stores, services and benches agree on them without
//! depending on each other.

use crate::intent::IntentId;

/// A resolution query against a loaded model.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveQuery {
    /// An existing candidate pair, by its pair index. Answered from the
    /// transductive (batch) predictions of the snapshot's GNN — exact, and
    /// bit-identical to the batch model.
    CorpusPair(usize),
    /// An ad-hoc record pair given by titles. Answered inductively: the
    /// pair is embedded per intent, localized via ANN, and scored by a
    /// frozen-weight forward pass over its k-NN neighbourhood.
    TitlePair(String, String),
    /// A single record to resolve against the whole corpus: "which stored
    /// records match this one?" — the query-driven ER workload.
    Record(String),
}

impl ResolveQuery {
    /// Convenience constructor for a record query.
    pub fn record(title: impl Into<String>) -> Self {
        ResolveQuery::Record(title.into())
    }

    /// Convenience constructor for an ad-hoc pair query.
    pub fn pair(a: impl Into<String>, b: impl Into<String>) -> Self {
        ResolveQuery::TitlePair(a.into(), b.into())
    }
}

/// What a [`RankedMatch`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchTarget {
    /// A corpus record (record-level resolve).
    Record(usize),
    /// A stored candidate pair (pair-level resolve).
    Pair(usize),
    /// An ad-hoc pair that exists only in the query.
    AdHoc,
}

/// One ranked candidate resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedMatch {
    /// The matched entity.
    pub target: MatchTarget,
    /// Match likelihood under the queried intent (the ŷ of Eq. 1).
    pub score: f32,
    /// Thresholded decision (`score > 0.5`, the argmax of Eq. 5).
    pub matched: bool,
}

/// The answer to one (query, intent) resolution request.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveResponse {
    /// The intent the matches were ranked under.
    pub intent: IntentId,
    /// Candidate resolutions, descending by score (ties by target order).
    pub matches: Vec<RankedMatch>,
}

impl ResolveResponse {
    /// The best match, if any candidate was scored.
    pub fn top(&self) -> Option<&RankedMatch> {
        self.matches.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ResolveQuery::record("nike"), ResolveQuery::Record("nike".into()));
        assert_eq!(ResolveQuery::pair("a", "b"), ResolveQuery::TitlePair("a".into(), "b".into()));
    }

    #[test]
    fn response_helpers() {
        let r = ResolveResponse {
            intent: 1,
            matches: vec![
                RankedMatch { target: MatchTarget::Record(3), score: 0.9, matched: true },
                RankedMatch { target: MatchTarget::Record(7), score: 0.4, matched: false },
            ],
        };
        assert_eq!(r.top().unwrap().score, 0.9);
    }

    #[test]
    fn empty_response() {
        let r = ResolveResponse { intent: 0, matches: vec![] };
        assert!(r.top().is_none());
    }
}
