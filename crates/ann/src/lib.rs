//! # flexer-ann
//!
//! Nearest-neighbour search for FlexER's intra-layer edges (§4.1.3) — the
//! Faiss substitute. The paper connects every multiplex-graph node to its
//! `k` nearest neighbours under L2 distance over the *initial* node
//! representation, using Faiss's exhaustive search; "Faiss offers multiple
//! heuristics that can reduce the computational effort" (§5.7).
//!
//! No such heuristic is provided: against the pruned exact search below, an
//! inverted-file approximate index measured 1.5–19× *slower* at every
//! setting (ROADMAP, "Recent"). This crate provides one index:
//! * [`FlatIndex`] — exact L2 search: the answers of the exhaustive scan
//!   the paper runs, to the bit, from a *pruned* scan. The index keeps its
//!   rows in self-splitting pivot lists and skips every list a
//!   triangle-inequality bound (conservative in floating point) puts past
//!   the current k-th distance; on FlexER's pair embeddings a search
//!   evaluates ≈10–20 % of the rows (see [`flat`]),
//!
//! plus [`knn_graph()`](knn_graph::knn_graph), which turns an index into the directed k-NN edge
//! lists the multiplex graph consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod flat;
pub mod knn_graph;

pub use distance::l2_sq;
pub use flat::FlatIndex;
pub use knn_graph::knn_graph;

/// The index a serving snapshot stores per intent layer. [`FlatIndex`] is
/// the only backend; the one-variant enum is what the pinned `ladder`
/// benchmark names (`AnyIndex::Flat(..)`) and goes when that does.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Exact search (the answers of the exhaustive scan the paper runs).
    Flat(FlatIndex),
}

impl AnyIndex {
    fn flat(&self) -> &FlatIndex {
        let AnyIndex::Flat(i) = self;
        i
    }

    /// Appends one vector; returns its id (incremental ingest).
    pub fn add(&mut self, v: &[f32]) -> usize {
        let AnyIndex::Flat(i) = self;
        i.add(v)
    }

    /// Stored vector by id, in insertion order.
    pub fn vector(&self, id: usize) -> &[f32] {
        self.flat().vector(id)
    }

    /// The full row-major vector buffer, id-major in insertion order —
    /// the zero-copy row source of the serving tier's batched gathers.
    pub fn data(&self) -> &[f32] {
        self.flat().data()
    }

    /// A copy of the index truncated to its first `n` vectors — the
    /// training-time prefix a serving snapshot restores: a prefix slice of
    /// the rows (the partition is derived state, regrown from them).
    pub fn truncated(&self, n: usize) -> AnyIndex {
        let f = self.flat();
        AnyIndex::Flat(FlatIndex::from_rows(f.dim(), &f.data()[..n * f.dim()]))
    }
}

impl VectorIndex for AnyIndex {
    fn len(&self) -> usize {
        self.flat().len()
    }

    fn dim(&self) -> usize {
        self.flat().dim()
    }

    fn search_since(
        &self,
        query: &[f32],
        k: usize,
        since: usize,
        prior: &[Neighbor],
    ) -> Vec<Neighbor> {
        self.flat().search_since(query, k, since, prior)
    }

    fn scan_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> (Vec<Vec<Neighbor>>, u64) {
        self.flat().scan_batch_since(queries, k, since, priors)
    }
}

/// Panics with a clear message if any component is NaN/Inf. Every index
/// entry point runs this: a single non-finite coordinate makes `l2_sq`
/// return NaN, and NaN distances poison the `partial_cmp`-based top-k
/// ordering silently (every comparison "succeeds", the ranking is garbage).
pub fn assert_finite(v: &[f32], context: &str) {
    for (i, &x) in v.iter().enumerate() {
        assert!(
            x.is_finite(),
            "{context}: non-finite value {x} at component {i} — NaN/Inf would poison \
             the distance-based neighbour ordering"
        );
    }
}

/// A search hit: vector id and squared L2 distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the stored vector.
    pub id: usize,
    /// Squared L2 distance from the query.
    pub dist: f32,
}

/// The search interface of an index.
pub trait VectorIndex {
    /// Number of stored vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Vector dimensionality.
    fn dim(&self) -> usize;
    /// The one scan entry point: resumes a search from row watermark
    /// `since`. `prior` is what this index answered for (`query`, `k`) when
    /// it held only its first `since` rows; the result is what a search
    /// from scratch answers now — up to `k` nearest stored vectors,
    /// ascending by distance, ties broken by ascending id — to the bit.
    /// Indexes are append-only, so a scan's state after rows `0..since`
    /// *is* that prior top-k and only the rows appended since need
    /// visiting. `since = 0` with an empty prior is a search from scratch.
    fn search_since(
        &self,
        query: &[f32],
        k: usize,
        since: usize,
        prior: &[Neighbor],
    ) -> Vec<Neighbor>;

    /// Returns up to `k` nearest stored vectors to `query`, ascending by
    /// distance, ties broken by ascending id.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_since(query, k, 0, &[])
    }

    /// Multi-query [`search_since`] from one shared watermark — one result
    /// list per query, in query order, each resumed from its own entry of
    /// `priors` — together with the number of distances the searches
    /// evaluated (pivot distances included): the work a caller
    /// can hold against `queries × rows`. Queries are independent, so they
    /// fan out across the `flexer-par` thread budget; each query's result is
    /// bit-identical to its single-query call at any thread count.
    ///
    /// [`search_since`]: VectorIndex::search_since
    fn scan_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> (Vec<Vec<Neighbor>>, u64);

    /// The result lists of [`scan_batch_since`](VectorIndex::scan_batch_since).
    fn search_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> Vec<Vec<Neighbor>> {
        self.scan_batch_since(queries, k, since, priors).0
    }

    /// Multi-query [`search`](VectorIndex::search): one result list per
    /// query, in query order.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        self.search_batch_since(queries, k, 0, &vec![&[][..]; queries.len()])
    }
}

/// Panics unless `prior` can be the top-`k` of an index's first `since`
/// rows: the precondition of [`VectorIndex::search_since`].
pub(crate) fn assert_resumable(len: usize, k: usize, since: usize, prior: &[Neighbor]) {
    assert!(since <= len, "watermark {since} is past the index length {len}");
    assert!(
        prior.len() <= k.min(since),
        "a prior top-{k} of {since} rows cannot hold {} neighbours",
        prior.len()
    );
    debug_assert!(prior.iter().all(|nb| nb.id < since), "prior neighbour past the watermark");
    debug_assert!(
        prior.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)),
        "prior top-k must ascend by (distance, id)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dim: usize) -> Vec<f32> {
        let mut s = 0x9E3779B97F4A7C15u64;
        (0..n * dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn truncated_restores_pre_growth_index() {
        let dim = 4;
        let data = rows(80, dim);
        let (train, extra) = data.split_at(60 * dim);
        let mut index = AnyIndex::Flat(FlatIndex::from_rows(dim, train));
        let before = index.clone();
        for v in extra.chunks(dim) {
            index.add(v);
        }
        assert_eq!(index.len(), 80);
        let cut = index.truncated(60);
        assert_eq!(cut.len(), 60);
        assert_eq!(cut.data(), before.data());
        let q = &data[3 * dim..4 * dim];
        assert_eq!(cut.search(q, 7), before.search(q, 7));
    }

    #[test]
    fn data_is_id_major() {
        let dim = 3;
        let buf = rows(10, dim);
        let index = AnyIndex::Flat(FlatIndex::from_rows(dim, &buf));
        assert_eq!(index.data(), &buf[..]);
        assert_eq!(&index.data()[5 * dim..6 * dim], index.vector(5));
    }
}
