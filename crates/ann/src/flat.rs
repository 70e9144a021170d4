//! Exact exhaustive L2 index — the semantics of `faiss.IndexFlatL2`, which
//! is what the paper's experiments run (§5.7 notes only the exhaustive
//! version is used).

use crate::distance::{l2_sq_rows, l2_sq_rows_x4q, l2_sq_rows_x8q};
use crate::{assert_finite, assert_resumable, Neighbor, VectorIndex};

/// Flat (brute-force) index over row-major vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    data: Vec<f32>,
}

/// Queries interleaved per index block in
/// [`FlatIndex::search_batch_since`]. The stored-vector block is streamed
/// once and reused for every query in the group while it is still
/// cache-hot, dividing index memory traffic by the group width — the
/// exhaustive scan is bandwidth-bound, so this is the whole win. 16 queries
/// × a 64-row block keeps the working set in L1/L2 at FlexER's embedding
/// widths.
const QUERY_GROUP: usize = 16;

impl FlatIndex {
    /// Empty index of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self { dim, data: Vec::new() }
    }

    /// Builds an index directly from `n × dim` row-major data.
    pub fn from_rows(dim: usize, rows: &[f32]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(rows.len() % dim, 0, "row data must be a multiple of dim");
        assert_finite(rows, "FlatIndex::from_rows");
        Self { dim, data: rows.to_vec() }
    }

    /// Appends one vector; returns its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_finite(v, "FlatIndex::add");
        self.data.extend_from_slice(v);
        self.len() - 1
    }

    /// Stored vector by id.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// The full `n × dim` row-major buffer (snapshot export).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    fn check_query(&self, query: &[f32], k: usize, since: usize, prior: &[Neighbor]) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_finite(query, "FlatIndex::search");
        assert_resumable(self.len(), k, since, prior);
    }

    /// The one scan of this index: a pass over the stored rows `since..n`
    /// for a group of queries, each continuing from its `prior` top-k (the
    /// scan's state after rows `0..since`; `k ≥ 1` is already clamped to
    /// `n`). Rows are visited in id order, so bounded insertion after the
    /// last equal distance breaks ties by ascending id.
    ///
    /// Eights (then quads, then singles) of queries stream every 64-row
    /// block through the multi-chain `l2_sq_rows_x8q`/`l2_sq_rows_x4q`
    /// kernels (each (query, row) pair an independent exact-order fold —
    /// bitwise the single-query distances), then each query's distances
    /// feed its own bounded-insertion top-k: O(n·k) worst case, but k ≤ 10
    /// in FlexER and the distance scan dominates. A query's result does
    /// not depend on which queries share its group; only traversal
    /// interleaving (and cache/ILP behaviour) differs.
    fn search_group(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> Vec<Vec<Neighbor>> {
        let n = self.len();
        let nq = queries.len();
        let mut tops: Vec<Vec<Neighbor>> = priors
            .iter()
            .map(|prior| {
                let mut top = Vec::with_capacity(k + 1);
                top.extend_from_slice(prior);
                top
            })
            .collect();
        let mut dists = [[0.0f32; 64]; 8];
        let mut base = since;
        while base < n {
            let m = (n - base).min(64);
            let rows = &self.data[base * self.dim..(base + m) * self.dim];
            let mut q0 = 0;
            while q0 < nq {
                let qn = (nq - q0).min(8);
                if qn == 8 {
                    let eight: [&[f32]; 8] = std::array::from_fn(|c| queries[q0 + c]);
                    let [d0, d1, d2, d3, d4, d5, d6, d7] = &mut dists;
                    let mut outs = [
                        &mut d0[..m],
                        &mut d1[..m],
                        &mut d2[..m],
                        &mut d3[..m],
                        &mut d4[..m],
                        &mut d5[..m],
                        &mut d6[..m],
                        &mut d7[..m],
                    ];
                    l2_sq_rows_x8q(eight, rows, &mut outs);
                } else if qn >= 4 {
                    let quad: [&[f32]; 4] = std::array::from_fn(|c| queries[q0 + c]);
                    let [d0, d1, d2, d3, ..] = &mut dists;
                    let mut outs = [&mut d0[..m], &mut d1[..m], &mut d2[..m], &mut d3[..m]];
                    l2_sq_rows_x4q(quad, rows, &mut outs);
                    for (c, query) in queries[q0 + 4..q0 + qn].iter().enumerate() {
                        l2_sq_rows(query, rows, &mut dists[4 + c][..m]);
                    }
                } else {
                    for (c, query) in queries[q0..q0 + qn].iter().enumerate() {
                        l2_sq_rows(query, rows, &mut dists[c][..m]);
                    }
                }
                for (c, top) in tops[q0..q0 + qn].iter_mut().enumerate() {
                    for (j, &dist) in dists[c][..m].iter().enumerate() {
                        if top.len() == k && dist >= top[k - 1].dist {
                            continue;
                        }
                        let id = base + j;
                        let pos = top.iter().position(|nb| dist < nb.dist).unwrap_or(top.len());
                        top.insert(pos, Neighbor { id, dist });
                        if top.len() > k {
                            top.pop();
                        }
                    }
                }
                q0 += qn;
            }
            base += m;
        }
        tops
    }
}

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search_since(
        &self,
        query: &[f32],
        k: usize,
        since: usize,
        prior: &[Neighbor],
    ) -> Vec<Neighbor> {
        self.check_query(query, k, since, prior);
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        self.search_group(&[query], k, since, &[prior]).pop().expect("one result per query")
    }

    /// Query-blocked exhaustive scan: groups of [`QUERY_GROUP`] queries
    /// share each pass over the stored rows `since..n` (groups fan out
    /// across the `flexer-par` thread budget). Bit-identical to calling
    /// [`search_since`](VectorIndex::search_since) per query — both are
    /// [`FlatIndex::search_group`].
    fn search_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), priors.len(), "one prior top-k per query required");
        for (query, prior) in queries.iter().zip(priors) {
            self.check_query(query, k, since, prior);
        }
        let k = k.min(self.len());
        if k == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let n_groups = queries.len().div_ceil(QUERY_GROUP);
        let per_group: Vec<Vec<Vec<Neighbor>>> = flexer_par::parallel_map(n_groups, |g| {
            let group = g * QUERY_GROUP..((g + 1) * QUERY_GROUP).min(queries.len());
            self.search_group(&queries[group.clone()], k, since, &priors[group])
        });
        per_group.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> FlatIndex {
        // Points 0..8 on a line at x = id.
        let mut idx = FlatIndex::new(2);
        for i in 0..8 {
            idx.add(&[i as f32, 0.0]);
        }
        idx
    }

    #[test]
    fn nearest_is_itself() {
        let idx = grid_index();
        let hits = idx.search(&[3.0, 0.0], 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn results_sorted_ascending() {
        let idx = grid_index();
        let hits = idx.search(&[2.2, 0.0], 4);
        let ids: Vec<usize> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![2, 3, 1, 4]);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn ties_broken_by_id() {
        let mut idx = FlatIndex::new(1);
        idx.add(&[1.0]);
        idx.add(&[-1.0]);
        idx.add(&[1.0]);
        let hits = idx.search(&[0.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        // and with k=2 the smallest ids among the tie win
        let hits = idx.search(&[0.0], 2);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn k_larger_than_index_is_clamped() {
        let idx = grid_index();
        assert_eq!(idx.search(&[0.0, 0.0], 100).len(), 8);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(3);
        assert!(idx.search(&[0.0, 0.0, 0.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn from_rows_matches_adds() {
        let a = FlatIndex::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        let mut b = FlatIndex::new(2);
        b.add(&[1.0, 2.0]);
        b.add(&[3.0, 4.0]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.vector(1), b.vector(1));
    }

    #[test]
    fn search_batch_matches_serial_searches_at_any_thread_count() {
        let idx = grid_index();
        let queries: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32 * 0.7, 0.3]).collect();
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        for threads in [1usize, 2, 5, 16] {
            let batch = flexer_par::with_threads(threads, || idx.search_batch(&refs, 3));
            assert_eq!(batch.len(), refs.len());
            for (q, hits) in refs.iter().zip(&batch) {
                assert_eq!(hits, &idx.search(q, 3), "{threads} threads");
            }
        }
    }

    // Regression: NaN distances used to poison the `partial_cmp`-based
    // top-k buffer silently — a NaN never compares smaller, so it parked at
    // the end of the buffer and displaced real neighbours. Non-finite input
    // is now rejected at every entry point instead.
    #[test]
    #[should_panic(expected = "FlatIndex::add: non-finite value")]
    fn add_rejects_nan() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[0.0, f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "FlatIndex::from_rows: non-finite value")]
    fn from_rows_rejects_inf() {
        let _ = FlatIndex::from_rows(2, &[1.0, f32::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "FlatIndex::search: non-finite value")]
    fn search_rejects_nan_query() {
        let idx = grid_index();
        let _ = idx.search(&[f32::NAN, 0.0], 3);
    }

    #[test]
    fn exactness_against_naive_scan() {
        // Randomish deterministic data; compare against full sort.
        let dim = 4;
        let n = 60;
        let mut data = Vec::with_capacity(n * dim);
        let mut s = 123456789u64;
        for _ in 0..n * dim {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0);
        }
        let idx = FlatIndex::from_rows(dim, &data);
        let query = [0.1, -0.2, 0.3, 0.0];
        let hits = idx.search(&query, 7);
        let mut all: Vec<Neighbor> = (0..n)
            .map(|id| Neighbor { id, dist: crate::distance::l2_sq(&query, idx.vector(id)) })
            .collect();
        all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.id.cmp(&b.id)));
        for (h, e) in hits.iter().zip(all.iter()) {
            assert_eq!(h.id, e.id);
            assert!((h.dist - e.dist).abs() < 1e-6);
        }
    }
}
