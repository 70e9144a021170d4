//! Inverted-file (IVF) approximate index — the "Faiss heuristic" the paper
//! points to for reducing nearest-neighbour cost (§5.7).
//!
//! Vectors are partitioned by a k-means coarse quantizer; a query scans only
//! the `nprobe` closest partitions. `nprobe = nlist` degenerates to exact
//! search.

use crate::distance::{l2_sq, l2_sq_x4};
use crate::kmeans::KMeans;
use crate::{assert_finite, assert_resumable, Neighbor, VectorIndex};

/// IVF construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means clusters).
    pub nlist: usize,
    /// Number of lists probed per query.
    pub nprobe: usize,
    /// K-means iterations for the coarse quantizer.
    pub train_iters: usize,
    /// Seed for the quantizer.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self { nlist: 16, nprobe: 4, train_iters: 15, seed: 0 }
    }
}

/// The inverted-file index.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    n: usize,
    quantizer: KMeans,
    /// `lists[c]` holds the vector ids assigned to centroid `c`.
    lists: Vec<Vec<usize>>,
    data: Vec<f32>,
    nprobe: usize,
}

impl IvfIndex {
    /// Trains the quantizer on the data and builds the inverted lists.
    pub fn build(dim: usize, rows: &[f32], config: IvfConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(rows.len() % dim, 0, "row data must be a multiple of dim");
        assert_finite(rows, "IvfIndex::build");
        let n = rows.len() / dim;
        let quantizer =
            KMeans::fit(rows, dim, config.nlist.max(1), config.train_iters, config.seed);
        let mut lists = vec![Vec::new(); quantizer.k.max(1)];
        for (i, &c) in quantizer.assignments.iter().enumerate() {
            lists[c].push(i);
        }
        let nprobe = config.nprobe.clamp(1, lists.len());
        Self { dim, n, quantizer, lists, data: rows.to_vec(), nprobe }
    }

    /// Appends one vector, routing it to its nearest coarse centroid's
    /// inverted list, and returns its id. The quantizer stays frozen — the
    /// standard incremental-insert semantics of an IVF index (Faiss's
    /// `add` after `train`): centroids reflect the training distribution,
    /// new vectors only join lists.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_finite(v, "IvfIndex::add");
        assert!(self.quantizer.k > 0, "cannot add to an IVF index with an untrained quantizer");
        let c = self.quantizer.nearest_centroid(v);
        let id = self.n;
        self.lists[c].push(id);
        self.data.extend_from_slice(v);
        self.n += 1;
        id
    }

    /// Stored vector by id (insertion order).
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Current probe width.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// The coarse quantizer (snapshot export).
    pub fn quantizer(&self) -> &KMeans {
        &self.quantizer
    }

    /// The inverted lists (snapshot export).
    pub fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// The full row-major vector buffer, in insertion order (snapshot
    /// export).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Reassembles an index from its snapshot parts. Panics unless the
    /// parts are mutually consistent (every id in exactly one list, each
    /// list ascending, data a whole number of rows, centroid dims matching).
    pub fn from_parts(
        dim: usize,
        quantizer: KMeans,
        lists: Vec<Vec<usize>>,
        data: Vec<f32>,
        nprobe: usize,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "row data must be a multiple of dim");
        assert_finite(&data, "IvfIndex::from_parts");
        let n = data.len() / dim;
        assert_eq!(quantizer.dim, dim, "quantizer dimensionality mismatch");
        assert_eq!(lists.len(), quantizer.k.max(1), "one inverted list per centroid required");
        let mut seen = vec![false; n];
        for list in &lists {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "inverted lists must ascend (they are cut by binary search)"
            );
            for &id in list {
                assert!(id < n, "inverted list references vector {id} of {n}");
                assert!(!seen[id], "vector {id} appears in two inverted lists");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every vector must appear in an inverted list");
        let nprobe = nprobe.clamp(1, lists.len());
        Self { dim, n, quantizer, lists, data, nprobe }
    }

    /// Sets the probe width (clamped to `nlist`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
    }

    /// Fraction of stored vectors scanned by an average query with the
    /// current `nprobe` — a cheap selectivity diagnostic.
    pub fn expected_scan_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut sizes: Vec<usize> = self.lists.iter().map(|l| l.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let scanned: usize = sizes.iter().take(self.nprobe).sum();
        scanned as f64 / self.n as f64
    }
}

impl IvfIndex {
    /// Scans the ids at or past `since` of the `nprobe` nearest lists and
    /// merges them into `prior` under the (distance, id) order. The frozen
    /// quantizer probes the same lists for a query at every index length
    /// and lists only grow at their ascending tails, so the candidate set
    /// of a search from scratch is the prefix's candidates (of which
    /// `prior` kept the best `k`) plus exactly the ids scanned here.
    /// Returns the list and the number of distances evaluated (centroids
    /// included).
    fn scan_since(
        &self,
        query: &[f32],
        k: usize,
        since: usize,
        prior: &[Neighbor],
    ) -> (Vec<Neighbor>, u64) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_finite(query, "IvfIndex::search");
        assert_resumable(self.n, k, since, prior);
        if self.n == 0 || k == 0 {
            return (Vec::new(), 0);
        }
        let order = self.quantizer.centroids_by_distance(query);
        let mut hits: Vec<Neighbor> = prior.to_vec();
        for &c in order.iter().take(self.nprobe.min(order.len())) {
            // Inverted-list rows are gathered four at a time: identical
            // distance bits, but the four fold chains overlap instead of
            // serializing on f32 add latency.
            let list = &self.lists[c];
            let list = &list[list.partition_point(|&id| id < since)..];
            let whole = list.len() - list.len() % 4;
            for ids in list[..whole].chunks_exact(4) {
                let d = l2_sq_x4(
                    query,
                    [
                        self.vector(ids[0]),
                        self.vector(ids[1]),
                        self.vector(ids[2]),
                        self.vector(ids[3]),
                    ],
                );
                for (&id, &dist) in ids.iter().zip(&d) {
                    hits.push(Neighbor { id, dist });
                }
            }
            for &id in &list[whole..] {
                hits.push(Neighbor { id, dist: l2_sq(query, self.vector(id)) });
            }
        }
        hits.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.id.cmp(&b.id)));
        let scanned = order.len() + hits.len() - prior.len();
        hits.truncate(k);
        (hits, scanned as u64)
    }
}

impl VectorIndex for IvfIndex {
    fn len(&self) -> usize {
        self.n
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
        self.scan_since(query, k, since, prior).0
    }

    fn scan_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> (Vec<Vec<Neighbor>>, u64) {
        assert_eq!(queries.len(), priors.len(), "one prior top-k per query required");
        let scans = flexer_par::parallel_map(queries.len(), |q| {
            self.scan_since(queries[q], k, since, priors[q])
        });
        let scanned = scans.iter().map(|(_, scanned)| scanned).sum();
        (scans.into_iter().map(|(list, _)| list).collect(), scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn pseudo_random_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n * dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn full_probe_matches_flat_exactly() {
        let dim = 6;
        let rows = pseudo_random_rows(120, dim, 7);
        let mut ivf = IvfIndex::build(dim, &rows, IvfConfig { nlist: 8, ..Default::default() });
        ivf.set_nprobe(8);
        let flat = FlatIndex::from_rows(dim, &rows);
        let query = &rows[0..dim];
        let a = ivf.search(query, 5);
        let b = flat.search(query, 5);
        assert_eq!(
            a.iter().map(|h| h.id).collect::<Vec<_>>(),
            b.iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_probe_has_reasonable_recall() {
        let dim = 4;
        let rows = pseudo_random_rows(400, dim, 3);
        let mut ivf = IvfIndex::build(dim, &rows, IvfConfig { nlist: 10, ..Default::default() });
        ivf.set_nprobe(4);
        let flat = FlatIndex::from_rows(dim, &rows);
        let mut overlap = 0usize;
        let mut total = 0usize;
        for q in 0..20 {
            let query = &rows[q * dim..(q + 1) * dim];
            let approx: Vec<usize> = ivf.search(query, 10).iter().map(|h| h.id).collect();
            let exact: Vec<usize> = flat.search(query, 10).iter().map(|h| h.id).collect();
            overlap += exact.iter().filter(|id| approx.contains(id)).count();
            total += exact.len();
        }
        let recall = overlap as f64 / total as f64;
        assert!(recall > 0.5, "recall {recall}");
    }

    #[test]
    fn nearest_self_always_found() {
        // The query's own vector lives in the probed (nearest) list.
        let dim = 3;
        let rows = pseudo_random_rows(90, dim, 11);
        let ivf =
            IvfIndex::build(dim, &rows, IvfConfig { nlist: 6, nprobe: 1, ..Default::default() });
        for q in [0usize, 13, 57] {
            let query = &rows[q * dim..(q + 1) * dim];
            let hits = ivf.search(query, 1);
            assert_eq!(hits[0].id, q);
            assert_eq!(hits[0].dist, 0.0);
        }
    }

    #[test]
    fn scan_fraction_shrinks_with_fewer_probes() {
        let dim = 2;
        let rows = pseudo_random_rows(200, dim, 5);
        let mut ivf = IvfIndex::build(dim, &rows, IvfConfig { nlist: 10, ..Default::default() });
        ivf.set_nprobe(10);
        let full = ivf.expected_scan_fraction();
        ivf.set_nprobe(2);
        let partial = ivf.expected_scan_fraction();
        assert!((full - 1.0).abs() < 1e-9);
        assert!(partial < full);
    }

    #[test]
    fn incremental_add_matches_batch_build_search() {
        // Vectors added after build join the nearest centroid's list, so
        // full-probe search over the grown index stays exact.
        let dim = 4;
        let rows = pseudo_random_rows(150, dim, 21);
        let (train, extra) = rows.split_at(100 * dim);
        let mut ivf =
            IvfIndex::build(dim, train, IvfConfig { nlist: 6, nprobe: 6, ..Default::default() });
        for v in extra.chunks(dim) {
            ivf.add(v);
        }
        assert_eq!(ivf.len(), 150);
        let flat = FlatIndex::from_rows(dim, &rows);
        for q in [3usize, 77, 120, 149] {
            let query = &rows[q * dim..(q + 1) * dim];
            let a: Vec<usize> = ivf.search(query, 5).iter().map(|h| h.id).collect();
            let b: Vec<usize> = flat.search(query, 5).iter().map(|h| h.id).collect();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn added_vector_retrievable_with_one_probe() {
        let dim = 3;
        let rows = pseudo_random_rows(60, dim, 9);
        let mut ivf =
            IvfIndex::build(dim, &rows, IvfConfig { nlist: 5, nprobe: 1, ..Default::default() });
        let v = [0.25f32, -0.75, 0.5];
        let id = ivf.add(&v);
        assert_eq!(id, 60);
        let hits = ivf.search(&v, 1);
        assert_eq!(hits[0].id, id);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn from_parts_roundtrip_preserves_search() {
        let dim = 3;
        let rows = pseudo_random_rows(80, dim, 13);
        let ivf =
            IvfIndex::build(dim, &rows, IvfConfig { nlist: 7, nprobe: 3, ..Default::default() });
        let rebuilt = IvfIndex::from_parts(
            dim,
            ivf.quantizer().clone(),
            ivf.lists().to_vec(),
            ivf.data().to_vec(),
            ivf.nprobe(),
        );
        let query = &rows[5 * dim..6 * dim];
        assert_eq!(ivf.search(query, 8), rebuilt.search(query, 8));
        assert_eq!(rebuilt.nprobe(), 3);
    }

    #[test]
    #[should_panic(expected = "IvfIndex::add: non-finite value")]
    fn add_rejects_nan() {
        let rows = pseudo_random_rows(20, 2, 1);
        let mut ivf = IvfIndex::build(2, &rows, IvfConfig::default());
        ivf.add(&[f32::NAN, 0.0]);
    }

    #[test]
    #[should_panic(expected = "IvfIndex::build: non-finite value")]
    fn build_rejects_inf() {
        let _ = IvfIndex::build(2, &[0.0, f32::NEG_INFINITY], IvfConfig::default());
    }

    #[test]
    fn empty_index() {
        let ivf = IvfIndex::build(2, &[], IvfConfig::default());
        assert!(ivf.search(&[0.0, 0.0], 3).is_empty());
        assert_eq!(ivf.expected_scan_fraction(), 0.0);
    }

    #[test]
    fn nprobe_clamped() {
        let rows = pseudo_random_rows(20, 2, 1);
        let mut ivf = IvfIndex::build(2, &rows, IvfConfig { nlist: 4, ..Default::default() });
        ivf.set_nprobe(1000);
        assert!(ivf.search(&rows[0..2], 3).len() == 3);
    }
}
