//! Exact L2 index — the semantics of `faiss.IndexFlatL2`, which is what the
//! paper's experiments run (§5.7 notes only the exhaustive version is
//! used) — answered by a *pruned* scan: the same top-k, to the bit, from a
//! fraction of the rows.
//!
//! # The partition
//!
//! The index keeps its rows in lists it grows itself. A list has a pivot (a
//! fixed point), a radius no smaller than any member's distance to the
//! pivot, and its member ids in ascending order. [`FlatIndex::add`] routes
//! a row to its nearest pivot and widens that list's radius; a list that
//! passes `LIST_CAP` (64) members splits in two by a deterministic 2-means
//! (seeds: the member farthest from the pivot, then the member farthest
//! from that one; `LLOYD_STEPS` (4) Lloyd steps; a stable partition, so both
//! halves still ascend; a step that leaves one side empty — identical rows
//! — halves the list by id instead). [`FlatIndex::from_rows`] is the same
//! adds, so there is one growth path, no training step and no seed. The
//! partition is derived state: it is not serialized, and nothing about an
//! answer depends on it — only how many rows a search has to look at.
//!
//! What it buys depends on the rows. FlexER's pair embeddings are clustered
//! (a search evaluates ≈22 % of the rows of a 600-row layer, ≈10 % at 14k,
//! pivots counted); rows with no structure — uniform in 16 dimensions —
//! admit nearly every list, and a search then costs 4–27 % more than the
//! whole scan did. It is a constant-factor cut either way: the admitted
//! rows still grow about linearly with the index.
//!
//! The cap is a constant, not a knob: on the serving stream the pruned
//! search was sized on, caps of 48 / 64 / 96 / 128 differ by under 20 % in
//! distances evaluated and 64 vs 128 by under 6 % in time.
//!
//! # The bound
//!
//! By the triangle inequality every member `x` of a list with pivot `p` and
//! radius `r` is at least `‖q − p‖ − r` away from a query `q`. A search
//! ranks the pivots, scans lists by ascending bound, and stops at the first
//! list whose bound exceeds the current k-th distance. Equality admits: a
//! tied row with a smaller id must still displace. Every visited row's
//! distance is the same exact-order [`l2_sq`](crate::l2_sq()) fold the whole
//! scan computed, and the top-k is kept under the explicit (distance, id)
//! order, since rows no longer arrive in id order.
//!
//! # The slack
//!
//! The whole scan keeps rows by their *computed* distances, so the bound
//! has to hold in floating point: it may admit a list needlessly, it may
//! never drop a row the whole scan keeps. With `u = 2⁻²⁴`, a computed
//! `l2_sq` is the true squared distance times `1 ± (dim + 2)u` (the terms
//! are non-negative, so nothing cancels), and its square root is off by
//! half that plus a rounding. The search therefore shrinks `‖q − p‖` and
//! grows every radius by the relative `slack = (dim + 8)·2u`, which leaves `fl(‖q − p‖ − r) ≤ √(computed l2_sq(q, x))·(1 − (dim +
//! 11)u)` for every member `x` — strictly below the square root of any
//! distance the whole scan could have kept, whichever way the remaining
//! roundings (the subtraction, `√d_k`) fall (`tests/proptests.rs` pins a
//! family of tied rows that a slack of zero loses). Two corners sit outside the
//! relative-error argument. A squared difference that underflows loses
//! ≤ 2⁻¹⁴⁹ absolutely, which matters only to bounds below ≈10⁻¹⁵; a bound
//! under `TINY` counts as zero. A pivot distance that overflowed to `∞`
//! says only "≥ `f32::MAX`", so it is clamped there before the root; an
//! overflowed radius makes the bound `−∞`, which admits.

use crate::distance::{l2_sq, l2_sq_gather, l2_sq_rows};
use crate::{assert_finite, assert_resumable, Neighbor, VectorIndex};

/// Queries that share one sweep in [`FlatIndex::scan_batch_since`]: the
/// pivots are ranked for the whole group and each admitted list is read
/// once for every query that still needs it, through the 8- and 4-query
/// multi-chain kernels.
const QUERY_GROUP: usize = 16;

/// Members a list may hold; one more and it splits.
const LIST_CAP: usize = 64;

/// Lloyd steps of a split's 2-means.
const LLOYD_STEPS: usize = 4;

/// Bounds below this are inside the range where a squared difference can
/// underflow (see the module docs); they count as zero, which admits.
const TINY: f32 = 1e-15;

/// Exact L2 index over row-major vectors (see the module docs).
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    data: Vec<f32>,
    /// One pivot per list, list-major.
    pivots: Vec<f32>,
    /// Per list: at least every member's computed distance to the pivot,
    /// grown by the slack.
    radii: Vec<f32>,
    /// Per list: member ids, ascending. Never empty.
    lists: Vec<Vec<u32>>,
}

impl FlatIndex {
    /// Empty index of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self { dim, data: Vec::new(), pivots: Vec::new(), radii: Vec::new(), lists: Vec::new() }
    }

    /// Builds an index directly from `n × dim` row-major data.
    pub fn from_rows(dim: usize, rows: &[f32]) -> Self {
        let mut index = Self::new(dim);
        assert_eq!(rows.len() % dim, 0, "row data must be a multiple of dim");
        assert_finite(rows, "FlatIndex::from_rows");
        index.data = rows.to_vec();
        for id in 0..index.len() {
            index.route(id);
        }
        index
    }

    /// Appends one vector; returns its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_finite(v, "FlatIndex::add");
        self.data.extend_from_slice(v);
        let id = self.len() - 1;
        self.route(id);
        id
    }

    /// Stored vector by id.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// The full `n × dim` row-major buffer (snapshot export).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Relative slack of the pruning bound (see the module docs).
    fn slack(&self) -> f32 {
        (self.dim + 8) as f32 * f32::EPSILON
    }

    /// A radius that covers a member at computed squared distance `d`.
    fn cover(&self, d: f32) -> f32 {
        d.sqrt() * (1.0 + self.slack())
    }

    fn pivot(&self, list: usize) -> &[f32] {
        &self.pivots[list * self.dim..(list + 1) * self.dim]
    }

    /// Puts stored row `id` — the newest — into the list of its nearest
    /// pivot, splitting the list if that fills it past the cap.
    fn route(&mut self, id: usize) {
        let member = u32::try_from(id).expect("a FlatIndex holds fewer than 2^32 rows");
        if self.lists.is_empty() {
            self.pivots.extend_from_slice(&self.data[..self.dim]);
            self.radii.push(0.0);
            self.lists.push(vec![member]);
            return;
        }
        let mut dists = vec![0.0f32; self.lists.len()];
        l2_sq_rows(self.vector(id), &self.pivots, &mut dists);
        let (list, &d) = dists
            .iter()
            .enumerate()
            .reduce(|best, next| if next.1 < best.1 { next } else { best })
            .expect("at least one list");
        self.lists[list].push(member);
        self.radii[list] = self.radii[list].max(self.cover(d));
        if self.lists[list].len() > LIST_CAP {
            self.split(list);
        }
    }

    /// Splits `list` in two by 2-means: the first half keeps the slot, the
    /// second becomes the last list. Both get the mean of their members as
    /// pivot and a radius recomputed from those members.
    fn split(&mut self, list: usize) {
        let dim = self.dim;
        let members = std::mem::take(&mut self.lists[list]);
        let n = members.len();
        let row = |id: u32| &self.data[id as usize * dim..][..dim];
        let farthest_from = |point: &[f32]| {
            let dists = members.iter().map(|&id| (id, l2_sq(row(id), point)));
            let far = dists.reduce(|best, next| if next.1 > best.1 { next } else { best });
            row(far.expect("a list past the cap has members").0)
        };
        let mean_of = |ids: &[u32]| {
            let mut mean = vec![0.0f32; dim];
            for &id in ids {
                for (m, &x) in mean.iter_mut().zip(row(id)) {
                    *m += x;
                }
            }
            mean.iter_mut().for_each(|m| *m /= ids.len() as f32);
            mean
        };
        let seed = farthest_from(self.pivot(list));
        let mut pivots = [seed.to_vec(), farthest_from(seed).to_vec()];
        let mut halves = [Vec::new(), Vec::new()];
        for _ in 0..LLOYD_STEPS {
            // A stable partition: both halves still ascend.
            let (second, first): (Vec<u32>, Vec<u32>) = members
                .iter()
                .partition(|&&id| l2_sq(row(id), &pivots[1]) < l2_sq(row(id), &pivots[0]));
            halves = if first.is_empty() || second.is_empty() {
                // Identical rows tie on every comparison: halve by id.
                [members[..n / 2].to_vec(), members[n / 2..].to_vec()]
            } else {
                [first, second]
            };
            pivots = [mean_of(&halves[0]), mean_of(&halves[1])];
        }
        let radius = |ids: &[u32], pivot: &[f32]| {
            ids.iter().map(|&id| self.cover(l2_sq(row(id), pivot))).fold(0.0f32, f32::max)
        };
        let radii = [radius(&halves[0], &pivots[0]), radius(&halves[1], &pivots[1])];
        let [first, second] = halves;
        self.pivots[list * dim..(list + 1) * dim].copy_from_slice(&pivots[0]);
        self.pivots.extend_from_slice(&pivots[1]);
        self.radii[list] = radii[0];
        self.radii.push(radii[1]);
        self.lists[list] = first;
        self.lists.push(second);
    }

    fn check_query(&self, query: &[f32], k: usize, since: usize, prior: &[Neighbor]) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_finite(query, "FlatIndex::search");
        assert_resumable(self.len(), k, since, prior);
    }

    /// The one search of this index, for a group of at most
    /// [`QUERY_GROUP`] queries, each continuing from its `prior` top-k
    /// (the search's state after rows `0..since`; `k ≥ 1` is already
    /// clamped to `n`). Returns the lists and the number of distances
    /// evaluated, pivots included.
    ///
    /// The pivots of the `active` lists — those with a row at or past
    /// `since` — are ranked for the whole group at once. A query that has no k-th distance yet
    /// first scans the list of its nearest pivot (together with every
    /// other query that starts there); then the lists are taken in
    /// ascending order of their smallest bound over the group, each read
    /// once for the queries whose bound still admits it, until that
    /// smallest bound exceeds every query's k-th distance. For one query
    /// that is "ascending bound, stop at the first list past d_k"; for a
    /// group of near-duplicates it is nearly so at a fraction of the
    /// traversal cost. A query's *result* is the exact top-k whichever
    /// order its lists came in, so it does not depend on its group.
    fn search_group(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
        active: &[u32],
    ) -> (Vec<Vec<Neighbor>>, u64) {
        let nq = queries.len();
        let mut tops: Vec<Vec<Neighbor>> = priors
            .iter()
            .map(|prior| {
                let mut top = Vec::with_capacity(k + 1);
                top.extend_from_slice(prior);
                top
            })
            .collect();
        // √d_k per query: what a list's bound is held against.
        let mut kth = [0.0f32; QUERY_GROUP];
        for (root, top) in kth.iter_mut().zip(&tops) {
            *root = kth_root(top, k);
        }
        let kth = &mut kth[..nq];
        let la = active.len();
        let mut bounds = vec![0.0f32; nq * la];
        l2_sq_gather(queries, &self.pivots, active, &mut bounds);
        let mut scanned = (nq * la) as u64;
        let shrink = 1.0 - self.slack();
        let mut starts = [usize::MAX; QUERY_GROUP];
        for (q, bounds) in bounds.chunks_exact_mut(la.max(1)).enumerate() {
            let mut nearest = (f32::INFINITY, 0);
            for (a, (bound, &l)) in bounds.iter_mut().zip(active).enumerate() {
                if *bound < nearest.0 {
                    nearest = (*bound, a);
                }
                let gap = bound.min(f32::MAX).sqrt() * shrink - self.radii[l as usize];
                *bound = if gap < TINY { gap.min(0.0) } else { gap };
            }
            if tops[q].len() < k {
                starts[q] = nearest.1;
            }
        }
        let mut dists = [0.0f32; QUERY_GROUP * LIST_CAP];
        let mut scan = |a: usize, members: &[usize], kth: &mut [f32]| {
            let list = &self.lists[active[a] as usize];
            let ids = &list[list.partition_point(|&id| (id as usize) < since)..];
            let m = ids.len();
            let mut group = [queries[0]; QUERY_GROUP];
            for (slot, &q) in group.iter_mut().zip(members) {
                *slot = queries[q];
            }
            let dists = &mut dists[..members.len() * m];
            l2_sq_gather(&group[..members.len()], &self.data, ids, dists);
            for (&q, dists) in members.iter().zip(dists.chunks_exact(m)) {
                let top = &mut tops[q];
                for (&id, &dist) in ids.iter().zip(dists) {
                    let hit = (dist, id as usize);
                    if top.len() == k && hit >= (top[k - 1].dist, top[k - 1].id) {
                        continue;
                    }
                    let pos = top.iter().position(|nb| hit < (nb.dist, nb.id)).unwrap_or(top.len());
                    top.insert(pos, Neighbor { id: hit.1, dist });
                    if top.len() > k {
                        top.pop();
                    }
                }
                kth[q] = kth_root(top, k);
            }
            scanned += (members.len() * m) as u64;
        };
        let mut members = [0; QUERY_GROUP];
        for q in 0..nq {
            let a = starts[q];
            if a == usize::MAX || starts[..q].contains(&a) {
                continue;
            }
            scan(a, members_into(&mut members, (q..nq).filter(|&c| starts[c] == a)), kth);
        }
        let widest = |kth: &[f32]| kth.iter().copied().fold(0.0f32, f32::max);
        let reach = widest(kth);
        let mut order: Vec<(f32, usize)> = (0..la)
            .map(|a| ((0..nq).map(|q| bounds[q * la + a]).fold(f32::INFINITY, f32::min), a))
            .filter(|&(bound, _)| bound <= reach)
            .collect();
        order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for (bound, a) in order {
            if bound > widest(kth) {
                break;
            }
            let admitted = (0..nq).filter(|&q| starts[q] != a && bounds[q * la + a] <= kth[q]);
            let members = members_into(&mut members, admitted);
            if !members.is_empty() {
                scan(a, members, kth);
            }
        }
        (tops, scanned)
    }
}

/// Collects the queries of a group that take part in one list scan into
/// `buf` — no heap allocation per list.
fn members_into(buf: &mut [usize; QUERY_GROUP], queries: impl Iterator<Item = usize>) -> &[usize] {
    let mut len = 0;
    for q in queries {
        buf[len] = q;
        len += 1;
    }
    &buf[..len]
}

/// `√d_k` of a top-k; `∞` while fewer than `k` rows are known.
fn kth_root(top: &[Neighbor], k: usize) -> f32 {
    top.get(k - 1).map_or(f32::INFINITY, |worst| worst.dist.sqrt())
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
        self.scan_batch_since(&[query], k, since, &[prior]).0.pop().expect("one result per query")
    }

    /// Groups of [`QUERY_GROUP`] queries share one sweep over the
    /// partition (groups fan out across the `flexer-par` thread budget).
    /// Single-query and batched search are both
    /// [`FlatIndex::search_group`].
    fn scan_batch_since(
        &self,
        queries: &[&[f32]],
        k: usize,
        since: usize,
        priors: &[&[Neighbor]],
    ) -> (Vec<Vec<Neighbor>>, u64) {
        assert_eq!(queries.len(), priors.len(), "one prior top-k per query required");
        for (query, prior) in queries.iter().zip(priors) {
            self.check_query(query, k, since, prior);
        }
        let k = k.min(self.len());
        if k == 0 {
            return (vec![Vec::new(); queries.len()], 0);
        }
        // Ids ascend within a list, so its last member says whether the
        // list has a row at or past the watermark.
        let active: Vec<u32> = (0..self.lists.len() as u32)
            .filter(|&l| self.lists[l as usize].last().is_some_and(|&id| id as usize >= since))
            .collect();
        let per_group = flexer_par::parallel_map(queries.len().div_ceil(QUERY_GROUP), |g| {
            let group = g * QUERY_GROUP..((g + 1) * QUERY_GROUP).min(queries.len());
            self.search_group(&queries[group.clone()], k, since, &priors[group], &active)
        });
        let scanned = per_group.iter().map(|(_, scanned)| scanned).sum();
        (per_group.into_iter().flat_map(|(lists, _)| lists).collect(), scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlatIndex {
        /// The scan this index used to be, kept as the oracle: every row
        /// in id order, bounded insertion after the last equal distance
        /// (so ties break by ascending id).
        fn whole_scan(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
            let mut top: Vec<Neighbor> = Vec::with_capacity(k + 1);
            for id in 0..self.len() {
                let dist = l2_sq(query, self.vector(id));
                if top.len() == k && dist >= top[k - 1].dist {
                    continue;
                }
                let pos = top.iter().position(|nb| dist < nb.dist).unwrap_or(top.len());
                top.insert(pos, Neighbor { id, dist });
                top.truncate(k);
            }
            top
        }
    }

    /// Rows in runs of five around one of `n / 40` centres: what the
    /// candidate pairs of ingested records look like to a layer's index.
    fn clustered_index(n: usize, dim: usize) -> FlatIndex {
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut unit = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let centres: Vec<f32> = (0..(n / 40) * dim).map(|_| unit() * 2.0 - 1.0).collect();
        let mut index = FlatIndex::new(dim);
        let mut centre = 0;
        for i in 0..n {
            if i % 5 == 0 {
                centre = (unit() * (n / 40) as f32) as usize;
            }
            let row: Vec<f32> =
                centres[centre * dim..][..dim].iter().map(|c| c + unit() * 0.3).collect();
            index.add(&row);
        }
        index
    }

    #[test]
    fn pruned_search_is_the_whole_scan_and_reads_a_fraction_of_it() {
        let (n, dim, k) = (4000, 16, 6);
        let index = clustered_index(n, dim);
        assert!(
            index.lists.len() > n / LIST_CAP && index.lists.iter().all(|l| l.len() <= LIST_CAP)
        );
        let queries: Vec<Vec<f32>> =
            (0..40).map(|i| index.vector(i * 97).iter().map(|x| x + 0.01).collect()).collect();
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let (lists, scanned) = index.scan_batch_since(&queries, k, 0, &vec![&[][..]; 40]);
        for (query, list) in queries.iter().zip(&lists) {
            assert_eq!(list, &index.whole_scan(query, k));
            assert_eq!(list, &index.search(query, k));
        }
        assert!(scanned > 0 && (scanned as usize) < 40 * n / 4, "{scanned} distances");
    }

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
