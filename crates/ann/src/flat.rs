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
//! admit nearly every list, and a search is then the whole scan taken list
//! by list, plus the pivot ranking. It is a constant-factor cut either way:
//! the admitted rows still grow about linearly with the index.
//!
//! The cap is a constant, not a knob: on the serving stream the pruned
//! search was sized on, caps of 48 / 64 / 96 / 128 differ by under 20 % in
//! distances evaluated and 64 vs 128 by under 6 % in time.
//!
//! # The blocks
//!
//! A search reads a list's rows from a second copy, laid out for the
//! distance kernel: per list one block of `LIST_CAP / LANES` (4) chunks,
//! each chunk the coordinates of [`LANES`] (16) consecutive members
//! *dimension-major* — `chunk[d * LANES + j]` is coordinate `d` of the
//! chunk's `j`-th member. Members ascend by id, so the rows at or past a
//! `since` watermark are the lanes from one offset on. The pivots are kept
//! the same way, 16 lists to a chunk, and only so. The blocks are derived
//! state like the lists: [`FlatIndex::add`] writes one lane, a split
//! rewrites two blocks, nothing of them is serialized, and the row-major
//! rows ([`FlatIndex::data`], [`FlatIndex::vector`]) are what they were.
//! They cost `dim × 4 B × 64` per list, about 1.5× the rows at the usual
//! fill.
//!
//! [`l2_sq_lanes`] takes a query and a chunk and keeps 16 accumulators, one
//! per lane; lane `j` adds `(q[d] − x_j[d])²` for `d = 0, 1, …` in turn,
//! which is the fold [`l2_sq`](crate::l2_sq()) runs on that row alone — the
//! same operations on the same values in the same order, so the same bits.
//! No lane ever meets another lane's values; what the layout changes is
//! that the 16 folds advance together, each step a few vector instructions
//! across the lanes, where a row-major scan has one serial chain per row.
//!
//! A lane no member occupies holds NaN, so its distance is NaN. A chunk
//! goes to the top-k only if some lane is `<=` the query's k-th distance,
//! and NaN never is; the lanes that do go are then bounded by the member
//! count (and by the watermark), so neither a padding lane nor a row below
//! `since` can reach a result. Padding lanes of the pivots hold zeros and
//! are never read as a list.
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
//! order, since rows no longer arrive in id order: as one integer per
//! neighbour, the distance's bits above the id (a squared distance is never
//! negative, so its bits ascend with it).
//!
//! # The slack
//!
//! The whole scan keeps rows by their *computed* distances, so the bound
//! has to hold in floating point: it may admit a list needlessly, it may
//! never drop a row the whole scan keeps. With `u = 2⁻²⁴`, a computed
//! `l2_sq` is the true squared distance times `1 ± (dim + 2)u` (the terms
//! are non-negative, so nothing cancels), and its square root is off by
//! half that plus a rounding. The search therefore shrinks `‖q − p‖` and
//! grows every radius by the relative `slack = (dim + 8)·2u`, which leaves
//! `fl(‖q − p‖ − r) ≤ √(computed l2_sq(q, x))·(1 − (dim + 11)u)` for every
//! member `x` — strictly below the square root of any
//! distance the whole scan could have kept, whichever way the remaining
//! roundings (the subtraction, `√d_k`) fall (`tests/proptests.rs` pins a
//! family of tied rows that a slack of zero loses). Two corners sit outside the
//! relative-error argument. A squared difference that underflows loses
//! ≤ 2⁻¹⁴⁹ absolutely, which matters only to bounds below ≈10⁻¹⁵; a bound
//! under `TINY` counts as zero. A pivot distance that overflowed to `∞`
//! says only "≥ `f32::MAX`", so it is clamped there before the root; an
//! overflowed radius makes the bound `−∞`, which admits.

use crate::distance::{l2_sq, l2_sq_lanes, LANES};
use crate::{assert_finite, assert_resumable, Neighbor, VectorIndex};

/// Queries that share one sweep in [`FlatIndex::scan_batch_since`]: the
/// pivots are ranked for the whole group and the admitted lists are taken
/// in one order for every query that still needs them.
const QUERY_GROUP: usize = 16;

/// Members a list may hold; one more and it splits.
const LIST_CAP: usize = 64;

/// Chunks of [`LANES`] members in a list's block.
const CHUNKS_PER_LIST: usize = LIST_CAP / LANES;

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
    /// The pivots, [`LANES`] to a dimension-major chunk: list `l` is lane
    /// `l % LANES` of chunk `l / LANES`.
    pivots: Vec<f32>,
    /// Per list: at least every member's computed distance to the pivot,
    /// grown by the slack.
    radii: Vec<f32>,
    /// Per list: member ids, ascending. Never empty.
    lists: Vec<Vec<u32>>,
    /// Per list: its members' rows again, as `CHUNKS_PER_LIST`
    /// dimension-major chunks — member `j` is lane `j % LANES` of chunk
    /// `j / LANES`; lanes past the last member hold NaN.
    blocks: Vec<Vec<f32>>,
}

impl FlatIndex {
    /// Empty index of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            pivots: Vec::new(),
            radii: Vec::new(),
            lists: Vec::new(),
            blocks: Vec::new(),
        }
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

    /// Floats of one dimension-major chunk.
    fn chunk_len(&self) -> usize {
        self.dim * LANES
    }

    /// Chunk `c` of the pivots: lists `c * LANES..(c + 1) * LANES`.
    fn pivot_chunk(&self, c: usize) -> &[f32] {
        &self.pivots[c * self.chunk_len()..][..self.chunk_len()]
    }

    /// Chunk `c` of `list`'s block: its members `c * LANES..(c + 1) * LANES`.
    fn list_chunk(&self, list: usize, c: usize) -> &[f32] {
        &self.blocks[list][c * self.chunk_len()..][..self.chunk_len()]
    }

    /// Makes `pivot` the pivot of `list`, which is an existing list or the
    /// next one.
    fn set_pivot(&mut self, list: usize, pivot: &[f32]) {
        let at = list / LANES * self.chunk_len();
        if self.pivots.len() <= at {
            self.pivots.resize(at + self.chunk_len(), 0.0);
        }
        write_lane(&mut self.pivots[at..], list % LANES, pivot);
    }

    /// Copies stored row `id` into the lane of `list`'s `j`-th member.
    fn set_lane(&mut self, list: usize, j: usize, id: usize) {
        let at = j / LANES * self.chunk_len();
        let row = &self.data[id * self.dim..][..self.dim];
        write_lane(&mut self.blocks[list][at..], j % LANES, row);
    }

    /// Rewrites the block of `list` — an existing list or the next one —
    /// from its member ids: NaN in every lane no member has.
    fn set_block(&mut self, list: usize) {
        if self.blocks.len() == list {
            self.blocks.push(vec![f32::NAN; CHUNKS_PER_LIST * self.chunk_len()]);
        }
        self.blocks[list].fill(f32::NAN);
        for j in 0..self.lists[list].len() {
            self.set_lane(list, j, self.lists[list][j] as usize);
        }
    }

    /// Puts stored row `id` — the newest — into the list of its nearest
    /// pivot, splitting the list if that fills it past the cap.
    fn route(&mut self, id: usize) {
        let member = u32::try_from(id).expect("a FlatIndex holds fewer than 2^32 rows");
        if self.lists.is_empty() {
            self.radii.push(0.0);
            self.lists.push(vec![member]);
            let first = self.data[..self.dim].to_vec();
            self.set_pivot(0, &first);
            self.set_block(0);
            return;
        }
        // The first nearest pivot; lanes past the last list are skipped.
        let mut nearest = (f32::INFINITY, 0);
        for c in 0..self.lists.len().div_ceil(LANES) {
            let lanes = l2_sq_lanes(self.vector(id), self.pivot_chunk(c));
            for (l, &d) in (c * LANES..self.lists.len()).zip(&lanes) {
                if d < nearest.0 {
                    nearest = (d, l);
                }
            }
        }
        let (d, list) = nearest;
        self.lists[list].push(member);
        self.radii[list] = self.radii[list].max(self.cover(d));
        match self.lists[list].len() - 1 {
            LIST_CAP => self.split(list),
            j => self.set_lane(list, j, id),
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
        let pivot: Vec<f32> = lane(self.pivot_chunk(list / LANES), list % LANES).collect();
        let seed = farthest_from(&pivot);
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
        let new = self.lists.len();
        self.radii[list] = radii[0];
        self.radii.push(radii[1]);
        self.lists[list] = first;
        self.lists.push(second);
        for (l, pivot) in [list, new].into_iter().zip(&pivots) {
            self.set_pivot(l, pivot);
            self.set_block(l);
        }
    }

    fn check_query(&self, query: &[f32], k: usize, since: usize, prior: &[Neighbor]) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_finite(query, "FlatIndex::search");
        assert_resumable(self.len(), k, since, prior);
    }

    /// The one search of this index, for a group of at most
    /// [`QUERY_GROUP`] queries, each continuing from its `prior` top-k
    /// (the search's state after rows `0..since`; `k ≥ 1` is already
    /// clamped to `n`). `active` are the lists with a row at or past
    /// `since`, ascending, and `radii` their radii. Returns the lists and
    /// the number of rows and pivots the searches needed a distance to
    /// (a lane that holds neither is computed with its chunk, not counted).
    ///
    /// The pivots of the active lists are ranked for the whole group at
    /// once. A query that has no k-th distance yet
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
        radii: &[f32],
    ) -> (Vec<Vec<Neighbor>>, u64) {
        let nq = queries.len();
        // Every query's top-k: `k` ascending keys, `EMPTY` past the last.
        let mut tops = vec![EMPTY; nq * k];
        for (top, prior) in tops.chunks_exact_mut(k).zip(priors) {
            for (slot, nb) in top.iter_mut().zip(*prior) {
                *slot = key(nb.dist, nb.id);
            }
        }
        // √d_k per query: what a list's bound is held against.
        let mut kth = [0.0f32; QUERY_GROUP];
        for (root, top) in kth.iter_mut().zip(tops.chunks_exact(k)) {
            *root = worst_dist(top).sqrt();
        }
        let kth = &mut kth[..nq];
        let la = active.len();
        // Query-major bounds, then one more row: each list's least bound.
        let mut bounds = vec![f32::INFINITY; (nq + 1) * la];
        let (bounds, least) = bounds.split_at_mut(nq * la);
        // Active lists ascend, so those of one pivot chunk are a run.
        let mut run = 0;
        while run < la {
            let c = active[run] as usize / LANES;
            let end = run + active[run..].partition_point(|&l| l as usize / LANES == c);
            for (query, bounds) in queries.iter().zip(bounds.chunks_exact_mut(la)) {
                let lanes = l2_sq_lanes(query, self.pivot_chunk(c));
                for (bound, &l) in bounds[run..end].iter_mut().zip(&active[run..end]) {
                    *bound = lanes[l as usize % LANES];
                }
            }
            run = end;
        }
        let mut scanned = (nq * la) as u64;
        let shrink = 1.0 - self.slack();
        let mut starts = [usize::MAX; QUERY_GROUP];
        for (q, bounds) in bounds.chunks_exact_mut(la.max(1)).enumerate() {
            if tops[q * k + k - 1] == EMPTY {
                let mut nearest = (f32::INFINITY, 0);
                for (a, &d) in bounds.iter().enumerate() {
                    if d < nearest.0 {
                        nearest = (d, a);
                    }
                }
                starts[q] = nearest.1;
            }
            for ((bound, least), &radius) in bounds.iter_mut().zip(least.iter_mut()).zip(radii) {
                let gap = bound.min(f32::MAX).sqrt() * shrink - radius;
                *bound = if gap < TINY { gap.min(0.0) } else { gap };
                *least = least.min(*bound);
            }
        }
        // One list for the queries `members`. Of a chunk's lanes only those
        // within the k-th distance are offered (NaN lanes never are), and
        // of those only members at or past `since`.
        let mut scan = |a: usize, members: &[usize], kth: &mut [f32]| {
            let list = active[a] as usize;
            let ids = &self.lists[list];
            let start = ids.partition_point(|&id| (id as usize) < since);
            for &q in members {
                let top = &mut tops[q * k..(q + 1) * k];
                // Every chunk's distances before the first branch on one.
                let chunks = start / LANES..ids.len().div_ceil(LANES);
                let mut dists = [[0.0f32; LANES]; CHUNKS_PER_LIST];
                for c in chunks.clone() {
                    dists[c] = l2_sq_lanes(queries[q], self.list_chunk(list, c));
                }
                for c in chunks {
                    let reach = worst_dist(top);
                    if !dists[c].iter().any(|&dist| dist <= reach) {
                        continue;
                    }
                    // The lanes within reach, packed without a branch.
                    let from = start.max(c * LANES);
                    let mut hits = [EMPTY; LANES];
                    let mut n = 0;
                    for (&id, &dist) in ids[from..].iter().zip(&dists[c][from - c * LANES..]) {
                        hits[n] = key(dist, id as usize);
                        n += usize::from(dist <= reach);
                    }
                    for &hit in &hits[..n] {
                        offer(top, hit);
                    }
                }
                kth[q] = worst_dist(top).sqrt();
            }
            scanned += (members.len() * (ids.len() - start)) as u64;
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
        let mut order = Vec::with_capacity(la);
        order.extend(least.iter().copied().zip(0..).filter(|&(bound, _)| bound <= reach));
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
        let lists = tops
            .chunks_exact(k)
            .map(|top| {
                let hits = &top[..top.partition_point(|&key| key != EMPTY)];
                hits.iter()
                    .map(|&key| Neighbor { id: key as u32 as usize, dist: key_dist(key) })
                    .collect()
            })
            .collect();
        (lists, scanned)
    }
}

/// Lane `j` of a dimension-major chunk: one row, or one pivot.
fn lane(chunk: &[f32], j: usize) -> impl Iterator<Item = f32> + '_ {
    chunk[j..].iter().step_by(LANES).copied()
}

/// Writes `row` into lane `j` of the dimension-major chunk `chunk` starts
/// with.
fn write_lane(chunk: &mut [f32], j: usize, row: &[f32]) {
    for (d, &x) in row.iter().enumerate() {
        chunk[d * LANES + j] = x;
    }
}

/// An unused slot of a top-k: above every key.
const EMPTY: u64 = u64::MAX;

/// A (distance, id) pair as one integer that orders as the pair does: a
/// squared distance is never negative or NaN, so its bits ascend with it,
/// and an id fits the low half.
fn key(dist: f32, id: usize) -> u64 {
    u64::from(dist.to_bits()) << 32 | id as u64
}

/// The k-th distance of a top-k of keys; `∞` while a slot is unused.
fn worst_dist(top: &[u64]) -> f32 {
    match top[top.len() - 1] {
        EMPTY => f32::INFINITY,
        worst => key_dist(worst),
    }
}

/// The distance of a key.
fn key_dist(key: u64) -> f32 {
    f32::from_bits((key >> 32) as u32)
}

/// Offers `hit` to an ascending top-k: one pass that carries the larger
/// key of each slot on, and drops what falls off the end. No branch
/// depends on the keys.
#[inline]
fn offer(top: &mut [u64], hit: u64) {
    let mut carry = hit;
    for slot in top {
        (*slot, carry) = ((*slot).min(carry), (*slot).max(carry));
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

    /// Groups of `QUERY_GROUP` queries share one sweep over the
    /// partition (groups fan out across the `flexer-par` thread budget).
    /// Single-query and batched search are both
    /// `FlatIndex::search_group`.
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
        let (active, radii): (Vec<u32>, Vec<f32>) = (0..self.lists.len() as u32)
            .filter(|&l| self.lists[l as usize].last().is_some_and(|&id| id as usize >= since))
            .map(|l| (l, self.radii[l as usize]))
            .unzip();
        let per_group = flexer_par::parallel_map(queries.len().div_ceil(QUERY_GROUP), |g| {
            let group = g * QUERY_GROUP..((g + 1) * QUERY_GROUP).min(queries.len());
            self.search_group(&queries[group.clone()], k, since, &priors[group], &active, &radii)
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

    #[test]
    fn blocks_mirror_the_lists_and_pad_with_nan() {
        // Checked after every add of a stream that splits lists dozens of
        // times: a split leaves no lane of the old, longer list behind.
        let dim = 5;
        let rows = clustered_index(700, dim).data;
        let mut index = FlatIndex::new(dim);
        for row in rows.chunks(dim) {
            index.add(row);
            assert_eq!(index.blocks.len(), index.lists.len());
            for (l, ids) in index.lists.iter().enumerate() {
                assert!(!ids.is_empty() && ids.len() <= LIST_CAP);
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
                for j in 0..LIST_CAP {
                    let mut lane = lane(index.list_chunk(l, j / LANES), j % LANES);
                    match ids.get(j) {
                        Some(&id) => assert!(lane.eq(index.vector(id as usize).iter().copied())),
                        None => assert!(lane.all(f32::is_nan), "list {l}, lane {j}"),
                    }
                }
            }
        }
        assert!(index.lists.len() > 700 / LIST_CAP);
        // k past every list: lanes without a member would surface here.
        let all = index.search(index.vector(3), 700);
        let mut ids: Vec<usize> = all.iter().map(|nb| nb.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..700).collect::<Vec<_>>());
        assert!(all.iter().all(|nb| nb.dist.is_finite()));
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
