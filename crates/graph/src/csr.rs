//! CSR adjacency with mean aggregation — the message-passing kernel.
//!
//! Rows store *incoming* neighbours: `in_neighbors(v)` are the nodes whose
//! messages `v` receives (the paper's `N(v)`, "connected by incoming
//! edges"). Mean aggregation and its backward pass are the only two kernels
//! the GNN needs. The forward is per destination node, the backward per
//! source node over a `MeanTranspose` of the destinations whose gradient
//! is live: a caller that wants them for some of the nodes (the training
//! pass, for the rows its loss weighs) asks for those nodes and gets the
//! arithmetic of the whole-graph loop.

use flexer_nn::Matrix;

/// Compressed sparse row directed graph keyed by *destination* node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrGraph {
    /// Builds from per-destination incoming-neighbour lists.
    pub fn from_in_neighbors(lists: &[Vec<usize>]) -> Self {
        let mut indptr = Vec::with_capacity(lists.len() + 1);
        let mut indices = Vec::new();
        indptr.push(0);
        for l in lists {
            for &u in l {
                indices.push(u as u32);
            }
            indptr.push(indices.len());
        }
        Self { indptr, indices }
    }

    /// Reassembles a graph from raw CSR arrays (the snapshot-import path).
    /// Panics unless `indptr` is a valid monotone offset array over
    /// `indices`.
    pub fn from_parts(indptr: Vec<usize>, indices: Vec<u32>) -> Self {
        assert!(!indptr.is_empty(), "indptr must hold at least the leading 0");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr must be monotone");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr must end at indices.len()");
        Self { indptr, indices }
    }

    /// Raw CSR offsets (snapshot export).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw CSR neighbour array (snapshot export).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.indices.len()
    }

    /// Incoming neighbours of `v`.
    pub fn in_neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }

    /// `out[v] = mean_{u ∈ N(v)} h[u]` (zero vector for isolated nodes) —
    /// Eq. 3 with a mean aggregator.
    pub fn mean_aggregate(&self, h: &Matrix) -> Matrix {
        assert_eq!(h.rows(), self.n_nodes(), "feature/node count mismatch");
        let mut out = Matrix::zeros(self.n_nodes(), h.cols());
        for v in 0..self.n_nodes() {
            self.mean_into(v, h, out.row_mut(v));
        }
        out
    }

    /// One row of [`CsrGraph::mean_aggregate`], written over `out`: the
    /// mean of `h` over `N(v)` (the zero vector for none), accumulated as
    /// `Σ h[u] · (1/deg)` in neighbour order from zero. The training pass
    /// builds a layer's input for a *range* of nodes from this, so a
    /// restricted row and a whole-graph row are the same arithmetic.
    pub(crate) fn mean_into(&self, v: usize, h: &Matrix, out: &mut [f32]) {
        out.fill(0.0);
        let neighbors = self.in_neighbors(v);
        if neighbors.is_empty() {
            return;
        }
        let inv = 1.0 / neighbors.len() as f32;
        for &u in neighbors {
            for (o, &x) in out.iter_mut().zip(h.row(u as usize)) {
                *o += x * inv;
            }
        }
    }

    /// Backward of [`CsrGraph::mean_aggregate`]: scatters `d_out[v]/deg(v)`
    /// back to every source `u ∈ N(v)`. The whole-graph loop the training
    /// pass is diffed against.
    #[cfg(test)]
    pub(crate) fn mean_aggregate_backward(&self, d_out: &Matrix) -> Matrix {
        assert_eq!(d_out.rows(), self.n_nodes(), "gradient/node count mismatch");
        let dim = d_out.cols();
        let mut dh = Matrix::zeros(self.n_nodes(), dim);
        for v in 0..self.n_nodes() {
            let neighbors = self.in_neighbors(v);
            if neighbors.is_empty() {
                continue;
            }
            let inv = 1.0 / neighbors.len() as f32;
            for &u in neighbors {
                let src = dh.row_mut(u as usize);
                for (s, &g) in src.iter_mut().zip(d_out.row(v)) {
                    *s += g * inv;
                }
            }
        }
        dh
    }
}

/// The backward of mean aggregation over a list of destination nodes,
/// keyed by **source**: for every node `u`, one `(row, 1/deg(v))` entry
/// per edge `u → v` with `v` in the list (`row` its index there, the row of
/// `v` in a gradient buffer that holds the listed nodes only), in
/// ascending `v` and, within `v`, in `v`'s source order. That is the order
/// in which the scatter `dh[u] += d_out[v] · (1/deg(v))` over ascending
/// `v` adds into row `u`, so gathering row `u` along its entries
/// ([`gather_lanes`]) replays that row's chain of the scatter, term for
/// term, less the terms of unlisted destinations — one output row at a
/// time, with no graph-sized accumulator to reset and no scattered writes.
#[derive(Debug, Clone)]
pub(crate) struct MeanTranspose {
    indptr: Vec<usize>,
    entries: Vec<(u32, f32)>,
}

impl MeanTranspose {
    /// Over the destinations `readers` (ascending node ids) of `graph`.
    /// Entries of every other destination are left out: in the training
    /// pass their gradient rows are `±0.0`, and a chain that started at
    /// `+0.0` does not change by adding their `±0.0` terms.
    pub(crate) fn new(graph: &CsrGraph, readers: &[usize]) -> Self {
        let n_nodes = graph.n_nodes();
        let mut indptr = vec![0usize; n_nodes + 1];
        for &v in readers {
            for &u in graph.in_neighbors(v) {
                indptr[u as usize + 1] += 1;
            }
        }
        for u in 0..n_nodes {
            indptr[u + 1] += indptr[u];
        }
        let mut next = indptr[..n_nodes].to_vec();
        let mut entries = vec![(0u32, 0.0f32); indptr[n_nodes]];
        for (row, &v) in readers.iter().enumerate() {
            let sources = graph.in_neighbors(v);
            if sources.is_empty() {
                continue;
            }
            let inv = 1.0 / sources.len() as f32;
            for &u in sources {
                entries[next[u as usize]] = (row as u32, inv);
                next[u as usize] += 1;
            }
        }
        Self { indptr, entries }
    }

    /// Source `u`'s `(row, 1/deg)` entries, in the scatter's order.
    #[inline]
    pub(crate) fn entries(&self, u: usize) -> &[(u32, f32)] {
        &self.entries[self.indptr[u]..self.indptr[u + 1]]
    }
}

/// Columns `col .. col + W` of the gradient that one source's `entries`
/// ([`MeanTranspose::entries`]) gather from `d_out`: the sum of
/// `d_out[row][col..] · (1/deg)` over the entries, from `+0.0` in entry
/// order — `W` chains side by side in registers.
#[inline(always)]
pub(crate) fn gather_lanes<const W: usize>(
    entries: &[(u32, f32)],
    d_out: &Matrix,
    col: usize,
) -> [f32; W] {
    let (data, width) = (d_out.data(), d_out.cols());
    let mut acc = [0.0f32; W];
    for &(row, inv) in entries {
        let at = row as usize * width + col;
        for (a, &g) in acc.iter_mut().zip(&data[at..at + W]) {
            *a += g * inv;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        // 0 → 1 → 2 (node 1 receives from 0, node 2 from 1), node 0 isolated.
        CsrGraph::from_in_neighbors(&[vec![], vec![0], vec![1]])
    }

    #[test]
    fn structure() {
        let g = path_graph();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn mean_aggregation_averages() {
        let g = CsrGraph::from_in_neighbors(&[vec![1, 2], vec![], vec![]]);
        let h = Matrix::from_vec(3, 2, vec![9.0, 9.0, 2.0, 4.0, 4.0, 8.0]);
        let out = g.mean_aggregate(&h);
        assert_eq!(out.row(0), &[3.0, 6.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]); // isolated → zero
    }

    #[test]
    fn backward_matches_finite_difference() {
        let g = CsrGraph::from_in_neighbors(&[vec![1, 2], vec![2], vec![]]);
        let h = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1]);
        // Loss = sum of aggregate outputs → d_out = ones.
        let ones = Matrix::from_fn(3, 2, |_, _| 1.0);
        let dh = g.mean_aggregate_backward(&ones);
        let loss = |h: &Matrix| -> f32 { g.mean_aggregate(h).data().iter().sum() };
        let eps = 1e-2;
        for i in 0..3 {
            for j in 0..2 {
                let mut hp = h.clone();
                hp.set(i, j, hp.get(i, j) + eps);
                let mut hm = h.clone();
                hm.set(i, j, hm.get(i, j) - eps);
                let num = (loss(&hp) - loss(&hm)) / (2.0 * eps);
                assert!((num - dh.get(i, j)).abs() < 1e-3, "d[{i},{j}]");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_in_neighbors(&[]);
        assert_eq!(g.n_nodes(), 0);
        let out = g.mean_aggregate(&Matrix::zeros(0, 4));
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn aggregation_is_linear() {
        let g = path_graph();
        let a = Matrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let b = Matrix::from_fn(3, 2, |i, j| (i * j) as f32 + 1.0);
        let mut sum = a.clone();
        sum.add_scaled(&b, 1.0);
        let lhs = g.mean_aggregate(&sum);
        let mut rhs = g.mean_aggregate(&a);
        rhs.add_scaled(&g.mean_aggregate(&b), 1.0);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
