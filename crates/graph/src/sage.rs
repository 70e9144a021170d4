//! The multiplex GraphSAGE layer (Eqs. 3–4).
//!
//! GraphSAGE aggregates neighbour states and concatenates them with the
//! node's own state before a learned linear map. For the multiplex graph we
//! follow the relation-typed adjustment the paper points to (R-GCN \[50\]):
//! intra-layer and inter-layer neighbourhoods are aggregated *separately*
//! so the model can weigh "similar pairs under my intent" differently from
//! "the same pair under other intents":
//!
//! `h⁽ᵗ⁺¹⁾_v = σ(W · [h_v ; mean_intra(N(v)) ; mean_inter(N(v))])`
//!
//! That is the only aggregation: pooling both relations (plain GraphSAGE
//! over the union graph) is not FlexER's, and a snapshot that asks for it
//! is refused.
//!
//! A layer works on a **contiguous range of nodes**: it builds the
//! `[self ; intra ; inter]` rows of that range (`concat_rows_into`) and
//! maps them. The whole graph is the range `0..n`; the training pass hands
//! the last layer its target intent's range instead. Each row is the same
//! arithmetic either way, so a restricted evaluation returns the bits of
//! the whole-graph one for the rows it covers. On the way back a layer
//! takes the gradient of its **live** rows only — those whose gradient
//! may be non-zero — and turns it into the gradient of every node state
//! they read (`backward_rows`, one gather per node along a `Gather` built
//! once per fit).

use crate::csr::{gather_lanes, CsrGraph, MeanTranspose};
use crate::multiplex::MultiplexGraph;
use flexer_nn::kernels::dense_forward_into;
use flexer_nn::{Linear, Matrix, Optimizer, PackedB};
use rand::Rng;
use std::ops::Range;

/// One GNN layer: `[self ; intra ; inter]`, W of shape `3·d_in × d_out`.
/// The weight matrix is kept packed ([`PackedB`]) for the blocked forward
/// kernels; the pack is refreshed whenever [`SageLayer::apply`] updates
/// the weights.
#[derive(Debug, Clone)]
pub struct SageLayer {
    linear: Linear,
    pack: PackedB,
    in_dim: usize,
}

/// What [`SageLayer::backward_rows`] reads of the graph for one layer's
/// live rows: the rows, the nodes they read, and the [`MeanTranspose`] of
/// each aggregate the concat rows hold over the live rows only. Built by
/// [`SageLayer::gather`].
#[derive(Debug, Clone)]
pub(crate) struct Gather {
    /// The live rows, ascending indices into the layer's concat rows: the
    /// rows of the output gradient `backward_rows` is handed.
    rows: Vec<usize>,
    /// The nodes the live rows read — each row's own node and its intra
    /// and inter in-neighbours — ascending: the rows of the input gradient
    /// `backward_rows` writes, and the live rows of the layer below.
    below: Vec<usize>,
    /// `own[i]`: the index in `rows` of node `below[i]`'s own row, or
    /// `NO_ROW` where that node is not a live row of this layer.
    own: Vec<u32>,
    /// The intra-layer aggregate's.
    intra: MeanTranspose,
    /// The inter-layer aggregate's.
    inter: MeanTranspose,
}

/// [`Gather::own`] of a node that is not a live row.
const NO_ROW: u32 = u32::MAX;

impl Gather {
    /// The nodes the live rows read, ascending.
    pub(crate) fn below(&self) -> &[usize] {
        &self.below
    }
}

impl SageLayer {
    /// New layer mapping `in_dim → out_dim`.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        Self::from_parts(Linear::new(rng, 3 * in_dim, out_dim))
    }

    /// Reassembles a layer from its weights (the snapshot-import path).
    /// The input dimension is a third of the linear's width; panics if the
    /// width is not a multiple of 3.
    pub fn from_parts(linear: Linear) -> Self {
        assert_eq!(linear.in_dim() % 3, 0, "linear input width must be a multiple of 3");
        let in_dim = linear.in_dim() / 3;
        let pack = PackedB::pack(&linear.w);
        Self { linear, pack, in_dim }
    }

    /// The learned linear map (snapshot export).
    pub fn linear(&self) -> &Linear {
        &self.linear
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.linear.out_dim()
    }

    /// Forward pass over all nodes (no activation — the caller applies
    /// ReLU between layers, none on the last, per §5.2.1).
    pub fn forward(&self, graph: &MultiplexGraph, h: &Matrix) -> Matrix {
        self.forward_states(&graph.intra, &graph.inter, h)
    }

    /// Forward over explicit relation adjacencies — the kernel behind both
    /// the transductive pass and the serving tier's per-candidate inductive
    /// pass over a local subgraph (same math, any node set).
    pub fn forward_states(&self, intra: &CsrGraph, inter: &CsrGraph, h: &Matrix) -> Matrix {
        let mut concat = Matrix::zeros(0, 0);
        self.concat_rows_into(intra, inter, h, 0..h.rows(), &mut concat);
        let mut out = Matrix::zeros(0, 0);
        self.forward_concat_into(&concat, false, &mut out);
        out
    }

    /// Forward of pre-built `[self ; intra ; inter]` concat rows into a
    /// caller-owned output buffer, through the packed kernels, with the
    /// inter-layer ReLU optionally fused into the matmul epilogue. This is
    /// the entry the batched inductive path uses: no allocation when `out`
    /// already has capacity, and one pass over the output instead of three.
    pub fn forward_concat_into(&self, concat: &Matrix, relu: bool, out: &mut Matrix) {
        dense_forward_into(concat, &self.linear, &self.pack, relu, out);
    }

    /// Builds the `[self ; intra ; inter]` concat rows of nodes `rows` from
    /// the node states `h` of the *whole* graph, into `out` (reshaped,
    /// allocation reused): row `i` of `out` belongs to node `rows.start +
    /// i`, and its aggregates accumulate in neighbour order from zero —
    /// `CsrGraph::mean_into` — whatever the range.
    pub(crate) fn concat_rows_into(
        &self,
        intra: &CsrGraph,
        inter: &CsrGraph,
        h: &Matrix,
        rows: Range<usize>,
        out: &mut Matrix,
    ) {
        let d = self.in_dim;
        assert_eq!(h.rows(), intra.n_nodes(), "feature/node count mismatch");
        assert_eq!(h.cols(), d, "state width must match the layer");
        assert!(rows.end <= h.rows(), "node range out of bounds");
        let width = self.linear.in_dim();
        // Every element of every row is stored below.
        out.reset_overwrite(rows.len(), width);
        for (v, row) in rows.zip(out.data_mut().chunks_exact_mut(width)) {
            let (own, aggregates) = row.split_at_mut(d);
            let (from_intra, from_inter) = aggregates.split_at_mut(d);
            own.copy_from_slice(h.row(v));
            intra.mean_into(v, h, from_intra);
            inter.mean_into(v, h, from_inter);
        }
    }

    /// Parameter-only backward for a layer whose input states are leaves
    /// (the first layer: node features are not parameters): row `i` of
    /// `grad_out` is the gradient of concat row `live[i]`.
    pub(crate) fn backward_params(&mut self, concat: &Matrix, live: &[usize], grad_out: &Matrix) {
        self.linear.backward_params(concat, Some(live), grad_out);
    }

    /// The backward's view of the graph for this layer's live rows `rows`
    /// (ascending indices into concat rows that start at node `start`):
    /// the nodes they read, and the [`MeanTranspose`] of each aggregate
    /// over the live rows. A function of the graph and the rows only, so a
    /// fit builds it once.
    pub(crate) fn gather(&self, graph: &MultiplexGraph, start: usize, rows: Vec<usize>) -> Gather {
        let n = graph.n_nodes();
        let readers: Vec<usize> = rows.iter().map(|&r| start + r).collect();
        let (mut own_row, mut read) = (vec![NO_ROW; n], vec![false; n]);
        for (i, &v) in readers.iter().enumerate() {
            own_row[v] = i as u32;
            read[v] = true;
            for &u in graph.intra.in_neighbors(v).iter().chain(graph.inter.in_neighbors(v)) {
                read[u as usize] = true;
            }
        }
        let below: Vec<usize> = (0..n).filter(|&u| read[u]).collect();
        let own = below.iter().map(|&u| own_row[u]).collect();
        let intra = MeanTranspose::new(&graph.intra, &readers);
        let inter = MeanTranspose::new(&graph.inter, &readers);
        Gather { rows, below, own, intra, inter }
    }

    /// Backward pass over `gather`'s live rows: row `i` of `grad_out` is
    /// the gradient of concat row `gather.rows[i]` (`concat` holds every
    /// row the forward evaluated). Accumulates the layer's parameter
    /// gradients over the live rows, computes `grad_out · Wᵀ` for them
    /// only, and writes into `out` (reshaped, allocation reused) row `i`
    /// for node `gather.below[i]`: the gradient w.r.t. that node's
    /// **pre-activation** input state — a live row's own state, and the
    /// neighbours its aggregates read, which lie anywhere in the graph —
    /// with the ReLU that made `input` (this layer's input states, one row
    /// per node) differentiated in place.
    ///
    /// Each node's row is one pass: its own-state part (`0.0` for a node
    /// that is not a live row), plus the gather of each relation's
    /// aggregate gradient, added as `(own + intra) + inter`, then zeroed
    /// where `input <= 0.0`: the sum, order and mask of the whole-graph
    /// reference (`SageLayer::backward`'s per-relation scatter, then
    /// `relu_backward_inplace`). A row that is
    /// not live contributes nothing: its row of `grad_out` would be `±0.0`,
    /// and with finite weights its row of `grad_out · Wᵀ` `+0.0`, and
    /// adding `±0.0` to an accumulator that started at `+0.0` never changes
    /// its bits. So the rows written are those of the whole-graph pass
    /// over a `grad_out` that is `±0.0` off the live rows, and every node
    /// not in `gather.below` has a gradient of exactly `+0.0` there.
    pub(crate) fn backward_rows(
        &mut self,
        gather: &Gather,
        concat: &Matrix,
        grad_out: &Matrix,
        input: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(grad_out.rows(), gather.rows.len(), "one gradient row per live row");
        let d = self.in_dim;
        assert_eq!(input.cols(), d, "input states must match the layer");
        self.linear.backward_params(concat, Some(&gather.rows), grad_out);
        let d_concat = grad_out.matmul_transpose_b(&self.linear.w);
        let zeros = vec![0.0f32; d];
        // Every element of every row is stored below.
        out.reset_overwrite(gather.below.len(), d);
        let nodes = gather.below.iter().zip(&gather.own);
        for (row, (&u, &own)) in out.data_mut().chunks_exact_mut(d).zip(nodes) {
            let own = if own == NO_ROW { &zeros } else { &d_concat.row(own as usize)[..d] };
            let node = NodeGrad {
                d_concat: &d_concat,
                intra: gather.intra.entries(u),
                inter: gather.inter.entries(u),
                own,
                states: input.row(u),
            };
            // Eight lanes at a time in registers, then one at a time.
            let whole = d - d % LANES;
            for j in (0..whole).step_by(LANES) {
                row[j..j + LANES].copy_from_slice(&node.lanes::<LANES>(j));
            }
            for (j, g) in row.iter_mut().enumerate().skip(whole) {
                *g = node.lanes::<1>(j)[0];
            }
        }
    }

    /// The whole-graph backward the training pass replaced, kept as the
    /// reference it is diffed against: every layer evaluated and
    /// differentiated for every node, input gradient included, through
    /// whole-graph aggregates and `hconcat` / `hsplit` temporaries.
    #[cfg(test)]
    pub(crate) fn backward(
        &mut self,
        graph: &MultiplexGraph,
        input: &Matrix,
        grad_out: &Matrix,
    ) -> Matrix {
        let concat = Self::concat_states(&graph.intra, &graph.inter, input);
        let d_concat = self.linear.backward(&concat, grad_out);
        let d_in = input.cols();
        let parts = d_concat.hsplit(&[d_in, d_in, d_in]);
        let mut dh = parts[0].clone();
        dh.add_scaled(&graph.intra.mean_aggregate_backward(&parts[1]), 1.0);
        dh.add_scaled(&graph.inter.mean_aggregate_backward(&parts[2]), 1.0);
        dh
    }

    /// The whole-graph `[self ; intra ; inter]` concatenation
    /// [`SageLayer::backward`] differentiates, from whole-graph aggregates.
    #[cfg(test)]
    fn concat_states(intra: &CsrGraph, inter: &CsrGraph, h: &Matrix) -> Matrix {
        Matrix::hconcat(&[h, &intra.mean_aggregate(h), &inter.mean_aggregate(h)])
    }

    /// Clears parameter gradients.
    pub fn zero_grad(&mut self) {
        self.linear.zero_grad();
    }

    /// Applies an optimizer and refreshes the weight pack; returns slots
    /// used.
    pub fn apply(&mut self, opt: &mut impl Optimizer, slot_base: usize) -> usize {
        let used = self.linear.apply(opt, slot_base);
        self.pack.repack(&self.linear.w);
        used
    }
}

/// Lanes of a layer's input gradient per step of [`NodeGrad::lanes`]: one
/// AVX2 register of `f32`.
const LANES: usize = 8;

/// One node's row of [`SageLayer::backward_rows`]' output.
struct NodeGrad<'a> {
    /// The gradient of the live concat rows.
    d_concat: &'a Matrix,
    /// The node's entries in [`Gather::intra`], read from the concat
    /// rows' second block of columns.
    intra: &'a [(u32, f32)],
    /// The node's entries in [`Gather::inter`], read from the third block.
    inter: &'a [(u32, f32)],
    /// The node's own-state gradient (zeros if it is not a live row).
    own: &'a [f32],
    /// The node's input states, whose ReLU is differentiated.
    states: &'a [f32],
}

impl NodeGrad<'_> {
    /// Lanes `j .. j + W` of the row: `(own + intra) + inter`, zeroed
    /// where the state is `<= 0.0`.
    #[inline(always)]
    fn lanes<const W: usize>(&self, j: usize) -> [f32; W] {
        let d = self.own.len();
        let mut g: [f32; W] = self.own[j..j + W].try_into().expect("W lanes");
        let from_intra = gather_lanes::<W>(self.intra, self.d_concat, d + j);
        for (g, f) in g.iter_mut().zip(from_intra) {
            *g += f;
        }
        let from_inter = gather_lanes::<W>(self.inter, self.d_concat, 2 * d + j);
        for (g, f) in g.iter_mut().zip(from_inter) {
            *g += f;
        }
        for (g, &y) in g.iter_mut().zip(&self.states[j..j + W]) {
            *g = if y <= 0.0 { 0.0 } else { *g };
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_nn::activation::{relu_backward_inplace, relu_inplace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph() -> MultiplexGraph {
        let features = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) % 5) as f32 * 0.3 - 0.5);
        MultiplexGraph::assemble(
            3,
            2,
            features,
            &[vec![vec![1], vec![0, 2], vec![1]], vec![vec![2], vec![], vec![0]]],
        )
    }

    #[test]
    fn forward_shapes() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = SageLayer::new(&mut rng, 3, 5);
        let out = layer.forward(&g, &g.features);
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 5);
        assert_eq!(layer.in_dim(), 3);
        assert_eq!(layer.out_dim(), 5);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// End-to-end gradient check through aggregation + linear: the
    /// whole-graph reference against finite differences, and the ranged
    /// backward over every node against the reference under the ReLU mask
    /// it fuses.
    #[test]
    fn backward_matches_finite_difference() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = SageLayer::new(&mut rng, 3, 2);
        let h = g.features.clone();
        let ones = Matrix::from_fn(6, 2, |_, _| 1.0);
        let mut reference = layer.clone();
        let dh = reference.backward(&g, &h, &ones);

        let mut concat = Matrix::zeros(0, 0);
        layer.concat_rows_into(&g.intra, &g.inter, &h, 0..6, &mut concat);
        assert_eq!(concat, SageLayer::concat_states(&g.intra, &g.inter, &h));
        let mut ranged = Matrix::zeros(0, 0);
        let gather = layer.gather(&g, 0, (0..6).collect());
        layer.backward_rows(&gather, &concat, &ones, &h, &mut ranged);
        let mut masked = dh.clone();
        relu_backward_inplace(&mut masked, &h);
        assert_eq!(bits(&ranged), bits(&masked));

        let loss = |h: &Matrix| -> f32 { layer.forward(&g, h).data().iter().sum() };
        let eps = 1e-2;
        for &(i, j) in &[(0usize, 0usize), (2, 1), (5, 2)] {
            let mut hp = h.clone();
            hp.set(i, j, hp.get(i, j) + eps);
            let mut hm = h.clone();
            hm.set(i, j, hm.get(i, j) - eps);
            let num = (loss(&hp) - loss(&hm)) / (2.0 * eps);
            assert!((num - dh.get(i, j)).abs() < 5e-2, "d[{i},{j}]: {num} vs {}", dh.get(i, j));
        }
    }

    /// A layer evaluated on each of `ranges` and differentiated on all of
    /// its rows, or on every row but each third, is the whole-graph layer
    /// under a gradient that is zero off those live rows: same concat
    /// rows, same parameter gradients, and — gathered per source with the
    /// ReLU mask fused — the bits of the scatter through
    /// `mean_aggregate_backward` followed by
    /// `relu_backward_inplace`, for every node it writes; every node it
    /// leaves out has a gradient of exactly `+0.0` there.
    fn assert_ranged_backward_is_the_whole_graph_one(
        g: &MultiplexGraph,
        h: &Matrix,
        ranges: &[Range<usize>],
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.n_nodes();
        let layer = SageLayer::new(&mut rng, h.cols(), 4);
        let whole_concat = SageLayer::concat_states(&g.intra, &g.inter, h);
        // Reused across ranges, as across epochs: stale values must not
        // leak from one backward into the next.
        let mut out = Matrix::zeros(0, 0);
        for rows in ranges {
            let every: Vec<usize> = (0..rows.len()).collect();
            let thinned: Vec<usize> = (0..rows.len()).filter(|i| i % 3 != 1).collect();
            for live in [every, thinned] {
                let what = format!("{rows:?} live {live:?}");
                let grad = Matrix::from_fn(live.len(), 4, |i, j| (i * 4 + j) as f32 * 0.1 - 0.7);
                let mut masked = Matrix::zeros(n, 4);
                for (i, &r) in live.iter().enumerate() {
                    masked.row_mut(rows.start + r).copy_from_slice(grad.row(i));
                }
                let mut whole = layer.clone();
                let mut want = whole.backward(g, h, &masked);
                relu_backward_inplace(&mut want, h);

                let mut ranged = layer.clone();
                let mut concat = Matrix::zeros(0, 0);
                ranged.concat_rows_into(&g.intra, &g.inter, h, rows.clone(), &mut concat);
                let picked: Vec<usize> = rows.clone().collect();
                assert_eq!(concat, whole_concat.select_rows(&picked), "{what}");
                let gather = ranged.gather(g, rows.start, live.clone());
                ranged.backward_rows(&gather, &concat, &grad, h, &mut out);
                let below = gather.below();
                assert_eq!((out.rows(), out.cols()), (below.len(), h.cols()), "{what}");
                let mut spread = Matrix::zeros(n, h.cols());
                for (i, &u) in below.iter().enumerate() {
                    spread.row_mut(u).copy_from_slice(out.row(i));
                }
                assert_eq!(bits(&spread), bits(&want), "{what}: input gradient");
                let (got_w, want_w) = (&ranged.linear.grad_w, &whole.linear.grad_w);
                assert_eq!(bits(got_w), bits(want_w), "{what}");
                assert_eq!(ranged.linear.grad_b, whole.linear.grad_b, "{what}");
            }
        }
    }

    /// Ranges that do and do not align with an intent layer, on a graph
    /// with unequal degrees and nodes without intra-layer neighbours.
    #[test]
    fn a_node_range_is_the_whole_graph_under_a_masked_gradient() {
        let g = toy_graph();
        let h = Matrix::from_fn(6, 3, |i, j| ((i * 5 + j * 2) % 7) as f32 * 0.3 - 0.8);
        let ranges = [0..3, 3..6, 2..5, 1..2, 0..6, 4..4];
        assert_ranged_backward_is_the_whole_graph_one(&g, &h, &ranges, 8);
    }

    /// The per-source gather against the per-destination scatter where
    /// their orders could part: one source read by most targets (twice by
    /// one of them), nodes with no edge in or out, a node read only from
    /// outside the range, strict sub-ranges — over ReLU'd states with
    /// `0.0` and `-0.0`, so the fused mask zeroes some gathered sums.
    #[test]
    fn gather_backward_is_the_scatter_backward_under_the_relu_mask() {
        let n = 10;
        let intra = CsrGraph::from_in_neighbors(&[
            vec![],
            vec![0],
            vec![0, 1],
            vec![0, 0, 5],
            vec![],
            vec![0, 2, 9],
            vec![0],
            vec![],
            vec![0, 6],
            vec![0, 3],
        ]);
        let inter = CsrGraph::from_in_neighbors(&[
            vec![5],
            vec![0],
            vec![],
            vec![8],
            vec![],
            vec![0, 1],
            vec![2],
            vec![],
            vec![3],
            vec![0],
        ]);
        let features = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.2 - 0.9);
        let g = MultiplexGraph { n_pairs: n, n_layers: 1, dim: 3, features, intra, inter };
        let mut h = Matrix::from_fn(n, 3, |i, j| ((i * 5 + j * 3) % 9) as f32 * 0.25 - 0.6);
        relu_inplace(&mut h);
        h.set(6, 1, -0.0);
        let ranges = [0..n, 1..9, 2..6, 5..6, 9..10, 0..1];
        assert_ranged_backward_is_the_whole_graph_one(&g, &h, &ranges, 11);
    }

    #[test]
    fn from_parts_roundtrips_layer() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = SageLayer::new(&mut rng, 3, 4);
        let rebuilt = SageLayer::from_parts(layer.linear().clone());
        assert_eq!(rebuilt.in_dim(), 3);
        assert_eq!(rebuilt.out_dim(), 4);
        assert_eq!(layer.forward(&g, &g.features), rebuilt.forward(&g, &g.features));
    }

    #[test]
    fn forward_states_matches_forward() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(6);
        let layer = SageLayer::new(&mut rng, 3, 4);
        let via_graph = layer.forward(&g, &g.features);
        let direct = layer.forward_states(&g.intra, &g.inter, &g.features);
        assert_eq!(via_graph, direct);
    }

    #[test]
    #[should_panic(expected = "multiple of 3")]
    fn from_parts_checks_width() {
        let mut rng = StdRng::seed_from_u64(7);
        let linear = flexer_nn::Linear::new(&mut rng, 7, 2);
        let _ = SageLayer::from_parts(linear);
    }

    #[test]
    fn isolated_nodes_get_zero_neighborhood() {
        let features = Matrix::from_fn(2, 2, |_, _| 1.0);
        let g = MultiplexGraph::assemble(2, 1, features, &[vec![vec![], vec![]]]);
        let mut rng = StdRng::seed_from_u64(3);
        let layer = SageLayer::new(&mut rng, 2, 2);
        let out = layer.forward(&g, &g.features);
        // Output exists and is finite; neighbourhood contributions are zero.
        assert!(out.all_finite());
    }
}
