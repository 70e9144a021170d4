//! The stacked GNN with a per-intent prediction head (Eqs. 4–5), its
//! training pass, and the inductive forward pass the serving tier uses to
//! score *new* pairs against frozen weights.
//!
//! # The training pass
//!
//! [`train_for_intent`](crate::train_for_intent) reads one thing from a
//! forward pass: the head's logits on the **target intent's** rows
//! ([`MultiplexGraph::layer_nodes`], a contiguous range of N of the N·P
//! nodes). And it updates one thing from a backward pass: the parameters.
//! [`GnnModel::train_forward`] / [`GnnModel::train_backward`] compute
//! exactly that, in four cuts against the whole-graph
//! [`GnnModel::forward`] and the whole-graph backward it used to be paired
//! with (kept under `#[cfg(test)]` as the reference):
//!
//! * **The first layer's input is built once per fit.**
//!   `[X ; mean_intra(X) ; mean_inter(X)]` is a function of the graph and
//!   the fixed initial representations; no parameter enters it, so
//!   [`TrainPass`] holds it for every epoch.
//! * **Nothing is backpropagated into the leaves.** Node features are not
//!   parameters: the first layer accumulates `grad_w` / `grad_b` and stops.
//!   `grad_out · Wᵀ` and its two scatters through the aggregates were
//!   computed and dropped.
//! * **The last layer runs where the head reads it.** Its concat rows and
//!   GEMM are taken over the target range only. Every other row of the
//!   whole-graph pass carried a loss gradient of exactly `+0.0`; with
//!   finite activations and weights its terms are `±0.0` products added to
//!   accumulators that started at `+0.0`, which never change a bit (an
//!   accumulator that starts at `+0.0` cannot reach `-0.0` under
//!   round-to-nearest). Skipping them leaves each sum's remaining terms in
//!   their order.
//! * **The backward runs on the rows the loss weighs.** The loss weighs
//!   only the target intent's training pairs (§4.3), so the same argument
//!   holds inside the target range and below it. [`TrainPass`] keeps one
//!   live-row list per layer, built once per fit from the loss mask: the
//!   last layer's are the weighed target rows, and layer `t - 1`'s the
//!   nodes some live row of layer `t` reads (itself, its intra and its
//!   inter in-neighbours). The head's and every layer's weight and bias
//!   gradients run over live rows only, the input gradient `grad · Wᵀ` is
//!   computed for live rows only, into a compact buffer, and the per-node
//!   gather keeps only the aggregate entries whose reader is live and
//!   writes only live nodes. Every other row's gradient is exactly `±0.0`,
//!   and [`GnnModel::train_backward`] checks that of the logits it is
//!   handed. At the paper's label fractions a tenth of the pairs is
//!   weighed, and the backward shrinks with them.
//!
//! The layers **below** the last stay whole-graph forward: a target row
//! aggregates its intra-layer neighbours and its peers in every other
//! intent layer, so one hop down every node is read, and selection scores
//! every target pair. The cost of a forward still grows linearly in N·P
//! for those layers. A one-layer model is the case where the last layer
//! *is* the first: a target-range slice of the hoisted input, parameter
//! gradients only, over the weighed rows.
//!
//! Weights after any number of epochs are those of the whole-graph pass,
//! bit for bit (`train.rs` diffs the two over layer counts, targets, `k`,
//! `P` and train sets from none to every pair).
//!
//! # The inductive pass
//!
//! The inductive pass exploits a structural property of the multiplex
//! graph: edges point **into** a node, and inserting a new pair never
//! rewires existing nodes (intra-layer k-NN edges are fixed from the
//! initial representations, §4.1.3). The stored corpus states at every GNN
//! depth therefore stay exactly what the transductive forward computed, so
//! a new pair's P nodes can be evaluated on a small local subgraph whose
//! neighbour states are *pinned* from a cached [`GnnTrace`] — replaying an
//! existing pair through this path is bit-identical to the batch forward.

use crate::batch::{batch_concat_states, BatchInductiveTrace, NeighborArena, RowSource};
use crate::csr::CsrGraph;
use crate::multiplex::MultiplexGraph;
use crate::sage::{Gather, SageLayer};
use flexer_nn::activation::{match_probabilities, relu_inplace};
use flexer_nn::kernels::dense_forward_into;
use flexer_nn::{Linear, Matrix, Optimizer, PackedB};
use rand::Rng;
use std::ops::Range;

/// A q-layer multiplex GraphSAGE network plus the fully connected
/// prediction head of Eq. 5. The head weights are kept packed
/// ([`PackedB`]) for the blocked forward kernels, refreshed on every
/// [`GnnModel::apply`].
#[derive(Debug, Clone)]
pub struct GnnModel {
    layers: Vec<SageLayer>,
    head: Linear,
    head_pack: PackedB,
}

/// Node states of the whole graph after every GNN layer.
#[derive(Debug, Clone)]
pub struct GnnTrace {
    hidden: Vec<Matrix>,
}

impl GnnTrace {
    /// Final hidden states `h(q)` of all nodes.
    pub fn final_hidden(&self) -> &Matrix {
        self.hidden.last().expect("at least one layer")
    }

    /// Post-activation node states after GNN layer `t` (the input to layer
    /// `t + 1`) — the pinned neighbour states of the inductive pass.
    pub fn hidden(&self, t: usize) -> &Matrix {
        &self.hidden[t]
    }

    /// Number of cached layer outputs.
    pub fn n_layers(&self) -> usize {
        self.hidden.len()
    }
}

/// What one fit's training passes keep between epochs: the target range,
/// one **live-row list** per layer, every layer's input rows (the first
/// layer's built once, here) and every layer's output rows, reused as
/// buffers. Made by [`GnnModel::train_pass`], for that model's shape, that
/// graph and that loss mask.
///
/// A layer's live rows are those whose output gradient may be non-zero:
/// for the last layer, the target rows the loss weighs; for layer `t - 1`,
/// the nodes some live row of layer `t` reads — itself, and its intra and
/// inter in-neighbours — in ascending order. The backward runs on live
/// rows only; every other row's gradient is exactly `±0.0`.
#[derive(Debug)]
pub struct TrainPass {
    /// Node ids of the target intent's layer — the rows the loss reads.
    target: Range<usize>,
    /// The last layer's live rows: the target pairs whose loss weight is
    /// non-zero, ascending (a pair's index is its row in the target range).
    live: Vec<usize>,
    /// `concat[t]`: layer `t`'s `[self ; …]` input, one row per node of
    /// `rows(t)`.
    concat: Vec<Matrix>,
    /// `hidden[t]`: layer `t`'s output over the same rows (post-ReLU
    /// except the last).
    hidden: Vec<Matrix>,
    /// `gather[t - 1]`: layer `t ≥ 1`'s live rows, the nodes they read —
    /// the live rows of layer `t - 1` — and the source-keyed transpose of
    /// each aggregate over them, built once per fit.
    gather: Vec<Gather>,
    /// The live rows of the logit gradient, one after the other.
    grad_logits: Matrix,
    /// `input_grad[t % 2]`: the gradient w.r.t. the pre-ReLU output of
    /// layer `t - 1`, one row per live row of that layer, that layer
    /// `t ≥ 1` writes ([`SageLayer::backward_rows`]) and layer `t - 1`
    /// reads. Kept allocated, so an epoch maps and faults in no
    /// node-state-sized matrix.
    input_grad: [Matrix; 2],
}

impl TrainPass {
    /// The nodes layer `t` is evaluated on: the target range for the last
    /// layer, every node below it.
    fn rows(&self, t: usize, n_nodes: usize) -> Range<usize> {
        if t + 1 == self.concat.len() {
            self.target.clone()
        } else {
            0..n_nodes
        }
    }

    /// Layer `t`'s live rows: ascending indices into its concat rows
    /// (target-range offsets for the last layer, node ids below it).
    #[cfg(test)]
    pub(crate) fn live(&self, t: usize) -> &[usize] {
        live_rows(&self.gather, &self.live, t)
    }
}

/// [`TrainPass::live`] over the pass's fields, so the backward can borrow
/// the list beside the buffers it writes.
fn live_rows<'a>(gather: &'a [Gather], live: &'a [usize], t: usize) -> &'a [usize] {
    gather.get(t).map_or(live, Gather::below)
}

/// Per-depth states and final logits of one inductive forward pass over a
/// new pair's local neighbourhood.
#[derive(Debug, Clone)]
pub struct InductiveTrace {
    /// Output of each GNN layer for the new pair's P nodes (`hidden[t]` is
    /// `P × d_t`, post-ReLU except the last, mirroring [`GnnTrace`]).
    pub hidden: Vec<Matrix>,
    /// `P × 2` logits: row `p` is the head applied to the new node of
    /// intent layer `p` (Eq. 5).
    pub logits: Matrix,
}

impl InductiveTrace {
    /// Match likelihood per intent layer (`softmax` second entry).
    pub fn scores(&self) -> Vec<f32> {
        match_probabilities(&self.logits)
    }
}

/// One GNN's part of [`GnnModel::forward_inductive_passes`].
#[derive(Debug, Clone, Copy)]
pub struct BatchPass<'a> {
    /// The frozen GNN.
    pub model: &'a GnnModel,
    /// `deeper[t - 1][q]`: this GNN's pinned states entering layer `t ≥ 1`.
    pub deeper: &'a [Vec<RowSource<'a>>],
    /// The intent layer this GNN's prediction is read from (§4.2): the last
    /// SAGE layer and the head run on its nodes only. `None`: every node.
    pub target: Option<usize>,
}

impl GnnModel {
    /// Builds the network. `hidden_dims` are the per-layer output widths
    /// (the paper's 2-layer setting uses `[h1, h1]`; 3-layer uses
    /// `[h1, h1/2, h1/2]`).
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden_dims: &[usize]) -> Self {
        assert!(!hidden_dims.is_empty(), "at least one GNN layer required");
        let mut layers = Vec::with_capacity(hidden_dims.len());
        let mut in_dim = input_dim;
        for &out_dim in hidden_dims {
            layers.push(SageLayer::new(rng, in_dim, out_dim));
            in_dim = out_dim;
        }
        let head = Linear::new(rng, in_dim, 2);
        let head_pack = PackedB::pack(&head.w);
        Self { layers, head, head_pack }
    }

    /// Reassembles a model from its layers and head (the snapshot-import
    /// path). Panics unless dimensions chain layer-to-layer and into the
    /// head.
    pub fn from_parts(layers: Vec<SageLayer>, head: Linear) -> Self {
        assert!(!layers.is_empty(), "at least one GNN layer required");
        for w in layers.windows(2) {
            assert_eq!(w[0].out_dim(), w[1].in_dim(), "GNN layer dimensions must chain");
        }
        assert_eq!(
            layers.last().expect("non-empty").out_dim(),
            head.in_dim(),
            "head input width must match the final layer"
        );
        let head_pack = PackedB::pack(&head.w);
        Self { layers, head, head_pack }
    }

    /// Head forward through the packed kernels (`out = h · W_head + b`).
    fn head_forward(&self, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        dense_forward_into(h, &self.head, &self.head_pack, false, &mut out);
        out
    }

    /// The GraphSAGE layers in forward order (snapshot export).
    pub fn sage_layers(&self) -> &[SageLayer] {
        &self.layers
    }

    /// The prediction head of Eq. 5 (snapshot export).
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Number of GNN layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass: ReLU between layers, none after the last
    /// (§5.2.1).
    pub fn forward(&self, graph: &MultiplexGraph) -> GnnTrace {
        let mut hidden: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for (t, layer) in self.layers.iter().enumerate() {
            let mut out = layer.forward(graph, hidden.last().unwrap_or(&graph.features));
            if t + 1 < self.layers.len() {
                relu_inplace(&mut out);
            }
            hidden.push(out);
        }
        GnnTrace { hidden }
    }

    /// Starts the training passes of one fit towards `target_layer`'s
    /// loss, whose per-pair sample weights are `loss_weight`: builds every
    /// layer's live rows from the pairs it weighs, sizes the buffers, and
    /// builds the first layer's input, which no parameter enters, once.
    pub fn train_pass(
        &self,
        graph: &MultiplexGraph,
        target_layer: usize,
        loss_weight: &[f32],
    ) -> TrainPass {
        assert!(target_layer < graph.n_layers, "target layer out of range");
        assert_eq!(loss_weight.len(), graph.n_pairs, "one loss weight per pair");
        let n_layers = self.layers.len();
        let target = graph.layer_nodes(target_layer);
        let live: Vec<usize> = (0..graph.n_pairs).filter(|&i| loss_weight[i] != 0.0).collect();
        // Down from the last layer: each gather's `below` is the next
        // layer's live rows.
        let (mut gather, mut rows, mut start) = (Vec::new(), live.clone(), target.start);
        for layer in self.layers[1..].iter().rev() {
            let g = layer.gather(graph, start, rows);
            (rows, start) = (g.below().to_vec(), 0);
            gather.push(g);
        }
        gather.reverse();
        let mut pass = TrainPass {
            target,
            live,
            concat: vec![Matrix::zeros(0, 0); n_layers],
            hidden: vec![Matrix::zeros(0, 0); n_layers],
            gather,
            grad_logits: Matrix::zeros(0, 0),
            input_grad: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
        };
        let rows = pass.rows(0, graph.n_nodes());
        self.layers[0].concat_rows_into(
            &graph.intra,
            &graph.inter,
            &graph.features,
            rows,
            &mut pass.concat[0],
        );
        pass
    }

    /// The forward half of a training pass: the head's logits on the
    /// target layer's pairs — bit for bit
    /// [`GnnModel::intent_logits`] of [`GnnModel::forward`] — leaving in
    /// `pass` what [`GnnModel::train_backward`] needs. Layers below the
    /// last run over every node from the previous layer's states (the
    /// first from the hoisted input); the last runs over the target range.
    pub fn train_forward(&self, graph: &MultiplexGraph, pass: &mut TrainPass) -> Matrix {
        let last = self.layers.len() - 1;
        for (t, layer) in self.layers.iter().enumerate() {
            if t > 0 {
                let rows = pass.rows(t, graph.n_nodes());
                let below = &pass.hidden[t - 1];
                layer.concat_rows_into(
                    &graph.intra,
                    &graph.inter,
                    below,
                    rows,
                    &mut pass.concat[t],
                );
            }
            layer.forward_concat_into(&pass.concat[t], t < last, &mut pass.hidden[t]);
        }
        self.head_forward(&pass.hidden[last])
    }

    /// The backward half of a training pass, given the gradient of the
    /// loss w.r.t. [`GnnModel::train_forward`]'s logits: leaves every
    /// parameter gradient as the whole-graph backward would, and computes
    /// no gradient that is not on the way to one, on live rows only (see
    /// the module docs).
    ///
    /// Panics if a logit-gradient row outside the last layer's live rows
    /// is not `±0.0`: a loss whose weights disagree with the mask the pass
    /// was built with would otherwise train on fewer rows, silently.
    pub fn train_backward(&mut self, pass: &mut TrainPass, grad_logits: &Matrix) {
        let last = self.layers.len() - 1;
        let cols = grad_logits.cols();
        assert_eq!(grad_logits.rows(), pass.target.len(), "one logit-gradient row per pair");
        pass.grad_logits.reset_overwrite(pass.live.len(), cols);
        let mut live =
            pass.live.iter().zip(pass.grad_logits.data_mut().chunks_exact_mut(cols)).peekable();
        for (i, row) in grad_logits.data().chunks_exact(cols).enumerate() {
            match live.next_if(|&(&r, _)| r == i) {
                Some((_, dst)) => dst.copy_from_slice(row),
                None => assert!(
                    row.iter().all(|&g| g == 0.0),
                    "logit gradient of pair {i} is non-zero outside the pass's loss mask"
                ),
            }
        }
        self.head.zero_grad();
        self.head.backward_params(&pass.hidden[last], Some(&pass.live), &pass.grad_logits);
        // Gradient w.r.t. the (pre-ReLU) output rows of the layer being
        // visited, one row per live row: layer `t ≥ 1` differentiates the
        // ReLU below it as it hands the gradient down.
        let head_grad = pass.grad_logits.matmul_transpose_b(&self.head.w);
        for t in (0..=last).rev() {
            let [even, odd] = &mut pass.input_grad;
            let (into, from) = if t % 2 == 0 { (even, &*odd) } else { (odd, &*even) };
            let grad = if t == last { &head_grad } else { from };
            let layer = &mut self.layers[t];
            layer.zero_grad();
            if t == 0 {
                let live = live_rows(&pass.gather, &pass.live, 0);
                layer.backward_params(&pass.concat[0], live, grad);
            } else {
                let (gather, below) = (&pass.gather[t - 1], &pass.hidden[t - 1]);
                layer.backward_rows(gather, &pass.concat[t], grad, below, into);
            }
        }
    }

    /// Per-pair logits of one intent layer (Eq. 5 before softmax): the head
    /// applied to that layer's final hidden states.
    pub fn intent_logits(&self, graph: &MultiplexGraph, trace: &GnnTrace, layer: usize) -> Matrix {
        let rows: Vec<usize> = graph.layer_nodes(layer).collect();
        let h = trace.final_hidden().select_rows(&rows);
        self.head_forward(&h)
    }

    /// Match likelihoods (`softmax` second entry) per pair for one intent.
    pub fn intent_scores(
        &self,
        graph: &MultiplexGraph,
        trace: &GnnTrace,
        layer: usize,
    ) -> Vec<f32> {
        match_probabilities(&self.intent_logits(graph, trace, layer))
    }

    /// Inductive forward pass for one **new** candidate pair against frozen
    /// weights (the serving tier's scoring kernel).
    ///
    /// The new pair contributes one node per intent layer (P nodes). Each
    /// receives from (a) its intra-layer k-NN among *stored* pairs, whose
    /// per-depth states are pinned by the caller, and (b) its own P−1 peer
    /// nodes (inter-layer), which are recomputed here. The evaluation runs
    /// [`CsrGraph::mean_aggregate`] over a local subgraph of
    /// `P + Σ_q k_q` nodes, so its cost is independent of the corpus size.
    ///
    /// `neighbor_inputs[t][q]` holds the layer-`q` intra neighbours' states
    /// *entering* GNN layer `t` (`k_q × d_t`, row order = neighbour rank
    /// order); `new_features` is `P × dim`, row `p` the new pair's
    /// intent-`p` representation.
    pub fn forward_inductive(
        &self,
        new_features: &Matrix,
        neighbor_inputs: &[Vec<Matrix>],
    ) -> InductiveTrace {
        let p_layers = new_features.rows();
        assert!(p_layers > 0, "at least one intent layer required");
        assert_eq!(neighbor_inputs.len(), self.layers.len(), "one neighbour set per GNN layer");
        let counts: Vec<usize> = neighbor_inputs[0].iter().map(|m| m.rows()).collect();
        assert_eq!(counts.len(), p_layers, "one neighbour block per intent layer");
        for (t, per_depth) in neighbor_inputs.iter().enumerate() {
            assert_eq!(per_depth.len(), p_layers, "one neighbour block per intent layer");
            for (q, m) in per_depth.iter().enumerate() {
                assert_eq!(m.rows(), counts[q], "neighbour counts must be fixed across depths");
                assert_eq!(m.cols(), self.layers[t].in_dim(), "pinned state width mismatch");
            }
        }

        // Local ids: 0..P = the new pair's nodes, then one block of pinned
        // neighbour slots per intent layer.
        let mut offsets = vec![p_layers];
        for q in 0..p_layers {
            offsets.push(offsets[q] + counts[q]);
        }
        let n_local = offsets[p_layers];
        let mut intra_lists: Vec<Vec<usize>> = vec![Vec::new(); n_local];
        let mut inter_lists: Vec<Vec<usize>> = vec![Vec::new(); n_local];
        for q in 0..p_layers {
            intra_lists[q] = (offsets[q]..offsets[q] + counts[q]).collect();
            inter_lists[q] = (0..p_layers).filter(|&r| r != q).collect();
        }
        let intra = CsrGraph::from_in_neighbors(&intra_lists);
        let inter = CsrGraph::from_in_neighbors(&inter_lists);

        let mut h = new_features.clone();
        let new_rows: Vec<usize> = (0..p_layers).collect();
        let mut hidden = Vec::with_capacity(self.layers.len());
        for (t, layer) in self.layers.iter().enumerate() {
            let mut parts: Vec<&Matrix> = Vec::with_capacity(1 + p_layers);
            parts.push(&h);
            parts.extend(neighbor_inputs[t].iter());
            let local_h = Matrix::vconcat(&parts);
            let out = layer.forward_states(&intra, &inter, &local_h);
            // Only the new nodes' rows carry meaning: the pinned slots have
            // no in-edges, so their outputs are discarded.
            h = out.select_rows(&new_rows);
            if t + 1 < self.layers.len() {
                relu_inplace(&mut h);
            }
            hidden.push(h.clone());
        }
        let logits = self.head_forward(&h);
        InductiveTrace { hidden, logits }
    }

    /// [`GnnModel::forward_inductive_passes`] for this GNN alone over every
    /// new node: `sources[0]` is its `first`, `sources[1..]` the `deeper`.
    pub fn forward_inductive_batch(
        &self,
        new_features: &Matrix,
        neighbors: &NeighborArena<'_>,
        sources: &[Vec<RowSource<'_>>],
    ) -> BatchInductiveTrace {
        let pass = BatchPass { model: self, deeper: &sources[1..], target: None };
        Self::forward_inductive_passes(new_features, neighbors, &sources[0], &[pass]).remove(0)
    }

    /// Batched inductive forward: scores `B` candidate pairs in one call,
    /// walking their new nodes through each SAGE layer as one blocked
    /// matmul instead of `B` per-candidate small matmuls, through one GNN
    /// per pass, each computing what is read from it — `crate::batch` has
    /// what is shared, what is restricted and why the lower layers are not.
    ///
    /// `features` stacks every candidate's `P × dim` block (row `c·P + q`
    /// is candidate `c`'s intent-layer-`q` representation); `neighbors`
    /// holds the flat per-candidate k-NN id lists; `first[q]` is the
    /// contiguous buffer intra-layer ids resolve against when entering the
    /// first GNN layer (the initial representations, whichever the GNN) and
    /// each pass's `deeper` the owner's pinned arenas below. Rows are
    /// sliced from the sources, never copied into per-candidate gathers.
    ///
    /// Every row evaluated is **bit-identical** to that row of an
    /// independent [`GnnModel::forward_inductive`] call at any thread count
    /// (see `crate::batch`), without its discarded neighbour-slot rows.
    pub fn forward_inductive_passes(
        features: &Matrix,
        neighbors: &NeighborArena<'_>,
        first: &[RowSource<'_>],
        passes: &[BatchPass<'_>],
    ) -> Vec<BatchInductiveTrace> {
        let p_layers = neighbors.p_layers();
        // The first layer's concat, and the rows it is of: every first
        // layer reads `features` and no weight enters it, so a pass that
        // asks for the same rows reuses it.
        let (mut shared, mut shared_for) = (Matrix::zeros(0, 0), None);
        let mut concat = Matrix::zeros(0, 0);
        let run = |pass: &BatchPass<'_>| {
            let layers = &pass.model.layers;
            assert_eq!(pass.deeper.len() + 1, layers.len(), "one source set per GNN layer");
            let last = layers.len() - 1;
            let rows = |t: usize| if t == last { pass.target } else { None };
            let mut concat_rows = 0;
            let wanted = Some(rows(0));
            if shared_for != wanted {
                batch_concat_states(&layers[0], features, neighbors, first, rows(0), &mut shared);
                shared_for = wanted;
                concat_rows += shared.rows();
            }
            let mut hidden: Vec<Matrix> = Vec::with_capacity(layers.len());
            for (t, layer) in layers.iter().enumerate() {
                if t > 0 {
                    let (below, stored) = (&hidden[t - 1], &pass.deeper[t - 1]);
                    batch_concat_states(layer, below, neighbors, stored, rows(t), &mut concat);
                    concat_rows += concat.rows();
                }
                let mut out = Matrix::zeros(0, 0);
                // Bias + inter-layer ReLU fused into the packed matmul's
                // epilogue: one pass over the output instead of three.
                let input = if t == 0 { &shared } else { &concat };
                layer.forward_concat_into(input, t < last, &mut out);
                hidden.push(out);
            }
            let logits = pass.model.head_forward(&hidden[last]);
            BatchInductiveTrace { p_layers, target: pass.target, hidden, logits, concat_rows }
        };
        passes.iter().map(run).collect()
    }

    /// [`GnnModel::forward_inductive`] with neighbour states gathered from
    /// a cached transductive trace: `intra_pairs[q]` lists the new pair's
    /// k-NN *pair indices* within layer `q`, in neighbour rank order.
    #[cfg(test)]
    pub(crate) fn forward_inductive_on(
        &self,
        graph: &MultiplexGraph,
        trace: &GnnTrace,
        new_features: &Matrix,
        intra_pairs: &[Vec<usize>],
    ) -> InductiveTrace {
        assert_eq!(intra_pairs.len(), graph.n_layers, "one k-NN list per intent layer");
        let neighbor_inputs: Vec<Vec<Matrix>> = (0..self.layers.len())
            .map(|t| {
                let full = if t == 0 { &graph.features } else { trace.hidden(t - 1) };
                (0..graph.n_layers)
                    .map(|q| {
                        let rows: Vec<usize> =
                            intra_pairs[q].iter().map(|&i| graph.node_id(q, i)).collect();
                        full.select_rows(&rows)
                    })
                    .collect()
            })
            .collect();
        self.forward_inductive(new_features, &neighbor_inputs)
    }

    /// The whole-graph backward [`GnnModel::train_backward`] replaced, over
    /// a [`GnnModel::forward`] trace — the reference the training pass is
    /// diffed against. Accumulates every parameter gradient, and every
    /// node-state gradient on the way, the leaves' included.
    #[cfg(test)]
    pub(crate) fn backward(
        &mut self,
        graph: &MultiplexGraph,
        trace: &GnnTrace,
        layer: usize,
        grad_logits: &Matrix,
    ) {
        let rows: Vec<usize> = graph.layer_nodes(layer).collect();
        let final_h = trace.final_hidden().select_rows(&rows);
        self.head.zero_grad();
        let d_layer_h = self.head.backward(&final_h, grad_logits);

        // Scatter the head gradient back into the full node-state gradient.
        let n_nodes = graph.n_nodes();
        let dim = trace.final_hidden().cols();
        let mut grad = Matrix::zeros(n_nodes, dim);
        for (local, &node) in rows.iter().enumerate() {
            grad.row_mut(node).copy_from_slice(d_layer_h.row(local));
        }

        for i in (0..self.layers.len()).rev() {
            if i + 1 < self.layers.len() {
                flexer_nn::activation::relu_backward_inplace(&mut grad, trace.hidden(i));
            }
            self.layers[i].zero_grad();
            let input = if i == 0 { &graph.features } else { trace.hidden(i - 1) };
            grad = self.layers[i].backward(graph, input, &grad);
        }
    }

    /// Applies an optimizer to all parameters and refreshes the weight
    /// packs.
    pub fn apply(&mut self, opt: &mut impl Optimizer) {
        let mut slot = 0;
        for layer in &mut self.layers {
            slot += layer.apply(opt, slot);
        }
        self.head.apply(opt, slot);
        self.head_pack.repack(&self.head.w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph() -> MultiplexGraph {
        let features = Matrix::from_fn(8, 4, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.2 - 1.0);
        MultiplexGraph::assemble(
            4,
            2,
            features,
            &[vec![vec![1], vec![0], vec![3], vec![2]], vec![vec![2], vec![3], vec![0], vec![1]]],
        )
    }

    #[test]
    fn forward_shapes_two_and_three_layers() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(0);
        let two = GnnModel::new(&mut rng, 4, &[6, 6]);
        let three = GnnModel::new(&mut rng, 4, &[6, 3, 3]);
        assert_eq!(two.n_layers(), 2);
        assert_eq!(three.n_layers(), 3);
        let t2 = two.forward(&g);
        assert_eq!(t2.final_hidden().rows(), 8);
        assert_eq!(t2.final_hidden().cols(), 6);
        let t3 = three.forward(&g);
        assert_eq!(t3.final_hidden().cols(), 3);
    }

    #[test]
    fn intent_logits_cover_pairs() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let m = GnnModel::new(&mut rng, 4, &[5, 5]);
        let trace = m.forward(&g);
        for layer in 0..2 {
            let logits = m.intent_logits(&g, &trace, layer);
            assert_eq!(logits.rows(), 4);
            assert_eq!(logits.cols(), 2);
            let scores = m.intent_scores(&g, &trace, layer);
            assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        }
    }

    #[test]
    fn layers_see_the_graph() {
        // Changing a neighbour's features changes a node's output even when
        // the node's own features stay fixed.
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let m = GnnModel::new(&mut rng, 4, &[5, 5]);
        let base = m.intent_scores(&g, &m.forward(&g), 0);

        let mut g2 = g.clone();
        // Perturb the features of pair 1 in layer 0 (a neighbour of pair 0).
        let victim = g2.node_id(0, 1);
        for v in g2.features.row_mut(victim) {
            *v += 5.0;
        }
        let changed = m.intent_scores(&g2, &m.forward(&g2), 0);
        assert!((base[0] - changed[0]).abs() > 1e-6, "message passing inert");
    }

    /// Replaying an existing corpus pair through the inductive path — its
    /// own features, its own intra k-NN lists — must be **bit-identical**
    /// to the transductive batch forward: edges are incoming-only and the
    /// replayed copy receives exactly the same pinned states in the same
    /// order. This is the serving tier's correctness anchor.
    #[test]
    fn inductive_replay_is_bit_identical_to_transductive() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(7);
        for dims in [vec![5usize, 5], vec![6, 3, 3]] {
            let m = GnnModel::new(&mut rng, 4, &dims);
            let trace = m.forward(&g);
            for pair in 0..g.n_pairs {
                // The pair's stacked features and per-layer corpus k-NN
                // lists (mapped back to pair-local indices).
                let rows: Vec<usize> = (0..g.n_layers).map(|q| g.node_id(q, pair)).collect();
                let new_features = g.features.select_rows(&rows);
                let intra_pairs: Vec<Vec<usize>> = (0..g.n_layers)
                    .map(|q| {
                        g.intra
                            .in_neighbors(g.node_id(q, pair))
                            .iter()
                            .map(|&u| u as usize % g.n_pairs)
                            .collect()
                    })
                    .collect();
                let inductive = m.forward_inductive_on(&g, &trace, &new_features, &intra_pairs);
                for q in 0..g.n_layers {
                    let batch = m.intent_logits(&g, &trace, q);
                    assert_eq!(
                        inductive.logits.row(q),
                        batch.row(pair),
                        "pair {pair}, layer {q}, dims {dims:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn inductive_scores_are_probabilities() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let m = GnnModel::new(&mut rng, 4, &[5, 5]);
        let trace = m.forward(&g);
        let new_features = Matrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.1 - 0.2);
        let intra_pairs = vec![vec![0, 2], vec![1]];
        let out = m.forward_inductive_on(&g, &trace, &new_features, &intra_pairs);
        let scores = out.scores();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s) && s.is_finite()));
        assert_eq!(out.hidden.len(), 2);
        assert_eq!(out.hidden[1].rows(), 2);
    }

    #[test]
    fn from_parts_roundtrips_model() {
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(11);
        let m = GnnModel::new(&mut rng, 4, &[5, 5]);
        let rebuilt = GnnModel::from_parts(m.sage_layers().to_vec(), m.head().clone());
        let a = m.forward(&g);
        let b = rebuilt.forward(&g);
        assert_eq!(a.final_hidden(), b.final_hidden());
        assert_eq!(m.intent_logits(&g, &a, 0), rebuilt.intent_logits(&g, &b, 0));
    }

    #[test]
    #[should_panic(expected = "head input width must match")]
    fn from_parts_checks_head_width() {
        let mut rng = StdRng::seed_from_u64(12);
        let layer = SageLayer::new(&mut rng, 4, 5);
        let head = Linear::new(&mut rng, 7, 2);
        let _ = GnnModel::from_parts(vec![layer], head);
    }

    /// Loss gradient check through the full network.
    #[test]
    fn backward_matches_finite_difference_on_features() {
        use flexer_nn::loss::softmax_cross_entropy;
        let g = toy_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = GnnModel::new(&mut rng, 4, &[5, 5]);
        let targets = [1usize, 0, 1, 0];
        // Analytic gradients for the head (cheap proxy: verify loss drops
        // after a few SGD steps — full FD across graph features is done in
        // sage.rs).
        let mut opt = flexer_nn::Sgd::new(0.1);
        let mut losses = Vec::new();
        for _ in 0..25 {
            let trace = m.forward(&g);
            let logits = m.intent_logits(&g, &trace, 0);
            let (loss, grad) = softmax_cross_entropy(&logits, &targets, None);
            losses.push(loss);
            m.backward(&g, &trace, 0, &grad);
            opt.begin_step();
            m.apply(&mut opt);
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.8), "loss did not decrease: {losses:?}");
    }
}
