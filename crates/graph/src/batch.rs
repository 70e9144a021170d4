//! Data-oriented batched inputs for the inductive forward pass.
//!
//! The serving tier's record-resolution path scores a whole blocked
//! candidate set at once. Instead of one `Vec<Vec<Matrix>>` gather per
//! candidate (the [`GnnModel::forward_inductive`] calling convention),
//! the batched path works on three flat, contiguous views:
//!
//! * [`RowSource`] — a borrowed row-major buffer of pinned states keyed by
//!   dense u32 ids. Rows are *sliced*, never copied, out of the owner's
//!   arena (the ANN index data at depth 0, the serve tier's pinned arenas
//!   below).
//! * [`NeighborArena`] — every candidate's per-intent-layer neighbour ids
//!   as one flat id buffer plus `B·P + 1` offsets.
//! * [`BatchInductiveTrace`] — one GNN's per-depth states of all
//!   candidates, one matrix per layer, plus its logit block.
//!
//! # What a pass computes
//!
//! FlexER trains one GNN per intent and reads intent `p`'s prediction from
//! its layer-`p` node only (§4.2), so a batch goes through up to P GNNs in
//! one call ([`GnnModel::forward_inductive_passes`]), and:
//!
//! * **The first layer's concat is shared.** `[self ; intra ; inter]` of
//!   the new nodes is a function of the stacked features, the neighbour
//!   arena and the depth-0 stored rows. No weight enters it, so the GNNs
//!   whose first layer is not also their last build it once.
//! * **The last layer is restricted.** Under a target intent layer `p` the
//!   last SAGE layer and the head run on row `c·P + p` of each candidate
//!   only: `B` concat, GEMM and logit rows, not `B·P`. (A one-layer GNN's
//!   first layer is its last: target rows, nothing shared.)
//! * **The layers below the last stay whole**: a node's inter-layer
//!   aggregate reads its P − 1 peers one layer down, and ingest pins every
//!   new node's state entering each deeper layer.
//!
//! Bit-identity: each output row of every stage is produced by exactly the
//! serial kernel the per-candidate path runs — mean aggregation replays
//! [`CsrGraph::mean_aggregate`](crate::CsrGraph::mean_aggregate)'s
//! accumulation order (intra neighbours in rank order, inter peers in
//! ascending layer order), and the per-layer matmul computes each row
//! independently — so every evaluated row equals the per-candidate pass's
//! to the bit at any thread count, batch composition and row restriction.
//!
//! [`GnnModel::forward_inductive`]: crate::GnnModel::forward_inductive
//! [`GnnModel::forward_inductive_passes`]: crate::GnnModel::forward_inductive_passes

use crate::sage::SageLayer;
use flexer_nn::activation::match_probability;
use flexer_nn::Matrix;

/// Below this many written f32s the row-blocked aggregation stays on the
/// calling thread; mirrors the matmul fan-out heuristic one level up.
const PAR_MIN_ELEMS: usize = 1 << 14;

/// A borrowed contiguous row-major buffer of per-id states: row `id` is
/// `data[id*dim .. (id+1)*dim]`. The zero-copy view the batched inductive
/// pass gathers neighbour states through.
#[derive(Debug, Clone, Copy)]
pub struct RowSource<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> RowSource<'a> {
    /// Wraps a flat buffer; panics unless it holds whole `dim`-wide rows.
    pub fn new(data: &'a [f32], dim: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer must hold whole rows");
        Self { data, dim }
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of addressable rows.
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The state row of dense id `id`.
    #[inline]
    pub fn row(&self, id: usize) -> &'a [f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }
}

/// Flat neighbour-gather arena of one candidate batch: `ids` concatenates
/// every candidate's per-intent-layer k-NN id lists (candidate-major,
/// layer-minor, each list in neighbour rank order); `offsets[c*P + q]` is
/// where candidate `c`'s layer-`q` list starts, with a trailing
/// `ids.len()` sentinel.
#[derive(Debug, Clone, Copy)]
pub struct NeighborArena<'a> {
    ids: &'a [u32],
    offsets: &'a [usize],
    p_layers: usize,
}

impl<'a> NeighborArena<'a> {
    /// Wraps flat id/offset buffers; panics on malformed offsets.
    pub fn new(ids: &'a [u32], offsets: &'a [usize], p_layers: usize) -> Self {
        assert!(p_layers > 0, "at least one intent layer required");
        assert!(!offsets.is_empty(), "offsets must hold the leading 0");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(*offsets.last().unwrap(), ids.len(), "offsets must end at ids.len()");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        assert_eq!((offsets.len() - 1) % p_layers, 0, "P lists per candidate required");
        Self { ids, offsets, p_layers }
    }

    /// Number of intent layers `P`.
    pub fn p_layers(&self) -> usize {
        self.p_layers
    }

    /// Number of candidates `B`.
    pub fn n_candidates(&self) -> usize {
        (self.offsets.len() - 1) / self.p_layers
    }

    /// Candidate `c`'s layer-`q` neighbour ids, in rank order.
    #[inline]
    pub fn neighbors(&self, candidate: usize, q: usize) -> &'a [u32] {
        let slot = candidate * self.p_layers + q;
        &self.ids[self.offsets[slot]..self.offsets[slot + 1]]
    }
}

/// Per-depth states and final logits of one GNN's **batched** inductive
/// forward: candidate `c`'s intent-layer-`q` node occupies row `c·P + q` —
/// under a `target`, row `c` of the last layer's output and the logits.
#[derive(Debug, Clone)]
pub struct BatchInductiveTrace {
    /// Number of intent layers `P`.
    pub p_layers: usize,
    /// The intent layer the last GNN layer and the head ran on; `None`: all.
    pub target: Option<usize>,
    /// Output of each GNN layer, post-ReLU except the last (mirroring
    /// [`InductiveTrace`](crate::InductiveTrace)).
    pub hidden: Vec<Matrix>,
    /// Logits of the prediction head over the last layer's rows.
    pub logits: Matrix,
    /// `[self ; aggregates]` rows this pass built (a first-layer concat
    /// taken over from an earlier pass of the call counts there).
    pub concat_rows: usize,
}

impl BatchInductiveTrace {
    /// Number of candidates in the batch.
    pub fn n_candidates(&self) -> usize {
        self.logits.rows() / if self.target.is_some() { 1 } else { self.p_layers }
    }

    /// Row of a candidate's layer-`q` node in layer `t`'s output (the last
    /// `t`: and the logits); panics if the pass did not evaluate that node.
    fn row_of(&self, t: usize, candidate: usize, q: usize) -> usize {
        assert!(q < self.p_layers, "intent layer {q} out of range ({} layers)", self.p_layers);
        match self.target {
            Some(target) if t + 1 == self.hidden.len() => {
                assert_eq!(q, target, "this pass evaluated intent layer {target} only");
                candidate
            }
            _ => candidate * self.p_layers + q,
        }
    }

    /// Match likelihood of candidate `candidate` under intent layer
    /// `intent` — bit-identical to
    /// [`InductiveTrace::scores`](crate::InductiveTrace::scores)`[intent]`
    /// of the per-candidate pass (same per-row softmax arithmetic).
    pub fn score(&self, candidate: usize, intent: usize) -> f32 {
        match_probability(self.logits.row(self.row_of(self.hidden.len() - 1, candidate, intent)))
    }

    /// The depth-`t` state of candidate `candidate`'s intent-layer-`q`
    /// node — the row the serving tier pins on ingest.
    #[inline]
    pub fn candidate_hidden(&self, t: usize, candidate: usize, q: usize) -> &[f32] {
        self.hidden[t].row(self.row_of(t, candidate, q))
    }
}

/// Builds one layer's `[self ; intra ; inter]` concat rows for the whole
/// batch (row `c·P + q`), or for a `target` layer's nodes only (row `c`),
/// writing into `out` (reshaped, allocation reused).
///
/// A row replays exactly what the per-candidate local subgraph produces
/// for the new node of intent layer `q`: the node's own state,
/// then the mean over its pinned intra-layer neighbours (gathered from
/// `sources[q]` in rank order), then the mean over its P−1 peer nodes in
/// ascending layer order. Rows are independent, so the fan-out splits
/// them into contiguous blocks each computed by the serial kernel
/// (bit-identical at any thread count).
pub(crate) fn batch_concat_states(
    layer: &SageLayer,
    input: &Matrix,
    neighbors: &NeighborArena,
    sources: &[RowSource],
    target: Option<usize>,
    out: &mut Matrix,
) {
    let d = layer.in_dim();
    let p = neighbors.p_layers();
    let b = neighbors.n_candidates();
    assert_eq!(input.rows(), b * p, "one input row per (candidate, layer)");
    assert_eq!(input.cols(), d, "input width must match the layer");
    assert_eq!(sources.len(), p, "one pinned-state source per intent layer");
    assert!(target.iter().all(|&q| q < p), "target intent layer out of range");
    for s in sources {
        assert_eq!(s.dim(), d, "pinned state width mismatch");
    }
    // Every element of every row is stored below (the copy, the fills, and
    // the accumulations cover the full `3 * d` width), so the reshape
    // skips the full-matrix zeroing memset — at serving batch sizes that
    // pass re-touches megabytes per forward for no reason. Accumulation
    // starts from an explicit `fill(0.0)` in the same element order as the
    // zeroed-matrix path, so results are bit-identical.
    let per = if target.is_some() { 1 } else { p };
    out.reset_overwrite(b * per, 3 * d);
    let kernel = |r: usize, row: &mut [f32]| {
        let (c, q) = (r / per, target.unwrap_or(r % p));
        row[..d].copy_from_slice(input.row(c * p + q));
        let ids = neighbors.neighbors(c, q);
        let src = &sources[q];
        let (intra, inter) = row[d..].split_at_mut(d);
        intra.fill(0.0);
        if !ids.is_empty() {
            let inv = 1.0 / ids.len() as f32;
            for &id in ids {
                for (o, &x) in intra.iter_mut().zip(src.row(id as usize)) {
                    *o += x * inv;
                }
            }
        }
        inter.fill(0.0);
        if p > 1 {
            let inv = 1.0 / (p - 1) as f32;
            for q2 in 0..p {
                if q2 == q {
                    continue;
                }
                for (o, &x) in inter.iter_mut().zip(input.row(c * p + q2)) {
                    *o += x * inv;
                }
            }
        }
    };
    if out.data().len() >= PAR_MIN_ELEMS {
        flexer_par::for_each_row_mut(out.data_mut(), 3 * d, kernel);
    } else {
        for (r, row) in out.data_mut().chunks_mut(3 * d).enumerate() {
            kernel(r, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_source_slices_rows() {
        let buf = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let s = RowSource::new(&buf, 3);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn row_source_rejects_ragged_buffer() {
        let buf = [1.0f32, 2.0, 3.0];
        let _ = RowSource::new(&buf, 2);
    }

    #[test]
    fn neighbor_arena_addresses_lists() {
        // 2 candidates × 2 layers: [3], [], [7, 8], [9].
        let ids = [3u32, 7, 8, 9];
        let offsets = [0usize, 1, 1, 3, 4];
        let a = NeighborArena::new(&ids, &offsets, 2);
        assert_eq!(a.n_candidates(), 2);
        assert_eq!(a.neighbors(0, 0), &[3]);
        assert_eq!(a.neighbors(0, 1), &[] as &[u32]);
        assert_eq!(a.neighbors(1, 0), &[7, 8]);
        assert_eq!(a.neighbors(1, 1), &[9]);
    }

    #[test]
    #[should_panic(expected = "P lists per candidate")]
    fn neighbor_arena_rejects_partial_candidate() {
        let ids = [0u32];
        let offsets = [0usize, 1, 1];
        let _ = NeighborArena::new(&ids, &offsets, 3);
    }
}
