//! The multiplex intents graph (§4.1).
//!
//! Nodes: one per (candidate pair, intent layer); node `(p, i)` has global
//! id `p · |C| + i`. The graph carries two relation types with separate
//! adjacencies:
//!
//! * **intra-layer** (§4.1.3): node `(p, i)` receives from its `k` nearest
//!   neighbours within layer `p` (directional, fixed once from the initial
//!   representation) — `|C| · P · k` edges;
//! * **inter-layer** (§4.1.2): node `(p, i)` receives from its peers
//!   `(q, i)` for every `q ≠ p` — `|C| · P · (P−1)` edges.

use crate::csr::CsrGraph;
use flexer_nn::Matrix;

/// The multiplex graph plus the stacked initial node features.
#[derive(Debug, Clone)]
pub struct MultiplexGraph {
    /// Number of candidate pairs `|C|`.
    pub n_pairs: usize,
    /// Number of intent layers `P`.
    pub n_layers: usize,
    /// Feature dimension of the initial representations.
    pub dim: usize,
    /// Stacked node features: row `p · n_pairs + i` is the intent-`p`
    /// representation of pair `i`.
    pub features: Matrix,
    /// Intra-layer (k-NN) adjacency.
    pub intra: CsrGraph,
    /// Inter-layer (peer) adjacency.
    pub inter: CsrGraph,
}

impl MultiplexGraph {
    /// Global node id of pair `i` in layer `p`.
    #[inline]
    pub fn node_id(&self, layer: usize, pair: usize) -> usize {
        debug_assert!(layer < self.n_layers && pair < self.n_pairs);
        layer * self.n_pairs + pair
    }

    /// Total node count `|C| · P`.
    pub fn n_nodes(&self) -> usize {
        self.n_pairs * self.n_layers
    }

    /// Node ids of one layer, in pair order.
    pub fn layer_nodes(&self, layer: usize) -> std::ops::Range<usize> {
        layer * self.n_pairs..(layer + 1) * self.n_pairs
    }

    /// Assembles the graph from per-layer k-NN neighbour lists (pair-local
    /// indices) and stacked features.
    pub fn assemble(
        n_pairs: usize,
        n_layers: usize,
        features: Matrix,
        knn_per_layer: &[Vec<Vec<usize>>],
    ) -> Self {
        assert_eq!(features.rows(), n_pairs * n_layers, "feature row count mismatch");
        assert_eq!(knn_per_layer.len(), n_layers, "one k-NN list per layer required");
        let dim = features.cols();
        let n_nodes = n_pairs * n_layers;

        let mut intra_lists: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        for (p, layer_knn) in knn_per_layer.iter().enumerate() {
            assert_eq!(layer_knn.len(), n_pairs, "k-NN list must cover every pair");
            for (i, neighbors) in layer_knn.iter().enumerate() {
                let v = p * n_pairs + i;
                intra_lists[v] = neighbors.iter().map(|&u| p * n_pairs + u).collect();
            }
        }
        let mut inter_lists: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
        for p in 0..n_layers {
            for i in 0..n_pairs {
                let v = p * n_pairs + i;
                inter_lists[v] =
                    (0..n_layers).filter(|&q| q != p).map(|q| q * n_pairs + i).collect();
            }
        }
        Self {
            n_pairs,
            n_layers,
            dim,
            features,
            intra: CsrGraph::from_in_neighbors(&intra_lists),
            inter: CsrGraph::from_in_neighbors(&inter_lists),
        }
    }

    /// Number of intra-layer edges (`|C| · P · k` when every node has `k`
    /// neighbours).
    pub fn n_intra_edges(&self) -> usize {
        self.intra.n_edges()
    }

    /// Number of inter-layer edges (`|C| · P · (P−1)`).
    pub fn n_inter_edges(&self) -> usize {
        self.inter.n_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> MultiplexGraph {
        // 3 pairs × 2 layers; layer 0 kNN: 0↔1 chain; layer 1: all → pair 0.
        let features = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f32);
        MultiplexGraph::assemble(
            3,
            2,
            features,
            &[vec![vec![1], vec![0], vec![1]], vec![vec![], vec![0], vec![0]]],
        )
    }

    #[test]
    fn node_count_is_pairs_times_layers() {
        let g = toy();
        assert_eq!(g.n_nodes(), 6);
        assert_eq!(g.node_id(1, 2), 5);
        assert_eq!(g.layer_nodes(1), 3..6);
    }

    #[test]
    fn inter_edges_connect_peers_across_all_layers() {
        let g = toy();
        // |C|·P·(P−1) = 3·2·1 = 6.
        assert_eq!(g.n_inter_edges(), 6);
        let peers = g.inter.in_neighbors(g.node_id(0, 2));
        assert_eq!(peers, &[g.node_id(1, 2) as u32]);
    }

    #[test]
    fn intra_edges_stay_within_layer() {
        let g = toy();
        assert_eq!(g.n_intra_edges(), 5);
        for v in 0..g.n_nodes() {
            let layer = v / g.n_pairs;
            for &u in g.intra.in_neighbors(v) {
                assert_eq!(u as usize / g.n_pairs, layer, "intra edge crossed layers");
            }
        }
    }

    #[test]
    fn directionality_preserved() {
        let g = toy();
        // Layer 1: node (1,1) receives from (1,0) but (1,0) receives nothing.
        assert!(g.intra.in_neighbors(g.node_id(1, 0)).is_empty());
        assert_eq!(g.intra.in_neighbors(g.node_id(1, 1)), &[g.node_id(1, 0) as u32]);
    }

    #[test]
    #[should_panic(expected = "feature row count mismatch")]
    fn feature_shape_checked() {
        let features = Matrix::zeros(5, 2);
        let _ = MultiplexGraph::assemble(3, 2, features, &[vec![vec![]; 3], vec![vec![]; 3]]);
    }

    #[test]
    fn single_layer_graph_has_no_inter_edges() {
        let features = Matrix::zeros(4, 2);
        let g =
            MultiplexGraph::assemble(4, 1, features, &[vec![vec![], vec![0], vec![1], vec![2]]]);
        assert_eq!(g.n_inter_edges(), 0);
        assert_eq!(g.n_intra_edges(), 3);
    }
}
