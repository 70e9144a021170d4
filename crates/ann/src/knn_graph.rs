//! Directed k-NN edge lists for the multiplex graph's intra-layer edges
//! (§4.1.3): every node receives incoming edges from its `k` nearest
//! neighbours, self excluded, computed once over the initial representation
//! and fixed thereafter.

use crate::VectorIndex;

/// For each of the `n` stored vectors of `index`, returns the ids of its
/// `k` nearest *other* vectors (ascending by distance). `k` is clamped to
/// `n − 1`. Edges are directional: `j ∈ out[i]` does not imply
/// `i ∈ out[j]` — matching the paper's note that intra-layer edges are not
/// symmetric.
///
/// Every stored vector is a query of one [`VectorIndex::search_batch`], so
/// the nodes go through the index's query-grouped sweep and fan out across
/// the `flexer-par` thread budget; a query's result does not depend on its
/// group, so the edge lists are identical at any thread count.
pub fn knn_graph<I: VectorIndex + StoredVectors>(index: &I, k: usize) -> Vec<Vec<usize>> {
    let n = index.len();
    let k = k.min(n.saturating_sub(1));
    if k == 0 {
        return vec![Vec::new(); n];
    }
    let nodes: Vec<&[f32]> = (0..n).map(|i| index.stored(i)).collect();
    // Ask for k+1 to absorb the self hit, then drop it.
    let hits = index.search_batch(&nodes, k + 1);
    hits.into_iter()
        .enumerate()
        .map(|(i, hits)| hits.into_iter().map(|h| h.id).filter(|&id| id != i).take(k).collect())
        .collect()
}

/// Indexes that expose their stored vectors (needed to query each point
/// against the rest).
pub trait StoredVectors {
    /// Stored vector by id.
    fn stored(&self, id: usize) -> &[f32];
}

impl StoredVectors for crate::flat::FlatIndex {
    fn stored(&self, id: usize) -> &[f32] {
        self.vector(id)
    }
}

impl StoredVectors for crate::AnyIndex {
    fn stored(&self, id: usize) -> &[f32] {
        self.vector(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn line_index(n: usize) -> FlatIndex {
        let mut idx = FlatIndex::new(1);
        for i in 0..n {
            idx.add(&[i as f32]);
        }
        idx
    }

    #[test]
    fn excludes_self_and_respects_k() {
        let idx = line_index(6);
        let g = knn_graph(&idx, 2);
        assert_eq!(g.len(), 6);
        for (i, nbrs) in g.iter().enumerate() {
            assert_eq!(nbrs.len(), 2);
            assert!(!nbrs.contains(&i));
        }
        // Node 0's nearest others are 1 then 2.
        assert_eq!(g[0], vec![1, 2]);
        // Node 3's nearest others are 2 and 4 (tie broken by id).
        assert_eq!(g[3], vec![2, 4]);
    }

    #[test]
    fn k_zero_gives_no_edges() {
        let idx = line_index(4);
        let g = knn_graph(&idx, 0);
        assert!(g.iter().all(|n| n.is_empty()));
    }

    #[test]
    fn k_clamped_to_n_minus_one() {
        let idx = line_index(3);
        let g = knn_graph(&idx, 10);
        for nbrs in &g {
            assert_eq!(nbrs.len(), 2);
        }
    }

    #[test]
    fn directionality_possible() {
        // 0 and 1 are close; 2 is far but its nearest neighbours include 1.
        let mut idx = FlatIndex::new(1);
        idx.add(&[0.0]);
        idx.add(&[1.0]);
        idx.add(&[100.0]);
        let g = knn_graph(&idx, 1);
        assert_eq!(g[2], vec![1]); // 2 → 1
        assert_eq!(g[1], vec![0]); // but 1 → 0, not 1 → 2
    }

    #[test]
    fn single_node_graph() {
        let idx = line_index(1);
        let g = knn_graph(&idx, 5);
        assert_eq!(g, vec![Vec::<usize>::new()]);
    }
}
