//! A dense multi-layer perceptron with ReLU between layers, manual
//! backprop, and access to the penultimate activation (the pair-embedding
//! analogue of DITTO's `[cls]` vector).

use crate::activation::relu_backward_inplace;
use crate::kernels::{dense_forward_into, PackedB};
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::optim::Optimizer;
use rand::Rng;

/// MLP shape: `input_dim → hidden[0] → … → hidden[last] → output_dim`,
/// ReLU after every layer except the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths (may be empty for a linear model).
    pub hidden: Vec<usize>,
    /// Output dimension (e.g. 2 logits for binary matching).
    pub output_dim: usize,
}

/// The MLP itself. Each layer's weight matrix is kept packed
/// ([`PackedB`]) for the blocked forward kernels; packs are rebuilt
/// whenever [`Mlp::apply`] updates the weights.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    packs: Vec<PackedB>,
}

/// All per-layer activations of one forward pass; `post[0]` is the input,
/// `post[i]` the (post-ReLU, or raw for the last layer) output of layer `i`.
#[derive(Debug, Clone)]
pub struct MlpTrace {
    post: Vec<Matrix>,
}

impl MlpTrace {
    /// Final output (logits).
    pub fn output(&self) -> &Matrix {
        self.post.last().expect("trace always has the input")
    }

    /// Penultimate activation — the embedding layer. For a network with no
    /// hidden layers this is the input itself.
    pub fn embedding(&self) -> &Matrix {
        &self.post[self.post.len() - 2]
    }
}

impl Mlp {
    /// Builds an MLP with Xavier initialization.
    pub fn new(rng: &mut impl Rng, config: &MlpConfig) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.output_dim);
        let layers: Vec<Linear> = dims.windows(2).map(|w| Linear::new(rng, w[0], w[1])).collect();
        let packs = layers.iter().map(|l| PackedB::pack(&l.w)).collect();
        Self { layers, packs }
    }

    /// Reassembles an MLP from its layers (the snapshot-import path).
    /// Panics unless consecutive layer dimensions chain.
    pub fn from_layers(layers: Vec<Linear>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].out_dim(), w[1].in_dim(), "layer dimensions must chain");
        }
        let packs = layers.iter().map(|l| PackedB::pack(&l.w)).collect();
        Self { layers, packs }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer accessor (for inspection in tests and ablations).
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    /// All layers in forward order (the snapshot-export path).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass keeping every activation for backprop.
    pub fn forward_trace(&self, x: &Matrix) -> MlpTrace {
        let mut post = Vec::with_capacity(self.layers.len() + 1);
        post.push(x.clone());
        for (i, (layer, pack)) in self.layers.iter().zip(&self.packs).enumerate() {
            let mut y = Matrix::zeros(0, 0);
            let relu = i + 1 < self.layers.len();
            dense_forward_into(post.last().expect("non-empty"), layer, pack, relu, &mut y);
            post.push(y);
        }
        MlpTrace { post }
    }

    /// Inference-only forward pass returning logits.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_trace(x).output().clone()
    }

    /// Batched inference up to the embedding layer: every layer but the
    /// output one (the input itself for a network with no hidden layers).
    /// Rows are split into one contiguous block per available thread and
    /// each block runs the layer stack independently — a single fan-out
    /// for the network instead of one per matmul. Every row is produced by
    /// the serial kernels, so the result is bit-identical to
    /// [`MlpTrace::embedding`] at any thread count.
    pub fn embed_batch(&self, x: &Matrix) -> Matrix {
        let rows = x.rows();
        let blocks = flexer_par::max_threads().min(rows.max(1));
        if blocks <= 1 {
            return self.embed_rows(x);
        }
        let per = rows.div_ceil(blocks);
        let parts = flexer_par::parallel_map(rows.div_ceil(per), |b| {
            let (r0, r1) = (b * per, ((b + 1) * per).min(rows));
            let sub = Matrix::from_vec(
                r1 - r0,
                x.cols(),
                x.data()[r0 * x.cols()..r1 * x.cols()].to_vec(),
            );
            self.embed_rows(&sub)
        });
        // Blocks are contiguous row ranges in order, so stitching is a
        // flat concatenation.
        let cols = parts[0].cols();
        let mut data = Vec::with_capacity(rows * cols);
        for part in parts {
            data.extend_from_slice(part.data());
        }
        Matrix::from_vec(rows, cols, data)
    }

    fn embed_rows(&self, x: &Matrix) -> Matrix {
        let hidden = self.layers.len() - 1;
        let mut post: Option<Matrix> = None;
        for (layer, pack) in self.layers[..hidden].iter().zip(&self.packs) {
            let mut y = Matrix::zeros(0, 0);
            dense_forward_into(post.as_ref().unwrap_or(x), layer, pack, true, &mut y);
            post = Some(y);
        }
        post.unwrap_or_else(|| x.clone())
    }

    /// The output layer over [`embed_batch`](Self::embed_batch)'s
    /// embeddings: bit-identical to [`MlpTrace::output`].
    pub fn logits(&self, embedding: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut y = Matrix::zeros(0, 0);
        dense_forward_into(embedding, &self.layers[last], &self.packs[last], false, &mut y);
        y
    }

    /// Backward pass from `d loss / d logits`; accumulates layer gradients
    /// and returns `d loss / d input`.
    pub fn backward(&mut self, trace: &MlpTrace, grad_logits: &Matrix) -> Matrix {
        let mut grad = grad_logits.clone();
        for i in (0..self.layers.len()).rev() {
            if i + 1 < self.layers.len() {
                // Undo the ReLU applied to this layer's output.
                relu_backward_inplace(&mut grad, &trace.post[i + 1]);
            }
            grad = self.layers[i].backward(&trace.post[i], &grad);
        }
        grad
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Applies an optimizer to every layer and refreshes the weight
    /// packs; returns slots consumed.
    pub fn apply(&mut self, opt: &mut impl Optimizer, slot_base: usize) -> usize {
        let mut used = 0;
        for (l, pack) in self.layers.iter_mut().zip(&mut self.packs) {
            used += l.apply(opt, slot_base + used);
            pack.repack(&l.w);
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::{Adam, AdamConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = vec![0usize, 1, 1, 0];
        (x, y)
    }

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp =
            Mlp::new(&mut rng, &MlpConfig { input_dim: 5, hidden: vec![8, 3], output_dim: 2 });
        assert_eq!(mlp.n_layers(), 3);
        let x = Matrix::zeros(7, 5);
        let trace = mlp.forward_trace(&x);
        assert_eq!(trace.output().cols(), 2);
        assert_eq!(trace.embedding().cols(), 3);
        assert_eq!(trace.output().rows(), 7);
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp =
            Mlp::new(&mut rng, &MlpConfig { input_dim: 2, hidden: vec![8], output_dim: 2 });
        let (x, y) = xor_data();
        let mut opt = Adam::new(AdamConfig { lr: 0.05, ..Default::default() });
        for _ in 0..400 {
            let trace = mlp.forward_trace(&x);
            let (_, grad) = softmax_cross_entropy(trace.output(), &y, None);
            mlp.zero_grad();
            let _ = mlp.backward(&trace, &grad);
            opt.begin_step();
            mlp.apply(&mut opt, 0);
        }
        let out = mlp.forward(&x);
        for (i, &target) in y.iter().enumerate() {
            let pred = if out.get(i, 1) > out.get(i, 0) { 1 } else { 0 };
            assert_eq!(pred, target, "row {i}");
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp =
            Mlp::new(&mut rng, &MlpConfig { input_dim: 3, hidden: vec![4], output_dim: 2 });
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.9, -1.1, 0.3, 0.7]);
        let y = [0usize, 1];
        let trace = mlp.forward_trace(&x);
        let (_, grad_logits) = softmax_cross_entropy(trace.output(), &y, None);
        let dx = mlp.backward(&trace, &grad_logits);
        let loss_of = |x: &Matrix| {
            let t = mlp.forward_trace(x);
            softmax_cross_entropy(t.output(), &y, None).0
        };
        let eps = 1e-2;
        for i in 0..2 {
            for j in 0..3 {
                let mut xp = x.clone();
                xp.set(i, j, xp.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, xm.get(i, j) - eps);
                let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
                assert!(
                    (num - dx.get(i, j)).abs() < 2e-2,
                    "dX[{i},{j}]: {num} vs {}",
                    dx.get(i, j)
                );
            }
        }
    }

    #[test]
    fn linear_model_embedding_is_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&mut rng, &MlpConfig { input_dim: 3, hidden: vec![], output_dim: 2 });
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let trace = mlp.forward_trace(&x);
        assert_eq!(trace.embedding(), &x);
    }

    #[test]
    fn from_layers_roundtrips_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut rng, &MlpConfig { input_dim: 4, hidden: vec![6], output_dim: 2 });
        let rebuilt = Mlp::from_layers(mlp.layers().to_vec());
        let x = Matrix::from_fn(5, 4, |i, j| (i * 4 + j) as f32 * 0.05);
        assert_eq!(mlp.forward(&x), rebuilt.forward(&x));
    }

    #[test]
    #[should_panic(expected = "layer dimensions must chain")]
    fn from_layers_checks_dims() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Linear::new(&mut rng, 3, 4);
        let b = Linear::new(&mut rng, 5, 2);
        let _ = Mlp::from_layers(vec![a, b]);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MlpConfig { input_dim: 4, hidden: vec![5], output_dim: 2 };
        let a = Mlp::new(&mut StdRng::seed_from_u64(9), &cfg);
        let b = Mlp::new(&mut StdRng::seed_from_u64(9), &cfg);
        let x = Matrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.1);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn embed_batch_and_logits_bit_identical_to_trace_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(17);
        let mlp =
            Mlp::new(&mut rng, &MlpConfig { input_dim: 6, hidden: vec![9, 4], output_dim: 2 });
        let x = Matrix::from_fn(37, 6, |i, j| ((i * 7 + j * 3) % 13) as f32 * 0.17 - 1.0);
        let trace = mlp.forward_trace(&x);
        for threads in [1usize, 2, 3, 8] {
            let emb = flexer_par::with_threads(threads, || mlp.embed_batch(&x));
            assert_eq!(&emb, trace.embedding(), "embedding, {threads} threads");
            assert_eq!(&mlp.logits(&emb), trace.output(), "logits, {threads} threads");
        }
    }
}
