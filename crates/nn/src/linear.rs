//! Fully connected layer with manual backprop, supporting dense and sparse
//! (CSR) inputs.

use crate::init::xavier_uniform;
use crate::kernels::matmul_transpose_a_acc;
use crate::matrix::Matrix;
use crate::optim::Optimizer;
use crate::sparse::SparseMatrix;
use rand::Rng;

/// `y = x·W + b` with accumulated gradients.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `[in, out]`.
    pub w: Matrix,
    /// Bias, `[out]`.
    pub b: Vec<f32>,
    /// Accumulated weight gradient.
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    pub grad_b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: xavier_uniform(rng, in_dim, out_dim),
            b: vec![0.0; out_dim],
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass for a dense batch `[n, in] → [n, out]`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] written into a caller-owned output (resized,
    /// allocation reused) — the blocked-batch entry for hot serving paths
    /// that walk many batches through the same layer. Bit-identical to
    /// `forward` at any thread count.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
    }

    /// Forward pass for a sparse batch.
    pub fn forward_sparse(&self, x: &SparseMatrix) -> Matrix {
        let mut y = x.matmul_dense(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: accumulates `grad_w`/`grad_b` from the batch and
    /// returns the gradient w.r.t. the input.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.backward_params(x, None, grad_out);
        grad_out.matmul_transpose_b(&self.w)
    }

    /// The parameter half of [`Linear::backward`]: accumulates
    /// `grad_w`/`grad_b` and computes no input gradient — for a layer
    /// whose input is a leaf (fixed features), where `grad_out · Wᵀ`
    /// would be dropped unread. `xᵀ · grad_out` is accumulated straight
    /// into `grad_w`, which after [`Linear::zero_grad`] holds the same
    /// bits as a zeroed temporary added in afterwards: every chain starts
    /// at `+0.0` either way.
    ///
    /// `rows`, when given, lists ascending rows of `x`, and row `i` of
    /// `grad_out` is the gradient of row `rows[i]`: the batch is those rows
    /// only ([`matmul_transpose_a_acc`]). Where every other row's gradient
    /// is `±0.0`, the result is that of the whole batch, bit for bit.
    pub fn backward_params(&mut self, x: &Matrix, rows: Option<&[usize]>, grad_out: &Matrix) {
        matmul_transpose_a_acc(x, rows, grad_out, &mut self.grad_w);
        accumulate_bias(&mut self.grad_b, grad_out);
    }

    /// Backward pass for a sparse input; the input gradient is not needed
    /// (the hashed features are leaves), so only parameter gradients are
    /// accumulated — straight into `grad_w`, which after
    /// [`Linear::zero_grad`] holds the same bits as a zeroed temporary
    /// added in afterwards.
    pub fn backward_sparse(&mut self, x: &SparseMatrix, grad_out: &Matrix) {
        x.transpose_matmul_dense_acc(grad_out, &mut self.grad_w);
        accumulate_bias(&mut self.grad_b, grad_out);
    }

    /// Clears accumulated gradients. Assigns rather than scales: a
    /// non-finite gradient times zero is still NaN, and would survive
    /// every later clear.
    pub fn zero_grad(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// Applies an optimizer to this layer's parameters using `slot_base` and
    /// `slot_base + 1`; returns the number of slots consumed (always 2).
    pub fn apply(&mut self, opt: &mut impl Optimizer, slot_base: usize) -> usize {
        opt.update(slot_base, self.w.data_mut(), self.grad_w.data());
        opt.update(slot_base + 1, &mut self.b, &self.grad_b);
        2
    }
}

fn accumulate_bias(grad_b: &mut [f32], grad_out: &Matrix) {
    for i in 0..grad_out.rows() {
        for (g, &d) in grad_b.iter_mut().zip(grad_out.row(i)) {
            *g += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(42);
        Linear::new(&mut rng, 3, 2)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer();
        l.b = vec![10.0, 20.0];
        let x = Matrix::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert_eq!(y.row(0), &[10.0, 20.0]);
    }

    #[test]
    fn sparse_forward_matches_dense() {
        let l = layer();
        let s = SparseMatrix::from_rows(3, &[vec![(0, 1.0), (2, -1.0)], vec![(1, 2.0)]]);
        let dense = s.to_dense();
        let a = l.forward_sparse(&s);
        let b = l.forward(&dense);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Finite-difference check of the analytic gradient.
    #[test]
    fn gradients_match_finite_differences() {
        let mut l = layer();
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        // Loss = sum(y); dL/dy = ones.
        let ones = Matrix::from_fn(2, 2, |_, _| 1.0);
        let dx = l.backward(&x, &ones);

        let loss = |l: &Linear, x: &Matrix| -> f32 { l.forward(x).data().iter().sum() };
        let eps = 1e-3;
        // weight grad check (a few entries)
        for &(i, j) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let mut lp = l.clone();
            lp.w.set(i, j, lp.w.get(i, j) + eps);
            let mut lm = l.clone();
            lm.w.set(i, j, lm.w.get(i, j) - eps);
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((num - l.grad_w.get(i, j)).abs() < 1e-2, "dW[{i},{j}]");
        }
        // input grad check
        for &(i, j) in &[(0usize, 0usize), (1, 2)] {
            let mut xp = x.clone();
            xp.set(i, j, xp.get(i, j) + eps);
            let mut xm = x.clone();
            xm.set(i, j, xm.get(i, j) - eps);
            let base = l.clone();
            let num = (loss(&base, &xp) - loss(&base, &xm)) / (2.0 * eps);
            assert!((num - dx.get(i, j)).abs() < 1e-2, "dX[{i},{j}]");
        }
        // bias grad: dL/db = batch size per output
        assert!((l.grad_b[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn sparse_backward_matches_dense_backward() {
        let mut a = layer();
        let mut b = a.clone();
        let s = SparseMatrix::from_rows(3, &[vec![(0, 1.0)], vec![(1, -2.0), (2, 0.5)]]);
        let g = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        a.backward_sparse(&s, &g);
        let _ = b.backward(&s.to_dense(), &g);
        for (x, y) in a.grad_w.data().iter().zip(b.grad_w.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert_eq!(a.grad_b, b.grad_b);
    }

    /// In-place accumulation against the zeroed temporary it replaced
    /// (`grad_w += 1.0 · xᵀ·g`), bit for bit, with repeated columns,
    /// empty rows and `-0.0` products in the batch.
    #[test]
    fn sparse_backward_in_place_is_bitwise_the_temporary() {
        let mut l = layer();
        let s = SparseMatrix::from_rows(
            3,
            &[
                vec![(0, 1.5), (2, -0.25)],
                vec![],
                vec![(2, 3.0), (1, -0.0)],
                vec![(0, -2.0), (1, 1e-30), (2, 0.5)],
            ],
        );
        let g = Matrix::from_vec(4, 2, vec![1.0, -1.0, 9.0, 9.0, -0.0, 2.0, 1e-30, -0.5]);
        for _ in 0..2 {
            l.zero_grad();
            l.backward_sparse(&s, &g);
            let mut want = Matrix::zeros(3, 2);
            want.add_scaled(&s.transpose_matmul_dense(&g), 1.0);
            let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&l.grad_w), bits(&want));
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut l = layer();
        let x = Matrix::from_fn(1, 3, |_, _| 1.0);
        let g = Matrix::from_fn(1, 2, |_, _| 1.0);
        let _ = l.backward(&x, &g);
        assert!(l.grad_w.frobenius_norm() > 0.0);
        l.zero_grad();
        assert_eq!(l.grad_w.frobenius_norm(), 0.0);
        assert!(l.grad_b.iter().all(|&g| g == 0.0));
    }

    /// One overflowed step must not poison the rest of a fit: `NaN × 0`
    /// and `∞ × 0` are NaN, so clearing has to assign.
    #[test]
    fn zero_grad_clears_non_finite_gradients() {
        let mut l = layer();
        let x = Matrix::from_vec(2, 3, vec![1.0, f32::INFINITY, -1.0, 0.5, 1.0, f32::NAN]);
        let g = Matrix::from_vec(2, 2, vec![1.0, f32::NEG_INFINITY, f32::NAN, 1.0]);
        let _ = l.backward(&x, &g);
        assert!(!l.grad_w.all_finite() && l.grad_b.iter().any(|g| !g.is_finite()));
        l.zero_grad();
        assert!(l.grad_w.data().iter().chain(&l.grad_b).all(|g| g.to_bits() == 0));
    }

    /// Clearing by assignment leaves an ordinary fit where scaling by zero
    /// left it: the same weights after every step, to the bit.
    #[test]
    fn zero_grad_by_assignment_trains_the_same_weights() {
        let x = Matrix::from_fn(12, 3, |i, j| ((i * 5 + j * 3) % 7) as f32 * 0.4 - 1.1);
        let g_of = |y: &Matrix| Matrix::from_fn(12, 2, |i, j| y.get(i, j) - ((i + j) % 2) as f32);
        let (mut a, mut b) = (layer(), layer());
        let (mut opt_a, mut opt_b) = (Sgd::new(0.05), Sgd::new(0.05));
        for _ in 0..30 {
            a.zero_grad();
            let grad = g_of(&a.forward(&x));
            let _ = a.backward(&x, &grad);
            opt_a.begin_step();
            a.apply(&mut opt_a, 0);

            // The clear this layer used to run.
            b.grad_w.scale(0.0);
            b.grad_b.fill(0.0);
            let grad = g_of(&b.forward(&x));
            let _ = b.backward(&x, &grad);
            opt_b.begin_step();
            b.apply(&mut opt_b, 0);

            assert_eq!(a.w, b.w);
            assert_eq!(a.b, b.b);
        }
    }

    #[test]
    fn training_reduces_loss_on_linear_fit() {
        // Fit y = x·[1,-1]ᵀ + 0.5 with a single layer and SGD.
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Linear::new(&mut rng, 2, 1);
        let x = Matrix::from_fn(16, 2, |i, j| ((i * 2 + j) % 5) as f32 - 2.0);
        let target: Vec<f32> = (0..16).map(|i| x.get(i, 0) - x.get(i, 1) + 0.5).collect();
        let mut opt = Sgd::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let y = l.forward(&x);
            let mut grad = Matrix::zeros(16, 1);
            let mut loss = 0.0;
            for (i, &t) in target.iter().enumerate() {
                let d = y.get(i, 0) - t;
                loss += d * d / 16.0;
                grad.set(i, 0, 2.0 * d / 16.0);
            }
            first.get_or_insert(loss);
            last = loss;
            l.zero_grad();
            let _ = l.backward(&x, &grad);
            opt.begin_step();
            l.apply(&mut opt, 0);
        }
        assert!(last < first.unwrap() * 0.01, "loss {last} vs {first:?}");
    }
}
