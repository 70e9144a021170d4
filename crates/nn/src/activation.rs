//! Activation functions and their backward passes.

use crate::matrix::Matrix;

/// In-place ReLU.
pub fn relu_inplace(x: &mut Matrix) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// ReLU backward: zeroes gradient entries where the *forward output* was
/// zero (equivalently where the input was non-positive).
pub fn relu_backward_inplace(grad: &mut Matrix, forward_output: &Matrix) {
    debug_assert_eq!(grad.rows(), forward_output.rows());
    debug_assert_eq!(grad.cols(), forward_output.cols());
    // A select, not a conditional store: it vectorizes, and a gradient
    // over ReLU outputs is zeroed in no predictable pattern.
    for (g, &y) in grad.data_mut().iter_mut().zip(forward_output.data()) {
        *g = if y <= 0.0 { 0.0 } else { *g };
    }
}

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Row-wise numerically stable softmax; returns a new matrix.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// A pair's match probability from its two logits: the second entry of
/// their softmax, in [`softmax_rows`]'s arithmetic (so its bits).
#[inline]
pub fn match_probability(row: &[f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &v in row {
        sum += (v - max).exp();
    }
    (row[1] - max).exp() / sum
}

/// [`match_probability`] of every row of a two-column logits matrix.
pub fn match_probabilities(logits: &Matrix) -> Vec<f32> {
    (0..logits.rows()).map(|i| match_probability(logits.row(i))).collect()
}

/// The match decision every model makes: probability above 0.5, the
/// argmax of the two logits (Eq. 5).
#[inline]
pub fn is_match(probability: f32) -> bool {
    probability > 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        relu_inplace(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let y = Matrix::from_vec(1, 4, vec![0.0, 0.0, 0.5, 2.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        relu_backward_inplace(&mut g, &y);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 100.0, 100.0, 100.0]);
        let p = softmax_rows(&logits);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // equal logits → uniform
        assert!((p.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        // ordering preserved
        assert!(p.get(0, 2) > p.get(0, 1) && p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn match_probability_is_the_softmax_second_entry_bitwise() {
        let logits =
            Matrix::from_vec(5, 2, vec![0.3, -1.7, 2.0, 2.0, -40.0, 12.5, 1e4, -1e4, 0.1, 0.2]);
        let (got, probs) = (match_probabilities(&logits), softmax_rows(&logits));
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.to_bits(), probs.get(i, 1).to_bits(), "row {i}");
        }
        // Equal logits sit exactly on the threshold and do not match.
        assert_eq!(got[1], 0.5);
        let decisions: Vec<bool> = got.into_iter().map(is_match).collect();
        assert_eq!(decisions, [false, false, true, false, true]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1e4, -1e4]);
        let p = softmax_rows(&logits);
        assert!(p.all_finite());
        assert!((p.get(0, 0) - 1.0).abs() < 1e-6);
    }
}
