//! Dense row-major `f32` matrices with the handful of kernels the
//! matcher and GNN need. The plain matmul's loops are ordered `i,k,j` so
//! LLVM vectorizes the inner accumulation; the two transposed products of
//! backprop run on the register-blocked kernels of [`crate::kernels`].
//!
//! Every matmul variant is blocked across the `flexer-par` thread budget
//! when the operation is large enough to amortize fan-out. Each output
//! element is produced by exactly the serial kernel's chain, so results
//! are **bit-identical** for any thread count.

use crate::kernels::{matmul_packed_into, matmul_transpose_a_acc, Epilogue, PackedB};

/// Below this many fused multiply-adds a matmul (dense or sparse) stays on
/// the calling thread: fan-out overhead would exceed the work.
pub(crate) const PAR_MIN_WORK: usize = 1 << 20;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major buffer; panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to an all-zero `rows × cols` matrix, reusing the existing
    /// allocation. The scratch-reuse primitive of the serving hot path.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`reset`](Matrix::reset) for callers that overwrite every element:
    /// reshapes without zeroing the reused prefix, so a warm steady-state
    /// call skips the full-matrix memset. Stale values from the previous
    /// use stay visible until written — only use when the follow-up kernel
    /// provably stores to every element.
    pub fn reset_overwrite(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() > n {
            self.data.truncate(n);
        } else {
            self.data.resize(n, 0.0);
        }
    }

    /// Consumes the matrix, returning its flat row-major buffer so callers
    /// can keep the allocation alive across reshapes.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// `self × other` — `[m,k] × [k,n] → [m,n]`. Output rows are computed
    /// independently and fanned out across threads for large operands.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into a caller-owned output, which is
    /// resized and zeroed (allocation reused) — the blocked-batch entry
    /// the serving tier drives. Each output row is produced by exactly the
    /// serial per-row kernel, so results are bit-identical to `matmul` at
    /// any thread count.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        if other.cols == 0 {
            return;
        }
        let kernel = |i: usize, out_row: &mut [f32]| {
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        };
        if self.rows * self.cols * other.cols >= PAR_MIN_WORK {
            flexer_par::for_each_row_mut(&mut out.data, other.cols, kernel);
        } else {
            for (i, out_row) in out.data.chunks_mut(other.cols).enumerate() {
                kernel(i, out_row);
            }
        }
    }

    /// `self × otherᵀ` — `[m,k] × [n,k]ᵀ → [m,n]`. Used by backprop to
    /// compute input gradients (`other` is a layer's `[n,k]` weights).
    ///
    /// Runs the forward's register-blocked kernel, [`matmul_packed_into`],
    /// over `otherᵀ` packed for this call: each output element is the dot
    /// product of a row of `self` and a row of `other`, folded from `+0.0`
    /// in ascending `k` with no term skipped — bitwise the scalar dot per
    /// element — at any thread count.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose_b shape mismatch");
        let mut out = Matrix::zeros(0, 0);
        matmul_packed_into(self, &PackedB::pack_transposed(other), Epilogue::None, &mut out);
        out
    }

    /// `selfᵀ × other` — `[m,k]ᵀ × [m,n] → [k,n]`. Used by backprop to
    /// compute weight gradients, where `m` is the batch (thousands of
    /// rows) and the `k × n` output is a weight matrix.
    ///
    /// [`matmul_transpose_a_acc`] into zeros: each output element is one
    /// chain from `+0.0` in ascending batch row, bitwise the
    /// per-output-row sweep down a column of `self` that skips its zeros
    /// (for a finite `other`; see `kernels.rs`), at any thread count.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        matmul_transpose_a_acc(self, None, other, &mut out);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Adds a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.data.len(), other.data.len(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise multiply by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Concatenates matrices horizontally (same row count).
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "hconcat row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(i)[off..off + p.cols].copy_from_slice(p.row(i));
                off += p.cols;
            }
        }
        out
    }

    /// Splits the matrix horizontally into slices of the given widths,
    /// returning owned pieces. Widths must sum to `cols`.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        assert_eq!(widths.iter().sum::<usize>(), self.cols, "hsplit widths must sum to cols");
        let mut out: Vec<Matrix> = widths.iter().map(|&w| Matrix::zeros(self.rows, w)).collect();
        for i in 0..self.rows {
            let mut off = 0;
            for (part, &w) in out.iter_mut().zip(widths) {
                part.row_mut(i).copy_from_slice(&self.row(i)[off..off + w]);
                off += w;
            }
        }
        out
    }

    /// Appends one row (online/ingest growth of a row-major buffer).
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Stacks matrices vertically (same column count).
    pub fn vconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vconcat of nothing");
        let cols = parts[0].cols;
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.data.len()).sum());
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "vconcat column mismatch");
            data.extend_from_slice(&p.data);
            rows += p.rows;
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Gathers the given rows into a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Whether all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Squared L2 distance between two rows of (possibly different)
    /// matrices with equal column counts.
    pub fn row_l2_sq(a: &Matrix, i: usize, b: &Matrix, j: usize) -> f32 {
        debug_assert_eq!(a.cols, b.cols);
        a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| (x - y) * (x - y)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Stale shape and contents must be fully overwritten.
        let mut out = m(1, 4, &[9.0, 9.0, 9.0, 9.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse again with a different right-hand side.
        let c = m(3, 1, &[1.0, 1.0, 1.0]);
        a.matmul_into(&c, &mut out);
        assert_eq!(out.data(), &[6.0, 15.0]);
    }

    #[test]
    fn reset_and_into_vec_roundtrip_capacity() {
        let mut x = Matrix::zeros(2, 2);
        x.set(1, 1, 3.0);
        x.reset(1, 3);
        assert_eq!((x.rows(), x.cols()), (1, 3));
        assert_eq!(x.data(), &[0.0, 0.0, 0.0]);
        let buf = x.into_vec();
        assert_eq!(buf.len(), 3);
        assert!(buf.capacity() >= 4, "reset must keep the allocation");
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(4, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        // a × bᵀ
        let direct = a.matmul_transpose_b(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        // aᵀ × c
        let c = m(2, 4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let direct = a.matmul_transpose_a(&c);
        let via_t = a.transpose().matmul(&c);
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The kernel `matmul_transpose_a` replaced: one sweep down column `k`
    /// of `a` per output row. Kept as the bitwise reference.
    fn matmul_transpose_a_strided(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for k in 0..a.cols() {
            for i in 0..a.rows() {
                let aik = a.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for (o, &x) in out.row_mut(k).iter_mut().zip(b.row(i)) {
                    *o += aik * x;
                }
            }
        }
        out
    }

    #[test]
    fn transpose_matmuls_are_bitwise_the_loops_they_replaced() {
        // Values with exact zeros, `-0.0`, all-zero rows and all-zero
        // columns mixed in (the ReLU'd activations and masked gradients
        // the kernel sees in training).
        let fill = |rows: usize, cols: usize, salt: u64| {
            let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let (zero_row, zero_col) = (salt as usize % 7, salt as usize % 5);
            Matrix::from_fn(rows, cols, |i, j| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (s >> 33) % 16;
                if i % 7 == zero_row || j % 5 == zero_col || r == 0 {
                    0.0
                } else if r == 1 {
                    -0.0
                } else {
                    ((s >> 40) % 2001) as f32 / 500.0 - 2.0
                }
            })
        };
        // The register tiles' edges: `k % 4 ∈ {1, 2, 3}` (a ragged last
        // strip of output rows), `n` of 2 (the GNN head), 7 and 9 (a
        // ragged panel alone and after a whole one), 16, 24, 40, 64 and 72
        // (whole panels in tiles of two and three, and a group of three
        // then a rest of one or two), 25 (three whole panels and a ragged
        // one), and batches just below, at and just above one `ROW_CHUNK`
        // and two. The last six shapes are past `PAR_MIN_WORK`, so a
        // 4-thread budget splits their output rows (evenly, raggedly, and
        // with fewer rows than threads).
        let chunk = crate::kernels::ROW_CHUNK;
        let shapes = [
            (1, 1, 1),
            (1, 80, 30),
            (200, 1, 1),
            (3, 2, 30),
            (37, 5, 7),
            (64, 48, 24),
            (200, 80, 30),
            (131, 72, 24),
            (chunk - 1, 5, 2),
            (chunk, 6, 7),
            (chunk + 1, 7, 9),
            (chunk + 1, 13, 64),
            (2 * chunk - 1, 24, 2),
            (2 * chunk + 3, 9, 64),
            (chunk + 3, 10, 16),
            (2 * chunk + 1, 7, 25),
            (300, 13, 40),
            (chunk - 3, 6, 72),
            (900, 48, 72),
            (2100, 25, 40),
            (1100, 72, 24),
            (1500, 31, 30),
            (700, 30, 64),
            (180_000, 3, 2),
        ];
        for (salt, &(m, k, n)) in shapes.iter().enumerate() {
            let a = fill(m, k, 2 * salt as u64);
            let b = fill(m, n, 2 * salt as u64 + 1);
            let want = matmul_transpose_a_strided(&a, &b);
            for threads in [1usize, 4] {
                let got = flexer_par::with_threads(threads, || a.matmul_transpose_a(&b));
                let same =
                    got.data().iter().zip(want.data()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same && (got.rows(), got.cols()) == (k, n),
                    "{m}x{k}x{n} at {threads} threads"
                );
            }
        }
        // A row list: the product over the listed rows of `a` — empty, one
        // row, strided, and crossing a `ROW_CHUNK` boundary — against the
        // reference over those rows, and against the whole batch with a
        // gradient that is `±0.0` on every other row.
        let row_lists = |m: usize| -> Vec<Vec<usize>> {
            vec![
                vec![],
                vec![m / 2],
                (1..m).step_by(3).collect(),
                (0..m).filter(|i| i % 5 != 1 || (chunk - 9..chunk + 9).contains(i)).collect(),
            ]
        };
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let listed = [(1, 3, 2), (40, 5, 16), (chunk + 40, 7, 25), (700, 48, 24), (1400, 45, 72)];
        for (salt, &(m, k, n)) in listed.iter().enumerate() {
            let a = fill(m, k, 40 + 2 * salt as u64);
            let full = fill(m, n, 41 + 2 * salt as u64);
            for rows in row_lists(m) {
                let b = full.select_rows(&rows);
                let mut masked = Matrix::from_fn(m, n, |i, _| if i % 2 == 0 { 0.0 } else { -0.0 });
                for (r, &i) in rows.iter().enumerate() {
                    masked.row_mut(i).copy_from_slice(b.row(r));
                }
                let want = matmul_transpose_a_strided(&a.select_rows(&rows), &b);
                let whole = matmul_transpose_a_strided(&a, &masked);
                for threads in [1usize, 4] {
                    let mut got = Matrix::zeros(k, n);
                    flexer_par::with_threads(threads, || {
                        matmul_transpose_a_acc(&a, Some(&rows), &b, &mut got)
                    });
                    let what = format!("{m}x{k}x{n} over {} rows at {threads} threads", rows.len());
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(bits(&got), bits(&whole), "{what}: the whole batch");
                }
            }
        }
        // `matmul_transpose_b` on the same operands, against the scalar
        // dot per output element it replaced.
        for (salt, &(m, k, n)) in shapes.iter().enumerate() {
            let a = fill(m, k, 2 * salt as u64);
            let b = fill(n, k, 2 * salt as u64 + 1);
            let want = Matrix::from_fn(m, n, |i, j| {
                a.row(i).iter().zip(b.row(j)).fold(0.0f32, |acc, (&x, &y)| acc + x * y)
            });
            for threads in [1usize, 4] {
                let got = flexer_par::with_threads(threads, || a.matmul_transpose_b(&b));
                let same =
                    got.data().iter().zip(want.data()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "transpose_b {m}x{k}x{n} at {threads} threads");
            }
        }
        // Degenerate shapes: no batch rows, no columns on either side.
        assert_eq!(
            Matrix::zeros(0, 3).matmul_transpose_a(&Matrix::zeros(0, 2)),
            Matrix::zeros(3, 2)
        );
        assert_eq!(
            Matrix::zeros(4, 0).matmul_transpose_a(&Matrix::zeros(4, 2)),
            Matrix::zeros(0, 2)
        );
        assert_eq!(
            Matrix::zeros(4, 3).matmul_transpose_a(&Matrix::zeros(4, 0)),
            Matrix::zeros(3, 0)
        );
    }

    #[test]
    fn bias_broadcast() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.cols(), 3);
        assert_eq!(cat.row(0), &[1.0, 2.0, 9.0]);
        let parts = cat.hsplit(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn select_rows_gathers() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[1.0, 1.0, 1.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn push_row_and_vconcat_grow_row_major() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        a.push_row(&[3.0, 4.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        let b = m(1, 2, &[5.0, 6.0]);
        let cat = Matrix::vconcat(&[&a, &b]);
        assert_eq!(cat.rows(), 3);
        assert_eq!(cat.row(2), &[5.0, 6.0]);
        assert_eq!(cat.row(0), a.row(0));
    }

    #[test]
    #[should_panic(expected = "push_row length mismatch")]
    fn push_row_checks_width() {
        let mut a = Matrix::zeros(1, 3);
        a.push_row(&[1.0]);
    }

    #[test]
    fn row_l2_sq() {
        let a = m(1, 2, &[0.0, 0.0]);
        let b = m(1, 2, &[3.0, 4.0]);
        assert_eq!(Matrix::row_l2_sq(&a, 0, &b, 0), 25.0);
    }

    #[test]
    fn norm_and_finite() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!(a.all_finite());
        let bad = m(1, 1, &[f32::NAN]);
        assert!(!bad.all_finite());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
