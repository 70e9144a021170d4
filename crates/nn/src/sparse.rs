//! CSR sparse matrices for hashed text features.
//!
//! The matcher's input features are hashed n-gram bags: a few hundred
//! non-zeros in a dimension of thousands. Storing them densely would make
//! the first matcher layer dominate training; CSR keeps it proportional to
//! the number of non-zeros.

use crate::matrix::Matrix;

/// Compressed sparse row matrix (`f32` values).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets (`rows + 1` entries).
    indptr: Vec<usize>,
    /// Column indices, row by row, strictly increasing inside a row.
    indices: Vec<u32>,
    /// Values aligned with `indices`.
    values: Vec<f32>,
}

/// Longest row whose sort keys live on the stack.
const INLINE_ROW: usize = 256;

impl SparseMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists. Entries in
    /// a row are sorted and duplicate columns are summed.
    pub fn from_rows(cols: usize, rows: &[Vec<(u32, f32)>]) -> Self {
        let mut out = Self::with_cols(cols);
        let mut scratch = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend_from_slice(row);
            out.push_row_unsorted(&mut scratch);
        }
        out
    }

    /// An empty matrix with `cols` columns and no rows, ready for
    /// incremental [`push_row_unsorted`](Self::push_row_unsorted) calls —
    /// the builder shape batch featurization uses to avoid one `Vec` per
    /// row.
    pub fn with_cols(cols: usize) -> Self {
        Self { rows: 0, cols, indptr: vec![0], indices: Vec::new(), values: Vec::new() }
    }

    /// Reserves capacity for `rows` additional rows holding about `nnz`
    /// more non-zeros, so a batch of `push_row_unsorted` calls sized from
    /// a known candidate count performs no incremental growth.
    pub fn reserve(&mut self, rows: usize, nnz: usize) {
        self.indptr.reserve(rows);
        self.indices.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Appends one row from an unsorted `(column, value)` list; duplicate
    /// columns are summed, exactly as in [`from_rows`](Self::from_rows).
    /// The caller's buffer is scratch (reusable across rows without
    /// reallocating) and is left in no particular order.
    ///
    /// The entries are sorted as packed integers, column above value bits,
    /// which is faster than sorting the pairs by key. A column hit once or
    /// twice sums to the same bits in any order; a column hit three times
    /// or more does not, so such a row takes the pair sort this method has
    /// always used — the sum order trained weights were produced under.
    pub fn push_row_unsorted(&mut self, entries: &mut [(u32, f32)]) {
        let mut inline = [0u64; INLINE_ROW];
        let mut spilled = Vec::new();
        let keys = match inline.get_mut(..entries.len()) {
            Some(keys) => keys,
            None => {
                spilled.resize(entries.len(), 0);
                &mut spilled[..]
            }
        };
        let pack = |keys: &mut [u64], entries: &[(u32, f32)]| {
            for (key, &(c, v)) in keys.iter_mut().zip(entries) {
                *key = (c as u64) << 32 | v.to_bits() as u64;
            }
        };
        pack(keys, entries);
        keys.sort_unstable();
        if keys.windows(3).any(|w| w[0] >> 32 == w[2] >> 32) {
            entries.sort_unstable_by_key(|e| e.0);
            pack(keys, entries);
        }
        if let Some(&max) = keys.last() {
            let c = max >> 32;
            assert!((c as usize) < self.cols, "column {c} out of range {}", self.cols);
        }
        let row_start = self.indices.len();
        for &key in keys.iter() {
            self.push_summed(row_start, (key >> 32) as u32, f32::from_bits(key as u32));
        }
        self.indptr.push(self.indices.len());
        self.rows += 1;
    }

    /// Appends `(c, v)` to the row starting at `row_start`, or adds `v` to
    /// the row's last entry when that is column `c` already.
    fn push_summed(&mut self, row_start: usize, c: u32, v: f32) {
        match self.indices.last() {
            Some(&last) if self.indices.len() > row_start && last == c => {
                *self.values.last_mut().expect("values align with indices") += v;
            }
            _ => {
                self.indices.push(c);
                self.values.push(v);
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(columns, values)` of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// `self × dense` — `[m,k]sparse × [k,n] → [m,n]`. Output rows fan out
    /// across the `flexer-par` thread budget for large operands; each row is
    /// the serial kernel, so results are bit-identical at any thread count.
    pub fn matmul_dense(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        let n = dense.cols();
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        let kernel = |i: usize, out_row: &mut [f32]| {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let d_row = dense.row(c as usize);
                for (o, &d) in out_row.iter_mut().zip(d_row) {
                    *o += v * d;
                }
            }
        };
        // nnz × n multiply-adds total; same budget rule as dense matmul.
        if self.nnz() * n >= crate::matrix::PAR_MIN_WORK {
            flexer_par::for_each_row_mut(out.data_mut(), n, kernel);
        } else {
            for (i, out_row) in out.data_mut().chunks_mut(n).enumerate() {
                kernel(i, out_row);
            }
        }
        out
    }

    /// `selfᵀ × dense` — `[m,k]ᵀ × [m,n] → [k,n]`. The weight-gradient
    /// kernel of a sparse input layer.
    pub fn transpose_matmul_dense(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        self.transpose_matmul_dense_acc(dense, &mut out);
        out
    }

    /// `out += selfᵀ × dense`, batch rows in ascending order — the form a
    /// layer accumulates its `k × n` weight gradient with, no temporary.
    pub(crate) fn transpose_matmul_dense_acc(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, dense.rows(), "spmmT shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.cols, dense.cols()), "spmmT output shape");
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let d_row = dense.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let out_row = out.row_mut(c as usize);
                for (o, &d) in out_row.iter_mut().zip(d_row) {
                    *o += v * d;
                }
            }
        }
    }

    /// Gathers rows into a new sparse matrix.
    pub fn select_rows(&self, rows: &[usize]) -> SparseMatrix {
        let mut out = Self::with_cols(self.cols);
        out.indptr.reserve(rows.len());
        // Stored rows are sorted and summed already: copy them as they are.
        for &i in rows {
            let (cols, vals) = self.row(i);
            out.indices.extend_from_slice(cols);
            out.values.extend_from_slice(vals);
            out.indptr.push(out.indices.len());
        }
        out.rows = rows.len();
        out
    }

    /// Densifies (tests / tiny inputs only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(i, c as usize, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        SparseMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![],
                vec![(3, -1.0), (1, 0.5), (3, 0.5)], // dup col 3 merges to -0.5
            ],
        )
    }

    #[test]
    fn construction_sorts_and_merges() {
        let s = sample();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.nnz(), 4);
        let (cols, vals) = s.row(2);
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals, &[0.5, -0.5]);
        let (cols, _) = s.row(1);
        assert!(cols.is_empty());
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let d = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32 * 0.25 - 1.0);
        let sparse_out = s.matmul_dense(&d);
        let dense_out = s.to_dense().matmul(&d);
        for (a, b) in sparse_out.data().iter().zip(dense_out.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_t_matches_dense() {
        let s = sample();
        let d = Matrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let sparse_out = s.transpose_matmul_dense(&d);
        let dense_out = s.to_dense().matmul_transpose_a(&d);
        for (a, b) in sparse_out.data().iter().zip(dense_out.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn select_rows_preserves_content() {
        let s = sample();
        let sel = s.select_rows(&[2, 0]);
        assert_eq!(sel.rows(), 2);
        assert_eq!(sel.row(0), s.row(2));
        assert_eq!(sel.row(1), s.row(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let _ = SparseMatrix::from_rows(2, &[vec![(5, 1.0)]]);
    }

    #[test]
    fn empty_matrix() {
        let s = SparseMatrix::from_rows(3, &[]);
        assert_eq!(s.rows(), 0);
        assert_eq!(s.nnz(), 0);
        let d = Matrix::zeros(3, 2);
        assert_eq!(s.matmul_dense(&d).rows(), 0);
    }

    #[test]
    fn incremental_builder_matches_from_rows() {
        let rows = vec![
            vec![(3u32, 1.0f32), (1, 2.0), (3, 0.5)], // unsorted + duplicate
            vec![],
            vec![(0, -1.0), (4, 4.0)],
            vec![(4, 1.0)], // same leading column as previous row's tail
        ];
        let reference = SparseMatrix::from_rows(5, &rows);
        let mut built = SparseMatrix::with_cols(5);
        let mut scratch = Vec::new();
        for row in &rows {
            scratch.clear();
            scratch.extend_from_slice(row);
            built.push_row_unsorted(&mut scratch);
        }
        assert_eq!(built, reference);
        assert_eq!(built.rows(), 4);
        assert_eq!(built.row(0), (&[1u32, 3][..], &[2.0f32, 1.5][..]));
        assert_eq!(built.row(1), (&[][..], &[][..]));
        // Row boundaries must not merge: row 3 starts with the same column
        // row 2 ended on.
        assert_eq!(built.row(2), (&[0u32, 4][..], &[-1.0f32, 4.0][..]));
        assert_eq!(built.row(3), (&[4u32][..], &[1.0f32][..]));
    }

    /// The row build as it was before the packed-key sort: the oracle for
    /// the sum order of colliding columns.
    fn push_row_reference(m: &mut SparseMatrix, entries: &mut [(u32, f32)]) {
        entries.sort_unstable_by_key(|e| e.0);
        let row_start = m.indices.len();
        for &(c, v) in entries.iter() {
            m.push_summed(row_start, c, v);
        }
        m.indptr.push(m.indices.len());
        m.rows += 1;
    }

    #[test]
    fn packed_key_sort_keeps_the_sum_order_of_the_pair_sort() {
        // Values whose sums round differently in different orders, columns
        // drawn from few enough buckets to collide in pairs, triples and
        // more, rows on both sides of the inline key buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut built, mut reference) =
            (SparseMatrix::with_cols(512), SparseMatrix::with_cols(512));
        for row in 0..400 {
            let len = if row % 7 == 0 { 300 + row } else { row % 130 };
            let buckets = [16, 128, 512][row % 3];
            let entries: Vec<(u32, f32)> = (0..len)
                .map(|_| {
                    let h = next();
                    let v = [0.093_250_48, -0.093_250_48, 0.3, 1.0e-3][(h >> 40) as usize % 4];
                    ((h % buckets) as u32, v)
                })
                .collect();
            built.push_row_unsorted(&mut entries.clone());
            push_row_reference(&mut reference, &mut entries.clone());
        }
        let bits = |m: &SparseMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(built.indptr, reference.indptr);
        assert_eq!(built.indices, reference.indices);
        assert_eq!(bits(&built), bits(&reference));
    }
}
