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
    /// Scratch of [`push_row_unsorted`](Self::push_row_unsorted).
    scatter: Scatter,
}

/// Scratch a row is scattered through, a few bits per column of the
/// matrix: allocated by the first pushed row and all-clear between rows, so
/// it is no part of the matrix's value — every `Scatter` equals every other
/// and a clone starts without one.
#[derive(Debug, Default)]
struct Scatter {
    /// One bit per column: an entry of the row hits it.
    once: Vec<u64>,
    /// One bit per column: a second entry of the row hits it.
    twice: Vec<u64>,
    /// Per word of `once`, how many of the row's columns lie below it.
    below: Vec<u32>,
}

impl Clone for Scatter {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for Scatter {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

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
        Self {
            rows: 0,
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            scatter: Scatter::default(),
        }
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
    /// Nothing is sorted. One pass marks the columns hit in a bitmap, the
    /// bitmap read in ascending order is the row's column list, and a
    /// column's rank in it — a prefix count and a popcount — is where a
    /// second pass adds each value. A column hit once or twice sums to
    /// the same bits in any order; a column hit three times or more does
    /// not, so such a row takes the pair sort this method has always used
    /// — the sum order trained weights were produced under.
    pub fn push_row_unsorted(&mut self, entries: &mut [(u32, f32)]) {
        let words = self.cols.div_ceil(64);
        if self.scatter.once.len() != words {
            self.scatter =
                Scatter { once: vec![0; words], twice: vec![0; words], below: vec![0; words] };
        }
        if let Some(c) = entries.iter().map(|e| e.0).max() {
            assert!((c as usize) < self.cols, "column {c} out of range {}", self.cols);
        }
        let Scatter { once, twice, below } = &mut self.scatter;
        let mut order_free = true;
        for &(c, _) in entries.iter() {
            let (w, bit) = (c as usize / 64, 1u64 << (c % 64));
            if once[w] & bit == 0 {
                once[w] |= bit;
            } else if twice[w] & bit == 0 {
                twice[w] |= bit;
            } else {
                order_free = false;
                break;
            }
        }
        let row_start = self.indices.len();
        if order_free {
            // One spare slot: the walk below stores before it knows whether
            // a word holds a column.
            self.indices.resize(row_start + entries.len() + 1, 0);
            let columns = &mut self.indices[row_start..];
            let mut seen = 0;
            for (w, &word) in once.iter().enumerate() {
                below[w] = seen as u32;
                let base = (w * 64) as u32;
                // A word holds no column or one, as a rule, and which is a
                // coin toss: take the first without a branch on it.
                columns[seen] = base + word.trailing_zeros();
                seen += (word != 0) as usize;
                let mut rest = word & word.wrapping_sub(1);
                while rest != 0 {
                    columns[seen] = base + rest.trailing_zeros();
                    seen += 1;
                    rest &= rest - 1;
                }
            }
            self.indices.truncate(row_start + seen);
            // `-0.0 + v` is `v` to the bit, whatever `v` is.
            self.values.resize(row_start + seen, -0.0);
            let row = &mut self.values[row_start..];
            for &(c, v) in entries.iter() {
                let (w, bit) = (c as usize / 64, 1u64 << (c % 64));
                row[(below[w] + (once[w] & (bit - 1)).count_ones()) as usize] += v;
            }
        } else {
            entries.sort_unstable_by_key(|e| e.0);
            for &(c, v) in entries.iter() {
                self.push_summed(row_start, c, v);
            }
        }
        let Scatter { once, twice, .. } = &mut self.scatter;
        once.fill(0);
        twice.fill(0);
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

    /// The row build this crate started with — sort the pairs by column,
    /// sum neighbours: the oracle for the sum order of colliding columns.
    fn push_row_reference(m: &mut SparseMatrix, entries: &mut [(u32, f32)]) {
        entries.sort_unstable_by_key(|e| e.0);
        let row_start = m.indices.len();
        for &(c, v) in entries.iter() {
            m.push_summed(row_start, c, v);
        }
        m.indptr.push(m.indices.len());
        m.rows += 1;
    }

    /// Both builds over `rows`; the scatter scratch must be clear after
    /// every row.
    fn assert_matches_reference(cols: usize, rows: &[Vec<(u32, f32)>]) {
        let (mut built, mut reference) =
            (SparseMatrix::with_cols(cols), SparseMatrix::with_cols(cols));
        for entries in rows {
            built.push_row_unsorted(&mut entries.clone());
            push_row_reference(&mut reference, &mut entries.clone());
            let Scatter { once, twice, .. } = &built.scatter;
            assert!(once.iter().chain(twice).all(|&w| w == 0), "bitmaps leak into the next row");
        }
        let bits = |m: &SparseMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(built.indptr, reference.indptr);
        assert_eq!(built.indices, reference.indices);
        assert_eq!(bits(&built), bits(&reference));
    }

    #[test]
    fn scatter_keeps_the_sum_order_of_the_pair_sort() {
        // Values whose sums round differently in different orders, columns
        // drawn from few enough buckets to collide in pairs, triples and
        // more, rows from empty to longer than any feature row.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<(u32, f32)>> = (0..400)
            .map(|row| {
                let len = if row % 7 == 0 { 300 + row } else { row % 130 };
                let buckets = [16, 128, 512][row % 3];
                (0..len)
                    .map(|_| {
                        let h = next();
                        let v = [0.093_250_48, -0.093_250_48, 0.3, 1.0e-3][(h >> 40) as usize % 4];
                        ((h % buckets) as u32, v)
                    })
                    .collect()
            })
            .collect();
        assert_matches_reference(512, &rows);
    }

    #[test]
    fn scatter_edge_rows_match_the_pair_sort() {
        let v = 0.093_250_48f32;
        let rows = vec![
            // +v and -v cancel: the explicit zero entry stays.
            vec![(70, v), (3, 1.0), (70, -v)],
            // A triple hit: the whole row falls back to the pair sort ...
            vec![(5, 0.3), (64, 1.0e-3), (5, v), (5, -v), (127, 1.0)],
            // ... and leaves nothing behind for the rows after it, which
            // share its columns and each other's boundary column.
            vec![(5, 1.0), (127, 2.0)],
            vec![(127, 4.0), (128, -0.0), (191, v), (191, v)],
            vec![],
            // Columns across the last, partly used bitmap word.
            vec![(199, 1.0), (192, 2.0), (0, 3.0), (63, 4.0), (64, 5.0)],
        ];
        assert_matches_reference(200, &rows);
        let m = SparseMatrix::from_rows(200, &rows);
        assert_eq!(m.row(0), (&[3u32, 70][..], &[1.0f32, 0.0][..]));
        assert_eq!(m.row(2), (&[5u32, 127][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(3).0, &[127u32, 128, 191]);
        assert_eq!(m.row(5).0, &[0u32, 63, 64, 192, 199]);
        // A matrix is its rows: the scratch a build leaves allocated is
        // no part of its value.
        assert_eq!(m.select_rows(&[0, 1, 2, 3, 4, 5]), m);
        assert_eq!(m.clone(), m);
    }
}
