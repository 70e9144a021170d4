//! Cache-aware packed matmul kernels for the dense forward path.
//!
//! The naive `Matrix::matmul_into` streams the n-wide output row through
//! memory once per k iteration; at GNN shapes (m up to a few thousand,
//! k/n 32–384) that read-modify-write traffic dominates the forward. The
//! kernels here fix it with three moves, none of which change a single
//! float bit:
//!
//! - **Packing**: the B operand (layer weights, reused across every row
//!   of every batch) is transposed once into 8-column panels —
//!   [`PackedB`] — so the inner loop reads one contiguous 8-wide strip
//!   per k. Packing happens at layer construction / snapshot load and
//!   after each optimizer step, never per call.
//! - **Register blocking**: micro-kernels compute 4 output rows × 8
//!   columns per inner loop, keeping 32 accumulators in registers for
//!   the whole k-fold — the output is touched once per tile instead of
//!   once per k. Each output element's k-fold stays a single chain in
//!   ascending k order (the same discipline `flexer-ann` uses for
//!   its distance kernels). The naive kernel's `a[i][k] == 0.0` skip needs no
//!   branch here: the accumulator starts at `+0.0` and round-to-nearest
//!   addition can only produce `-0.0` from `(-0.0) + (-0.0)`, so the
//!   chain never sits at `-0.0` — which makes `acc += 0.0 * s` (the
//!   `±0.0` product of a finite weight) a bitwise no-op, exactly like
//!   the skip. The branch-free inner loop is what lets it vectorize.
//!   (A non-finite *weight* would break this equivalence — `0.0 × ∞` is
//!   NaN — but trained layers are finite by construction; inputs may be
//!   anything.)
//! - **Fused epilogue**: bias-add and ReLU are applied as each 4×4 tile
//!   is written back ([`Epilogue`]), eliminating the separate
//!   `add_row_broadcast` + `relu_inplace` passes over the output. Both
//!   are elementwise, so fusion is bit-exact; ReLU is `if v < 0.0`
//!   (never `max`) to preserve NaN and `-0.0` exactly like
//!   `activation::relu_inplace`.
//!
//! Rows are independent, so the kernels fan out over 4-row blocks with
//! `flexer_par::for_each_row_mut` — the same splitting the naive kernel
//! uses, bit-identical at any thread count.
//!
//! [`dense_forward_into`] is the one dense-layer forward. The unfused
//! sequence it replaced (`matmul_into` → `add_row_broadcast` →
//! `relu_inplace`) is what this module's tests diff it against.

use crate::linear::Linear;
use crate::matrix::{Matrix, PAR_MIN_WORK};

/// Column-panel width of [`PackedB`]: the register tile is 4 rows ×
/// `PANEL` columns.
const PANEL: usize = 8;

/// The B operand of a matmul, repacked into `PANEL`-column panels.
///
/// Panel `p` holds columns `8p..8p+8` (zero-padded past `cols`), laid
/// out k-major: element `(k, c)` of panel `p` lives at
/// `p * rows * 8 + k * 8 + c`. The micro-kernel's k-loop therefore
/// reads one contiguous 8-wide strip per step instead of striding
/// through a `rows × cols` row-major matrix.
#[derive(Debug, Clone)]
pub struct PackedB {
    rows: usize,
    cols: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs `b` (the right-hand matmul operand, e.g. a layer's weight
    /// matrix) into column panels. O(rows·cols); done once per layer
    /// construction or optimizer step, amortized across every forward.
    pub fn pack(b: &Matrix) -> Self {
        let mut packed = PackedB { rows: 0, cols: 0, panels: Vec::new() };
        packed.repack(b);
        packed
    }

    /// Re-packs in place after the source matrix changed (an optimizer
    /// step); reuses the panel allocation.
    pub fn repack(&mut self, b: &Matrix) {
        self.rows = b.rows();
        self.cols = b.cols();
        let n_panels = self.cols.div_ceil(PANEL);
        self.panels.clear();
        self.panels.reserve(n_panels * self.rows * PANEL);
        for p in 0..n_panels {
            for k in 0..self.rows {
                let row = b.row(k);
                for c in 0..PANEL {
                    let j = p * PANEL + c;
                    self.panels.push(if j < self.cols { row[j] } else { 0.0 });
                }
            }
        }
    }

    /// Rows of the original (unpacked) matrix — the k dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original (unpacked) matrix — the n dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// What to do with each output element as it is written back.
///
/// Fusing the bias/activation pass into the matmul write-back removes a
/// full read-modify-write sweep over the output. All variants are
/// elementwise, so the fused result is bit-identical to running the
/// separate passes.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain matmul: write the accumulator as-is.
    None,
    /// `out[i][j] = acc + bias[j]` — a fused `add_row_broadcast`.
    Bias(&'a [f32]),
    /// `Bias` followed by ReLU (`if v < 0.0 { 0.0 }`), matching
    /// `activation::relu_inplace` bit-for-bit (NaN and `-0.0` pass
    /// through untouched).
    BiasRelu(&'a [f32]),
}

/// `out = a · b` with the epilogue fused into the write-back.
///
/// Bit-identical to `a.matmul_into(b_unpacked, out)` followed by the
/// epilogue's separate passes, at any thread count: each output
/// element's k-fold is one accumulation chain in ascending k order, and
/// the naive kernel's `a[i][k] == 0.0` skip is reproduced without a
/// branch (see the module docs — an accumulator that starts at `+0.0`
/// never sits at `-0.0`, so adding a finite weight's `±0.0` product
/// cannot change its bits).
pub fn matmul_packed_into(a: &Matrix, b: &PackedB, epilogue: Epilogue<'_>, out: &mut Matrix) {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, b.rows, "matmul shape mismatch");
    let n = b.cols;
    match epilogue {
        Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => {
            assert_eq!(bias.len(), n, "bias length must match output columns");
        }
        Epilogue::None => {}
    }
    // `write_tile` only stores (never reads `dst`), and the block + tail
    // kernels together cover every output row at full panel width, so the
    // reshape can skip the zeroing memset the naive accumulate-in-place
    // kernel needs.
    out.reset_overwrite(m, n);
    if n == 0 {
        return;
    }
    let a_data = a.data();
    let panels = &b.panels[..];
    let n_panels = n.div_ceil(PANEL);
    let panel_len = k * PANEL;

    // One 4-row block: 32 register accumulators held for the whole
    // k-fold, 4 A loads + one contiguous 8-wide B strip per k, no
    // branches in the inner loop.
    let block_kernel = |blk: usize, out_rows: &mut [f32]| {
        let r0 = blk * 4;
        let (a0, a1, a2, a3) = (
            &a_data[r0 * k..(r0 + 1) * k],
            &a_data[(r0 + 1) * k..(r0 + 2) * k],
            &a_data[(r0 + 2) * k..(r0 + 3) * k],
            &a_data[(r0 + 3) * k..(r0 + 4) * k],
        );
        for p in 0..n_panels {
            let panel = &panels[p * panel_len..(p + 1) * panel_len];
            let mut acc = [[0.0f32; PANEL]; 4];
            for (((&v0, &v1), (&v2, &v3)), s) in a0
                .iter()
                .zip(a1.iter())
                .zip(a2.iter().zip(a3.iter()))
                .zip(panel.chunks_exact(PANEL))
            {
                for c in 0..PANEL {
                    acc[0][c] += v0 * s[c];
                    acc[1][c] += v1 * s[c];
                    acc[2][c] += v2 * s[c];
                    acc[3][c] += v3 * s[c];
                }
            }
            let j0 = p * PANEL;
            let width = (n - j0).min(PANEL);
            for (r, acc_row) in acc.iter().enumerate() {
                let dst = &mut out_rows[r * n + j0..r * n + j0 + width];
                write_tile(dst, &acc_row[..width], j0, epilogue);
            }
        }
    };

    // Tail rows (m % 4): a 1×8 kernel over the same panels.
    let row_kernel = |i: usize, out_row: &mut [f32]| {
        let arow = &a_data[i * k..(i + 1) * k];
        for p in 0..n_panels {
            let panel = &panels[p * panel_len..(p + 1) * panel_len];
            let mut acc = [0.0f32; PANEL];
            for (&v, s) in arow.iter().zip(panel.chunks_exact(PANEL)) {
                for c in 0..PANEL {
                    acc[c] += v * s[c];
                }
            }
            let j0 = p * PANEL;
            let width = (n - j0).min(PANEL);
            write_tile(&mut out_row[j0..j0 + width], &acc[..width], j0, epilogue);
        }
    };

    let m4 = m - m % 4;
    let (blocks, tail) = out.data_mut().split_at_mut(m4 * n);
    if m * k * n >= PAR_MIN_WORK && m4 > 0 {
        flexer_par::for_each_row_mut(blocks, 4 * n, block_kernel);
    } else {
        for (blk, out_rows) in blocks.chunks_mut(4 * n).enumerate() {
            block_kernel(blk, out_rows);
        }
    }
    for (t, out_row) in tail.chunks_mut(n).enumerate() {
        row_kernel(m4 + t, out_row);
    }
}

#[inline(always)]
fn write_tile(dst: &mut [f32], acc: &[f32], j0: usize, epilogue: Epilogue<'_>) {
    match epilogue {
        Epilogue::None => dst.copy_from_slice(acc),
        Epilogue::Bias(bias) => {
            let bs = &bias[j0..j0 + dst.len()];
            for ((d, &a), &b) in dst.iter_mut().zip(acc).zip(bs) {
                *d = a + b;
            }
        }
        Epilogue::BiasRelu(bias) => {
            let bs = &bias[j0..j0 + dst.len()];
            for ((d, &a), &b) in dst.iter_mut().zip(acc).zip(bs) {
                let v = a + b;
                *d = if v < 0.0 { 0.0 } else { v };
            }
        }
    }
}

/// A full dense layer forward — `out = act(x · w + b)` — through the
/// packed kernels: bit-identical to `x.matmul_into(&layer.w, out)`, then
/// `add_row_broadcast(&layer.b)`, then `relu_inplace` when `relu`. `pack`
/// must be the packing of `layer.w` (owners repack after every optimizer
/// step).
pub fn dense_forward_into(
    x: &Matrix,
    layer: &Linear,
    pack: &PackedB,
    relu: bool,
    out: &mut Matrix,
) {
    debug_assert_eq!(pack.rows, layer.w.rows(), "stale pack: rows");
    debug_assert_eq!(pack.cols, layer.w.cols(), "stale pack: cols");
    let epilogue = if relu { Epilogue::BiasRelu(&layer.b) } else { Epilogue::Bias(&layer.b) };
    matmul_packed_into(x, pack, epilogue, out);
}

/// Fused bias-add + optional ReLU over a freshly materialized matmul
/// output: one pass over the data instead of `add_row_broadcast` +
/// `relu_inplace`'s two. Bit-identical to the separate passes. Used by
/// the sparse input layer, whose matmul has no dense B to pack.
pub fn bias_relu_inplace(x: &mut Matrix, bias: &[f32], relu: bool) {
    let cols = x.cols();
    assert_eq!(bias.len(), cols, "bias length must match columns");
    if cols == 0 {
        return;
    }
    for row in x.data_mut().chunks_exact_mut(cols) {
        if relu {
            for (v, &b) in row.iter_mut().zip(bias) {
                let y = *v + b;
                *v = if y < 0.0 { 0.0 } else { y };
            }
        } else {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream with `0.0` and `-0.0` mixed in to
    /// exercise the branch-free reproduction of the naive kernel's
    /// zero-skip (the same LCG `flexer-ann` uses for its blocked scan
    /// differentials).
    fn lcg_values(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match (s >> 33) % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((s >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 2.0,
                }
            })
            .collect()
    }

    fn reference(a: &Matrix, b: &Matrix, epilogue: Epilogue<'_>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(b, &mut out);
        match epilogue {
            Epilogue::None => {}
            Epilogue::Bias(bias) => out.add_row_broadcast(bias),
            Epilogue::BiasRelu(bias) => {
                out.add_row_broadcast(bias);
                crate::activation::relu_inplace(&mut out);
            }
        }
        out
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, ctx: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{ctx}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn packed_matmul_is_bit_identical_across_ragged_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 3),
            (2, 3, 2),
            (3, 5, 5),
            (4, 4, 4),
            (5, 9, 7),
            (6, 17, 12),
            (7, 1, 9),
            (8, 32, 6),
            (9, 13, 11),
            (11, 96, 48),
            (16, 144, 48),
        ] {
            let a = Matrix::from_vec(m, k, lcg_values(m as u64 * 1000 + n as u64, m * k));
            let b = Matrix::from_vec(k, n, lcg_values(k as u64 * 77 + 5, k * n));
            let bias = lcg_values(n as u64 + 3, n);
            let pack = PackedB::pack(&b);
            for (name, epi) in [
                ("none", Epilogue::None),
                ("bias", Epilogue::Bias(&bias)),
                ("bias_relu", Epilogue::BiasRelu(&bias)),
            ] {
                let mut got = Matrix::zeros(0, 0);
                matmul_packed_into(&a, &pack, epi, &mut got);
                let want = reference(&a, &b, epi);
                assert_bits_eq(&got, &want, &format!("{m}x{k}x{n}/{name}"));
            }
        }
    }

    #[test]
    fn packed_matmul_is_bit_identical_at_any_thread_count() {
        // Big enough to cross PAR_MIN_WORK and fan out.
        let (m, k, n) = (160, 96, 96);
        let a = Matrix::from_vec(m, k, lcg_values(42, m * k));
        let b = Matrix::from_vec(k, n, lcg_values(43, k * n));
        let bias = lcg_values(44, n);
        let pack = PackedB::pack(&b);
        let want = reference(&a, &b, Epilogue::BiasRelu(&bias));
        for threads in [1, 2, 3, 5, 8] {
            let got = flexer_par::with_threads(threads, || {
                let mut out = Matrix::zeros(0, 0);
                matmul_packed_into(&a, &pack, Epilogue::BiasRelu(&bias), &mut out);
                out
            });
            assert_bits_eq(&got, &want, &format!("threads={threads}"));
        }
    }

    #[test]
    fn repack_tracks_weight_updates() {
        let b0 = Matrix::from_vec(3, 5, lcg_values(7, 15));
        let b1 = Matrix::from_vec(3, 5, lcg_values(8, 15));
        let a = Matrix::from_vec(4, 3, lcg_values(9, 12));
        let mut pack = PackedB::pack(&b0);
        pack.repack(&b1);
        let mut got = Matrix::zeros(0, 0);
        matmul_packed_into(&a, &pack, Epilogue::None, &mut got);
        assert_bits_eq(&got, &reference(&a, &b1, Epilogue::None), "repack");
    }

    #[test]
    fn fused_epilogue_handles_nan_and_negative_zero_like_relu_inplace() {
        // A row of zeros makes every k-fold term a `±0.0` product (the
        // naive kernel skips them outright), so the output is exactly
        // bias (then ReLU'd); NaN bias must survive the ReLU.
        let a = Matrix::zeros(2, 3);
        let b = Matrix::from_vec(3, 4, lcg_values(11, 12));
        let bias = vec![f32::NAN, -0.0, -1.5, 2.0];
        let pack = PackedB::pack(&b);
        let mut got = Matrix::zeros(0, 0);
        matmul_packed_into(&a, &pack, Epilogue::BiasRelu(&bias), &mut got);
        let want = reference(&a, &b, Epilogue::BiasRelu(&bias));
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert!(got.get(0, 0).is_nan(), "NaN must pass through the fused ReLU");
        // 0.0 + -0.0 is +0.0 in IEEE 754; both paths must agree on the bits.
        assert_eq!(got.get(0, 1).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_output_and_zero_k_edge_cases() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let bias = vec![1.0, -2.0, 3.0, -4.0];
        let pack = PackedB::pack(&b);
        let mut got = Matrix::zeros(0, 0);
        // k == 0: output is pure epilogue over zeros, exactly like naive.
        matmul_packed_into(&a, &pack, Epilogue::BiasRelu(&bias), &mut got);
        assert_bits_eq(&got, &reference(&a, &b, Epilogue::BiasRelu(&bias)), "k=0");
        // n == 0: empty output.
        let b = Matrix::zeros(5, 0);
        let a = Matrix::from_vec(2, 5, lcg_values(13, 10));
        let mut got = Matrix::zeros(7, 7);
        matmul_packed_into(&a, &PackedB::pack(&b), Epilogue::None, &mut got);
        assert_eq!((got.rows(), got.cols()), (2, 0));
    }

    #[test]
    fn bias_relu_inplace_matches_separate_passes() {
        let cols = 7;
        let bias = lcg_values(21, cols);
        let mut fused = Matrix::from_vec(5, cols, lcg_values(22, 5 * cols));
        let mut separate = fused.clone();
        bias_relu_inplace(&mut fused, &bias, true);
        separate.add_row_broadcast(&bias);
        crate::activation::relu_inplace(&mut separate);
        assert_bits_eq(&fused, &separate, "bias_relu fused");

        let mut fused = Matrix::from_vec(3, cols, lcg_values(23, 3 * cols));
        let mut separate = fused.clone();
        bias_relu_inplace(&mut fused, &bias, false);
        separate.add_row_broadcast(&bias);
        assert_bits_eq(&fused, &separate, "bias only");
    }

    #[test]
    fn dense_forward_equals_the_unfused_sequence_it_documents() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 5), (4, 4, 4), (5, 9, 7), (9, 6, 5), (11, 96, 48)] {
            let layer = Linear {
                w: Matrix::from_vec(k, n, lcg_values(31 + k as u64, k * n)),
                b: lcg_values(32 + n as u64, n),
                grad_w: Matrix::zeros(k, n),
                grad_b: vec![0.0; n],
            };
            let pack = PackedB::pack(&layer.w);
            let x = Matrix::from_vec(m, k, lcg_values(33 + m as u64, m * k));
            for relu in [true, false] {
                let mut got = Matrix::zeros(0, 0);
                dense_forward_into(&x, &layer, &pack, relu, &mut got);
                let mut want = Matrix::zeros(0, 0);
                x.matmul_into(&layer.w, &mut want);
                want.add_row_broadcast(&layer.b);
                if relu {
                    crate::activation::relu_inplace(&mut want);
                }
                assert_bits_eq(&got, &want, &format!("{m}x{k}x{n}/relu={relu}"));
            }
        }
    }
}
