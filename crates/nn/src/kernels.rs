//! Cache-aware register-blocked matmul kernels: the dense forward, and
//! the two gradient products of the training backward.
//!
//! The naive `i,k,j` matmul streams the n-wide output row through memory
//! once per k iteration; at GNN shapes (m up to tens of thousands, k/n
//! 2–384) that read-modify-write traffic dominates. The kernels here fix it
//! with three moves, none of which change a single float bit:
//!
//! - **Packing**: the B operand (layer weights, reused across every row
//!   of every batch) is transposed once into 8-column panels —
//!   [`PackedB`] — so the inner loop reads one contiguous 8-wide strip
//!   per k. The forward packs at layer construction / snapshot load and
//!   after each optimizer step, never per call; the input gradient
//!   `grad · Wᵀ` packs `Wᵀ` per call ([`PackedB::pack_transposed`], a
//!   weight-sized copy against a batch-sized product).
//! - **Register blocking**: micro-kernels compute 4 output rows × 8
//!   columns per inner loop (× 24 for the weight gradient, whose four
//!   broadcasts per batch row feed three panels), keeping 32 (96)
//!   accumulators in registers for the whole fold — the output is touched
//!   once per tile instead of once per term. Each output element's fold
//!   stays a single chain in ascending order (the same discipline
//!   `flexer-ann` uses for its distance kernels): ascending k for
//!   [`matmul_packed_into`], ascending batch row for the weight gradient
//!   [`matmul_transpose_a_acc`]. The
//!   naive kernels' `a[i][k] == 0.0` skip needs no branch here: the
//!   accumulator starts at `+0.0` and round-to-nearest addition can only
//!   produce `-0.0` from `(-0.0) + (-0.0)`, so the chain never sits at
//!   `-0.0` — which makes `acc += 0.0 * s` (the `±0.0` product of a
//!   finite `s`) a bitwise no-op, exactly like the skip. The branch-free
//!   inner loop is what lets it vectorize.
//!
//!   The equivalence needs the operand met by a zero to be finite —
//!   `0.0 × ∞` is NaN. In the forward that operand is a weight, and
//!   trained layers are finite by construction; inputs may be anything.
//!   In the weight gradient it is the output **gradient**: where the
//!   skipping kernel met a NaN or infinite gradient entry with a `0.0`
//!   input, it left the weight gradient alone, and the kernel here turns
//!   it into NaN. A non-finite gradient is a diverged step either way.
//! - **Fused epilogue**: bias-add and ReLU are applied as each 4×8 tile
//!   is written back ([`Epilogue`]), eliminating the separate
//!   `add_row_broadcast` + `relu_inplace` passes over the output. Both
//!   are elementwise, so fusion is bit-exact; ReLU is `if v < 0.0`
//!   (never `max`) to preserve NaN and `-0.0` exactly like
//!   `activation::relu_inplace`.
//!
//! The forward kernel fans out over 4-row blocks with
//! `flexer_par::for_each_row_mut`, the weight gradient over blocks of
//! output rows, each streaming the whole batch: every accumulator has one
//! owner, so both are bit-identical at any thread count.
//!
//! [`dense_forward_into`] is the one dense-layer forward. The unfused
//! sequence it replaced (`matmul_into` → `add_row_broadcast` →
//! `relu_inplace`) is what this module's tests diff it against; `matrix.rs`
//! diffs the two gradient products against the loops they replaced.

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

    /// Packs `bᵀ`: the operand of `a · bᵀ` (the input gradient
    /// `grad · Wᵀ`), without materializing the transpose.
    pub fn pack_transposed(b: &Matrix) -> Self {
        let mut packed = PackedB { rows: b.cols(), cols: b.rows(), panels: Vec::new() };
        packed.fill(|k, j| b.get(j, k));
        packed
    }

    /// Re-packs in place after the source matrix changed (an optimizer
    /// step); reuses the panel allocation.
    pub fn repack(&mut self, b: &Matrix) {
        self.rows = b.rows();
        self.cols = b.cols();
        self.fill(|k, j| b.row(k)[j]);
    }

    /// Lays element `(k, j)` of the `rows × cols` operand out in panels.
    fn fill(&mut self, get: impl Fn(usize, usize) -> f32) {
        let n_panels = self.cols.div_ceil(PANEL);
        self.panels.clear();
        self.panels.reserve(n_panels * self.rows * PANEL);
        for p in 0..n_panels {
            for k in 0..self.rows {
                for c in 0..PANEL {
                    let j = p * PANEL + c;
                    self.panels.push(if j < self.cols { get(k, j) } else { 0.0 });
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

/// Batch rows per chunk of [`matmul_transpose_a_acc`]: every tile of the
/// output runs over one chunk before the next is read, so the chunk's rows
/// of both operands (`ROW_CHUNK × (k + n)` floats, 72 KiB at the GNN's
/// `48 + 24`) stay in L2, and one tile's share of them in L1.
pub(crate) const ROW_CHUNK: usize = 256;

/// Column panels one tile of [`matmul_transpose_a_acc`] covers: a batch
/// row's four broadcasts from `a` feed up to three 8-wide panels of `b`
/// (96 accumulators, twelve AVX2 registers).
const GROUP: usize = 3;

/// `out += aᵀ · b` — `[m,k]ᵀ × [m,n]` added into a `[k,n]` output: the
/// weight gradient of a dense layer (`a` its input batch, `b` the
/// gradient of its output), accumulated where it is kept.
///
/// `rows`, when given, is an ascending list of rows of `a`, and row `i` of
/// `b` belongs to row `rows[i]` of `a`: the product over those rows only,
/// with no operand copied. A caller whose gradient is exactly `±0.0` on
/// every other row gets the bits of the whole-batch product, because each
/// skipped term is a `±0.0` product added to a chain that started at
/// `+0.0` (see the module docs).
///
/// Each element of `out` continues its own chain in ascending batch row
/// `i`: `out[r][c] += a[i][r] · b[i][c]`, one term per row — so into a
/// zeroed `out` it is bitwise the loop that sweeps column `r` of `a` once
/// per output row and skips `a[i][r] == 0.0` (see the module docs for the
/// skip and its finite-gradient precondition), and into an `out` that
/// holds `+0.0` it is bitwise a zeroed temporary added in afterwards.
///
/// The batch is streamed in 256-row chunks, and every tile of `out` — 4
/// rows by up to three 8-column panels — runs a chunk's rows with its
/// accumulators in registers: per batch row, four broadcasts from `a`'s
/// row and one 8-wide load from `b`'s per panel, no branch. Whole panels
/// go three to a tile, and a ragged last panel (`n % 8`, the head's
/// `n = 2`) gets a padded tile of its own. The operands are read in place;
/// only a ragged last strip of output rows (`k % 4`) or panel of columns
/// is copied out of each chunk, zero-padded, and its padding lanes are
/// never written back. Large products split the output rows into one
/// 4-aligned block per thread, each streaming the whole batch, so every
/// accumulator has one owner at any thread count.
pub fn matmul_transpose_a_acc(a: &Matrix, rows: Option<&[usize]>, b: &Matrix, out: &mut Matrix) {
    let m = rows.map_or(a.rows(), <[usize]>::len);
    assert_eq!(m, b.rows(), "matmul_transpose_a shape mismatch");
    let (k, n) = (a.cols(), b.cols());
    assert_eq!((out.rows(), out.cols()), (k, n), "matmul_transpose_a output shape mismatch");
    debug_assert!(rows.map_or(true, |rows| rows.windows(2).all(|w| w[0] < w[1])), "rows ascend");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let quads = k.div_ceil(4);
    let threads = if m * k * n >= PAR_MIN_WORK { flexer_par::max_threads().min(quads) } else { 1 };
    if threads <= 1 {
        transpose_a_acc_rows(a, rows, b, 0, out.data_mut());
        return;
    }
    let per_block = quads.div_ceil(threads) * 4;
    let blocks = flexer_par::parallel_map(k.div_ceil(per_block), |blk| {
        let span = blk * per_block..((blk + 1) * per_block).min(k);
        let mut block = out.data()[span.start * n..span.end * n].to_vec();
        transpose_a_acc_rows(a, rows, b, span.start, &mut block);
        block
    });
    for (dst, block) in out.data_mut().chunks_mut(per_block * n).zip(blocks) {
        dst.copy_from_slice(&block);
    }
}

/// [`matmul_transpose_a_acc`] for output rows `r0 .. r0 + block.len() / n`,
/// held in `block`.
fn transpose_a_acc_rows(
    a: &Matrix,
    rows: Option<&[usize]>,
    b: &Matrix,
    r0: usize,
    block: &mut [f32],
) {
    let (m, k, n) = (b.rows(), a.cols(), b.cols());
    let width = block.len() / n;
    let (a_tail, whole) = (4 * (width / 4), n / PANEL);
    let chunk = ROW_CHUNK.min(m);
    let mut a_at = vec![0usize; chunk];
    let edge_at: Vec<usize> = (0..chunk).map(|i| 4 * i).collect();
    let mut a_edge = vec![0.0f32; if a_tail == width { 0 } else { chunk * 4 }];
    let mut b_edge = vec![0.0f32; if n % PANEL == 0 { 0 } else { chunk * PANEL }];
    for i0 in (0..m).step_by(ROW_CHUNK) {
        let len = (m - i0).min(ROW_CHUNK);
        for (i, at) in a_at[..len].iter_mut().enumerate() {
            *at = rows.map_or(i0 + i, |rows| rows[i0 + i]) * k + r0;
        }
        if a_tail < width {
            for (dst, &at) in a_edge.chunks_exact_mut(4).zip(&a_at[..len]) {
                dst[..width - a_tail].copy_from_slice(&a.data()[at + a_tail..at + width]);
            }
        }
        if n % PANEL != 0 {
            for (i, dst) in b_edge.chunks_exact_mut(PANEL).take(len).enumerate() {
                dst[..n % PANEL].copy_from_slice(&b.row(i0 + i)[whole * PANEL..]);
            }
        }
        let tiles = Tiles {
            block: &mut *block,
            n,
            strips: (a.data(), &a_at[..len]),
            edge: (&a_edge[..], &edge_at[..len]),
            width,
        };
        tiles.run(whole, (&b.data()[i0 * n..], n), (&b_edge[..], n % PANEL));
    }
}

/// One chunk of [`transpose_a_acc_rows`]: the output rows it accumulates
/// into, and where each of the chunk's batch rows starts in `a` (at the
/// block's first column) and in the zero-padded copy of a ragged last
/// strip.
struct Tiles<'a> {
    block: &'a mut [f32],
    n: usize,
    strips: (&'a [f32], &'a [usize]),
    edge: (&'a [f32], &'a [usize]),
    width: usize,
}

impl Tiles<'_> {
    /// Every tile over the chunk: the `whole` full panels of `b` (the
    /// chunk's rows, row stride `n`) three to a tile, then the padded
    /// panel of the last `ragged` columns.
    fn run(mut self, whole: usize, panels: (&[f32], usize), (edge, ragged): (&[f32], usize)) {
        let (data, stride) = panels;
        for p in (0..whole).step_by(GROUP) {
            let panel = (&data[p * PANEL..], stride);
            match (whole - p).min(GROUP) {
                3 => self.columns::<3>(p * PANEL, 3 * PANEL, panel),
                2 => self.columns::<2>(p * PANEL, 2 * PANEL, panel),
                _ => self.columns::<1>(p * PANEL, PANEL, panel),
            }
        }
        if ragged > 0 {
            self.columns::<1>(whole * PANEL, ragged, (edge, PANEL));
        }
    }

    /// The tiles of output columns `j0 .. j0 + cols`, `P` panels wide, one
    /// per 4-row strip of the block.
    fn columns<const P: usize>(&mut self, j0: usize, cols: usize, panel: (&[f32], usize)) {
        let n = self.n;
        for q in 0..self.width.div_ceil(4) {
            let tile_rows = (self.width - 4 * q).min(4);
            let strip = if tile_rows == 4 {
                (self.strips.0, self.strips.1, 4 * q)
            } else {
                (self.edge.0, self.edge.1, 0)
            };
            let mut acc = [[[0.0f32; PANEL]; P]; 4];
            for (r, acc_row) in acc.iter_mut().enumerate().take(tile_rows) {
                let at = (4 * q + r) * n + j0;
                for (lanes, was) in acc_row.iter_mut().zip(self.block[at..at + cols].chunks(PANEL))
                {
                    lanes[..was.len()].copy_from_slice(was);
                }
            }
            let acc = fold_tile(acc, strip, panel);
            for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                let at = (4 * q + r) * n + j0;
                for (dst, lanes) in self.block[at..at + cols].chunks_mut(PANEL).zip(acc_row) {
                    dst.copy_from_slice(&lanes[..dst.len()]);
                }
            }
        }
    }
}

/// One 4 × `8P` tile of [`matmul_transpose_a_acc`] over a chunk's batch
/// rows: four broadcasts per row from `a` at `at + col` (one offset per
/// row), and `P` 8-wide runs of `panel` (a slice and its row stride). A
/// function of its own, taking and returning the tile by value, so the
/// accumulators live in registers rather than in the array the caller
/// loads ragged tile edges into.
#[inline(never)]
fn fold_tile<const P: usize>(
    acc: [[[f32; PANEL]; P]; 4],
    (a, a_at, col): (&[f32], &[usize], usize),
    (panel, b_stride): (&[f32], usize),
) -> [[[f32; PANEL]; P]; 4] {
    let [mut acc0, mut acc1, mut acc2, mut acc3] = acc;
    for (i, &at) in a_at.iter().enumerate() {
        let v = &a[at + col..at + col + 4];
        let s = &panel[i * b_stride..i * b_stride + P * PANEL];
        let (v0, v1, v2, v3) = (v[0], v[1], v[2], v[3]);
        for p in 0..P {
            let s = &s[p * PANEL..(p + 1) * PANEL];
            for c in 0..PANEL {
                acc0[p][c] += v0 * s[c];
                acc1[p][c] += v1 * s[c];
                acc2[p][c] += v2 * s[c];
                acc3[p][c] += v3 * s[c];
            }
        }
    }
    [acc0, acc1, acc2, acc3]
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
