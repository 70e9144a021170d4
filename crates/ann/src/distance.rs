//! Distance kernels.

/// Squared L2 distance between two equal-length vectors. The inner loop is
/// a straight zip/fold so LLVM vectorizes it.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Rows of one dimension-major block: the lanes of [`l2_sq_lanes`].
pub const LANES: usize = 16;

/// Squared L2 distances from `query` to the [`LANES`] rows of one
/// dimension-major block (`block[d * LANES + j]` is coordinate `d` of row
/// `j`): one accumulator per row, each folding `(query[d] − x[d])²` over
/// `d` in exactly the [`l2_sq`] order, so every lane is bitwise [`l2_sq`]
/// of its row — a row's fold never meets another row's values. The inner
/// loop runs *across* the rows, which is the shape LLVM turns into vector
/// lanes; the strict fold along `d` is what it may not reorder, and does
/// not have to.
#[inline]
pub fn l2_sq_lanes(query: &[f32], block: &[f32]) -> [f32; LANES] {
    debug_assert_eq!(block.len(), query.len() * LANES, "one lane row per dimension");
    let mut acc = [0.0f32; LANES];
    for (&q, xs) in query.iter().zip(block.chunks_exact(LANES)) {
        for (s, &x) in acc.iter_mut().zip(xs) {
            let d = q - x;
            *s += d * d;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basics() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn l2_symmetry() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 3.0, 1.5];
        assert_eq!(l2_sq(&a, &b), l2_sq(&b, &a));
    }

    #[test]
    fn blocked_scans_are_bit_identical_to_serial_l2() {
        // Awkward sizes on purpose: odd dims, ragged row counts (a full
        // block, one row, none), values with rounding-sensitive spreads.
        for (n, dim) in [(1usize, 7usize), (4, 3), (11, 5), (16, 17), (0, 1), (13, 64), (16, 16)] {
            let mut s = 0x2545F4914F6CDD1Du64;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32).mul_add(2e3, -1e3) * 1e-3
            };
            let rows: Vec<f32> = (0..n * dim).map(|_| next()).collect();
            let row = |id: usize| &rows[id * dim..(id + 1) * dim];
            // The block as `FlatIndex` keeps it: NaN where no row is.
            let mut block = vec![f32::NAN; dim * LANES];
            for id in 0..n {
                for (d, &x) in row(id).iter().enumerate() {
                    block[d * LANES + id] = x;
                }
            }
            for _ in 0..3 {
                let query: Vec<f32> = (0..dim).map(|_| next()).collect();
                let lanes = l2_sq_lanes(&query, &block);
                for (id, got) in lanes.iter().enumerate() {
                    if id < n {
                        let want = l2_sq(&query, row(id));
                        assert!(got.to_bits() == want.to_bits(), "lane {id} of {n}x{dim}");
                    } else {
                        // NaN compares false: a padding lane is never within a k-th distance.
                        assert!(got.is_nan(), "lane {id} of {n}x{dim}");
                    }
                }
            }
        }
    }
}
