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

/// Four [`l2_sq`] evaluations with their dependency chains in flight at
/// once. Each row's accumulation runs in exactly the [`l2_sq`] fold order
/// — the returned bits are identical — but interleaving four rows hides
/// the f32 add latency the one-row-at-a-time scan serializes on (the sum
/// is a strict fold, so LLVM cannot reorder it; it *can* overlap four
/// independent folds).
#[inline]
pub fn l2_sq_x4(query: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    let dim = query.len();
    let [r0, r1, r2, r3] = rows;
    debug_assert!(rows.iter().all(|r| r.len() == dim), "row dimension mismatch");
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (i, &q) in query.iter().enumerate() {
        let d0 = q - r0[i];
        let d1 = q - r1[i];
        let d2 = q - r2[i];
        let d3 = q - r3[i];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    [s0, s1, s2, s3]
}

/// Sixteen [`l2_sq`] evaluations at once: four queries against four rows,
/// every (query, row) fold in exact [`l2_sq`] order — bit-identical
/// results. Four in-flight chains (the [`l2_sq_x4`] shape) still leave the
/// scalar FMA pipeline half idle on a single core; sixteen independent
/// accumulators saturate it, and each row element loaded from the index is
/// reused by all four queries while it sits in a register.
#[inline]
pub fn l2_sq_x4x4(queries: [&[f32]; 4], rows: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let dim = queries[0].len();
    debug_assert!(queries.iter().all(|q| q.len() == dim), "query dimension mismatch");
    debug_assert!(rows.iter().all(|r| r.len() == dim), "row dimension mismatch");
    let [q0, q1, q2, q3] = queries.map(|q| &q[..dim]);
    let [r0, r1, r2, r3] = rows.map(|r| &r[..dim]);
    let mut acc = [[0.0f32; 4]; 4];
    for i in 0..dim {
        let r = [r0[i], r1[i], r2[i], r3[i]];
        let q = [q0[i], q1[i], q2[i], q3[i]];
        for (a, &qv) in acc.iter_mut().zip(&q) {
            for (s, &rv) in a.iter_mut().zip(&r) {
                let d = qv - rv;
                *s += d * d;
            }
        }
    }
    acc
}

/// Eight queries against four rows: 32 independent exact-order folds. Same
/// bit-identity argument as [`l2_sq_x4x4`]; each loaded row element is
/// reused by all eight queries, pushing the op:load ratio high enough to
/// keep the FMA pipeline the bottleneck instead of the load ports.
#[inline]
pub fn l2_sq_x8x4(queries: [&[f32]; 8], rows: [&[f32]; 4]) -> [[f32; 4]; 8] {
    let dim = queries[0].len();
    debug_assert!(queries.iter().all(|q| q.len() == dim), "query dimension mismatch");
    debug_assert!(rows.iter().all(|r| r.len() == dim), "row dimension mismatch");
    let qs = queries.map(|q| &q[..dim]);
    let [r0, r1, r2, r3] = rows.map(|r| &r[..dim]);
    let mut acc = [[0.0f32; 4]; 8];
    for i in 0..dim {
        let r = [r0[i], r1[i], r2[i], r3[i]];
        for (a, q) in acc.iter_mut().zip(&qs) {
            let qv = q[i];
            for (s, &rv) in a.iter_mut().zip(&r) {
                let d = qv - rv;
                *s += d * d;
            }
        }
    }
    acc
}

/// Squared L2 distances from every query to the rows `ids` of a row-major
/// buffer, query-major: `out[c * ids.len() + j]` is query `c` against row
/// `ids[j]`. Eights, then quads, then singles of queries take the rows four
/// at a time through [`l2_sq_x8x4`] / [`l2_sq_x4x4`] / [`l2_sq_x4`]; every
/// (query, row) pair is an independent exact-order fold, so each distance
/// is bitwise [`l2_sq`] whatever else shares its block. The rows need not
/// be adjacent: at FlexER's embedding widths a row is a cache line or two,
/// and the kernels only ever held four row *slices*.
pub fn l2_sq_gather(queries: &[&[f32]], data: &[f32], ids: &[u32], out: &mut [f32]) {
    let Some(first) = queries.first() else { return };
    let dim = first.len();
    let m = ids.len();
    debug_assert!(queries.iter().all(|q| q.len() == dim), "query dimension mismatch");
    debug_assert_eq!(out.len(), queries.len() * m, "one distance per (query, row)");
    let row = |id: u32| &data[id as usize * dim..][..dim];
    fn scatter<const Q: usize>(d: [[f32; 4]; Q], out: &mut [f32], m: usize, at: usize) {
        for (c, dq) in d.iter().enumerate() {
            out[c * m + at..c * m + at + 4].copy_from_slice(dq);
        }
    }
    let mut q0 = 0;
    while q0 < queries.len() {
        let qn = match queries.len() - q0 {
            8.. => 8,
            4.. => 4,
            _ => 1,
        };
        let out = &mut out[q0 * m..(q0 + qn) * m];
        for (b, quad) in ids.chunks(4).enumerate() {
            if let [i0, i1, i2, i3] = *quad {
                let rows = [row(i0), row(i1), row(i2), row(i3)];
                match qn {
                    8 => scatter(
                        l2_sq_x8x4(std::array::from_fn(|c| queries[q0 + c]), rows),
                        out,
                        m,
                        4 * b,
                    ),
                    4 => scatter(
                        l2_sq_x4x4(std::array::from_fn(|c| queries[q0 + c]), rows),
                        out,
                        m,
                        4 * b,
                    ),
                    _ => scatter([l2_sq_x4(queries[q0], rows)], out, m, 4 * b),
                }
            } else {
                for (t, &id) in quad.iter().enumerate() {
                    for (c, query) in queries[q0..q0 + qn].iter().enumerate() {
                        out[c * m + 4 * b + t] = l2_sq(query, row(id));
                    }
                }
            }
        }
        q0 += qn;
    }
}

/// Squared L2 distances from one query to `out.len()` consecutive rows of
/// a row-major buffer, four rows at a time via [`l2_sq_x4`]. Bit-identical
/// to calling [`l2_sq`] per row. The 4-row block shape is shared with the
/// packed matmul kernels (`flexer_nn::kernels`).
pub fn l2_sq_rows(query: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = query.len();
    debug_assert_eq!(rows.len(), out.len() * dim, "whole rows");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    let (blocks, tail) = flexer_nn::kernels::split_rows4(rows, dim);
    let mut outs = out.chunks_exact_mut(4);
    for (block, o) in blocks.chunks_exact(4 * dim).zip(&mut outs) {
        let d = l2_sq_x4(query, flexer_nn::kernels::block4(block, dim));
        o.copy_from_slice(&d);
    }
    for (row, o) in tail.chunks_exact(dim).zip(outs.into_remainder()) {
        *o = l2_sq(query, row);
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Cosine distance (`1 − cos`), safe for zero vectors (distance 1).
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
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
    fn dot_and_cosine() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((cosine_distance(&[1.0, 0.0], &[1.0, 0.0])).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn blocked_scans_are_bit_identical_to_serial_l2() {
        // Awkward sizes on purpose: odd dim, a non-multiple-of-4 row count
        // (full blocks + remainder), values with rounding-sensitive spreads.
        for (n, dim) in [(1usize, 7usize), (4, 3), (11, 5), (64, 17), (67, 1)] {
            let mut s = 0x2545F4914F6CDD1Du64;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32).mul_add(2e3, -1e3) * 1e-3
            };
            let rows: Vec<f32> = (0..n * dim).map(|_| next()).collect();
            let query: Vec<f32> = (0..dim).map(|_| next()).collect();
            let mut out = vec![0.0f32; n];
            l2_sq_rows(&query, &rows, &mut out);
            for (id, &got) in out.iter().enumerate() {
                let want = l2_sq(&query, &rows[id * dim..(id + 1) * dim]);
                assert!(got.to_bits() == want.to_bits(), "row {id} of {n}x{dim}: {got} != {want}");
            }
            // The gathered kernel: rows out of order and repeated, every
            // query-block shape (an eight, a quad, singles).
            let ids: Vec<u32> = (0..n + 3).map(|j| (j * 7 % n) as u32).collect();
            for nq in [1usize, 3, 4, 6, 8, 13] {
                let queries: Vec<Vec<f32>> =
                    (0..nq).map(|_| (0..dim).map(|_| next()).collect()).collect();
                let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                let mut out = vec![0.0f32; nq * ids.len()];
                l2_sq_gather(&queries, &rows, &ids, &mut out);
                for (c, query) in queries.iter().enumerate() {
                    for (j, &id) in ids.iter().enumerate() {
                        let want = l2_sq(query, &rows[id as usize * dim..][..dim]);
                        let got = out[c * ids.len() + j];
                        assert!(got.to_bits() == want.to_bits(), "query {c} of {nq}, row {id}");
                    }
                }
            }
        }
    }
}
