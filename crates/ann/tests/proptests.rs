//! Property-based tests for the ANN substrate: the flat index's pruned
//! search must be *exactly* brute force; the k-NN graph respects its
//! structural contract.

use flexer_ann::knn_graph::knn_graph;
use flexer_ann::{l2_sq, AnyIndex, FlatIndex, Neighbor, VectorIndex};
use proptest::prelude::*;

fn rows_strategy(n: usize, dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n * dim)
}

fn brute_force(rows: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    let n = rows.len() / dim;
    let mut all: Vec<Neighbor> = (0..n)
        .map(|id| Neighbor { id, dist: l2_sq(query, &rows[id * dim..(id + 1) * dim]) })
        .collect();
    all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// Rows on a coarse integer grid: many exactly duplicated vectors and tied
/// distances, so the tie-break by id is exercised, not just the ordering.
fn grid_rows_strategy(n: usize, dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0u8..3, n * dim).prop_map(|v| v.into_iter().map(f32::from).collect())
}

fn bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
    hits.iter().map(|h| (h.id, h.dist.to_bits())).collect()
}

/// The resumable-search contract, at **every** watermark `0..=n`: resuming
/// from the top-k of the index's first `w` rows over the rows appended
/// since equals a search from scratch, bit for bit — single-query and
/// query-blocked, for `k` below and above the watermark.
fn assert_resume_equals_search(index: &AnyIndex, queries: &[&[f32]], k: usize) {
    let want: Vec<Vec<Neighbor>> = queries.iter().map(|q| index.search(q, k)).collect();
    assert_eq!(index.search_batch(queries, k), want, "search_batch is the since = 0 case");
    for w in 0..=index.len() {
        let prefix = index.truncated(w);
        let priors: Vec<Vec<Neighbor>> = queries.iter().map(|q| prefix.search(q, k)).collect();
        let prior_refs: Vec<&[Neighbor]> = priors.iter().map(Vec::as_slice).collect();
        let batched = index.search_batch_since(queries, k, w, &prior_refs);
        for ((q, prior), (got, want)) in queries.iter().zip(&priors).zip(batched.iter().zip(&want))
        {
            assert_eq!(bits(got), bits(want), "batched, watermark {w}, k {k}");
            let single = index.search_since(q, k, w, prior);
            assert_eq!(bits(&single), bits(want), "single, watermark {w}, k {k}");
        }
    }
}

/// Widths around the distance kernel's shapes: one coordinate, an odd
/// count, FlexER's serving width, one past it, the matcher's default.
const DIMS: [usize; 5] = [1, 7, 16, 17, 64];

/// Rows for the pruned-search proptest, drawn from `seed`. Every shape but
/// the last two holds several times the partition's list cap (64), so
/// lists split (and split again) while the rows arrive.
fn shaped_rows(shape: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    let mut unit = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut rows = Vec::new();
    match shape {
        // Clusters: a few centres, tight members.
        0 => {
            let centres: Vec<f32> = (0..7 * dim).map(|_| unit() * 6.0 - 3.0).collect();
            for i in 0..330 {
                let c = (i * 5 + (unit() * 7.0) as usize) % 7;
                rows.extend(centres[c * dim..(c + 1) * dim].iter().map(|x| x + unit() * 0.4));
            }
        }
        // A coarse grid in the first three coordinates: exact duplicates
        // and exact ties, on both sides of every list boundary.
        1 => {
            for _ in 0..300 {
                rows.extend((0..dim).map(|c| if c < 3 { (unit() * 4.0).floor() } else { 1.0 }));
            }
        }
        // One row, many times: every split is the degenerate one.
        2 => {
            let row: Vec<f32> = (0..dim).map(|_| (unit() * 5.0).floor()).collect();
            (0..200).for_each(|_| rows.extend_from_slice(&row));
        }
        // Large coordinates with small differences: squared distances of
        // 1e6-1e9, where the bound's rounding slack is hundreds of units.
        3 => {
            let centres: Vec<f32> = (0..4 * dim).map(|_| 1e3 + unit() * 9e3).collect();
            for i in 0..260 {
                let c = i % 4;
                rows.extend(centres[c * dim..(c + 1) * dim].iter().map(|x| x + unit() * 40.0));
            }
        }
        // No structure: every list borders others, neighbours straddle.
        4 => rows.extend((0..280 * dim).map(|_| unit() * 2.0 - 1.0)),
        // A handful of rows (one included): a single list, k above n.
        5 => rows.extend((0..(1 + seed as usize % 4) * dim).map(|_| unit() * 2.0 - 1.0)),
        // One list filled to the cap exactly (every lane of its block a
        // member), or one row more: the split is the last thing that
        // happened to the index.
        _ => rows.extend((0..(64 + seed as usize % 2) * dim).map(|_| unit() * 2.0 - 1.0)),
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat search equals an independent brute-force scan, ids and order.
    #[test]
    fn flat_index_is_exact(rows in rows_strategy(40, 3), k in 1usize..8) {
        let dim = 3;
        let index = FlatIndex::from_rows(dim, &rows);
        let query = &rows[0..dim];
        let got = index.search(query, k);
        let want = brute_force(&rows, dim, query, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert!((g.dist - w.dist).abs() < 1e-5);
        }
    }

    /// Distances in a result list are non-decreasing and ≥ 0.
    #[test]
    fn results_sorted_and_nonnegative(rows in rows_strategy(25, 4), k in 1usize..10) {
        let index = FlatIndex::from_rows(4, &rows);
        let hits = index.search(&rows[4..8], k);
        for w in hits.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        for h in &hits {
            prop_assert!(h.dist >= 0.0);
        }
    }

    /// The k-NN graph: no self-loops, correct out-degrees, and each
    /// neighbour list really is the k nearest others.
    #[test]
    fn knn_graph_contract(rows in rows_strategy(20, 2), k in 0usize..6) {
        let dim = 2;
        let index = FlatIndex::from_rows(dim, &rows);
        let graph = knn_graph(&index, k);
        let n = rows.len() / dim;
        prop_assert_eq!(graph.len(), n);
        for (i, nbrs) in graph.iter().enumerate() {
            prop_assert_eq!(nbrs.len(), k.min(n - 1));
            prop_assert!(!nbrs.contains(&i));
            // Every listed neighbour is at most as far as any unlisted one
            // (ties may go either way, so compare with epsilon).
            let my = &rows[i * dim..(i + 1) * dim];
            let worst_listed = nbrs
                .iter()
                .map(|&u| l2_sq(my, &rows[u * dim..(u + 1) * dim]))
                .fold(0.0f32, f32::max);
            for other in 0..n {
                if other == i || nbrs.contains(&other) {
                    continue;
                }
                let d = l2_sq(my, &rows[other * dim..(other + 1) * dim]);
                prop_assert!(d >= worst_listed - 1e-5,
                    "node {i}: unlisted {other} at {d} closer than listed at {worst_listed}");
            }
        }
    }

    /// Searching with k ≥ n returns all points exactly once.
    #[test]
    fn oversized_k_returns_everything(rows in rows_strategy(12, 2)) {
        let index = FlatIndex::from_rows(2, &rows);
        let hits = index.search(&[0.0, 0.0], 100);
        let mut ids: Vec<usize> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    /// The pruned search is the whole scan, ids **and** distance bits:
    /// rows added one at a time (so the partition splits mid-stream) with
    /// searches in between, then every watermark of `search_since` (each
    /// cuts some list's block, most of them inside a 16-lane chunk),
    /// single and batched, against brute force sorted by (distance, id).
    #[test]
    fn pruned_search_equals_whole_scan(
        seed in any::<u64>(),
        shape in 0usize..7,
        dim in (0..DIMS.len()).prop_map(|i| DIMS[i]),
        k in 1usize..13,
    ) {
        // Identical rows tie at distance 0 across lists; the tie only
        // decides a result once k is past what one list holds. Around the
        // cap, k runs past a list as well.
        let k = if shape == 2 || shape == 6 { k * 7 } else { k };
        let rows = shaped_rows(shape, dim, seed);
        let n = rows.len() / dim;
        // A point between two rows, one far outside every list, and 19
        // stored rows (distance 0, ties with their duplicates): 21 queries
        // are a full query group and part of a second.
        let mut queries: Vec<Vec<f32>> = vec![
            rows[..dim].iter().zip(&rows[(n - 1) * dim..]).map(|(a, b)| (a + b) / 2.0).collect(),
            rows[..dim].iter().map(|x| x * 3.0 + 50.0).collect(),
        ];
        queries.extend((0..19).map(|i| rows[i * (n - 1) / 18 * dim..][..dim].to_vec()));
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();

        let mut index = FlatIndex::new(dim);
        for (i, row) in rows.chunks(dim).enumerate() {
            index.add(row);
            if i % 23 == 0 || i + 1 == n {
                let so_far = &rows[..(i + 1) * dim];
                for (q, kk) in queries.iter().zip([k, i + 1, i + 5, 1, k, k + 1]) {
                    let want = brute_force(so_far, dim, q, kk);
                    prop_assert_eq!(bits(&index.search(q, kk)), bits(&want), "{} rows, k {}", i + 1, kk);
                }
            }
        }
        // One growth path: the bulk constructor answers as the adds did.
        let bulk = FlatIndex::from_rows(dim, &rows);
        let want: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| brute_force(&rows, dim, q, k)).collect();
        prop_assert_eq!(&bulk.search_batch(&queries, k), &want);
        // The brute-force top-k of rows `0..w`, carried from one watermark
        // to the next by a sorted insert of row `w - 1`.
        let mut priors: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for w in 0..=n {
            for (q, prior) in queries.iter().zip(&mut priors).filter(|_| w > 0) {
                let id = w - 1;
                let dist = l2_sq(q, &rows[id * dim..w * dim]);
                let at = prior.partition_point(|nb| (nb.dist, nb.id) < (dist, id));
                prior.insert(at, Neighbor { id, dist });
                prior.truncate(k);
            }
            let prior_refs: Vec<&[Neighbor]> = priors.iter().map(Vec::as_slice).collect();
            let batched = index.search_batch_since(&queries, k, w, &prior_refs);
            for ((q, prior), (got, want)) in
                queries.iter().zip(&priors).zip(batched.iter().zip(&want))
            {
                prop_assert_eq!(bits(got), bits(want), "batched, watermark {}", w);
                if w % 7 == 0 {
                    let single = index.search_since(q, k, w, prior);
                    prop_assert_eq!(bits(&single), bits(want), "single, watermark {}", w);
                }
            }
        }
    }

    /// Flat: cached top-k + tail scan ≡ full scan, at every watermark of
    /// one list at its cap, one row past it (just split) and a few more;
    /// `k` up to past a split half and past the cap. 21 queries are a full
    /// query group and part of a second.
    #[test]
    fn flat_resumed_search_is_bit_identical(
        dim in (0..DIMS.len()).prop_map(|i| DIMS[i]),
        n in (0usize..3).prop_map(|i| [64, 65, 70][i]),
        rows in grid_rows_strategy(70, 64),
        queries in grid_rows_strategy(21, 64),
        k in (0usize..6).prop_map(|i| [1, 3, 6, 8, 33, 66][i]),
    ) {
        let index = AnyIndex::Flat(FlatIndex::from_rows(dim, &rows[..n * dim]));
        let queries: Vec<&[f32]> = queries[..21 * dim].chunks(dim).collect();
        assert_resume_equals_search(&index, &queries, k);
    }
}

/// The case the bound's rounding slack exists for. Along one direction `u`
/// in the plane: a query `q`, a row `x = q + u` (id 0) and a row `y = q − u`
/// (last id) — an exact tie that the smaller id must win — and behind each
/// a clump of 32 rows, placed so that the split puts `x` and `y` in
/// different lists, `y`'s pivot is the nearer one, and `x` is the member
/// that sets its list's radius. In exact arithmetic that list's bound
/// equals the tied distance; computed, `√‖q − p‖² − √‖x − p‖²` lands above
/// it about half the time. With the slack at zero 3 468 of these 8 000
/// instances answer `y`.
#[test]
fn rounding_slack_keeps_a_tied_row_behind_a_tight_bound() {
    for b in 0..400 {
        for m in (0..20).map(|m| 30.0 + m as f32 * 2.75) {
            let base = 1000.0 + b as f32 * 17.25;
            let q = [base, base * 0.5];
            let at = |t: f32| [q[0] + t * 0.75, q[1] + t * 1.25];
            let mut rows = at(1.0).to_vec();
            (0..32).for_each(|j| rows.extend(at(m + 5.5 + j as f32 * 0.1875)));
            (0..32).for_each(|j| rows.extend(at(-m - j as f32 * 0.375)));
            rows.extend(at(-1.0));
            let hit = FlatIndex::from_rows(2, &rows).search(&q, 1);
            assert_eq!(
                bits(&hit),
                bits(&brute_force(&rows, 2, &q, 1)),
                "base {base}, clumps at {m}"
            );
            assert_eq!(hit[0].id, 0);
        }
    }
}
