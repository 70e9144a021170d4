//! Criterion bench for the nearest-neighbour computation (Table 9's NN
//! column): the exact pruned flat search against index size — single-query
//! and as one 16-query group — on clustered rows, which is what pair
//! embeddings are and what the pruning bound feeds on, at 16 dimensions
//! (the serving workloads' width) and at 64 (the default
//! `MatcherConfig::embedding_dim`); and the same search on uniform rows,
//! which have no lists to skip, so it times the scan itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexer_ann::{FlatIndex, VectorIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` rows around `n / 40` centres, members within ±0.15 of a centre in
/// [-1, 1]^dim; consecutive rows share a centre in runs of five, as the
/// candidate pairs of one ingested record do.
fn clustered_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_centres = (n / 40).max(1);
    let centres: Vec<f32> = (0..n_centres * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut rows = Vec::with_capacity(n * dim);
    let mut centre = 0;
    for i in 0..n {
        if i % 5 == 0 {
            centre = rng.gen_range(0..n_centres);
        }
        rows.extend(
            centres[centre * dim..][..dim].iter().map(|c| c + rng.gen_range(-0.15f32..0.15)),
        );
    }
    rows
}

/// `n` rows uniform in [-1, 1]^dim: no structure for the bound to use.
fn uniform_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn");
    group.sample_size(10);
    type Rows = fn(usize, usize, u64) -> Vec<f32>;
    let cases: [(&str, usize, usize, Rows); 5] = [
        ("", 16, 600, clustered_rows),
        ("", 16, 5_000, clustered_rows),
        ("", 16, 15_000, clustered_rows),
        ("dim64_", 64, 5_000, clustered_rows),
        ("uniform_", 16, 5_000, uniform_rows),
    ];
    for (shape, dim, n, rows) in cases {
        let rows = rows(n, dim, 7);
        let flat = FlatIndex::from_rows(dim, &rows);
        // Perturbed stored rows, spread over the index.
        let mut rng = StdRng::seed_from_u64(11);
        let queries: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                let row = &rows[i * (n / 64) * dim..][..dim];
                row.iter().map(|x| x + rng.gen_range(-0.05f32..0.05)).collect()
            })
            .collect();
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();

        group.bench_with_input(
            BenchmarkId::new(format!("{shape}flat_single_x64"), n),
            &n,
            |b, _| b.iter(|| queries.iter().map(|q| flat.search(q, 6).len()).sum::<usize>()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{shape}flat_group16_x4"), n),
            &n,
            |b, _| {
                b.iter(|| queries.chunks(16).map(|g| flat.search_batch(g, 6).len()).sum::<usize>())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_knn);
criterion_main!(benches);
