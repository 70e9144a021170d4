//! Property tests: `.flexer` round-trips are **bit-identical** for random
//! models — encode → decode → encode yields the same bytes, and decoded
//! models compute the same outputs to the bit.

mod common;

use flexer_ann::{AnyIndex, FlatIndex, VectorIndex};
use flexer_block::BlockerState;
use flexer_graph::GnnModel;
use flexer_nn::{Linear, Matrix, Mlp, MlpConfig};
use flexer_store::{Codec, ModelSnapshot, Reader, Writer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Encode, decode, re-encode; assert byte identity; return the decoded
/// value.
fn roundtrip<T: Codec>(value: &T) -> T {
    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let decoded = T::decode(&mut r).expect("decodes");
    r.finish().expect("fully consumed");
    let mut w2 = Writer::new();
    decoded.encode(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "re-encode must be byte-identical");
    decoded
}

fn pseudo_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x2545F4914F6CDD1D);
    (0..n * dim)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_matrices_roundtrip_bitexact(
        rows in 0usize..12,
        cols in 1usize..9,
        seed in any::<u64>(),
    ) {
        let data = pseudo_rows(rows, cols, seed);
        let m = Matrix::from_vec(rows, cols, data);
        let got = roundtrip(&m);
        prop_assert_eq!(got, m);
    }

    #[test]
    fn random_mlps_roundtrip_bitexact(
        input_dim in 1usize..8,
        hidden in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &mut rng,
            &MlpConfig { input_dim, hidden: vec![hidden], output_dim: 2 },
        );
        let got = roundtrip(&mlp);
        let x = Matrix::from_vec(3, input_dim, pseudo_rows(3, input_dim, seed ^ 1));
        // Forward passes agree to the bit (weights were restored exactly).
        prop_assert_eq!(got.forward(&x), mlp.forward(&x));
    }

    #[test]
    fn random_gnns_roundtrip_bitexact(
        dim in 2usize..6,
        hidden in 2usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = GnnModel::new(&mut rng, dim, &[hidden, hidden]);
        let got = roundtrip(&model);
        // Weight equality checked through a forward pass on a small graph.
        let features = Matrix::from_vec(6, dim, pseudo_rows(6, dim, seed ^ 2));
        let graph = flexer_graph::MultiplexGraph::assemble(
            3,
            2,
            features,
            &[vec![vec![1], vec![0], vec![1]], vec![vec![2], vec![], vec![0]]],
        );
        let trace_got = got.forward(&graph);
        let trace_want = model.forward(&graph);
        prop_assert_eq!(trace_got.final_hidden(), trace_want.final_hidden());
    }

    #[test]
    fn random_indexes_roundtrip_bitexact(
        n in 1usize..60,
        dim in 1usize..5,
        seed in any::<u64>(),
    ) {
        let rows = pseudo_rows(n, dim, seed);
        let index = AnyIndex::Flat(FlatIndex::from_rows(dim, &rows));
        let got = roundtrip(&index);
        prop_assert_eq!(got.len(), n);
        let hits_a = got.search(&rows[0..dim], 5);
        let hits_b = index.search(&rows[0..dim], 5);
        prop_assert_eq!(hits_a, hits_b);
    }

    /// A snapshot stores its blocker's config, not its state: for every
    /// backend, the decoded `blocker` is the one built over the decoded
    /// records, and re-encoding is byte-identical.
    #[test]
    fn random_blocker_states_roundtrip_bitexact(
        titles in prop::collection::vec("[a-z ]{0,14}", 0..24),
        variant in 0u8..3,
    ) {
        use flexer_types::{AnnBlockerConfig, CandidateGenConfig, NGramBlockerConfig};
        let config = match variant {
            0 => CandidateGenConfig::Exhaustive,
            1 => CandidateGenConfig::NGram(NGramBlockerConfig {
                q: 3,
                min_shared: 1,
                max_bucket: 8,
            }),
            _ => CandidateGenConfig::Ann(AnnBlockerConfig { q: 3, dim: 16, k: 4 }),
        };
        let mut snapshot = common::tiny_snapshot();
        snapshot.records.extend(titles);
        snapshot.blocker = BlockerState::build(&config, snapshot.records.iter().map(String::as_str));
        let bytes = snapshot.to_bytes();
        let got = ModelSnapshot::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&got.records, &snapshot.records);
        let built = BlockerState::build(&config, got.records.iter().map(String::as_str));
        prop_assert_eq!(&got.blocker, &built);
        prop_assert_eq!(got.to_bytes(), bytes);
    }

    #[test]
    fn random_linears_with_extreme_values_roundtrip(
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut linear = Linear::new(&mut rng, 3, 2);
        // Inject values whose bit patterns are easy to corrupt in decimal
        // round-trips; the binary format must keep them exact.
        linear.w.set(0, 0, f32::MIN_POSITIVE);
        linear.w.set(1, 1, -0.0);
        linear.b[0] = f32::MAX;
        let got = roundtrip(&linear);
        prop_assert_eq!(got.w.get(0, 0).to_bits(), f32::MIN_POSITIVE.to_bits());
        prop_assert_eq!(got.w.get(1, 1).to_bits(), (-0.0f32).to_bits());
        prop_assert_eq!(got.b[0].to_bits(), f32::MAX.to_bits());
    }
}
