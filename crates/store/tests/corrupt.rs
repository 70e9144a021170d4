//! Corrupt-input property tests: **no input, however mangled, makes the
//! store panic** — `unseal`, full `ModelSnapshot` decoding and the wire
//! protocol all return typed errors on truncation, bit flips, forged
//! length fields (including `u64::MAX`) and arbitrary byte soup.
//!
//! Two corruption layers are exercised deliberately:
//!
//! * **Framing-level** mutations of sealed bytes — mostly caught by the
//!   length bounds and the FNV checksum before any codec runs;
//! * **Payload-level** mutations that are *re-sealed* with a fresh
//!   checksum — these reach the codecs themselves, so every decoded
//!   count, length and tag must hold its own against hostile values
//!   (`Reader::get_count` bounding pre-allocations, checked products,
//!   tag validation).

mod common;

use common::tiny_snapshot;
use flexer_block::BlockerState;
use flexer_graph::GnnModel;
use flexer_nn::Linear;
use flexer_store::{
    decode_frame, frame_message, seal, seal_frame, unseal, unseal_frame, Encode, ModelSnapshot,
    StoreError, Writer,
};
use flexer_types::{
    AnnBlockerConfig, CandidateGenConfig, MatchTarget, RankedMatch, ResolveResponse, RouterRequest,
    RouterResponse, ShardRequest, ShardResponse, WireCandidates, WireQuery,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sealed snapshot bytes, built once per test binary.
fn sealed_snapshot() -> &'static Vec<u8> {
    static SHARED: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let bytes = tiny_snapshot().to_bytes();
        // The fixture itself must be valid, or every mutation test below
        // would vacuously pass on an already-broken input.
        ModelSnapshot::from_bytes(&bytes).expect("fixture snapshot round-trips");
        bytes
    })
}

/// The raw (unsealed) snapshot payload.
fn snapshot_payload() -> &'static Vec<u8> {
    static SHARED: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let mut w = Writer::new();
        tiny_snapshot().encode(&mut w);
        w.into_bytes()
    })
}

/// A wire frame with every interesting shape nested inside (an outcome,
/// floats, tagged targets, a nested vector).
fn sample_frame() -> Vec<u8> {
    frame_message(&RouterResponse::Resolve(Ok(ResolveResponse {
        intent: 1,
        matches: vec![
            RankedMatch { target: MatchTarget::Record(3), score: 0.875, matched: true },
            RankedMatch { target: MatchTarget::Pair(9), score: 0.25, matched: false },
        ],
    })))
}

/// Every decode entry point a hostile peer can reach, applied to one
/// byte string. Results are discarded — the property is "returns, never
/// panics"; mutated bytes may legitimately still decode (e.g. cancelled
/// double flips).
fn decode_everything(bytes: &[u8]) {
    let _ = unseal(bytes);
    let _ = ModelSnapshot::from_bytes(bytes);
    let _ = unseal_frame(bytes);
    let _ = decode_frame::<ShardRequest>(bytes);
    let _ = decode_frame::<ShardResponse>(bytes);
    let _ = decode_frame::<RouterRequest>(bytes);
    let _ = decode_frame::<RouterResponse>(bytes);
    let _ = flexer_store::read_message::<RouterResponse>(&mut &bytes[..]);
}

/// The codec layer alone, behind a freshly computed (valid) checksum, so
/// corruption reaches the decoders instead of dying at the frame check.
fn decode_resealed(payload: &[u8]) {
    let _ = ModelSnapshot::from_bytes(&seal(payload));
    let resealed = seal_frame(payload);
    let _ = decode_frame::<ShardRequest>(&resealed);
    let _ = decode_frame::<ShardResponse>(&resealed);
    let _ = decode_frame::<RouterRequest>(&resealed);
    let _ = decode_frame::<RouterResponse>(&resealed);
}

fn mutate(bytes: &[u8], flips: &[(usize, u8)], stamp: &Option<(usize, u64)>) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(idx, bit) in flips {
        let idx = idx % out.len();
        out[idx] ^= 1 << (bit % 8);
    }
    if let Some((at, value)) = stamp {
        // Overwrite 8 bytes anywhere with an arbitrary u64 — the shape of
        // every forged length/count attack, aimed at arbitrary fields.
        let at = at % out.len().saturating_sub(7).max(1);
        let end = (at + 8).min(out.len());
        out[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a valid sealed snapshot anywhere yields an error.
    #[test]
    fn truncated_snapshots_error_cleanly(cut in 0usize..1 << 16) {
        let bytes = sealed_snapshot();
        let cut = cut % bytes.len();
        prop_assert!(ModelSnapshot::from_bytes(&bytes[..cut]).is_err());
        prop_assert!(unseal(&bytes[..cut]).is_err());
    }

    /// Bit flips and arbitrary 8-byte overwrites (= forged length/count
    /// fields, including `u64::MAX`) never panic any decode entry point.
    #[test]
    fn mutated_snapshots_never_panic(
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..4),
        stamp_at in 0usize..1 << 16,
        stamp_value in any::<u64>(),
        use_stamp in any::<bool>(),
    ) {
        let stamp = use_stamp.then_some((stamp_at, stamp_value));
        let mutated = mutate(sealed_snapshot(), &flips, &stamp);
        decode_everything(&mutated);
    }

    /// The same mutations on the *payload*, re-sealed with a fresh
    /// checksum so they reach the codecs — counts, tags, nested lengths.
    #[test]
    fn mutated_payloads_behind_valid_checksums_never_panic(
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..4),
        stamp_at in 0usize..1 << 16,
        stamp_value in any::<u64>(),
        use_stamp in any::<bool>(),
        cut in 0usize..1 << 16,
        use_cut in any::<bool>(),
    ) {
        let stamp = use_stamp.then_some((stamp_at, stamp_value));
        let mut payload = mutate(snapshot_payload(), &flips, &stamp);
        if use_cut {
            payload.truncate(cut % (payload.len() + 1));
        }
        decode_resealed(&payload);
    }

    /// Wire frames under the same treatment: framing-level mutations and
    /// re-sealed payload mutations, across every message type.
    #[test]
    fn mutated_wire_frames_never_panic(
        flips in prop::collection::vec((0usize..1 << 12, 0u8..8), 0..4),
        stamp_at in 0usize..1 << 12,
        stamp_value in any::<u64>(),
        use_stamp in any::<bool>(),
        cut in 0usize..1 << 12,
        use_cut in any::<bool>(),
    ) {
        let stamp = use_stamp.then_some((stamp_at, stamp_value));
        let frame = sample_frame();
        let mut mutated = mutate(&frame, &flips, &stamp);
        if use_cut {
            mutated.truncate(cut % (mutated.len() + 1));
        }
        decode_everything(&mutated);
        // Payload-level: strip the header + checksum, mutate, re-seal.
        let payload_end = frame.len() - 8;
        let payload = mutate(&frame[20..payload_end], &flips, &stamp);
        decode_resealed(&payload);
    }

    /// Arbitrary byte soup — no structure at all — never panics.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode_everything(&bytes);
        decode_resealed(&bytes);
    }
}

/// The historical `unseal` overflow, pinned deterministically: a length
/// field of `u64::MAX` (and friends) must yield `Truncated`, not a wrap
/// and an out-of-bounds slice.
#[test]
fn forged_length_fields_error_on_every_entry_point() {
    let mut snapshot = sealed_snapshot().clone();
    let mut frame = sample_frame();
    for forged in [u64::MAX, u64::MAX - 7, u64::MAX / 2, 1 << 60, 1 << 32] {
        snapshot[12..20].copy_from_slice(&forged.to_le_bytes());
        frame[12..20].copy_from_slice(&forged.to_le_bytes());
        assert!(unseal(&snapshot).is_err(), "unseal len {forged:#x}");
        assert!(ModelSnapshot::from_bytes(&snapshot).is_err(), "snapshot len {forged:#x}");
        assert!(unseal_frame(&frame).is_err(), "frame len {forged:#x}");
        assert!(
            flexer_store::read_message::<RouterResponse>(&mut &frame[..]).is_err(),
            "stream len {forged:#x}"
        );
    }
}

/// Index tag `1` was the IVF backend. A snapshot that carries it (behind a
/// valid checksum) must say what happened and what to do, not "unknown tag".
#[test]
fn removed_ivf_index_tag_is_a_malformed_snapshot_that_says_so() {
    // The payload ends with its one index (tag first), the blocker's
    // config and the sharding.
    let snapshot = tiny_snapshot();
    let mut suffix = Writer::new();
    snapshot.indexes[0].encode(&mut suffix);
    snapshot.blocker.gen_config().encode(&mut suffix);
    snapshot.sharding.encode(&mut suffix);
    let suffix = suffix.into_bytes();
    let mut payload = snapshot_payload().clone();
    let at = payload.len() - suffix.len();
    assert_eq!(payload[at..], suffix[..]);
    assert_eq!(payload[at], 0, "the flat index's tag");
    payload[at] = 1;
    match ModelSnapshot::from_bytes(&seal(&payload)) {
        Err(StoreError::Malformed(msg)) => {
            assert!(msg.contains("IVF indexes were removed"), "{msg}");
            assert!(msg.contains("re-export"), "{msg}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// A SAGE layer's aggregation tag `1` was the pooled layer. A snapshot
/// whose GNN carries it (behind a valid checksum) must say what happened,
/// not "unknown tag".
#[test]
fn removed_pooled_aggregation_tag_is_a_malformed_snapshot_that_says_so() {
    // A layer is its tag, then its linear: find GNN 0's first layer.
    let snapshot = tiny_snapshot();
    let mut layer = Writer::new();
    snapshot.trained[0].model.sage_layers()[0].encode(&mut layer);
    let layer = layer.into_bytes();
    let mut payload = snapshot_payload().clone();
    let at = payload.windows(layer.len()).position(|w| w == layer).expect("layer encoded");
    assert_eq!(payload[at], 0, "the relation-typed layer's tag");
    payload[at] = 1;
    match ModelSnapshot::from_bytes(&seal(&payload)) {
        Err(StoreError::Malformed(msg)) => {
            assert!(msg.contains("aggregation tag 1"), "{msg}");
            assert!(msg.contains("pooled SAGE layers were removed"), "{msg}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Every codec of these snapshots accepts its GNN, but serving one would
/// panic: a first layer that reads wider states than the graph's
/// features, and a head with one logit where a match probability needs
/// two. `validate` refuses both.
#[test]
fn a_gnn_that_does_not_fit_the_graph_is_refused() {
    let fitted = tiny_snapshot();
    let dim = fitted.graph.dim;
    let mut rng = StdRng::seed_from_u64(9);
    let too_wide = GnnModel::new(&mut rng, dim + 1, &[4, 4]);
    let layers = fitted.trained[0].model.sage_layers().to_vec();
    let one_logit = GnnModel::from_parts(layers, Linear::new(&mut rng, 4, 1));
    for (model, what) in [(too_wide, "reads 4-wide states"), (one_logit, "head is not 2 wide")] {
        let mut snapshot = tiny_snapshot();
        snapshot.trained[0].model = model;
        match ModelSnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(StoreError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
}

/// Decoding builds the blocker over the records, so a forged ANN `dim`
/// must be refused before any embedding is allocated, not abort the
/// reader.
#[test]
fn forged_ann_blocker_dim_is_refused_before_building() {
    let ann = CandidateGenConfig::Ann(AnnBlockerConfig { q: 3, dim: 16, k: 4 });
    let mut snapshot = tiny_snapshot();
    snapshot.blocker = BlockerState::build(&ann, snapshot.records.iter().map(String::as_str));
    let mut payload = Writer::new();
    snapshot.encode(&mut payload);
    let mut payload = payload.into_bytes();
    // The tail is the blocker tag, q, dim, k and the sharding's `None`.
    let at = payload.len() - 17;
    assert_eq!(payload[at..at + 8], 16u64.to_le_bytes());
    payload[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    match ModelSnapshot::from_bytes(&seal(&payload)) {
        Err(StoreError::Malformed(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Queries and candidate payloads with hostile *values* (not just
/// hostile framing): `u64::MAX` gram hashes, non-finite distances —
/// decode fine and stay inert data.
#[test]
fn hostile_values_decode_as_plain_data() {
    let q = ShardRequest::QueryBatch(vec![WireQuery::Grams(vec![u64::MAX, 0, 1])]);
    assert_eq!(decode_frame::<ShardRequest>(&frame_message(&q)).unwrap(), q);
    let c = ShardResponse::CandidatesBatch(vec![WireCandidates::Hits(vec![
        (f32::NAN, 1),
        (f32::INFINITY, 2),
        (f32::NEG_INFINITY, u32::MAX),
    ])]);
    // NaN != NaN, so compare the re-encoding instead.
    let decoded = decode_frame::<ShardResponse>(&frame_message(&c)).unwrap();
    assert_eq!(frame_message(&decoded), frame_message(&c));
}
