//! [`Codec`] — encode/decode of every value a snapshot or a wire message
//! contains.
//!
//! Encoding is canonical: a given value always produces the same bytes
//! (hash-map-backed types are serialized in sorted order), which is what
//! makes `save → load → save` byte-identical. Decoding validates every
//! structural invariant it can and reports [`StoreError::Malformed`]
//! instead of panicking on corrupted but checksum-valid input.
//!
//! Every length-prefixed list in either format is one sequence: a `usize`
//! count, then the elements. The [`Encode`] impl for `[T]` is the only code
//! that writes such a count, and the [`Codec`] impl for `Vec<T>` the only
//! code that reads one. It checks the count against the bytes left
//! ([`Reader::get_count`]: every element takes at least one) and reserves
//! at most `remaining / size_of::<T>()` elements. A corrupt count therefore
//! never allocates more than the input's own size, and a run of scalars,
//! whose encoded size is their size in memory, is reserved exactly. Byte
//! blobs ([`Writer::put_bytes`], [`Writer::put_str`]) are bulk copies, not
//! sequences.

use crate::format::{Reader, StoreError, Writer};
use flexer_ann::{AnyIndex, FlatIndex};
use flexer_graph::{CsrGraph, GnnModel, MultiplexGraph, SageLayer, TrainedGnn};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{BinaryMatcher, PairFeaturizer};
use flexer_nn::{Linear, Matrix, Mlp};
use flexer_types::{
    AnnBlockerConfig, CandidateGenConfig, Intent, IntentSet, LabelMatrix, NGramBlockerConfig,
    ShardConfig,
};

/// The encoding half of [`Codec`], on its own so borrowed data — slices,
/// `str`, references — encodes without a copy into an owned value.
pub trait Encode {
    /// Appends this value's canonical encoding.
    fn encode(&self, w: &mut Writer);
}

/// Binary encode/decode against the little-endian payload format. A
/// `Vec<T>` of codecs is one too: its count, then its elements; decoding
/// bounds the count by the bytes left and reserves at most
/// `remaining / size_of::<T>()` elements (see the module docs).
pub trait Codec: Encode + Sized {
    /// Decodes and validates one value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

fn malformed<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Malformed(msg.into()))
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}

impl Codec for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Codec for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_u64()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
}

impl Codec for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_usize()
    }
}

impl Encode for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_f32(*self);
    }
}

impl Codec for f32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_f32()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
}

impl Codec for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
}

impl Codec for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_bool()
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Codec for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_str()
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

/// A sequence: the count, then the elements (see the module docs).
impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count()?;
        let mut out = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(if r.get_bool()? { Some(T::decode(r)?) } else { None })
    }
}

/// An outcome that crossed a process boundary: the `Ok` flag, then the
/// value or the error's message.
impl<T: Encode> Encode for Result<T, String> {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_ok());
        match self {
            Ok(v) => v.encode(w),
            Err(msg) => w.put_str(msg),
        }
    }
}

impl<T: Codec> Codec for Result<T, String> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(if r.get_bool()? { Ok(T::decode(r)?) } else { Err(r.get_str()?) })
    }
}

impl Encode for Matrix {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows());
        w.put_usize(self.cols());
        self.data().encode(w);
    }
}

impl Codec for Matrix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        let data = Vec::<f32>::decode(r)?;
        let expect = rows.checked_mul(cols);
        if expect != Some(data.len()) {
            return malformed(format!("matrix {rows}×{cols} with {} values", data.len()));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Encode for Linear {
    fn encode(&self, w: &mut Writer) {
        self.w.encode(w);
        self.b.encode(w);
    }
}

impl Codec for Linear {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let weight = Matrix::decode(r)?;
        let b = Vec::<f32>::decode(r)?;
        if b.len() != weight.cols() {
            return malformed(format!("bias of {} for {} outputs", b.len(), weight.cols()));
        }
        let grad_w = Matrix::zeros(weight.rows(), weight.cols());
        let grad_b = vec![0.0; b.len()];
        Ok(Linear { w: weight, b, grad_w, grad_b })
    }
}

impl Encode for Mlp {
    fn encode(&self, w: &mut Writer) {
        self.layers().encode(w);
    }
}

impl Codec for Mlp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let layers = Vec::<Linear>::decode(r)?;
        if layers.is_empty() {
            return malformed("an MLP needs at least one layer");
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return malformed("MLP layer dimensions do not chain");
            }
        }
        Ok(Mlp::from_layers(layers))
    }
}

/// A SAGE layer is its aggregation tag, then its linear. Tag `0` is the
/// relation-typed layer, the only one; tag `1` was the pooled layer.
impl Encode for SageLayer {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(0);
        self.linear().encode(w);
    }
}

impl Codec for SageLayer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => {}
            1 => {
                return malformed(
                    "aggregation tag 1: pooled SAGE layers were removed in this version; \
                     refit the model",
                )
            }
            t => return malformed(format!("unknown aggregation tag {t}")),
        }
        let linear = Linear::decode(r)?;
        if linear.in_dim() % 3 != 0 {
            return malformed("SAGE linear width is not a multiple of 3");
        }
        Ok(SageLayer::from_parts(linear))
    }
}

impl Encode for GnnModel {
    fn encode(&self, w: &mut Writer) {
        self.sage_layers().encode(w);
        self.head().encode(w);
    }
}

impl Codec for GnnModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let layers = Vec::<SageLayer>::decode(r)?;
        if layers.is_empty() {
            return malformed("a GNN needs at least one layer");
        }
        let head = Linear::decode(r)?;
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return malformed("GNN layer dimensions do not chain");
            }
        }
        if layers.last().expect("non-empty").out_dim() != head.in_dim() {
            return malformed("GNN head width does not match the final layer");
        }
        Ok(GnnModel::from_parts(layers, head))
    }
}

impl Encode for CsrGraph {
    fn encode(&self, w: &mut Writer) {
        self.indptr().encode(w);
        self.indices().encode(w);
    }
}

impl Codec for CsrGraph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let indptr = Vec::<usize>::decode(r)?;
        let indices = Vec::<u32>::decode(r)?;
        if indptr.is_empty() || indptr[0] != 0 {
            return malformed("CSR indptr must start with 0");
        }
        if !indptr.windows(2).all(|w| w[0] <= w[1]) {
            return malformed("CSR indptr must be monotone");
        }
        if *indptr.last().expect("non-empty") != indices.len() {
            return malformed("CSR indptr must end at the edge count");
        }
        let n_nodes = indptr.len() - 1;
        if indices.iter().any(|&u| u as usize >= n_nodes) {
            return malformed("CSR edge references a node out of range");
        }
        Ok(CsrGraph::from_parts(indptr, indices))
    }
}

impl Encode for MultiplexGraph {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_pairs);
        w.put_usize(self.n_layers);
        self.features.encode(w);
        self.intra.encode(w);
        self.inter.encode(w);
    }
}

impl Codec for MultiplexGraph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n_pairs = r.get_usize()?;
        let n_layers = r.get_usize()?;
        let features = Matrix::decode(r)?;
        let intra = CsrGraph::decode(r)?;
        let inter = CsrGraph::decode(r)?;
        let n_nodes = n_pairs.checked_mul(n_layers);
        if n_nodes != Some(features.rows()) {
            return malformed("multiplex feature rows != pairs × layers");
        }
        if intra.n_nodes() != features.rows() || inter.n_nodes() != features.rows() {
            return malformed("multiplex adjacency node count mismatch");
        }
        let dim = features.cols();
        Ok(MultiplexGraph { n_pairs, n_layers, dim, features, intra, inter })
    }
}

impl Encode for TrainedGnn {
    fn encode(&self, w: &mut Writer) {
        self.model.encode(w);
        w.put_f64(self.best_valid_f1);
        self.scores.encode(w);
        self.preds.encode(w);
        w.put_usize(self.epochs_run);
    }
}

impl Codec for TrainedGnn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let model = GnnModel::decode(r)?;
        let best_valid_f1 = r.get_f64()?;
        let scores = Vec::<f32>::decode(r)?;
        let preds = Vec::<bool>::decode(r)?;
        let epochs_run = r.get_usize()?;
        if scores.len() != preds.len() {
            return malformed("trained GNN scores/preds length mismatch");
        }
        Ok(TrainedGnn { model, best_valid_f1, scores, preds, epochs_run })
    }
}

impl Encode for FlatIndex {
    fn encode(&self, w: &mut Writer) {
        use flexer_ann::VectorIndex;
        w.put_usize(self.dim());
        self.data().encode(w);
    }
}

impl Codec for FlatIndex {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let dim = r.get_usize()?;
        let data = Vec::<f32>::decode(r)?;
        if dim == 0 || data.len() % dim != 0 {
            return malformed("flat index data is not whole rows");
        }
        if data.iter().any(|v| !v.is_finite()) {
            return malformed("flat index holds non-finite values");
        }
        Ok(FlatIndex::from_rows(dim, &data))
    }
}

impl Encode for AnyIndex {
    fn encode(&self, w: &mut Writer) {
        let AnyIndex::Flat(i) = self;
        w.put_u8(0);
        i.encode(w);
    }
}

impl Codec for AnyIndex {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(AnyIndex::Flat(FlatIndex::decode(r)?)),
            1 => malformed(
                "index tag 1: IVF indexes were removed in this version; \
                 re-export the snapshot from its model",
            ),
            t => malformed(format!("unknown index tag {t}")),
        }
    }
}

impl Encode for NGramBlockerConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.q);
        w.put_usize(self.min_shared);
        w.put_usize(self.max_bucket);
    }
}

impl Codec for NGramBlockerConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let q = r.get_usize()?;
        let min_shared = r.get_usize()?;
        let max_bucket = r.get_usize()?;
        if q == 0 || min_shared == 0 {
            return malformed("n-gram blocker q and min_shared must be positive");
        }
        Ok(NGramBlockerConfig { q, min_shared, max_bucket })
    }
}

impl Encode for AnnBlockerConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.q);
        w.put_usize(self.dim);
        w.put_usize(self.k);
    }
}

impl Codec for AnnBlockerConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let q = r.get_usize()?;
        let dim = r.get_usize()?;
        let k = r.get_usize()?;
        if q == 0 || dim == 0 || k == 0 {
            return malformed("ANN blocker q, dim and k must be positive");
        }
        // Decoding a snapshot builds one `dim`-float embedding per record,
        // so the bound caps what a forged `dim` can make the reader allocate.
        if dim > 1 << 12 {
            return malformed(format!("ANN blocker dim {dim} exceeds 4096"));
        }
        Ok(AnnBlockerConfig { q, dim, k })
    }
}

impl Encode for CandidateGenConfig {
    fn encode(&self, w: &mut Writer) {
        match self {
            CandidateGenConfig::Exhaustive => w.put_u8(0),
            CandidateGenConfig::NGram(c) => {
                w.put_u8(1);
                c.encode(w);
            }
            CandidateGenConfig::Ann(c) => {
                w.put_u8(2);
                c.encode(w);
            }
        }
    }
}

impl Codec for CandidateGenConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(CandidateGenConfig::Exhaustive),
            1 => Ok(CandidateGenConfig::NGram(NGramBlockerConfig::decode(r)?)),
            2 => Ok(CandidateGenConfig::Ann(AnnBlockerConfig::decode(r)?)),
            t => malformed(format!("unknown blocker tag {t}")),
        }
    }
}

impl Encode for ShardConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_shards);
    }
}

impl Codec for ShardConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let config = ShardConfig::of(r.get_usize()?);
        config.validate().map_err(StoreError::Malformed)?;
        Ok(config)
    }
}

impl Encode for Intent {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.id);
        w.put_str(&self.name);
        w.put_bool(self.is_equivalence);
    }
}

impl Codec for Intent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let id = r.get_usize()?;
        let name = r.get_str()?;
        let is_equivalence = r.get_bool()?;
        Ok(Intent { id, name, is_equivalence })
    }
}

impl Encode for IntentSet {
    fn encode(&self, w: &mut Writer) {
        self.iter().collect::<Vec<_>>().encode(w);
    }
}

impl Codec for IntentSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        // `IntentSet::new` re-assigns ids to positions, matching the
        // encoded order.
        Ok(IntentSet::new(Vec::decode(r)?))
    }
}

impl Encode for LabelMatrix {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_pairs());
        w.put_usize(self.n_intents());
        for i in 0..self.n_pairs() {
            for p in 0..self.n_intents() {
                w.put_u8(self.get(i, p) as u8);
            }
        }
    }
}

impl Codec for LabelMatrix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n_pairs = r.get_usize()?;
        let n_intents = r.get_usize()?;
        let n_labels = match n_pairs.checked_mul(n_intents) {
            Some(n) => n,
            None => return malformed("label matrix shape overflows"),
        };
        if n_labels > r.remaining() {
            return Err(StoreError::Truncated { needed: n_labels, available: r.remaining() });
        }
        let mut m = LabelMatrix::zeros(n_pairs, n_intents);
        for i in 0..n_pairs {
            for p in 0..n_intents {
                match r.get_u8()? {
                    0 => {}
                    1 => m.set(i, p, true),
                    b => return malformed(format!("invalid label byte {b}")),
                }
            }
        }
        Ok(m)
    }
}

impl Encode for PairFeaturizer {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.hash_dim);
        w.put_usize(self.char_ngram);
        w.put_bool(self.use_cross);
        w.put_usize(self.max_tokens);
    }
}

impl Codec for PairFeaturizer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let hash_dim = r.get_usize()?;
        let char_ngram = r.get_usize()?;
        let use_cross = r.get_bool()?;
        let max_tokens = r.get_usize()?;
        if hash_dim == 0 {
            return malformed("featurizer hash dimension must be positive");
        }
        Ok(PairFeaturizer { hash_dim, char_ngram, use_cross, max_tokens })
    }
}

impl Encode for DfTable {
    fn encode(&self, w: &mut Writer) {
        // Sorted entries: identical tables encode identically regardless of
        // hash-map iteration order.
        self.entries().encode(w);
        w.put_u32(self.n_docs());
    }
}

impl Codec for DfTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let entries = Vec::decode(r)?;
        Ok(DfTable::from_entries(entries, r.get_u32()?))
    }
}

impl Encode for BinaryMatcher {
    fn encode(&self, w: &mut Writer) {
        self.input().encode(w);
        self.head().encode(w);
        w.put_f64(self.best_valid_f1);
    }
}

impl Codec for BinaryMatcher {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let input = Linear::decode(r)?;
        let head = Mlp::decode(r)?;
        let best_valid_f1 = r.get_f64()?;
        if input.out_dim() != head.layer(0).in_dim() {
            return malformed("matcher trunk/head width mismatch");
        }
        Ok(BinaryMatcher::from_parts(input, head, best_valid_f1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<T: Codec>(value: &T) -> T {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        // Canonical encoding: re-encoding the decoded value is bit-identical.
        let mut w2 = Writer::new();
        decoded.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-encode must be byte-identical");
        decoded
    }

    #[test]
    fn matrix_roundtrip_bitexact() {
        let m = Matrix::from_fn(4, 3, |i, j| (i as f32 - 1.5) * (j as f32 + 0.25));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn linear_and_mlp_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let linear = Linear::new(&mut rng, 5, 3);
        let got = roundtrip(&linear);
        assert_eq!(got.w, linear.w);
        assert_eq!(got.b, linear.b);
        assert_eq!(got.grad_w.frobenius_norm(), 0.0, "gradients reset on load");

        let mlp = Mlp::new(
            &mut rng,
            &flexer_nn::MlpConfig { input_dim: 4, hidden: vec![6, 3], output_dim: 2 },
        );
        let got = roundtrip(&mlp);
        let x = Matrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.2);
        assert_eq!(got.forward(&x), mlp.forward(&x));
    }

    #[test]
    fn gnn_model_roundtrip_preserves_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = GnnModel::new(&mut rng, 4, &[5, 5]);
        let features = Matrix::from_fn(6, 4, |i, j| ((i * 3 + j) % 7) as f32 * 0.3 - 1.0);
        let graph = MultiplexGraph::assemble(
            3,
            2,
            features,
            &[vec![vec![1], vec![0], vec![1]], vec![vec![2], vec![], vec![0]]],
        );
        let got = roundtrip(&model);
        assert_eq!(got.forward(&graph).final_hidden(), model.forward(&graph).final_hidden());
    }

    #[test]
    fn csr_and_multiplex_roundtrip() {
        let g = CsrGraph::from_in_neighbors(&[vec![1, 2], vec![], vec![0]]);
        assert_eq!(roundtrip(&g), g);

        let features = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f32);
        let mg = MultiplexGraph::assemble(
            3,
            2,
            features,
            &[vec![vec![1], vec![0], vec![1]], vec![vec![], vec![0], vec![0]]],
        );
        let got = roundtrip(&mg);
        assert_eq!(got.features, mg.features);
        assert_eq!(got.intra, mg.intra);
        assert_eq!(got.inter, mg.inter);
        assert_eq!((got.n_pairs, got.n_layers, got.dim), (3, 2, 2));
    }

    #[test]
    fn csr_rejects_out_of_range_edges() {
        let mut w = Writer::new();
        vec![0usize, 1].encode(&mut w); // 1 node, 1 edge
        vec![5u32].encode(&mut w); // … pointing at node 5
        let bytes = w.into_bytes();
        assert!(matches!(
            CsrGraph::decode(&mut Reader::new(&bytes)),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn indexes_roundtrip() {
        let rows: Vec<f32> = (0..60).map(|i| ((i * 37) % 19) as f32 * 0.21 - 2.0).collect();
        let flat = FlatIndex::from_rows(3, &rows);
        let got = roundtrip(&AnyIndex::Flat(flat.clone()));
        use flexer_ann::VectorIndex;
        assert_eq!(got.search(&rows[0..3], 4), flat.search(&rows[0..3], 4));

        // The on-disk tag of the flat index: existing snapshots load unchanged.
        let mut w = Writer::new();
        got.encode(&mut w);
        assert_eq!(w.into_bytes()[0], 0);
    }

    #[test]
    fn intents_labels_featurizer_df_roundtrip() {
        let intents = IntentSet::new(vec![
            Intent::equivalence(0),
            Intent::named(1, "Brand"),
            Intent::named(2, "Main-Cat."),
        ]);
        let got = roundtrip(&intents);
        assert_eq!(got.names(), intents.names());
        assert_eq!(got.equivalence_id(), Some(0));

        let labels =
            LabelMatrix::from_columns(&[vec![true, false, true], vec![false, false, true]])
                .unwrap();
        assert_eq!(roundtrip(&labels), labels);

        let f =
            PairFeaturizer { hash_dim: 1 << 10, char_ngram: 3, use_cross: true, max_tokens: 16 };
        assert_eq!(roundtrip(&f), f);

        use flexer_matcher::tokenize::tokenize;
        let docs = [tokenize("nike air max"), tokenize("adidas boost")];
        let refs: Vec<&[flexer_matcher::tokenize::Token]> =
            docs.iter().map(|d| d.as_slice()).collect();
        let df = DfTable::build(refs.into_iter());
        let got = roundtrip(&df);
        assert_eq!(got.entries(), df.entries());
        assert_eq!(got.n_docs(), df.n_docs());
    }
}
