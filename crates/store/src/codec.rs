//! [`Codec`] — encode/decode of every workspace type a snapshot contains.
//!
//! Encoding is canonical: a given value always produces the same bytes
//! (hash-map-backed types are serialized in sorted order), which is what
//! makes `save → load → save` byte-identical. Decoding validates every
//! structural invariant it can and reports [`StoreError::Malformed`]
//! instead of panicking on corrupted but checksum-valid input.

use crate::format::{Reader, StoreError, Writer};
use flexer_ann::{AnyIndex, FlatIndex};
use flexer_block::{AnnRecordIndex, BlockerState, NGramIndex};
use flexer_graph::{Aggregation, CsrGraph, GnnModel, MultiplexGraph, SageLayer, TrainedGnn};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{BinaryMatcher, PairFeaturizer};
use flexer_nn::{Linear, Matrix, Mlp};
use flexer_types::{AnnBlockerConfig, Intent, IntentSet, LabelMatrix, NGramBlockerConfig};

/// Binary encode/decode against the `.flexer` payload format.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, w: &mut Writer);
    /// Decodes and validates one value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

fn malformed<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Malformed(msg.into()))
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(if r.get_bool()? { Some(T::decode(r)?) } else { None })
    }
}

impl Codec for Matrix {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows());
        w.put_usize(self.cols());
        w.put_f32_slice(self.data());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        let data = r.get_f32_slice()?;
        let expect = rows.checked_mul(cols);
        if expect != Some(data.len()) {
            return malformed(format!("matrix {rows}×{cols} with {} values", data.len()));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Codec for Linear {
    fn encode(&self, w: &mut Writer) {
        self.w.encode(w);
        w.put_f32_slice(&self.b);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let weight = Matrix::decode(r)?;
        let b = r.get_f32_slice()?;
        if b.len() != weight.cols() {
            return malformed(format!("bias of {} for {} outputs", b.len(), weight.cols()));
        }
        let grad_w = Matrix::zeros(weight.rows(), weight.cols());
        let grad_b = vec![0.0; b.len()];
        Ok(Linear { w: weight, b, grad_w, grad_b })
    }
}

impl Codec for Mlp {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_layers());
        for layer in self.layers() {
            layer.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count(32)?;
        if n == 0 {
            return malformed("an MLP needs at least one layer");
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(Linear::decode(r)?);
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return malformed("MLP layer dimensions do not chain");
            }
        }
        Ok(Mlp::from_layers(layers))
    }
}

impl Codec for Aggregation {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Aggregation::RelationTyped => 0,
            Aggregation::Pooled => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Aggregation::RelationTyped),
            1 => Ok(Aggregation::Pooled),
            t => malformed(format!("unknown aggregation tag {t}")),
        }
    }
}

impl Codec for SageLayer {
    fn encode(&self, w: &mut Writer) {
        self.aggregation().encode(w);
        self.linear().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let aggregation = Aggregation::decode(r)?;
        let linear = Linear::decode(r)?;
        let factor = match aggregation {
            Aggregation::RelationTyped => 3,
            Aggregation::Pooled => 2,
        };
        if linear.in_dim() % factor != 0 {
            return malformed("SAGE linear width is not a multiple of the concat factor");
        }
        Ok(SageLayer::from_parts(linear, aggregation))
    }
}

impl Codec for GnnModel {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_layers());
        for layer in self.sage_layers() {
            layer.encode(w);
        }
        self.head().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count(33)?;
        if n == 0 {
            return malformed("a GNN needs at least one layer");
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(SageLayer::decode(r)?);
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

impl Codec for CsrGraph {
    fn encode(&self, w: &mut Writer) {
        w.put_usize_slice(self.indptr());
        w.put_u32_slice(self.indices());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let indptr = r.get_usize_slice()?;
        let indices = r.get_u32_slice()?;
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

impl Codec for MultiplexGraph {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_pairs);
        w.put_usize(self.n_layers);
        self.features.encode(w);
        self.intra.encode(w);
        self.inter.encode(w);
    }

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

impl Codec for TrainedGnn {
    fn encode(&self, w: &mut Writer) {
        self.model.encode(w);
        w.put_f64(self.best_valid_f1);
        w.put_f32_slice(&self.scores);
        w.put_bool_slice(&self.preds);
        w.put_usize(self.epochs_run);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let model = GnnModel::decode(r)?;
        let best_valid_f1 = r.get_f64()?;
        let scores = r.get_f32_slice()?;
        let preds = r.get_bool_slice()?;
        let epochs_run = r.get_usize()?;
        if scores.len() != preds.len() {
            return malformed("trained GNN scores/preds length mismatch");
        }
        Ok(TrainedGnn { model, best_valid_f1, scores, preds, epochs_run })
    }
}

impl Codec for FlatIndex {
    fn encode(&self, w: &mut Writer) {
        use flexer_ann::VectorIndex;
        w.put_usize(self.dim());
        w.put_f32_slice(self.data());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let dim = r.get_usize()?;
        let data = r.get_f32_slice()?;
        if dim == 0 || data.len() % dim != 0 {
            return malformed("flat index data is not whole rows");
        }
        if data.iter().any(|v| !v.is_finite()) {
            return malformed("flat index holds non-finite values");
        }
        Ok(FlatIndex::from_rows(dim, &data))
    }
}

impl Codec for AnyIndex {
    fn encode(&self, w: &mut Writer) {
        let AnyIndex::Flat(i) = self;
        w.put_u8(0);
        i.encode(w);
    }

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

impl Codec for NGramBlockerConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.q);
        w.put_usize(self.min_shared);
        w.put_usize(self.max_bucket);
    }

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

impl Codec for AnnBlockerConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.q);
        w.put_usize(self.dim);
        w.put_usize(self.k);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let q = r.get_usize()?;
        let dim = r.get_usize()?;
        let k = r.get_usize()?;
        if q == 0 || dim == 0 || k == 0 {
            return malformed("ANN blocker q, dim and k must be positive");
        }
        Ok(AnnBlockerConfig { q, dim, k })
    }
}

impl Codec for NGramIndex {
    fn encode(&self, w: &mut Writer) {
        self.config().encode(w);
        w.put_usize(self.len());
        // Buckets in ascending gram-hash order, ids ascending within — the
        // canonical form that makes re-encoding byte-identical.
        let buckets = self.sorted_buckets();
        w.put_usize(buckets.len());
        for (gram, ids) in buckets {
            w.put_u64(gram);
            w.put_u32_slice(ids);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let config = NGramBlockerConfig::decode(r)?;
        let n_records = r.get_usize()?;
        let n_buckets = r.get_count(16)?;
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut prev: Option<u64> = None;
        for _ in 0..n_buckets {
            let gram = r.get_u64()?;
            if prev.is_some_and(|p| p >= gram) {
                return malformed("blocker buckets are not in ascending gram order");
            }
            prev = Some(gram);
            buckets.push((gram, r.get_u32_slice()?));
        }
        NGramIndex::from_parts(config, n_records, buckets).map_err(StoreError::Malformed)
    }
}

impl Codec for AnnRecordIndex {
    fn encode(&self, w: &mut Writer) {
        self.config().encode(w);
        w.put_f32_slice(self.data());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let config = AnnBlockerConfig::decode(r)?;
        let data = r.get_f32_slice()?;
        AnnRecordIndex::from_parts(config, data).map_err(StoreError::Malformed)
    }
}

impl Codec for BlockerState {
    fn encode(&self, w: &mut Writer) {
        match self {
            BlockerState::Exhaustive => w.put_u8(0),
            BlockerState::NGram(ix) => {
                w.put_u8(1);
                ix.encode(w);
            }
            BlockerState::Ann(ix) => {
                w.put_u8(2);
                ix.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(BlockerState::Exhaustive),
            1 => Ok(BlockerState::NGram(NGramIndex::decode(r)?)),
            2 => Ok(BlockerState::Ann(AnnRecordIndex::decode(r)?)),
            t => malformed(format!("unknown blocker tag {t}")),
        }
    }
}

impl Codec for Intent {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.id);
        w.put_str(&self.name);
        w.put_bool(self.is_equivalence);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let id = r.get_usize()?;
        let name = r.get_str()?;
        let is_equivalence = r.get_bool()?;
        Ok(Intent { id, name, is_equivalence })
    }
}

impl Codec for IntentSet {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for intent in self.iter() {
            intent.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count(17)?;
        let mut intents = Vec::with_capacity(n);
        for _ in 0..n {
            intents.push(Intent::decode(r)?);
        }
        // `IntentSet::new` re-assigns ids to positions, matching the
        // encoded order.
        Ok(IntentSet::new(intents))
    }
}

impl Codec for LabelMatrix {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_pairs());
        w.put_usize(self.n_intents());
        for i in 0..self.n_pairs() {
            for p in 0..self.n_intents() {
                w.put_u8(self.get(i, p) as u8);
            }
        }
    }

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

impl Codec for PairFeaturizer {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.hash_dim);
        w.put_usize(self.char_ngram);
        w.put_bool(self.use_cross);
        w.put_usize(self.max_tokens);
    }

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

impl Codec for DfTable {
    fn encode(&self, w: &mut Writer) {
        // Sorted entries: identical tables encode identically regardless of
        // hash-map iteration order.
        let entries = self.entries();
        w.put_usize(entries.len());
        for (token, count) in entries {
            w.put_str(token);
            w.put_u32(count);
        }
        w.put_u32(self.n_docs());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count(12)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let token = r.get_str()?;
            let count = r.get_u32()?;
            entries.push((token, count));
        }
        let n_docs = r.get_u32()?;
        Ok(DfTable::from_entries(entries, n_docs))
    }
}

impl Codec for BinaryMatcher {
    fn encode(&self, w: &mut Writer) {
        self.input().encode(w);
        self.head().encode(w);
        w.put_f64(self.best_valid_f1);
    }

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

/// Length-prefixed homogeneous sequences.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_count(1)?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
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
        for agg in [Aggregation::RelationTyped, Aggregation::Pooled] {
            let model = GnnModel::new(&mut rng, 4, &[5, 5], agg);
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
        w.put_usize_slice(&[0, 1]); // 1 node, 1 edge
        w.put_u32_slice(&[5]); // … pointing at node 5
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
