//! [`ModelSnapshot`] — everything a resolution service needs to answer
//! intent queries without retraining, in one `.flexer` file.
//!
//! A snapshot captures the three stages of the paper end to end:
//!
//! * **Representation** (§4.1.1): the per-intent binary matchers (trunk +
//!   head weights), the shared featurizer configuration and the corpus
//!   document-frequency table — enough to embed *new* record pairs into
//!   each intent's latent space at query time;
//! * **Graph** (§4.1): the multiplex intents graph (stacked features +
//!   intra/inter CSR adjacencies) plus one ANN index per intent layer over
//!   the initial representations, so new nodes can be wired to their k-NN
//!   incrementally;
//! * **Prediction** (§4.2–4.3): the P trained per-intent GNNs with their
//!   batch scores/predictions — the transductive ground truth the serving
//!   tier reproduces exactly.
//!
//! Candidate generation is stored as configuration only: the blocker is a
//! pure function of the records (keep the pairs that share a q-gram,
//! §5.1), so the file carries its [`CandidateGenConfig`] and, for a
//! sharded deployment, its [`ShardConfig`]; decoding rebuilds the state
//! from the titles. A model repository stores what cannot be recomputed.
//!
//! Round-trips are bit-exact: `save → load → save` produces identical
//! bytes (floats are stored as raw IEEE-754 bits; hash-backed tables are
//! serialized in sorted order).

use crate::codec::{Codec, Encode};
use crate::format::{seal, unseal, Reader, StoreError, Writer};
use flexer_ann::{AnyIndex, VectorIndex};
use flexer_block::BlockerState;
use flexer_graph::{MultiplexGraph, TrainedGnn};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{BinaryMatcher, PairFeaturizer};
use flexer_types::{CandidateGenConfig, IntentSet, LabelMatrix, ShardConfig};
use std::path::Path;

/// The index an exporter builds per intent layer. There is one; the enum
/// stays while the pinned `ladder` benchmark names `IndexKind::Flat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact flat L2 search (the paper's default).
    Flat,
}

/// A complete, self-contained trained-model snapshot.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The intent set `Π` (names + the equivalence flag).
    pub intents: IntentSet,
    /// Intra-layer k-NN degree used when the graph was built — the same
    /// `k` the serving tier uses to wire new nodes.
    pub k: usize,
    /// Corpus record titles, id order (the matching phase consumes titles
    /// only, like the paper's setup).
    pub records: Vec<String>,
    /// Candidate pair record refs `(a, b)`, pair-id order.
    pub pairs: Vec<(u32, u32)>,
    /// Featurizer configuration shared by every matcher.
    pub featurizer: PairFeaturizer,
    /// Corpus document frequencies (for query-time summarization).
    pub df: DfTable,
    /// One trained binary matcher per intent.
    pub matchers: Vec<BinaryMatcher>,
    /// The multiplex intents graph over the training corpus.
    pub graph: MultiplexGraph,
    /// One trained GNN per intent, with its batch scores/predictions.
    pub trained: Vec<TrainedGnn>,
    /// The batch per-intent predictions (pairs × intents).
    pub predictions: LabelMatrix,
    /// One ANN index per intent layer over the initial representations.
    pub indexes: Vec<AnyIndex>,
    /// The candidate-generation tier over the corpus records
    /// ([`BlockerState::Exhaustive`] for the explicit all-pairs fallback).
    /// Derived, never serialized: the file stores its
    /// [`CandidateGenConfig`], and decoding rebuilds the state with
    /// [`BlockerState::build`] over `records`.
    pub blocker: BlockerState,
    /// The shard layout a sharded deployment partitions the blocking tier
    /// into, if the snapshot was exported by one. Every shard is rebuilt
    /// from `records` by routing their titles, so the layout is all the
    /// file stores.
    pub sharding: Option<ShardConfig>,
}

impl ModelSnapshot {
    /// Cross-field consistency checks (beyond what each codec validates).
    pub fn validate(&self) -> Result<(), StoreError> {
        let p = self.intents.len();
        let n = self.pairs.len();
        let fail = |msg: String| Err(StoreError::Malformed(msg));
        if p == 0 {
            return fail("snapshot declares no intents".into());
        }
        if self.matchers.len() != p || self.trained.len() != p || self.indexes.len() != p {
            return fail(format!(
                "per-intent artefact counts (matchers {}, gnns {}, indexes {}) != {p} intents",
                self.matchers.len(),
                self.trained.len(),
                self.indexes.len()
            ));
        }
        if self.graph.n_layers != p {
            return fail(format!("graph has {} layers for {p} intents", self.graph.n_layers));
        }
        if self.graph.n_pairs != n {
            return fail(format!("graph covers {} pairs, snapshot lists {n}", self.graph.n_pairs));
        }
        if self.predictions.n_pairs() != n || self.predictions.n_intents() != p {
            return fail("prediction matrix shape mismatch".into());
        }
        for (i, &(a, b)) in self.pairs.iter().enumerate() {
            if a as usize >= self.records.len() || b as usize >= self.records.len() {
                return fail(format!("pair {i} references a record out of range"));
            }
        }
        for (q, index) in self.indexes.iter().enumerate() {
            if index.len() != n {
                return fail(format!("index {q} holds {} vectors for {n} pairs", index.len()));
            }
            if index.dim() != self.graph.dim {
                return fail(format!("index {q} dimensionality != graph features"));
            }
        }
        for (pi, t) in self.trained.iter().enumerate() {
            if t.scores.len() != n || t.preds.len() != n {
                return fail(format!("trained GNN {pi} scores/preds do not cover the pairs"));
            }
            let (reads, dim) = (t.model.sage_layers()[0].in_dim(), self.graph.dim);
            if reads != dim {
                return fail(format!("trained GNN {pi} reads {reads}-wide states, not {dim}"));
            }
            if t.model.head().out_dim() != 2 {
                return fail(format!("trained GNN {pi} head is not 2 wide"));
            }
        }
        if !matches!(self.blocker, BlockerState::Exhaustive)
            && self.blocker.len() != self.records.len()
        {
            return fail(format!(
                "blocker indexes {} records, snapshot lists {}",
                self.blocker.len(),
                self.records.len()
            ));
        }
        Ok(())
    }

    /// Serializes into a framed, checksummed `.flexer` byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        seal(&w.into_bytes())
    }

    /// Deserializes and validates a `.flexer` byte stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let payload = unseal(bytes)?;
        let mut r = Reader::new(payload);
        let snapshot = Self::decode(&mut r)?;
        r.finish()?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Writes the snapshot to a `.flexer` file. Duration and byte size
    /// are recorded under `store.save` / `store.save.bytes` on the
    /// process-global recorder.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let t0 = std::time::Instant::now();
        let bytes = self.to_bytes();
        std::fs::write(path, &bytes)?;
        let rec = flexer_obs::global();
        rec.record_span_ns("store.save", t0.elapsed().as_nanos() as u64);
        rec.record_value("store.save.bytes", bytes.len() as u64);
        Ok(())
    }

    /// Reads a snapshot from a `.flexer` file. Duration and byte size are
    /// recorded under `store.load` / `store.load.bytes` on the
    /// process-global recorder.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let t0 = std::time::Instant::now();
        let bytes = std::fs::read(path)?;
        let snapshot = Self::from_bytes(&bytes)?;
        let rec = flexer_obs::global();
        rec.record_span_ns("store.load", t0.elapsed().as_nanos() as u64);
        rec.record_value("store.load.bytes", bytes.len() as u64);
        Ok(snapshot)
    }

    /// Number of intents `P`.
    pub fn n_intents(&self) -> usize {
        self.intents.len()
    }

    /// Number of stored candidate pairs.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of corpus records.
    pub fn n_records(&self) -> usize {
        self.records.len()
    }
}

impl Encode for ModelSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.intents.encode(w);
        w.put_usize(self.k);
        self.records.encode(w);
        self.pairs.encode(w);
        self.featurizer.encode(w);
        self.df.encode(w);
        self.matchers.encode(w);
        self.graph.encode(w);
        self.trained.encode(w);
        self.predictions.encode(w);
        self.indexes.encode(w);
        self.blocker.gen_config().encode(w);
        self.sharding.encode(w);
    }
}

impl Codec for ModelSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        // Fields decode in the order written, which is encoding order.
        let mut snapshot = Self {
            intents: IntentSet::decode(r)?,
            k: r.get_usize()?,
            records: Vec::decode(r)?,
            pairs: Vec::decode(r)?,
            featurizer: PairFeaturizer::decode(r)?,
            df: DfTable::decode(r)?,
            matchers: Vec::decode(r)?,
            graph: MultiplexGraph::decode(r)?,
            trained: Vec::decode(r)?,
            predictions: LabelMatrix::decode(r)?,
            indexes: Vec::decode(r)?,
            blocker: BlockerState::Exhaustive,
            sharding: None,
        };
        let gen = CandidateGenConfig::decode(r)?;
        snapshot.sharding = Option::decode(r)?;
        snapshot.blocker = BlockerState::build(&gen, snapshot.records.iter().map(String::as_str));
        Ok(snapshot)
    }
}
