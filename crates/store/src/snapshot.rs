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
//! Round-trips are bit-exact: `save → load → save` produces identical
//! bytes (floats are stored as raw IEEE-754 bits; hash-backed tables are
//! serialized in sorted order).

use crate::codec::{Codec, Encode};
use crate::format::{seal, unseal, Reader, StoreError, Writer};
use crate::shard::ShardFrames;
use flexer_ann::{AnyIndex, VectorIndex};
use flexer_block::BlockerState;
use flexer_graph::{MultiplexGraph, TrainedGnn};
use flexer_matcher::summarize::DfTable;
use flexer_matcher::{BinaryMatcher, PairFeaturizer};
use flexer_types::{IntentSet, LabelMatrix};
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
    /// The candidate-generation tier: the incremental blocker state over
    /// the corpus records, so a serving tier resumes blocking exactly
    /// where the exporter left off ([`BlockerState::Exhaustive`] for the
    /// explicit all-pairs fallback).
    pub blocker: BlockerState,
    /// Shard-aware layout (format v3): when present, the blocker tier is
    /// partitioned into per-shard frames instead of the monolithic
    /// `blocker` field (which must then be the [`BlockerState::Exhaustive`]
    /// sentinel — one canonical representation keeps round-trips
    /// byte-identical). Shard servers decode only their own frame; an
    /// unsharded service merges the frames back on load.
    pub sharding: Option<ShardFrames>,
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
        if let Some(sharding) = &self.sharding {
            if !matches!(self.blocker, BlockerState::Exhaustive) {
                return fail("sharded snapshots carry the blocker only in per-shard frames".into());
            }
            if sharding.n_records() != self.records.len() {
                return fail(format!(
                    "shard frames cover {} records, snapshot lists {}",
                    sharding.n_records(),
                    self.records.len()
                ));
            }
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
        self.blocker.encode(w);
        self.sharding.encode(w);
    }
}

impl Codec for ModelSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        // Fields decode in the order written, which is encoding order.
        Ok(Self {
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
            blocker: BlockerState::decode(r)?,
            sharding: Option::decode(r)?,
        })
    }
}
