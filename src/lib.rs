//! # flexer
//!
//! Facade crate for the FlexER workspace — a from-scratch Rust reproduction
//! of *FlexER: Flexible Entity Resolution for Multiple Intents* (Genossar,
//! Shraga, Gal — SIGMOD 2023).
//!
//! The workspace implements the multiple intents entity resolution (MIER)
//! problem and the FlexER solution end-to-end: DITTO-substitute neural
//! matchers, the multiplex intents graph, a GraphSAGE-style GNN, the
//! Naïve / In-parallel / Multi-label baselines, calibrated synthetic
//! versions of the AmazonMI, Walmart-Amazon and WDC benchmarks, the paper's
//! evaluation measures, and a harness regenerating every table and figure.
//!
//! On top of the batch pipeline sits an **online resolution tier**: a
//! trained model exports into a versioned, checksummed `.flexer` snapshot
//! ([`store`]), and a [`serve::ResolutionService`] loads it
//! to answer "which entities match this record, under intent I?" at query
//! time — exact transductive answers for stored pairs, frozen-weight
//! inductive scoring (incremental ANN insert + local GNN forward) for new
//! records, with an LRU embedding cache, and spans and counters per service
//! ([`obs`]).
//!
//! # The thread budget
//!
//! FlexER trains *P* independent GNNs — one per intent — over the same
//! multiplex graph. That per-intent loop, the per-intent matcher fits of
//! the in-parallel baseline, multi-query ANN search, k-NN graph
//! construction and large matmuls all fan out across the
//! [`par`] thread budget (honouring `RAYON_NUM_THREADS`, like
//! rayon). The work split is deterministic and every item runs the exact
//! serial kernel, so **results are bit-identical for any thread count**:
//! `RAYON_NUM_THREADS=1` is the fully serial configuration and agrees
//! with the default budget. Use
//! [`par::with_threads`] to pin the budget in
//! code.
//!
//! ```
//! use flexer::prelude::*;
//!
//! // Generate a tiny AmazonMI-like benchmark and run the full pipeline.
//! let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(7).generate();
//! bench.validate().unwrap();
//! assert_eq!(bench.n_intents(), 5);
//! ```

pub use flexer_ann as ann;
pub use flexer_block as block;
pub use flexer_core as core;
pub use flexer_datasets as datasets;
pub use flexer_eval as eval;
pub use flexer_graph as graph;
pub use flexer_matcher as matcher;
pub use flexer_nn as nn;
pub use flexer_obs as obs;
pub use flexer_par as par;
pub use flexer_serve as serve;
pub use flexer_store as store;
pub use flexer_types as types;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use flexer_block::BlockerState;
    pub use flexer_core::prelude::*;
    pub use flexer_datasets::{AmazonMiConfig, WalmartAmazonConfig, WdcConfig};
    pub use flexer_eval::{BinaryReport, MultiIntentReport};
    pub use flexer_serve::{
        IngestReport, ResolutionService, ServeConfig, ShardedResolutionService,
    };
    pub use flexer_store::{IndexKind, ModelSnapshot};
    pub use flexer_types::{
        BlockingReport, CandidateGenConfig, CandidateSet, Dataset, EntityMap, Intent, IntentSet,
        LabelMatrix, MatchTarget, MierBenchmark, PairRef, RankedMatch, Record, Resolution,
        ResolveQuery, ResolveResponse, Scale, ShardConfig, ShardRouter, Split,
    };
}
