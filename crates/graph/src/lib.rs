//! # flexer-graph
//!
//! The multiplex intents graph (§4.1) and the GraphSAGE-style GNN (§4.2)
//! at the heart of FlexER.
//!
//! * [`MultiplexGraph`] — one node per (candidate pair, intent); directed
//!   intra-layer k-NN edges over the initial intent-based representations
//!   and directed inter-layer peer edges between the same pair's nodes.
//! * [`SageLayer`] — the multiplex adjustment of GraphSAGE's update
//!   (Eqs. 3–4, following the relation-typed aggregation of R-GCN \[50\]):
//!   `h' = σ(W · [h_self ; mean_intra(N) ; mean_inter(N)])`, the only
//!   aggregation (plain GraphSAGE over the union graph is not FlexER's).
//! * [`GnnModel`] / [`train_for_intent`] — a 2- or 3-layer GNN with a
//!   per-intent prediction head (Eq. 5), trained transductively with Adam
//!   (lr 0.01, weight decay 5e-4, CE loss, up to 150 epochs) and
//!   validation-F1 model selection, the §5.2.1 protocol with two
//!   deviations: patience 25 can stop the fit before the paper's full 150
//!   epochs, and each epoch is scored *before* its update, so the untrained
//!   initialisation is a candidate — kept when no later epoch's validation
//!   F1 is strictly higher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod build;
pub mod csr;
pub mod model;
pub mod multiplex;
pub mod sage;
pub mod train;

pub use batch::{BatchInductiveTrace, NeighborArena, RowSource};
pub use build::build_intent_graph;
pub use csr::CsrGraph;
pub use model::{BatchPass, GnnModel, GnnTrace, InductiveTrace, TrainPass};
pub use multiplex::MultiplexGraph;
pub use sage::SageLayer;
pub use train::{train_for_intent, GnnConfig, TrainedGnn};
