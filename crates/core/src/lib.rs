//! # flexer-core
//!
//! FlexER — flexible entity resolution for multiple intents (SIGMOD 2023),
//! end to end:
//!
//! * [`PipelineContext`] — a benchmark plus its featurized pair corpus,
//!   shared by every model;
//! * the three baselines of §3 / §5.2.4: [`NaiveModel`] (one-size-fits-all),
//!   [`InParallelModel`] (one binary matcher per intent) and
//!   [`MultiLabelModel`] (joint multi-label learning);
//! * [`FlexErModel`] (§4): per-intent matcher embeddings → multiplex
//!   intents graph → GraphSAGE GNN → per-intent predictions;
//! * the merging phase: [`clean_view()`](clean_view::clean_view) derives clean dataset views from a
//!   resolution (Examples 2.1/2.4);
//! * split-aware evaluation helpers bridging to `flexer-eval`.
//!
//! ```
//! use flexer_core::prelude::*;
//! use flexer_datasets::AmazonMiConfig;
//! use flexer_types::{Scale, Split};
//!
//! let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(1).generate();
//! let ctx = PipelineContext::new(bench, &MatcherConfig::fast()).unwrap();
//! let base = InParallelModel::fit(&ctx, &MatcherConfig::fast()).unwrap();
//! let report = evaluate_on_split(&ctx.benchmark, &base.predictions, Split::Test);
//! assert!(report.mi_f1 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod clean_view;
pub mod config;
pub mod context;
pub mod error;
pub mod flexer;
pub mod pipeline;
pub mod snapshot;
pub mod union_find;

pub use baselines::in_parallel::InParallelModel;
pub use baselines::multi_label::MultiLabelModel;
pub use baselines::naive::NaiveModel;
pub use clean_view::{clean_view, CleanView};
pub use config::FlexErConfig;
pub use context::PipelineContext;
pub use error::CoreError;
pub use flexer::FlexErModel;
pub use pipeline::{evaluate_intent_on_split, evaluate_on_split};

/// Single-import surface.
pub mod prelude {
    pub use crate::baselines::in_parallel::InParallelModel;
    pub use crate::baselines::multi_label::MultiLabelModel;
    pub use crate::baselines::naive::NaiveModel;
    pub use crate::clean_view::{clean_view, CleanView};
    pub use crate::config::FlexErConfig;
    pub use crate::context::PipelineContext;
    pub use crate::error::CoreError;
    pub use crate::flexer::FlexErModel;
    pub use crate::pipeline::{evaluate_intent_on_split, evaluate_on_split};
    pub use flexer_graph::GnnConfig;
    pub use flexer_matcher::MatcherConfig;
}
