//! # flexer-datasets
//!
//! Calibrated synthetic MIER benchmarks reproducing the evaluation setting
//! of the FlexER paper (§5.1). Candidate sets come from a calibrated
//! sampler or, through [`blocked_benchmark`], from any `flexer-block`
//! backend, such as the paper's 4-gram overlap blocker.
//!
//! The paper's three benchmarks (AmazonMI, Walmart-Amazon, WDC) are crawled
//! corpora that cannot be redistributed here; instead, each generator
//! synthesizes a product catalogue over a brand vocabulary and a category
//! taxonomy, derives records through realistic title perturbation, and
//! builds a candidate pair set whose *per-intent positive proportions,
//! intent interrelationships (overlap and subsumption, Defs. 3–4), and
//! cardinalities* are calibrated to Tables 3–4 of the paper. Labels are
//! derived from product metadata exactly as §5.1 prescribes (brand equality
//! with book/Kindle special-casing, main category = first element of the
//! ordered category set, set-category = Jaccard ≥ 0.4, conjunctions, WDC
//! category merging); titles are the only attribute a matcher may read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amazonmi;
pub mod catalog;
pub mod intents;
pub mod mixture;
pub mod perturb;
pub mod taxonomy;
pub mod vocab;
pub mod walmart_amazon;
pub mod wdc;

pub use amazonmi::AmazonMiConfig;
pub use catalog::{Catalog, Product};
pub use mixture::blocked_benchmark;
pub use taxonomy::{Family, Taxonomy, TaxonomyConfig};
pub use walmart_amazon::WalmartAmazonConfig;
pub use wdc::WdcConfig;
