//! # flexer-matcher
//!
//! The learned entity matcher — FlexER's substitute for DITTO (Example
//! 2.2). DITTO serializes a record pair with special tokens, fine-tunes a
//! pre-trained transformer, and reads a `[cls]` vector for classification.
//! This crate reproduces the same *interface* with a from-scratch stack:
//!
//! * the pair's two titles tokenized side by side (the featurizer never
//!   builds DITTO's serialized `[CLS] … [SEP] …` string),
//! * hashed n-gram + cross-token features standing in for pre-trained
//!   contextual representations (cross features play the role of
//!   cross-attention between the two records),
//! * a sparse-input MLP whose penultimate activation is the pair's
//!   intent-based representation (the `[cls]` analogue that seeds the
//!   multiplex graph nodes),
//! * DITTO's three optimizations in spirit: span-deletion data
//!   augmentation, domain-knowledge injection (number/code tagging) and
//!   long-input summarization,
//! * the multi-task variant of §5.2.2: shared trunk, one binary head per
//!   intent plus a multi-label head trained with Eq. 2.
//!
//! Matchers consume **titles only**, exactly like the paper's setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod config;
pub mod features;
pub mod matcher;
pub mod multilabel;
pub mod summarize;
pub mod tokenize;
pub mod train;

pub use config::MatcherConfig;
pub use features::{PairFeaturizer, PairScratch, PreparedSide, SideStore, StoredSide};
pub use matcher::{BinaryMatcher, MatcherOutput};
pub use multilabel::MultiTaskMatcher;
