//! # flexer-nn
//!
//! From-scratch neural substrate for the FlexER reproduction: dense and
//! sparse matrices with cache-friendly kernels, linear layers with manual
//! backprop, activations, the losses of the paper (softmax cross entropy,
//! Eq. 1, and the weighted multi-label BCE of Eq. 2), and Adam/SGD
//! optimizers (Adam with L2 weight decay, as used for the GNN in §5.2.1),
//! and the model-selection rule every fit shares.
//!
//! Everything is `f32` and deterministic under a seed — the substrate the
//! matcher (`flexer-matcher`) and the GNN (`flexer-graph`) are built on.
//! Large matmuls and batched forward passes are row-blocked across the `flexer-par` thread budget
//! (`RAYON_NUM_THREADS`); every row runs the exact serial kernel, so
//! results stay bit-identical for any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod init;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod select;
pub mod sparse;

pub use kernels::{Epilogue, PackedB};
pub use linear::Linear;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use sparse::SparseMatrix;
