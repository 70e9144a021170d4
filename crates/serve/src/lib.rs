//! # flexer-serve
//!
//! The online resolution tier: load a trained FlexER snapshot
//! (`flexer-store`) and answer "which entities match this record, under
//! intent I?" at query time — no retraining, the ROADMAP's
//! heavy-traffic north star and the workload query-driven collective ER
//! frames as resolution's natural shape.
//!
//! The paper's pipeline maps onto serving as follows (§2–4):
//!
//! * **Intents (§2.2)** — every query names (or fans out over) an intent
//!   `p ∈ Π`; the service returns one ranked resolution per intent, the
//!   "multiple clean views" of the introduction.
//! * **Intent-based representations (§4.1.1)** — the snapshot's frozen
//!   per-intent matchers embed fresh record pairs into each intent's
//!   latent space, behind a fixed-capacity LRU cache for hot pairs.
//! * **Multiplex graph (§4.1.2–4.1.3)** — new pairs are wired to their
//!   `k` nearest stored pairs per layer through incremental ANN inserts;
//!   inter-layer peer edges connect the pair's own P nodes.
//! * **Prediction (§4.2–4.3, Eqs. 3–5)** — a frozen-weight inductive
//!   GraphSAGE pass over the local neighbourhood scores the pair per
//!   intent; corpus pairs are served from the transductive warm forward,
//!   bit-identical to the batch model.
//!
//! Batched requests fan out through `flexer-par` (deterministic,
//! bit-identical at any thread count). Each service times and counts into
//! its own `flexer-obs` recorder — the end-to-end `resolve` span, its
//! stages, cache hits and misses — exported by
//! [`Service::obs_snapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod blocking;
pub mod cache;
pub mod chaos;
mod endpoint;
pub mod error;
mod metrics;
pub mod replica;
pub mod router;
pub mod server;
pub mod service;
pub mod shard;

pub use arena::PinnedArena;
pub use blocking::{BlockingTier, CandidateSets};
pub use cache::LruCache;
pub use chaos::{FaultMode, FaultProxy};
pub use error::ServeError;
pub use replica::NetConfig;
pub use router::{Router, RouterClient};
pub use server::ShardServer;
pub use service::{IngestReport, ResolutionService, ServeConfig, Service};
pub use shard::ShardedResolutionService;
