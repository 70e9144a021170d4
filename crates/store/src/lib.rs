//! # flexer-store
//!
//! Versioned, checksummed binary snapshots of trained FlexER models — the
//! model-repository layer that makes resolution a *query-time* workload
//! instead of a retrain-every-time batch job.
//!
//! The paper trains P per-intent GNNs over one multiplex intents graph
//! (§4); everything those models need at inference time — the per-intent
//! matcher weights that produce intent-based representations (§4.1.1), the
//! graph itself with its intra/inter adjacencies (§4.1.2–4.1.3), the
//! frozen GNN weights and prediction heads (§4.2–4.3, Eqs. 3–5), the
//! per-layer ANN indexes, and the intent metadata of §2 — serializes into
//! a single `.flexer` file via [`ModelSnapshot`]. `flexer-serve` loads one
//! and answers "which entities match this record, under intent I?" without
//! touching the training pipeline, the economics argued by the ER
//! model-repository line of work.
//!
//! Design points:
//!
//! * **Offline-friendly.** No serde — the environment has no network — so
//!   the format is a hand-rolled little-endian [`Writer`]/[`Reader`] pair
//!   (the same idiom as the `crates/compat` shims) framed by a magic
//!   string, a version and an FNV-1a checksum.
//! * **Bit-exact.** Floats are stored as raw IEEE-754 bits and hash-backed
//!   tables serialize in sorted order, so `save → load → save` is
//!   byte-identical and a reloaded model reproduces the batch model's
//!   predictions exactly.
//! * **Paranoid on load.** Framing, checksum, per-type shape invariants
//!   and cross-field consistency are all validated; corrupted input
//!   surfaces as a typed [`StoreError`], never a panic or a bogus model.
//! * **One sequence codec.** Every length-prefixed list in a snapshot or a
//!   wire message is a `usize` count followed by its elements, written by
//!   [`Encode`] for `[T]` and read by [`Codec`] for `Vec<T>` — nowhere
//!   else. The reader bounds the count by the bytes left and reserves at
//!   most `remaining / size_of::<T>()` elements, so a forged count cannot
//!   allocate more than the input's own size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod shard;
pub mod snapshot;
pub mod wire;

pub use codec::{Codec, Encode};
pub use format::{fnv1a64, seal, unseal, Reader, StoreError, Writer, MAGIC, VERSION};
pub use shard::ShardFrames;
pub use snapshot::{IndexKind, ModelSnapshot};
pub use wire::{
    decode_frame, frame_message, read_message, read_message_bounded, seal_frame, unseal_frame,
    write_message, WireError, MAX_WIRE_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
