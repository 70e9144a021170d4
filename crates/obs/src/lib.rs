//! # flexer-obs — pipeline observability
//!
//! Zero-dependency tracing spans, counters/gauges, and mergeable streaming
//! histograms for the FlexER pipeline (the build environment is offline,
//! so this is hand-rolled in the same spirit as `flexer-par`).
//!
//! Three pieces:
//!
//! * [`Histogram`] — log-bucketed (HDR-style log2-linear) streaming
//!   histogram of `u64` samples: fixed ~15 KiB memory, ≤ ~1.6% relative
//!   quantile error, and *exact* mergeability — `merge(a, b)` is
//!   bit-identical to ingesting the union stream, so per-thread and
//!   per-shard aggregates combine losslessly.
//! * [`Recorder`] — aggregates nanosecond span timings by hierarchical
//!   dotted path (thread-local span stacks compose `resolve.block` from
//!   nested guards), plus named counters, gauges, and value histograms.
//!   Cheap to clone; every clone feeds the same aggregate. Each serving
//!   `Service` owns one; the process-wide [`global`] instance holds what no
//!   service owns (training, `store.*`, `block.*`).
//! * [`MetricsSnapshot`] — deterministic point-in-time export with
//!   [`MetricsSnapshot::to_json`] and a Prometheus-style
//!   [`MetricsSnapshot::to_prometheus`] text exposition; the serving
//!   tier's `obs_snapshot()` returns one.
//!
//! ## Usage
//!
//! ```
//! use flexer_obs::{span, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _resolve = rec.span("resolve");
//!     let _block = rec.span("block"); // records as "resolve.block"
//! }
//! let hits = rec.counter("cache.hits");
//! hits.inc();
//! {
//!     let _global = span!("store.save"); // records into flexer_obs::global()
//! }
//! let snapshot = rec.snapshot();
//! assert_eq!(snapshot.span("resolve.block").unwrap().count, 1);
//! println!("{}", snapshot.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod recorder;

pub use export::{HistStat, MetricsSnapshot};
pub use hist::{Histogram, N_BUCKETS, REL_ERROR_BOUND, SUB};
pub use recorder::{global, Counter, Recorder, SpanGuard, Timer};

/// Open a timed span on the process-global recorder (one argument) or an
/// explicit recorder (two arguments). Bind the result so the guard lives to
/// the end of the scope: `let _span = span!("store.save");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
    ($rec:expr, $name:expr) => {
        $rec.span($name)
    };
}
