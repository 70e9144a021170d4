//! What a service records about itself. Everything lands on the service's
//! own [`flexer_obs::Recorder`]; this module only names it: the counters
//! and span timers registered at build, and the cache hit rate derived
//! from two of those counters. There is no second store —
//! `Service::obs_snapshot` reads it all back from the recorder.
//!
//! Resolve latencies are recorded in **nanoseconds**: the hot transductive
//! path answers in well under a microsecond, so coarser units would round
//! fast queries to 0. The recorder's log-bucketed histogram clamps a
//! measured-as-zero sample to 1 ns, keeps every sample's rank for the
//! service's lifetime, and reports quantiles within
//! [`flexer_obs::REL_ERROR_BOUND`].

use flexer_obs::{Counter, Recorder, Timer};
use std::time::Duration;

/// Span path of the end-to-end resolve time, from the instant the request
/// was read. The `resolve.*` stage spans nest under it by name.
pub(crate) const RESOLVE_SPAN: &str = "resolve";

/// The service's counters, registered on its recorder at build so the hot
/// paths add without a map lookup.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Records ingested.
    pub(crate) ingest_records: Counter,
    /// Cache lookups of resolve traffic that found an entry, and that did not.
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    /// Embeddings the flood guard computed but refused to cache.
    pub(crate) flood_rejections: Counter,
    /// New nodes handed to the batched forward (B·P per call).
    pub(crate) forward_rows: Counter,
    /// Resolve candidates whose every requested score came from their
    /// cache entry's memo: no forward ran for them.
    pub(crate) memo_hits: Counter,
    /// Candidate records considered across record-level resolves.
    pub(crate) resolve_candidates: Counter,
    /// Record resolves whose candidate set came from the candidate memo:
    /// the blocking tier was not asked.
    pub(crate) block_memo_hits: Counter,
    /// Per-(candidate, layer) neighbour lists the batched path took from
    /// the cache as they were, brought up to date over the appended tail,
    /// and searched from scratch.
    pub(crate) localize_reused: Counter,
    pub(crate) localize_resumed: Counter,
    pub(crate) localize_searched: Counter,
    /// Index rows appended past the resumed lists' watermarks, summed over
    /// the lists: what the resumes had to cover instead of the whole index.
    pub(crate) localize_tail_rows: Counter,
    /// Distances the searched and resumed lists actually evaluated (pivot
    /// and centroid distances included), as the indexes report them: the
    /// work to hold against `searched × index rows` and `tail_rows`.
    pub(crate) localize_rows_scanned: Counter,
}

impl Counters {
    pub(crate) fn new(recorder: &Recorder) -> Self {
        let counter = |name| recorder.counter(name);
        Self {
            ingest_records: counter("serve.ingest.records"),
            cache_hits: counter("serve.cache.hits"),
            cache_misses: counter("serve.cache.misses"),
            flood_rejections: counter("serve.cache.flood_rejections"),
            forward_rows: counter("serve.forward.rows"),
            memo_hits: counter("serve.forward.memo_hits"),
            resolve_candidates: counter("serve.resolve.candidates"),
            block_memo_hits: counter("serve.block.memo_hits"),
            localize_reused: counter("serve.localize.reused"),
            localize_resumed: counter("serve.localize.resumed"),
            localize_searched: counter("serve.localize.searched"),
            localize_tail_rows: counter("serve.localize.tail_rows"),
            localize_rows_scanned: counter("serve.localize.rows_scanned"),
        }
    }

    /// Embedding-cache hit rate, `hits / (hits + misses)`; 0 when idle.
    pub(crate) fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get();
        let lookups = hits + self.cache_misses.get();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

/// The service's span timers, registered on its recorder at build so a
/// hot resolve records each stage without composing or looking up a path:
/// the end-to-end resolve, its four stages, and the two flat paths that
/// resolves and ingest's phase-1 workers share.
#[derive(Debug)]
pub(crate) struct Timers {
    pub(crate) resolve: Timer,
    pub(crate) block: Timer,
    pub(crate) embed: Timer,
    pub(crate) forward: Timer,
    pub(crate) rank: Timer,
    pub(crate) localize: Timer,
    pub(crate) gnn: Timer,
}

impl Timers {
    pub(crate) fn new(recorder: &Recorder) -> Self {
        Self {
            resolve: recorder.timer(RESOLVE_SPAN),
            block: recorder.timer("resolve.block"),
            embed: recorder.timer("resolve.embed"),
            forward: recorder.timer("resolve.forward"),
            rank: recorder.timer("resolve.rank"),
            localize: recorder.timer("forward.localize"),
            gnn: recorder.timer("forward.gnn"),
        }
    }
}

/// Record one resolve's end-to-end time under [`RESOLVE_SPAN`]. Recorded,
/// not a guard: the `resolve.*` stage spans are the outermost of their
/// thread, beside it rather than inside.
pub(crate) fn record_resolve(timer: &Timer, elapsed: Duration) {
    let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    timer.record_ns(ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// |a - b| within the histogram's relative error bound of b.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= b * flexer_obs::REL_ERROR_BOUND
    }

    #[test]
    fn percentiles_over_known_distribution() {
        let rec = Recorder::new();
        for us in 1..=100u64 {
            record_resolve(&rec.timer(RESOLVE_SPAN), Duration::from_micros(us));
        }
        let snap = rec.snapshot();
        let s = snap.span(RESOLVE_SPAN).expect("resolve span recorded");
        assert_eq!(s.count, 100);
        assert!(close(s.p50 as f64, 50_000.0), "p50 {}", s.p50);
        assert!(close(s.p99 as f64, 99_000.0), "p99 {}", s.p99);
        assert_eq!(s.sum, (1..=100u64).map(|us| us * 1000).sum::<u64>());
    }

    #[test]
    fn sub_microsecond_latencies_report_non_zero_percentiles() {
        // Every sample here is under 1 µs; a microsecond-granular record
        // would truncate them all to 0 and report p50 = 0 despite traffic.
        let rec = Recorder::new();
        for ns in [120u64, 250, 300, 410, 555] {
            record_resolve(&rec.timer(RESOLVE_SPAN), Duration::from_nanos(ns));
        }
        let snap = rec.snapshot();
        let s = snap.span(RESOLVE_SPAN).expect("resolve span recorded");
        assert!(close(s.p50 as f64, 300.0), "p50 {}", s.p50);
        assert!(close(s.p99 as f64, 555.0), "p99 {}", s.p99);
        assert!(s.p50 > 0, "p50 must be non-zero whenever any query ran");
    }

    #[test]
    fn zero_duration_samples_still_count() {
        let rec = Recorder::new();
        record_resolve(&rec.timer(RESOLVE_SPAN), Duration::ZERO);
        let snap = rec.snapshot();
        let s = snap.span(RESOLVE_SPAN).expect("a zero-time resolve is still a resolve");
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 1, "clamped to 1 ns, never 0");
    }

    #[test]
    fn outliers_survive_any_number_of_later_samples() {
        // A fixed-size sliding window would drop 100 early 1 ms outliers
        // from p99 once enough fast samples followed them. The cumulative
        // histogram keeps them at exactly their true rank.
        let rec = Recorder::new();
        for _ in 0..100 {
            record_resolve(&rec.timer(RESOLVE_SPAN), Duration::from_micros(1000));
        }
        for _ in 0..1000 {
            record_resolve(&rec.timer(RESOLVE_SPAN), Duration::from_micros(1));
        }
        let snap = rec.snapshot();
        let s = snap.span(RESOLVE_SPAN).expect("resolve span recorded");
        assert_eq!(s.count, 1100);
        assert!(
            close(s.p99 as f64, 1_000_000.0),
            "p99 must still see the early outliers, got {} ns",
            s.p99
        );
        assert!(close(s.p50 as f64, 1_000.0), "p50 {}", s.p50);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let rec = Recorder::new();
        let counters = Counters::new(&rec);
        let snap = rec.snapshot();
        assert!(snap.span(RESOLVE_SPAN).is_none(), "no resolve, no span");
        let hist = rec.span_histogram(RESOLVE_SPAN).unwrap_or_default();
        assert_eq!(hist.quantile(0.50), 0);
        assert_eq!(hist.quantile(0.99), 0);
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.sum(), 0);
        assert_eq!(counters.hit_rate(), 0.0);
        for name in ["serve.cache.hits", "serve.cache.misses", "serve.ingest.records"] {
            assert_eq!(snap.counter(name), Some(0), "{name} registered at zero");
        }
    }

    #[test]
    fn cache_and_ingest_counters() {
        let rec = Recorder::new();
        let counters = Counters::new(&rec);
        counters.ingest_records.inc();
        counters.cache_hits.add(3);
        counters.cache_misses.add(1);
        counters.flood_rejections.add(7);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("serve.cache.hits"), Some(3));
        assert_eq!(snap.counter("serve.cache.misses"), Some(1));
        assert_eq!(counters.hit_rate(), 0.75);
        assert_eq!(snap.counter("serve.cache.flood_rejections"), Some(7));
        assert_eq!(snap.counter("serve.ingest.records"), Some(1));
    }
}
