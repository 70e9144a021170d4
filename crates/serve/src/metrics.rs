//! Serving-tier observability: request counters, cache hit rates and
//! p50/p99 latency over a mergeable streaming histogram.
//!
//! Latencies are recorded in **nanoseconds** (clamped to ≥ 1 ns): the hot
//! transductive path answers in well under a microsecond, so a
//! microsecond-granular window rounded every sample to 0 and reported
//! `p50 = 0` whenever fast queries dominated. Percentiles come from a
//! log-bucketed [`flexer_obs::Histogram`] — fixed memory, ≤ ~1.6% relative
//! error, and cumulative over the service's lifetime, so p99 no longer
//! silently forgets outliers the way the old fixed-size sliding window did
//! every time it wrapped. Per-stage span timings live on the service's
//! [`flexer_obs::Recorder`]; this module is the coarse request-level view.

use flexer_obs::Histogram;
use std::time::Duration;

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeMetrics {
    /// Resolve requests answered.
    pub resolves: u64,
    /// Records ingested.
    pub ingests: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Embedding-cache hit rate (`hits / (hits + misses)`, 0 when idle).
    pub cache_hit_rate: f64,
    /// Miss-batch embeddings the flood guard computed but refused to
    /// cache (corpus-sized miss batches would evict the hot set).
    pub flood_rejections: u64,
    /// Resolve latency samples recorded (cumulative — every resolve since
    /// the service started, not a window).
    pub latency_samples: u64,
    /// Total nanoseconds across all recorded resolves; with
    /// `latency_samples` this gives an exact mean, and deltas of it give
    /// an exact per-interval resolve time to reconcile the per-stage span
    /// breakdown against (`examples/observability.rs` asserts the
    /// `resolve.*` stages cover 90–105 % of it).
    pub latency_sum_ns: u64,
    /// Median resolve latency, in nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile resolve latency, in nanoseconds.
    pub p99_latency_ns: u64,
    /// Median resolve latency in fractional microseconds — non-zero
    /// whenever any query ran.
    pub p50_latency_us: f64,
    /// 99th-percentile resolve latency in fractional microseconds.
    pub p99_latency_us: f64,
}

/// Mutable counter state behind the service's metrics lock. Cache hit/miss
/// counters live inside the embedding cache itself (counted under the lock
/// the lookup already holds) and the flood-rejection counter is an atomic
/// on the service; [`snapshot`](Self::snapshot) merges them in.
#[derive(Debug)]
pub(crate) struct MetricsInner {
    resolves: u64,
    ingests: u64,
    /// Resolve latencies in nanoseconds. Mergeable across services (the
    /// sharded front-end reports through the same shared counters).
    latency: Histogram,
}

impl MetricsInner {
    pub(crate) fn new() -> Self {
        Self { resolves: 0, ingests: 0, latency: Histogram::new() }
    }

    pub(crate) fn record_resolve(&mut self, elapsed: Duration) {
        self.resolves += 1;
        // Clamp to ≥ 1 ns: a measured-as-zero sample still represents a
        // query that ran, and must not report a zero percentile.
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency.record(ns.max(1));
    }

    pub(crate) fn record_ingest(&mut self) {
        self.ingests += 1;
    }

    /// `cache` is the embedding cache's lifetime `(hits, misses)` pair;
    /// `flood_rejections` the service's flood-guard counter.
    pub(crate) fn snapshot(&self, cache: (u64, u64), flood_rejections: u64) -> ServeMetrics {
        let p50_ns = self.latency.quantile(0.50);
        let p99_ns = self.latency.quantile(0.99);
        let (hits, misses) = cache;
        let lookups = hits + misses;
        ServeMetrics {
            resolves: self.resolves,
            ingests: self.ingests,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            flood_rejections,
            latency_samples: self.latency.count(),
            latency_sum_ns: self.latency.sum(),
            p50_latency_ns: p50_ns,
            p99_latency_ns: p99_ns,
            p50_latency_us: p50_ns as f64 / 1_000.0,
            p99_latency_us: p99_ns as f64 / 1_000.0,
        }
    }
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
        let mut m = MetricsInner::new();
        for us in 1..=100u64 {
            m.record_resolve(Duration::from_micros(us));
        }
        let s = m.snapshot((0, 0), 0);
        assert_eq!(s.resolves, 100);
        assert_eq!(s.latency_samples, 100);
        assert!(close(s.p50_latency_ns as f64, 50_000.0), "p50 {}", s.p50_latency_ns);
        assert!(close(s.p99_latency_ns as f64, 99_000.0), "p99 {}", s.p99_latency_ns);
        assert!(close(s.p50_latency_us, 50.0));
        assert!(close(s.p99_latency_us, 99.0));
        assert_eq!(s.latency_sum_ns, (1..=100u64).map(|us| us * 1000).sum::<u64>());
    }

    #[test]
    fn sub_microsecond_latencies_report_non_zero_percentiles() {
        // The regression this module fixes: every sample under 1 µs used
        // to truncate to 0 and p50 reported 0 despite real traffic.
        let mut m = MetricsInner::new();
        for ns in [120u64, 250, 300, 410, 555] {
            m.record_resolve(Duration::from_nanos(ns));
        }
        let s = m.snapshot((0, 0), 0);
        assert!(close(s.p50_latency_ns as f64, 300.0), "p50 {}", s.p50_latency_ns);
        assert!(close(s.p99_latency_ns as f64, 555.0), "p99 {}", s.p99_latency_ns);
        assert!(s.p50_latency_us > 0.0, "p50 must be non-zero whenever any query ran");
    }

    #[test]
    fn zero_duration_samples_still_count() {
        let mut m = MetricsInner::new();
        m.record_resolve(Duration::ZERO);
        let s = m.snapshot((0, 0), 0);
        assert_eq!(s.latency_samples, 1);
        assert_eq!(s.p50_latency_ns, 1, "clamped to 1 ns, never 0");
        assert!(s.p50_latency_us > 0.0);
    }

    #[test]
    fn outliers_survive_any_number_of_later_samples() {
        // The window-reset artifact the histogram fixes: with the old
        // 1024-sample ring, 100 early 1 ms outliers vanished from p99 as
        // soon as 1024 fast samples followed them. The cumulative
        // histogram keeps them at exactly their true rank.
        let mut m = MetricsInner::new();
        for _ in 0..100 {
            m.record_resolve(Duration::from_micros(1000));
        }
        for _ in 0..1000 {
            m.record_resolve(Duration::from_micros(1));
        }
        let s = m.snapshot((0, 0), 0);
        assert_eq!(s.latency_samples, 1100);
        assert!(
            close(s.p99_latency_ns as f64, 1_000_000.0),
            "p99 must still see the early outliers, got {} ns",
            s.p99_latency_ns
        );
        assert!(close(s.p50_latency_ns as f64, 1_000.0), "p50 {}", s.p50_latency_ns);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let m = MetricsInner::new();
        let s = m.snapshot((0, 0), 0);
        assert_eq!(s.p50_latency_ns, 0);
        assert_eq!(s.p99_latency_ns, 0);
        assert_eq!(s.latency_samples, 0);
        assert_eq!(s.latency_sum_ns, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn cache_and_ingest_counters() {
        let mut m = MetricsInner::new();
        m.record_ingest();
        let s = m.snapshot((3, 1), 7);
        assert_eq!(s.cache_hits, 3, "cache counters pass through from the cache itself");
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hit_rate, 0.75);
        assert_eq!(s.flood_rejections, 7);
        assert_eq!(s.ingests, 1);
    }
}
