//! Property tests for the streaming histogram: quantile estimates stay
//! within the documented relative-error bound of an exact sorted-sample
//! oracle, merging two histograms is bit-identical to ingesting the union
//! stream, and chunked parallel aggregation via `flexer-par` is
//! bit-identical for any thread count.

use flexer_obs::{Histogram, Recorder, REL_ERROR_BOUND};
use proptest::prelude::*;

/// Exact nearest-rank quantile over a sample set.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples spanning the exact low range through multi-octave magnitudes.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        (0u32..30, 0u64..1024).prop_map(|(shift, off)| (1u64 << shift) + off),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every decile (plus p99) of the histogram estimate is within
    /// `REL_ERROR_BOUND` of the exact nearest-rank oracle on the same
    /// samples, and exact below 2·SUB.
    #[test]
    fn quantiles_match_sorted_oracle_within_bound(values in samples()) {
        let mut hist = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            hist.record(v);
        }
        sorted.sort_unstable();
        for i in 0..=10u32 {
            let q = f64::from(i) / 10.0;
            let exact = oracle_quantile(&sorted, q);
            let est = hist.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(
                err <= REL_ERROR_BOUND,
                "q={} exact={} est={} err={}", q, exact, est, err
            );
            if exact < 2 * flexer_obs::SUB {
                prop_assert_eq!(est, exact, "low range must be exact at q={}", q);
            }
        }
        prop_assert_eq!(hist.count(), values.len() as u64);
        prop_assert_eq!(hist.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(hist.min(), *sorted.first().unwrap());
        prop_assert_eq!(hist.max(), *sorted.last().unwrap());
    }

    /// merge(a, b) is bit-identical (structural equality over the full
    /// bucket array) to recording the concatenated stream, in either order.
    #[test]
    fn merge_is_bit_identical_to_union_stream(
        left in samples(),
        right in samples(),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &v in &left {
            a.record(v);
            union.record(v);
        }
        for &v in &right {
            b.record(v);
            union.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &union);
        prop_assert_eq!(&ba, &union);
        prop_assert_eq!(ab.quantile(0.99), union.quantile(0.99));
    }

    /// Chunked aggregation through flexer-par: split the stream into
    /// contiguous per-chunk histograms built on worker threads, merge in
    /// chunk order — bit-identical to the serial histogram for any thread
    /// count.
    #[test]
    fn parallel_aggregation_is_bit_identical_for_any_thread_count(
        values in samples(),
        threads in 1usize..5,
    ) {
        let mut serial = Histogram::new();
        for &v in &values {
            serial.record(v);
        }
        let chunks: Vec<&[u64]> = values.chunks(32.max(values.len() / 7)).collect();
        let merged = flexer_par::with_threads(threads, || {
            let partials = flexer_par::parallel_map(chunks.len(), |i| {
                let mut h = Histogram::new();
                for &v in chunks[i] {
                    h.record(v);
                }
                h
            });
            let mut acc = Histogram::new();
            for part in &partials {
                acc.merge(part);
            }
            acc
        });
        prop_assert_eq!(&merged, &serial);

        // Same property one level up: per-chunk Recorders folded with
        // merge_from agree with a single recorder fed the whole stream.
        let whole = Recorder::new();
        for &v in &values {
            whole.record_span_ns("stream", v);
        }
        let folded = Recorder::new();
        for chunk in &chunks {
            let part = Recorder::new();
            for &v in *chunk {
                part.record_span_ns("stream", v);
            }
            folded.merge_from(&part);
        }
        prop_assert_eq!(
            folded.span_histogram("stream").unwrap(),
            whole.span_histogram("stream").unwrap()
        );
    }
}
