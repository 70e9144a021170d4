//! Order statistics over raw samples. Every latency the benchmark reports
//! is an exact nearest-rank percentile of the samples it took — no
//! histogram buckets, so no value can sit on a bucket edge.

/// Sorts samples ascending. Samples are measured durations and ratios,
/// never NaN.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n > 0, "a median needs at least one sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(max − min) / median`: the relative spread of a handful of repeated
/// runs (the A/A table).
pub fn relative_range(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let mid = median(&s);
    if mid == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, spelled out: the smallest sample such that at least
    /// p% of all samples are less than or equal to it.
    fn oracle(samples: &[f64], p: f64) -> f64 {
        let s = sorted(samples.to_vec());
        for &candidate in &s {
            let at_or_below = s.iter().filter(|&&v| v <= candidate).count();
            if at_or_below as f64 >= p / 100.0 * s.len() as f64 {
                return candidate;
            }
        }
        s[s.len() - 1]
    }

    #[test]
    fn nearest_rank_matches_the_sorted_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in [1usize, 2, 3, 7, 20, 64, 200, 257] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64 / 8.0
                })
                .collect();
            let s = sorted(samples.clone());
            for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(percentile(&s, p), oracle(&samples, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn p95_of_200_leaves_ten_beyond() {
        assert_eq!(nearest_rank(200, 95.0), 190);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(280, 95.0), 14);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(relative_range(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_range(&[5.0]), 0.0);
    }
}
