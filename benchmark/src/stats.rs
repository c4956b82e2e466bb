//! Order statistics the benchmark reports: medians of per-pass values and
//! tail percentiles of pooled samples.

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples. Computed in
/// integer tenths of a percent so `0.99 * 1000` cannot round up a rank.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len())])
}

/// Median of `samples` (nearest rank; `0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, capped at `cap`. `None`
/// when even the median has fewer than that many samples above it.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// A tail value as reported: the percentile it was taken at (per
/// [`tail_percentile`]), the value and the sample count. With too few
/// samples for any percentile the maximum stands in and `at` is `100`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile the value was taken at.
    pub at: f64,
    /// The value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
}

/// The tail of `samples` at `cap` or the highest percentile below it that
/// the sample count supports.
pub fn tail(samples: &[f64], cap: f64) -> Tail {
    let at = tail_percentile(samples.len(), cap).unwrap_or(100.0);
    Tail {
        at,
        value: percentile(samples, at).unwrap_or(0.0),
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: 10 samples beyond it.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // 999 samples leave only 9 beyond p99; p95 has 49.
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_percentile(10_000, 100.0), Some(99.9));
        assert_eq!(tail_percentile(9_999, 100.0), Some(99.0));
        // The cap bounds the answer even when the count allows more.
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // 20 samples: p50 leaves 10 beyond; 19 leave only 9.
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn every_ladder_step_leaves_ten_samples_beyond() {
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n, 100.0) {
                assert!(n - 1 - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                // The next rung up would not have had ten beyond it.
                if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                    assert!(n - 1 - rank(*higher, n) < TAIL_MIN_BEYOND, "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let few = [1.0, 5.0, 3.0];
        assert_eq!(
            tail(&few, 99.0),
            Tail {
                at: 100.0,
                value: 5.0,
                samples: 3
            }
        );
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0).value, 990.0);
    }
}
