//! Order statistics over raw samples.
//!
//! End-to-end percentiles come from raw samples, not from
//! `ilan_metrics::Histogram`: its 6.25% buckets are coarser than the bounds
//! the benchmark enforces. A failed operation is pushed as `f64::INFINITY`,
//! so it misses every latency limit and lands in the tail.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the next lower candidate is used.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile as reported: which one, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile, 0–100.
    pub pct: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Nearest rank of percentile `pct` among `n` samples (1-based).
pub fn nearest_rank(pct: f64, n: usize) -> usize {
    assert!(n > 0, "nearest_rank of an empty sample");
    // The epsilon keeps an exact product (99.9% of 20 000) from rounding up
    // a rank through floating-point error.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sorts a sample in place (NaN-free by construction: every producer
/// pushes a measured time or `INFINITY`).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The nearest-rank percentile of an already sorted sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Quantile {
    let n = sorted.len();
    Quantile {
        pct,
        value: sorted[nearest_rank(pct, n) - 1],
        n,
    }
}

/// The highest percentile, no higher than `want`, with at least
/// [`MIN_BEYOND`] samples beyond its rank. Falls back to the median when
/// the sample is too small for any tail candidate.
pub fn tail(sorted: &[f64], want: f64) -> Quantile {
    let n = sorted.len();
    let pct = TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n - nearest_rank(p, n) >= MIN_BEYOND)
        .unwrap_or(50.0);
    percentile(sorted, pct)
}

/// Median of an unsorted sample: the middle value, or the mean of the two
/// middle values for an even count (so two passes report their mean).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// ns samples to µs; `u64::MAX` marks a failed operation and becomes
/// infinite.
pub fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter()
        .map(|&v| {
            if v == u64::MAX {
                f64::INFINITY
            } else {
                v as f64 / 1e3
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(95.0, 10), 10);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(0.0, 7), 1);
        assert_eq!(percentile(&ramp(100), 95.0).value, 95.0);
        assert_eq!(percentile(&ramp(101), 50.0).value, 51.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        // 2000 samples: p99.9 has only 2 beyond, p99 has 20.
        let q = tail(&ramp(2000), 99.0);
        assert_eq!((q.pct, q.value, q.n), (99.0, 1980.0, 2000));
        let q = tail(&ramp(20_000), 99.9);
        assert_eq!((q.pct, q.value), (99.9, 19_980.0));
        // 500 samples: p99 leaves 5 beyond, so p95 (25 beyond) is chosen.
        let q = tail(&ramp(500), 99.0);
        assert_eq!((q.pct, q.value, q.n), (95.0, 475.0, 500));
        // Exactly ten beyond is enough.
        let q = tail(&ramp(200), 95.0);
        assert_eq!((q.pct, q.value), (95.0, 190.0));
        let q = tail(&ramp(199), 95.0);
        assert_eq!(q.pct, 90.0);
        // Too small for any tail: the median, with its count.
        let q = tail(&ramp(12), 99.0);
        assert_eq!((q.pct, q.value, q.n), (50.0, 6.0, 12));
    }

    #[test]
    fn failures_land_in_the_tail() {
        let mut v = ramp(1000);
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        sort(&mut v);
        assert!(tail(&v, 99.0).value.is_infinite());
        assert_eq!(percentile(&v, 50.0).value, 510.0);
    }

    #[test]
    fn means_and_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
