//! Percentiles under the benchmark's reporting rule.
//!
//! A percentile is only reported where at least [`MIN_BEYOND`] samples
//! lie beyond it. With too few samples for the requested quantile, the
//! highest quantile that still has that many samples beyond it is
//! reported instead, together with the sample count and the quantile
//! actually used.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the reported rank.
    pub value: f64,
    /// The quantile actually reported, `rank / n` (1-based rank).
    pub quantile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (in `0..=1`) of `values`, lowered until
/// at least [`MIN_BEYOND`] samples lie beyond it. `None` when there are
/// not even `MIN_BEYOND + 1` samples.
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 1 - MIN_BEYOND);
    Some(Pct { value: sorted[idx], quantile: (idx + 1) as f64 / n as f64, samples: n })
}

/// Plain median (mean of the middle pair for even counts); `0.0` when
/// empty. Used for set-up repetitions, where the count is small and
/// fixed, not for latency samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_exact_with_enough_samples() {
        let p = percentile(&ramp(2000), 0.99).unwrap();
        assert_eq!(p.value, 1980.0);
        assert_eq!(p.quantile, 0.99);
        assert_eq!(p.samples, 2000);
        // Exactly ten samples beyond at n = 1000.
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.value, 990.0);
    }

    #[test]
    fn tail_is_lowered_to_keep_ten_beyond() {
        let p = percentile(&ramp(200), 0.99).unwrap();
        assert_eq!(p.value, 190.0, "ten samples (191..=200) must lie beyond");
        assert!((p.quantile - 0.95).abs() < 1e-12);
        let values = ramp(200);
        let beyond = values.iter().filter(|&&v| v > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn median_needs_twenty_one_samples_to_be_a_median() {
        assert_eq!(percentile(&ramp(21), 0.5).unwrap().value, 11.0);
        let p = percentile(&ramp(15), 0.5).unwrap();
        assert_eq!(p.value, 5.0);
        assert!(p.quantile < 0.5);
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert!(percentile(&ramp(10), 0.5).is_none());
        assert!(percentile(&[], 0.99).is_none());
        assert!(percentile(&ramp(11), 0.99).is_some());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(percentile(&v, 0.5).unwrap().value, 250.0);
    }

    #[test]
    fn plain_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
