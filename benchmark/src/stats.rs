//! Order statistics the reports are built from.

/// Sorts a sample set in place (all values must be finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank percentile (`q` in `0..=100`) of a **sorted** sample
/// set: the smallest sample with at least `q`% of the set at or below
/// it. Returns 0 for an empty set so a metric that has no samples on a
/// workload still prints.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a sample set of `n` supports reporting percentile `q`: at
/// least ten samples must lie beyond it, or the figure is one outlier's
/// latency rather than a tail.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n >= rank.max(1) + 10
}

/// Median of an unsorted sample set (mean of the middle pair when the
/// count is even); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `spine compare` and the
/// acceptance rule measure spread the same way. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped to the data.
        // With two or three samples the clamp puts the position outside
        // [j, j+1] and the quartile is extrapolated, as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 when the set is too
/// small or its median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Five samples: p50 is the third, p90 the fifth.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 90.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 is rank 190: exactly ten beyond.
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(supports(107, 90.0) && !supports(107, 95.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // Two samples: both quartiles are extrapolated (0.75, 2.25).
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
