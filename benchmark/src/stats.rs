//! Order statistics for the harness: medians, quartiles and the highest
//! percentile a sample count supports.

/// Smallest of `xs` (0 for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest of `xs` (0 for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `a[i] / b[i]` over the pairs both slices have. Repetitions
/// taken alternately sit in the same state of the host pairwise, so this
/// ratio is far steadier than the ratio of two separate summaries.
pub fn paired_ratio(a: &[f64], b: &[f64]) -> Option<f64> {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|(_, &y)| y > 0.0)
        .map(|(x, y)| x / y)
        .collect();
    (!ratios.is_empty()).then(|| median(&ratios))
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) so a spread
/// printed here is the spread the driver computes from the same values.
/// Fewer than two values give that value three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of the usual percentiles (50, 90, 99, 99.9, 99.99) that
/// still has at least ten samples beyond it; `None` below 20 samples.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000), in integers: 1 - 0.9 is
    // not 0.1 in floating point.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (90.0, 1_000),
        (50.0, 5_000),
    ]
    .into_iter()
    .find(|&(_, tail)| samples * tail >= 10 * 10_000)
    .map(|(p, _)| p)
}

/// `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample: sorts `ns` and returns `(p50, P,
/// value at P)` where `P` is the highest supported percentile up to 99.
pub fn latency_summary(ns: &mut [u64]) -> (u64, f64, u64) {
    ns.sort_unstable();
    let top = highest_supported_percentile(ns.len()).map_or(50.0, |p| p.min(99.0));
    (percentile_sorted(ns, 50.0), top, percentile_sorted(ns, top))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!((min(&[]), max(&[])), (0.0, 0.0));
        assert_eq!((min(&[3.0, 1.0, 2.0]), max(&[3.0, 1.0, 2.0])), (1.0, 3.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn paired_ratio_ignores_a_common_drift() {
        // The host slows down 3x over the run; the true ratio is 1.1.
        let b = [1.0, 2.0, 3.0, 3.0];
        let a = [1.1, 2.2, 3.3];
        assert!((paired_ratio(&a, &b).unwrap() - 1.1).abs() < 1e-12);
        assert_eq!(paired_ratio(&[], &b), None);
        assert_eq!(paired_ratio(&[1.0], &[0.0]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn rel_iqr_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_iqr(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(rel_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(400_000), Some(99.99));
    }

    #[test]
    fn latency_summary_caps_the_tail_at_p99() {
        let mut ns: Vec<u64> = (1..=100_000).rev().collect();
        assert_eq!(latency_summary(&mut ns), (50_000, 99.0, 99_000));
        let mut few: Vec<u64> = (1..=30).collect();
        assert_eq!(latency_summary(&mut few), (15, 50.0, 15));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50);
        assert_eq!(percentile_sorted(&xs, 99.0), 99);
        assert_eq!(percentile_sorted(&xs, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }
}
