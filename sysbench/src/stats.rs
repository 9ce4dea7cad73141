//! Order statistics over timing samples.

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark driver applies to a metric's values across runs. One sample
/// is its own quartiles; no samples give NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    match m {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median ([`quartiles`]' middle cut).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample a twentieth of the samples were quieter than: higher than,
/// if `higher_is_quieter`, else lower than. Fewer than twenty samples give
/// the quietest of them, none give NaN.
pub fn quiet_twentieth(values: &[f64], higher_is_quieter: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if higher_is_quieter {
        sorted.reverse();
    }
    sorted.get(sorted.len() / 20).copied().unwrap_or(f64::NAN)
}

/// Samples that must lie beyond a reported tail percentile, so that a few
/// stragglers do not set it.
const BEYOND_TAIL: f64 = 10.0;

/// The tail percentile to report for `n` samples: the highest of p99,
/// p95 and p90 that leaves at least [`BEYOND_TAIL`] samples beyond it,
/// and the third quartile when there are too few samples for any of them.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= BEYOND_TAIL)
        .unwrap_or(75.0)
}

/// `(percentile used, its value)` for the samples' tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len());
    (p, percentile(values, p))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quiet_twentieth_leaves_a_twentieth_quieter() {
        let v: Vec<f64> = (1..=47).map(f64::from).collect();
        assert_eq!(quiet_twentieth(&v, false), 3.0);
        assert_eq!(quiet_twentieth(&v, true), 45.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_twentieth(&twenty, false), 2.0);
        assert_eq!(quiet_twentieth(&twenty, true), 19.0);
        assert_eq!(quiet_twentieth(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(quiet_twentieth(&[3.0, 1.0, 2.0], true), 3.0);
        assert!(quiet_twentieth(&[], true).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(11), 75.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
