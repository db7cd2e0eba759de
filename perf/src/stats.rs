//! Percentiles, medians and spreads.

/// Nearest-rank percentile of an ascending slice (`q` in percent).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 50/90/99/99.9/99.99 that still
/// has at least ten samples beyond it; 50 when even p90 has not.
pub fn highest_percentile(samples: usize) -> f64 {
    // (percentile, one sample in how many lies beyond it)
    [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|(_, one_in)| samples / one_in >= 10)
        .map_or(50.0, |(q, _)| q)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Inter-quartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method). Zero
/// for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        ((quartile(3) - quartile(1)) / m).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(50), 50.0);
        assert_eq!(highest_percentile(99), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(999), 90.0);
        assert_eq!(highest_percentile(1_000), 99.0);
        assert_eq!(highest_percentile(9_999), 99.0);
        assert_eq!(highest_percentile(10_000), 99.9);
        assert_eq!(highest_percentile(100_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
