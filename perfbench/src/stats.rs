//! Order statistics over timing samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values.

/// The samples in ascending order.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points `[q1, q2, q3]` of Python's exclusive-method
/// `statistics.quantiles(data, n=4)`.
///
/// # Panics
///
/// Panics on fewer than two samples, as Python does.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: Python extrapolates there.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The slow tail of a sample set: the highest nearest-rank percentile that
/// still has `min(10, n / 2)` samples above it, so a tail is never read off
/// a handful of outliers. With 100 samples this is the 90th percentile;
/// with fewer than 20 it degrades towards the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// See [`Tail`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    let beyond = (n / 2).min(10);
    let rank = n - beyond; // 1-based nearest rank
    Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
    }
}

/// `median(num) / median(den)`: the ratio of two interleaved arms' typical
/// times. Unlike a median of per-sample ratios it does not pair a slow
/// sample of one arm with a fast sample of the other.
pub fn ratio_of_medians(num: &[f64], den: &[f64]) -> f64 {
    median(num) / median(den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_rejects_empty() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert!(
            close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
            "{q:?}"
        );
        // Two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(iqr_share(&xs), (8.25 - 2.75) / 5.5));
        assert_eq!(iqr_share(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_once_there_are_enough() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 40 samples: rank 30 leaves 10 above it -> 75th percentile.
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (75.0, 30.0));
    }

    #[test]
    fn tail_degrades_towards_the_median_on_few_samples() {
        // 6 samples: 3 must lie beyond -> rank 3, the 50th percentile.
        let t = tail(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((t.pct, t.value), (50.0, 3.0));
        let t = tail(&[2.0]);
        assert_eq!((t.pct, t.value), (100.0, 2.0));
    }

    #[test]
    fn ratio_of_medians_is_not_a_median_of_ratios() {
        let seq = [1.0, 2.0, 3.0];
        let par = [10.0, 1.0, 4.0];
        assert_eq!(ratio_of_medians(&seq, &par), 0.5);
        // Per-sample ratios would be [0.1, 2.0, 0.75] with median 0.75.
    }
}
