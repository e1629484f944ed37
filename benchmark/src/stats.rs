//! Order statistics: the median, a percentile picker that refuses
//! percentiles the sample cannot support, and the quartile spread the
//! acceptance procedure uses.

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// `values`, ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending, non-empty slice (mean of the middle pair when
/// the length is even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// [`median`] of unsorted values; `0.0` when there are none (a layer that
/// did not run on this workload).
pub fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&sorted(values))
    }
}

/// Nearest-rank percentile `p` (in `0..1`) of an ascending slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail read off
/// two or three samples is noise, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside 0..1");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The tail the sample supports: percentile `p` when [`percentile`] accepts
/// it, otherwise the highest percentile that still leaves [`MIN_BEYOND`]
/// samples beyond it (the maximum when even that fails). Returns the value
/// and the percentile actually used, so a short run says what it measured.
pub fn supported_tail(sorted: &[f64], p: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of no samples");
    if let Some(v) = percentile(sorted, p) {
        return (v, p);
    }
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return (sorted[n - 1], 1.0);
    }
    let rank = n - MIN_BEYOND;
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them; needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(&sorted(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1009).map(f64::from).collect();
        // rank ceil(0.99 * 1009) = 999 leaves exactly 10 beyond.
        assert_eq!(percentile(&s, 0.99), Some(999.0));
        let s: Vec<f64> = (1..=1008).map(f64::from).collect();
        // rank 998 leaves 10 beyond: still accepted.
        assert_eq!(percentile(&s, 0.99), Some(998.0));
        let s: Vec<f64> = (1..=900).map(f64::from).collect();
        // rank 891 leaves 9 beyond: refused.
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(percentile(&s, 0.5), Some(450.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), None);
    }

    #[test]
    fn supported_tail_lowers_the_percentile_until_ten_samples_lie_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&s, 0.99), (90.0, 0.9));
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&s, 0.99), (1980.0, 0.99));
        assert_eq!(supported_tail(&[3.0, 7.0], 0.99), (7.0, 1.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert_eq!(spread(&v), 1.0);
    }
}
