//! Order statistics. The median and every quantile are the repository's
//! own ([`fuse_obs::Reservoir`], its one shared implementation); what is
//! added here is what it lacks: Python's quartiles, and the rule for which
//! tail percentile a sample of a given size supports.

use fuse_obs::Reservoir;

/// Percentiles a tail may be quoted at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is quoted.
const MIN_BEYOND: usize = 10;

/// Median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Reservoir::from_samples(values).median().unwrap_or(f64::NAN)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spread this benchmark reports is the one its driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The highest percentile, no higher than `cap`, that still has at least
/// ten of `n` samples beyond it; `None` when even the lowest candidate does
/// not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize >= MIN_BEYOND)
}

/// A timing reported the way the benchmark reports every timing: its
/// median, the highest supported tail percentile (capped at p99, the name
/// the metrics carry) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is; 50 when the sample supports no tail.
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Timing {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        let mut r = Reservoir::from_samples(samples);
        let tail_p = tail_percentile(r.len(), 99.0).unwrap_or(50.0);
        Some(Timing {
            n: r.len(),
            p50: r.median()?,
            tail_p,
            tail: r.quantile(tail_p / 100.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39, 99.9), None);
        assert_eq!(tail_percentile(40, 99.9), Some(75.0));
        assert_eq!(tail_percentile(100, 99.9), Some(90.0));
        assert_eq!(tail_percentile(200, 99.9), Some(95.0));
        assert_eq!(tail_percentile(999, 99.9), Some(95.0));
        assert_eq!(tail_percentile(1_000, 99.9), Some(99.0));
        assert_eq!(tail_percentile(9_999, 99.9), Some(99.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0), "cap holds");
    }

    #[test]
    fn timing_quotes_the_supported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&samples).unwrap();
        assert_eq!((t.n, t.p50, t.tail_p), (1000, 500.5, 99.0));
        assert!((t.tail - 990.01).abs() < 1e-9, "{}", t.tail);
        let few = Timing::of(&samples[..200]).unwrap();
        assert_eq!(few.tail_p, 95.0);
        assert!((few.tail - 190.05).abs() < 1e-9, "{}", few.tail);
        assert_eq!(Timing::of(&[]), None);
    }

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 50.0, 1.0]), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 45.0, 20.0]),
            [15.0, 30.0, 47.5]
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
