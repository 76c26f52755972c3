//! Order statistics and ratios the benchmark reports.
//!
//! A percentile is reported only where the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond it. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads printed here match the ones a reader recomputes from the
//! per-run medians.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

/// A sorted set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` into a sample set.
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median (mean of the middle two for an even count).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        median_sorted(&self.sorted)
    }

    /// How many samples are below `limit`.
    #[must_use]
    pub fn count_below(&self, limit: f64) -> usize {
        self.sorted.partition_point(|&v| v < limit)
    }

    /// The largest sample.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The nearest-rank percentile at `per_mille`/1000 (990 is p99), or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
    #[must_use]
    pub fn percentile(&self, per_mille: usize) -> Option<Percentile> {
        let n = self.sorted.len();
        if n == 0 || per_mille == 0 || per_mille >= 1000 {
            return None;
        }
        // 1-based nearest rank, in exact integer arithmetic.
        let rank = (n * per_mille).div_ceil(1000).max(1);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Percentile {
            value: self.sorted[rank - 1],
            samples: n,
            beyond,
        })
    }
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: with few values the clamp makes `j * 4` exceed `i * m`,
        // and Python extrapolates below the first value.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// A ratio that is never reported without its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `numerator / base`, or 0 when the base is 0.
    pub value: f64,
    /// What was counted.
    pub numerator: f64,
    /// What it was counted against.
    pub base: f64,
}

/// Builds a [`Ratio`]; an empty base yields 0, never NaN.
#[must_use]
pub fn ratio(numerator: f64, base: f64) -> Ratio {
    Ratio {
        value: if base == 0.0 { 0.0 } else { numerator / base },
        numerator,
        base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples would leave only 9 beyond it.
        assert_eq!(ramp(999).percentile(990), None);
        let p = ramp(1000)
            .percentile(990)
            .expect("1000 samples support p99");
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        // p50 of 20 samples: rank 10, ten beyond.
        assert_eq!(ramp(20).percentile(500).map(|p| p.value), Some(10.0));
        assert_eq!(ramp(19).percentile(500), None);
        assert_eq!(Samples::default().percentile(500), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let s = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.count_below(4.0), 3);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&ten).expect("spread");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = ratio(3.0, 4.0);
        assert_eq!((r.value, r.numerator, r.base), (0.75, 3.0, 4.0));
        let empty = ratio(0.0, 0.0);
        assert_eq!((empty.value, empty.base), (0.0, 0.0));
    }
}
