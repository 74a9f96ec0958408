//! Order statistics for small host-time samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! procedure in the README uses on the medians this benchmark prints: a
//! spread computed here and one computed there agree digit for digit.

/// Median of a sample (mean of the two middle values when even).
/// Panics on an empty sample: every caller times at least one repeat.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q3)` by the exclusive method: the i-th cut point of n+1 equal
/// probability steps, linearly interpolated and clamped to the sample.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let n = v.len();
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The highest of p90 / p99 / p99.9 that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` below 100 samples. A tail
/// percentile estimated from fewer than ten points is one outlier's
/// timestamp, not a statistic, so it is not printed.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    // (percentile, one sample in how many lies beyond it)
    [(99.9, 1_000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find_map(|(p, one_in)| {
            let beyond = v.len() / one_in;
            (beyond >= 10).then(|| (p, v[v.len() - 1 - beyond]))
        })
}

/// Summary of one metric over a sample: a run's timed operations, or the
/// runs of a set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The number reported for the metric: the median, or for a host time
    /// over a run's operations its quiet quartile ([`Summary::quiet`]).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let median = median(values);
        Summary {
            value: median,
            median,
            q1,
            q3,
            mad: mad(values),
            n: values.len(),
        }
    }

    /// A host time over one run's operations, reported as its quiet
    /// quartile: q1 of a time, q3 of a rate (`lower_is_better` false). The
    /// program is deterministic and the box is shared, so whatever else
    /// runs beside an operation only ever adds time to it: the quartile on
    /// the fast side holds as long as a quarter of the operations ran
    /// undisturbed, where the median needs half of them.
    pub fn quiet(values: &[f64], lower_is_better: bool) -> Summary {
        let s = Summary::of(values);
        Summary {
            value: if lower_is_better { s.q1 } else { s.q3 },
            ..s
        }
    }

    /// A value that is exact for its seed (a sim result or a count).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            mad: 0.0,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance procedure holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(99)), None);
        // 100 samples: exactly ten lie beyond p90, one beyond p99.
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 89.0)));
        assert_eq!(tail_percentile(&v(999)), Some((90.0, 899.0)));
        assert_eq!(tail_percentile(&v(1_000)), Some((99.0, 989.0)));
        assert_eq!(tail_percentile(&v(10_000)), Some((99.9, 9_989.0)));
    }

    #[test]
    fn summary_bundles_the_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.mad, s.n), (3.0, 1.5, 4.5, 1.0, 5));
        assert_eq!(s.value, 3.0);
        assert_eq!(s.spread(), 1.0); // (4.5 - 1.5) / 3
        assert_eq!(Summary::exact(2.0).q3, 2.0);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn quiet_quartile_survives_a_disturbed_majority() {
        // Four of six operations ran beside a busy neighbour.
        let times = [2.0, 2.01, 2.6, 2.7, 2.5, 2.9];
        let s = Summary::quiet(&times, true);
        assert!(s.median > 2.5 && s.value < 2.01, "{s:?}");
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        let r = Summary::quiet(&rates, false);
        assert_eq!(r.value, r.q3);
        assert!(r.value > 1.0 / 2.01);
    }
}
