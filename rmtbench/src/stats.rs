//! Order statistics used by every metric: medians and the tail rule.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics when `v` is empty or holds a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median: the spread the gate
/// checks, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method). 0 with fewer than 2 samples.
///
/// # Panics
///
/// Panics when `v` holds a NaN.
pub fn quartile_spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    let quartile = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(v)
}

/// The percentiles the tail rule may pick, highest first, in tenths
/// of a percent (integers, so ranks are exact).
pub const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The samples a tail percentile must leave above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: which percentile it is and how many samples back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile picked from [`TAIL_LADDER_PERMILLE`]; 100 when the rule falls
    /// back to the maximum.
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly ranked above the picked one.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples ranked above it (nearest-rank
/// definition: the p-th percentile of n sorted samples is the one at
/// rank `ceil(p·n/100)`). With too few samples for any percentile the
/// maximum is reported, labelled as percentile 100 with 0 beyond.
///
/// # Panics
///
/// Panics when `v` is empty or holds a NaN.
pub fn tail(v: &[f64]) -> Tail {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    for pm in TAIL_LADDER_PERMILLE {
        let rank = (pm * n).div_ceil(1000).max(1);
        let beyond = n - rank;
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: pm as f64 / 10.0,
                value: s[rank - 1],
                samples: n,
                beyond,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: s[n - 1],
        samples: n,
        beyond: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartile_spread(&ramp(10)), 1.0);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn thousand_samples_give_a_true_p99() {
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn ten_thousand_samples_reach_p999() {
        let t = tail(&ramp(10_000));
        assert_eq!(t.percentile, 99.9);
        assert_eq!(t.value, 9990.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn rule_steps_down_until_ten_samples_remain_beyond() {
        // 76 jobs: p90 leaves 7 beyond, p75 leaves 19.
        let t = tail(&ramp(76));
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 57.0);
        assert_eq!(t.beyond, 19);
        // 999 samples: p99 leaves 9, so p95 is the highest allowed.
        assert_eq!(tail(&ramp(999)).percentile, 95.0);
    }

    #[test]
    fn boundary_is_exactly_ten_beyond() {
        // 20 samples: p50 is rank 10 with exactly ten beyond; 19 is
        // one short of any percentile.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&ramp(19)).percentile, 100.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        let t = tail(&[5.0, 2.0, 9.0]);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100.0, 9.0, 0, 3)
        );
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v = ramp(300);
        let a = tail(&v);
        v.reverse();
        assert_eq!(a, tail(&v));
    }
}
