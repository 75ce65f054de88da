//! Order statistics used for every reported timing.

/// Percentiles tried for a tail figure, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A percentile read off a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (95.0 for p95).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Size of the sample set.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. Returns the value and its 1-based rank.
/// `sorted` must be ascending and non-empty.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = (p * n as f64 / 100.0).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], rank)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. Below 20 samples not even the
/// median qualifies; the median is then returned with its short `beyond`
/// count, so the caller can see the tail is unsupported. `None` when
/// there are no samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let n = v.len();
    let pick = |p: f64| {
        let (value, rank) = nearest_rank(&v, p);
        Tail {
            percentile: p,
            value,
            samples: n,
            beyond: n - rank,
        }
    };
    TAIL_PERCENTILES
        .iter()
        .map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| Some(pick(50.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 226 decisions (one table3 pass): p99 leaves 2 beyond, p95 11.
        let samples: Vec<f64> = (1..=226).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 226);
        assert_eq!(t.beyond, 11);
        assert_eq!(t.value, 215.0);
    }

    #[test]
    fn tail_moves_up_once_enough_samples_exist() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 990.0));
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&samples).unwrap().percentile, 95.0);
    }

    #[test]
    fn tail_boundary_is_exactly_ten_beyond() {
        // 100 samples: p90 has rank 90 and exactly 10 beyond; p95 only 5.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_of_a_small_set_reports_the_short_count() {
        assert_eq!(tail(&[]), None);
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (50.0, 3.0, 3, 1)
        );
        assert!(t.beyond < TAIL_MIN_BEYOND);
    }
}
