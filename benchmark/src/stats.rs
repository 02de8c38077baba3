//! Medians, spreads, and the percentile rule.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `max − min`: how far one run's repetitions lie apart.
pub fn range(xs: &[f64]) -> f64 {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Tail percentiles a timing may be reported at, highest first.
const LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// The highest percentile on the ladder that still has at least ten
/// samples beyond it, or `None` below 20 samples. A p99 of 27 samples is
/// the maximum under another name; this rule keeps it from being
/// reported as a tail.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    // In whole numbers: `samples * (100 - p) / 100 >= 10`.
    LADDER
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 1000)
        .map(f64::from)
}

/// The `pct`-th percentile by nearest rank over sorted samples.
fn at(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and supported tail of a set of per-call timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)` chosen by [`supported_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Percentiles {
    pub fn of(xs: &[f64]) -> Option<Percentiles> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Percentiles {
            samples: v.len(),
            p50: at(&v, 50.0),
            tail: supported_percentile(v.len()).map(|p| (p, at(&v, p))),
        })
    }

    /// The p99, when the rule supports a p99 for this many samples.
    pub fn p99(&self) -> Option<f64> {
        self.tail.filter(|(p, _)| *p == 99.0).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn range_is_max_minus_min() {
        assert_eq!(range(&[9.0, 10.0, 12.0]), 3.0);
        assert_eq!(range(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(27), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
    }

    #[test]
    fn percentiles_use_nearest_rank_and_the_rule() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = Percentiles::of(&xs).unwrap();
        assert_eq!((p.samples, p.p50), (1000, 500.0));
        assert_eq!(p.tail, Some((99.0, 990.0)));
        assert_eq!(p.p99(), Some(990.0));

        let few: Vec<f64> = (1..=27).map(f64::from).collect();
        let p = Percentiles::of(&few).unwrap();
        assert_eq!(p.tail, Some((50.0, 14.0)));
        assert_eq!(p.p99(), None, "27 samples cannot carry a p99");
        assert_eq!(Percentiles::of(&[]), None);
    }
}
