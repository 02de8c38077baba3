//! Property-based tests for the metrics crate.

use pgrid_metrics::{Cdf, CsvWriter, Summary, Table};
use proptest::prelude::*;

proptest! {
    /// The CDF is a proper distribution function: monotone, 0 below
    /// the minimum, 1 at and above the maximum.
    #[test]
    fn cdf_is_a_distribution(samples in prop::collection::vec(-1e4f64..1e4, 1..300)) {
        let cdf = Cdf::new(samples.clone());
        let min = cdf.min().unwrap();
        let max = cdf.max().unwrap();
        prop_assert_eq!(cdf.fraction_at(min - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at(max), 1.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let x = min + (max - min) * i as f64 / 19.0;
            let f = cdf.fraction_at(x);
            prop_assert!(f >= prev);
            prev = f;
        }
    }

    /// Quantiles are order statistics: quantile(q) is an actual sample
    /// and at least a fraction q of samples is ≤ it.
    #[test]
    fn quantiles_are_samples(samples in prop::collection::vec(0.0f64..1e5, 1..200), q in 0.01f64..1.0) {
        let cdf = Cdf::new(samples.clone());
        let x = cdf.quantile(q);
        prop_assert!(samples.iter().any(|s| (s - x).abs() < 1e-12));
        prop_assert!(cdf.fraction_at(x) + 1e-9 >= q);
    }

    /// Summary mean always lies within [min, max].
    #[test]
    fn summary_mean_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let s = Summary::from_iter(xs.iter().copied());
        prop_assert!(s.mean() >= s.min().unwrap() - 1e-6);
        prop_assert!(s.mean() <= s.max().unwrap() + 1e-6);
        prop_assert!(s.variance() >= 0.0);
    }

    /// Table render always has rows + 2 lines and aligned width.
    #[test]
    fn table_render_shape(rows in prop::collection::vec(prop::collection::vec("[a-z0-9]{0,8}", 3), 0..20)) {
        let mut t = Table::new(["a", "b", "c"]);
        for r in &rows {
            t.row(r.clone());
        }
        let s = t.render();
        prop_assert_eq!(s.lines().count(), rows.len() + 2);
    }

    /// CSV row counts match and floats parse back.
    #[test]
    fn csv_round_trip(values in prop::collection::vec((0.0f64..1e6, 0.0f64..1e6), 0..50)) {
        let mut w = CsvWriter::new(&["x", "y"]);
        for (x, y) in &values {
            w.row_f64(&[*x, *y]);
        }
        let text = w.as_str();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), values.len() + 1);
        for (line, (x, y)) in lines[1..].iter().zip(&values) {
            let parts: Vec<&str> = line.split(',').collect();
            prop_assert_eq!(parts.len(), 2);
            let px: f64 = parts[0].parse().unwrap();
            let py: f64 = parts[1].parse().unwrap();
            prop_assert!((px - x).abs() < 1e-3);
            prop_assert!((py - y).abs() < 1e-3);
        }
    }
}
