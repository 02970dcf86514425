// The property-based suite needs the external `proptest` crate, which is
// unavailable in offline builds. Enable the crate's non-default `proptest`
// feature (after restoring the dev-dependency in Cargo.toml and the
// workspace manifest) to run it.
#![cfg(feature = "proptest")]

//! Property-based tests for the Metrics Gatherer's aggregation helpers.

use proptest::prelude::*;
use swiftsim_metrics::{geomean, mean, mean_abs, rel_error, MetricsCollector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The geometric mean of positive values lies between min and max and
    /// never exceeds the arithmetic mean (AM–GM).
    #[test]
    fn geomean_between_min_and_max(values in prop::collection::vec(0.01f64..1e6, 1..40)) {
        let g = geomean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min * (1.0 - 1e-9));
        prop_assert!(g <= max * (1.0 + 1e-9));
        prop_assert!(g <= mean(&values) * (1.0 + 1e-9));
    }

    /// Scaling every value scales the geometric mean by the same factor.
    #[test]
    fn geomean_is_homogeneous(values in prop::collection::vec(0.01f64..1e4, 1..20), k in 0.1f64..100.0) {
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        let lhs = geomean(&scaled);
        let rhs = geomean(&values) * k;
        prop_assert!((lhs - rhs).abs() <= rhs.abs() * 1e-9);
    }

    /// Relative error is symmetric under over/under prediction of the same
    /// multiplicative distance measured against the same reference.
    #[test]
    fn rel_error_basics(actual in 1.0f64..1e9, delta in 0.0f64..5.0) {
        prop_assert!((rel_error(actual * (1.0 + delta), actual) - delta).abs() < 1e-6);
        prop_assert_eq!(rel_error(actual, actual), 0.0);
        prop_assert!(mean_abs(&[-delta, delta]) >= 0.0);
    }

    /// Accumulating counts in any interleaving yields the total.
    #[test]
    fn collector_accumulation_is_order_independent(amounts in prop::collection::vec(0u64..1000, 1..50)) {
        let total: u64 = amounts.iter().sum();
        let mut forward = MetricsCollector::new();
        for &a in &amounts {
            forward.add("x", a);
        }
        let mut backward = MetricsCollector::new();
        for &a in amounts.iter().rev() {
            backward.add("x", a);
        }
        prop_assert_eq!(forward.count("x"), Some(total));
        prop_assert_eq!(backward.count("x"), Some(total));
    }
}
