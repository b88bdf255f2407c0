//! Order statistics over a handful of repetitions, and the regression rule
//! the suite applies between two sets of runs.

use crate::spec::Metric;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, extremes and count of one metric over the repetitions of one
/// workload. With 3–5 repetitions no percentile above the median is
/// supported, so none is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// Whether every repetition read exactly the same.
    pub fn exact(&self) -> bool {
        self.min == self.max
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) — the spread the driver accepts a benchmark by.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// How a second set of runs of the same code compares with a first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// By what share of the first median the second is worse.
    pub worsening: f64,
    /// Not worse by more than the bound (a simulated metric: exactly equal).
    pub within: bool,
}

/// Compares two medians of `metric` under its bound. Simulated metrics of
/// the same code and seed must repeat exactly.
pub fn compare(metric: &Metric, first: f64, second: f64) -> Verdict {
    let worsening = metric.better.worsening(first, second);
    let within = if metric.simulated {
        first == second
    } else {
        worsening <= metric.bound.expect("compared metrics carry a bound")
    };
    Verdict { worsening, within }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
        assert!(!s.exact());
        assert!(Summary::of(&[1.5, 1.5]).exact());
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn host_metrics_compare_by_bound_and_direction() {
        let speed = metric("sim_cycles_per_s"); // higher is better, 25 %
        assert!(compare(speed, 1000.0, 800.0).within);
        assert!(compare(speed, 1000.0, 1500.0).within);
        assert!(!compare(speed, 1000.0, 740.0).within);
        let cost = metric("host_ns_per_flit"); // lower is better, 25 %
        assert!(!compare(cost, 100.0, 126.0).within);
        assert!(compare(cost, 100.0, 60.0).within);
        assert!((compare(cost, 100.0, 126.0).worsening - 0.26).abs() < 1e-12);
    }

    #[test]
    fn simulated_metrics_must_repeat_exactly() {
        let accepted = metric("accepted_flits_per_node_cycle");
        assert!(compare(accepted, 0.5, 0.5).within);
        assert!(!compare(accepted, 0.5, 0.5000001).within);
    }
}
