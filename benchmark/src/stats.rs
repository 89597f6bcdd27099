//! Order statistics for timing samples: quartiles the way Python's
//! `statistics.quantiles(values, n=4)` computes them (the acceptance
//! check uses that function, so `repeat` must agree with it), and a
//! small loop that turns a closure into a median time per operation.

use std::time::Instant;

/// First quartile, median and third quartile of `values` (any order).
/// One value is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    if v.len() == 1 {
        return [v[0]; 3];
    }
    // Python's default "exclusive" method: the i-th of n cut points sits
    // at rank i*(len+1)/n, interpolated between its neighbours and
    // clamped to the sample range.
    let (n, m) = (4usize, v.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Calls `sample` until `budget_s` of wall time has gone by — once when
/// `budget_s` is 0 — and returns the median of the values it returned.
pub fn sample_median(budget_s: f64, mut sample: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        samples.push(sample());
        if started.elapsed().as_secs_f64() >= budget_s {
            return median(&samples);
        }
    }
}

/// [`sample_median`] of the nanoseconds per operation of `batch`, which
/// returns how many operations it performed.
pub fn ns_per_op(budget_s: f64, mut batch: impl FnMut() -> u64) -> f64 {
    sample_median(budget_s, || {
        let t = Instant::now();
        let ops = batch().max(1);
        t.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates past a two-point sample.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn ns_per_op_runs_once_with_no_budget() {
        let mut calls = 0;
        let ns = ns_per_op(0.0, || {
            calls += 1;
            10
        });
        assert_eq!(calls, 1);
        assert!(ns >= 0.0);
    }
}
