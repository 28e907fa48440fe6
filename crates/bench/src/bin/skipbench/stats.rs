//! Order statistics over repetitions and the bound verdict `--compare`
//! prints.

use serde::{Deserialize, Serialize};

/// Median, quartiles and range of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: u32,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median: median(&v),
            q1,
            q3,
            min,
            max,
            n: v.len() as u32,
        })
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread a bound is judged against.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Median of sorted, non-empty `v` (the mean of the middle pair when the
/// count is even).
fn median(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted, non-empty `v`, computed exactly as
/// Python's `statistics.quantiles(v, n=4)` (the default "exclusive"
/// method, including its extrapolation past the ends of tiny samples).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a new set of runs compares with a base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the base runs' own spread.
    Better,
    /// Worse by more than the metric's bound.
    Worse,
    /// Neither.
    Within,
    /// One side's spread is wider than the bound, so the bound cannot
    /// decide.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of `new` over `base` as a share of `base`'s median,
/// positive when `new` is worse.
fn worsening(base: &Summary, new: &Summary, better: Better) -> f64 {
    let delta = (new.median - base.median) / base.median.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Judges `new` against `base` under `bound` (a share of the base
/// median).
pub fn verdict(base: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(base, new, better);
    if worse > bound {
        Verdict::Worse
    } else if -worse > base.spread() {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(s.q1, 1.0) && close(s.median, 2.0) && close(s.q3, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 4.0) && close(s.q3, 12.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 16.0, 5));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let s = Summary::of(&[7.0, 5.0]).unwrap();
        assert!(close(s.q1, 4.5) && close(s.median, 6.0) && close(s.q3, 7.5));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            min: median * (1.0 - spread),
            max: median * (1.0 + spread),
            n: 10,
        }
    }

    #[test]
    fn verdict_applies_the_bound_in_the_metric_direction() {
        let base = summary(1.0, 0.02);
        // Lower is better: +15% is worse than a 10% bound, +5% is within.
        assert_eq!(
            verdict(&base, &summary(1.15, 0.02), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &summary(1.05, 0.02), Better::Lower, 0.1),
            Verdict::Within
        );
        // A drop beyond the base spread is an improvement.
        assert_eq!(
            verdict(&base, &summary(0.9, 0.02), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &summary(0.99, 0.02), Better::Lower, 0.1),
            Verdict::Within
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&base, &summary(0.85, 0.02), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &summary(1.2, 0.02), Better::Higher, 0.1),
            Verdict::Better
        );
        // A spread wider than the bound decides nothing, on either side.
        assert_eq!(
            verdict(&summary(1.0, 0.3), &summary(1.0, 0.02), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &summary(2.0, 0.3), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
