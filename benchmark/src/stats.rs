//! Order statistics for timing samples.

use hybridtier_bench::json::Json;

/// Median, extremes, quartiles, and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when empty or any value is not finite.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Self {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0) — the spread the regression bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `{"median":..,"min":..,"max":..,"n":..}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("median", Json::Num(self.median));
        o.set("min", Json::Num(self.min));
        o.set("max", Json::Num(self.max));
        o.set("n", Json::Int(self.n as i128));
        o
    }
}

/// The three quartile cut points of ascending `sorted`, by the exclusive
/// method (what Python's `statistics.quantiles(values, n=4)` computes, so
/// spreads printed here match an outside check). A single sample is its
/// own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Geometric mean of positive ratios; `None` when empty or any is ≤ 0.
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[f64::NAN]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
