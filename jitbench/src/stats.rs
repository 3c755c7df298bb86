//! Sample sets and order statistics.

/// A set of measured values (all in one unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile by linear interpolation between closest ranks
    /// (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly above the `q` quantile's rank. A tail
    /// percentile is reported only when at least ten samples lie beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        n - 1 - (q * (n - 1) as f64).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_count_the_tail() {
        let mut s = Samples::default();
        for x in 1..=101 {
            s.push(x as f64);
        }
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.quantile(0.9), 91.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
