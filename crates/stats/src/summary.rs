//! Aggregate statistics over a finished sample.

use serde::{Deserialize, Serialize};

/// Aggregate statistics of a sample of `f64` values.
///
/// `Summary` stores the values it was built from so that quantiles can be
/// computed exactly. For streaming aggregation without retaining values
/// use [`crate::OnlineStats`].
///
/// # Examples
///
/// ```
/// use soe_stats::Summary;
///
/// let s = Summary::from_iter([2.0, 8.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 3.0);
/// assert_eq!(s.max(), Some(8.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a summary from anything iterable over `f64`.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded observations, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean; `0.0` for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation; `0.0` for fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Linear-interpolated quantile `q` in `[0, 1]`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or any value is NaN.
    // soe-lint: allow(dead-pub): summary.rs's quantile tests, and `median`
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Median (the 0.5 quantile); `None` when empty.
    // soe-lint: allow(dead-pub): summary.rs's empty-summary and quantile tests
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Summary::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.median(), None);
    }

    #[test]
    fn mean_and_std_dev() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_iter([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.quantile(0.0), Some(10.0));
        assert_eq!(s.quantile(1.0), Some(40.0));
        assert_eq!(s.median(), Some(25.0));
    }

    #[test]
    fn min_max_track_extremes() {
        let s = Summary::from_iter([3.0, -1.0, 7.5]);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.5));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        Summary::from_iter([1.0]).quantile(1.5);
    }
}
