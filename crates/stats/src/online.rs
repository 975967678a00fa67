//! Streaming (Welford) statistics that never retain the sample.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used inside the simulator's hot loop where retaining every observation
/// (as [`crate::Summary`] does) would be wasteful — e.g. per-cycle occupancy
/// statistics over hundreds of millions of cycles.
///
/// # Examples
///
/// ```
/// use soe_stats::OnlineStats;
///
/// let mut o = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0] {
///     o.push(v);
/// }
/// assert_eq!(o.mean(), 2.0);
/// assert_eq!(o.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    // soe-lint: allow(dead-pub): online.rs's unit tests and doctest
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;

    #[test]
    fn matches_batch_summary() {
        let data = [3.1, -2.0, 14.7, 0.0, 8.8, 8.8];
        let mut o = OnlineStats::new();
        o.extend(data);
        let s = Summary::from_iter(data);
        assert!((o.mean() - s.mean()).abs() < 1e-12);
        assert!((o.std_dev() - s.std_dev()).abs() < 1e-12);
        assert_eq!(o.min(), s.min());
        assert_eq!(o.max(), s.max());
    }

    #[test]
    fn empty_accumulator() {
        let o = OnlineStats::new();
        assert_eq!(o.count(), 0);
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.min(), None);
        assert_eq!(o.max(), None);
    }

    #[test]
    fn merge_is_equivalent_to_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0];
        let mut a = OnlineStats::new();
        a.extend(a_data);
        let mut b = OnlineStats::new();
        b.extend(b_data);
        a.merge(&b);

        let mut all = OnlineStats::new();
        all.extend(a_data.into_iter().chain(b_data));
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.extend([5.0, 6.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
