//! Correlation helper for experiment analysis.

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `0.0` when either sample has zero variance (the correlation is
/// undefined there; zero is the neutral report for "no linear relation
/// measurable").
///
/// # Examples
///
/// ```
/// use soe_stats::pearson;
///
/// let x = [1.0, 2.0, 3.0];
/// assert!((pearson(&x, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
/// assert!((pearson(&x, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must pair up");
    assert!(!x.is_empty(), "samples must be non-empty");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let vy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let inv: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &inv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_zero_correlation() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}
