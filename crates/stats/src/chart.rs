//! Minimal ASCII chart rendering so every figure binary has a terminal
//! visualization in addition to its numeric series.

use crate::TimeSeries;

/// Renders a horizontal bar chart: one labelled bar per `(label, value)`.
///
/// Values must be non-negative; the longest bar spans `width` characters.
///
/// # Examples
///
/// ```
/// let s = soe_stats::chart::bar_chart(&[("a".into(), 2.0), ("b".into(), 4.0)], 8);
/// assert!(s.contains("a"));
/// assert!(s.lines().count() == 2);
/// ```
///
/// # Panics
///
/// Panics if any value is negative or `width == 0`.
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "width must be positive");
    assert!(
        items.iter().all(|(_, v)| *v >= 0.0),
        "bar chart values must be non-negative"
    );
    let max = items.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = items
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let n = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {} {value:.4}\n",
            "#".repeat(n)
        ));
    }
    out.pop();
    out
}

/// Renders a sparse line plot of a [`TimeSeries`] on a `rows` × `cols`
/// character grid, with min/max y annotations.
///
/// # Panics
///
/// Panics if `rows` or `cols` is zero.
pub fn line_chart(series: &TimeSeries, rows: usize, cols: usize) -> String {
    assert!(rows > 0 && cols > 0, "chart must have positive dimensions");
    if series.is_empty() {
        return format!("{} (empty)", series.name());
    }
    let thinned = series.thinned(cols);
    let y_min = thinned.min_y().expect("non-empty");
    let y_max = thinned.max_y().expect("non-empty");
    let x_min = thinned.points()[0].x;
    let x_max = thinned.last().expect("non-empty").x;
    let y_span = if y_max > y_min { y_max - y_min } else { 1.0 };
    let x_span = if x_max > x_min { x_max - x_min } else { 1.0 };

    let mut grid = vec![vec![' '; cols]; rows];
    for p in thinned.points() {
        let c = (((p.x - x_min) / x_span) * (cols - 1) as f64).round() as usize;
        let r = (((p.y - y_min) / y_span) * (rows - 1) as f64).round() as usize;
        grid[rows - 1 - r][c.min(cols - 1)] = '*';
    }
    let mut out = format!("{}  [y: {y_min:.4} .. {y_max:.4}]\n", series.name());
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart(&[("x".into(), 1.0), ("y".into(), 2.0)], 10);
        let lines: Vec<&str> = s.lines().collect();
        let hashes = |l: &str| l.chars().filter(|c| *c == '#').count();
        assert_eq!(hashes(lines[0]), 5);
        assert_eq!(hashes(lines[1]), 10);
    }

    #[test]
    fn bar_chart_all_zero() {
        let s = bar_chart(&[("x".into(), 0.0)], 10);
        assert!(!s.contains('#'));
    }

    #[test]
    fn line_chart_plots_endpoints() {
        let mut ts = TimeSeries::new("t");
        ts.push(0.0, 0.0);
        ts.push(10.0, 1.0);
        let s = line_chart(&ts, 4, 20);
        assert!(s.contains('*'));
        assert!(s.starts_with("t  [y: 0.0000 .. 1.0000]"));
    }

    #[test]
    fn line_chart_empty_series() {
        let ts = TimeSeries::new("t");
        assert_eq!(line_chart(&ts, 4, 20), "t (empty)");
    }

    #[test]
    fn line_chart_constant_series_does_not_divide_by_zero() {
        let mut ts = TimeSeries::new("t");
        ts.push(0.0, 3.0);
        ts.push(1.0, 3.0);
        let s = line_chart(&ts, 3, 10);
        assert!(s.contains('*'));
    }
}
