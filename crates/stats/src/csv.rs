//! CSV interchange for [`TimeSeries`] collections.
//!
//! Long format — `series,x,y`, one row per sample — so any number of
//! series with different sample grids share one file, and spreadsheet
//! tools can pivot on the `series` column. Values use Rust's shortest
//! round-trip `f64` formatting, so serialization is byte-stable and
//! [`series_from_csv`] reproduces the input exactly.

use crate::timeseries::TimeSeries;

/// Serializes series as `series,x,y` CSV with a header row. Series keep
/// their given order; samples keep their recorded order.
///
/// Series names must not contain commas or newlines (they are plotted
/// labels like `est_ipc_st[T0]`, never free text).
///
/// # Panics
///
/// Panics if a series name contains a comma, carriage return or newline,
/// which would corrupt the format.
pub fn series_to_csv(series: &[TimeSeries]) -> String {
    let mut out = String::from("series,x,y\n");
    for s in series {
        assert!(
            !s.name().contains([',', '\n', '\r']),
            "series name {:?} cannot be represented in CSV",
            s.name()
        );
        for (x, y) in s.iter() {
            out.push_str(&format!("{},{x},{y}\n", s.name()));
        }
    }
    out
}

/// Parses the [`series_to_csv`] format. Series are reconstructed in
/// first-appearance order; empty series cannot round-trip (they have no
/// rows).
///
/// # Errors
///
/// A descriptive message naming the first malformed line.
// soe-lint: allow(dead-pub): csv.rs's round-trip and malformed-input tests
pub fn series_from_csv(text: &str) -> Result<Vec<TimeSeries>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "series,x,y")) => {}
        other => {
            return Err(format!(
                "series csv: expected header 'series,x,y', got {:?}",
                other.map(|(_, l)| l)
            ))
        }
    }
    let mut out: Vec<TimeSeries> = Vec::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ',');
        let (name, x, y) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(x), Some(y)) => (n, x, y),
            _ => return Err(format!("series csv line {}: expected 3 fields", i + 1)),
        };
        let x = x
            .parse::<f64>()
            .map_err(|_| format!("series csv line {}: bad x {x:?}", i + 1))?;
        let y = y
            .parse::<f64>()
            .map_err(|_| format!("series csv line {}: bad y {y:?}", i + 1))?;
        match out.iter_mut().rev().find(|s| s.name() == name) {
            Some(s) => s.push(x, y),
            None => {
                let mut s = TimeSeries::new(name);
                s.push(x, y);
                out.push(s);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TimeSeries> {
        let mut a = TimeSeries::new("retired_total");
        a.push(10_000.0, 12_345.0);
        a.push(20_000.0, 24_690.0);
        let mut b = TimeSeries::new("est_ipc_st[T0]");
        b.push(250_000.0, 1.0 / 3.0);
        vec![a, b]
    }

    #[test]
    fn csv_round_trips_exactly() {
        let series = sample();
        let csv = series_to_csv(&series);
        let back = series_from_csv(&csv).unwrap();
        assert_eq!(back, series);
        assert_eq!(
            series_to_csv(&back),
            csv,
            "re-serialization is byte-identical"
        );
    }

    #[test]
    fn header_and_order_are_stable() {
        let csv = series_to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,x,y");
        assert_eq!(lines[1], "retired_total,10000,12345");
        assert_eq!(lines[3], "est_ipc_st[T0],250000,0.3333333333333333");
    }

    #[test]
    fn empty_input_serializes_to_header_only() {
        assert_eq!(series_to_csv(&[]), "series,x,y\n");
        assert_eq!(series_from_csv("series,x,y\n").unwrap(), vec![]);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(series_from_csv("").is_err());
        assert!(series_from_csv("wrong header\n").is_err());
        assert!(series_from_csv("series,x,y\nname,1.0\n").is_err());
        assert!(series_from_csv("series,x,y\nname,abc,1.0\n").is_err());
        assert!(series_from_csv("series,x,y\nname,1.0,abc\n").is_err());
    }

    #[test]
    #[should_panic(expected = "cannot be represented")]
    fn comma_in_name_panics() {
        let mut s = TimeSeries::new("a,b");
        s.push(0.0, 0.0);
        series_to_csv(&[s]);
    }
}
