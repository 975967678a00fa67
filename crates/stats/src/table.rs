//! Markdown table rendering for the table/figure regeneration binaries.

use std::fmt;

/// Column alignment inside a rendered [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left aligned (default).
    #[default]
    Left,
    /// Right aligned — used for numeric columns.
    Right,
    /// Centered.
    Center,
}

/// A simple markdown/ASCII table builder.
///
/// Every table the paper reports is regenerated as one of these so that
/// `EXPERIMENTS.md` can be assembled directly from binary output.
///
/// # Examples
///
/// ```
/// use soe_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["pair".into(), "IPC".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["gcc:eon".into(), "1.52".into()]);
/// let s = t.to_string();
/// assert!(s.contains("gcc:eon"));
/// assert!(s.contains("| 1.52 |"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        assert!(col < self.headers.len(), "column out of range");
        self.aligns[col] = align;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        // Markdown alignment markers need at least 3 dashes.
        for x in &mut w {
            *x = (*x).max(3);
        }
        w
    }

    fn pad(cell: &str, width: usize, align: Align) -> String {
        let len = cell.chars().count();
        let fill = width.saturating_sub(len);
        match align {
            Align::Left => format!("{cell}{}", " ".repeat(fill)),
            Align::Right => format!("{}{cell}", " ".repeat(fill)),
            Align::Center => {
                let l = fill / 2;
                format!("{}{cell}{}", " ".repeat(l), " ".repeat(fill - l))
            }
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {} |", Self::pad(cell, widths[i], self.aligns[i]))?;
            }
            writeln!(f)
        };
        render(&self.headers, f)?;
        write!(f, "|")?;
        for (i, w) in widths.iter().enumerate() {
            let marker = match self.aligns[i] {
                Align::Left => format!("{} ", "-".repeat(*w + 1)),
                Align::Right => format!(" {}:", "-".repeat(*w)),
                Align::Center => format!(":{}:", "-".repeat(*w)),
            };
            write!(f, "{marker}|")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(row, f)?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimal places — convenience for table
/// cells.
pub fn fnum(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.align(1, Align::Right);
        t.row(vec!["x".into(), "1.0".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("---"));
        assert!(lines[1].contains(':'), "right-aligned marker");
    }

    #[test]
    fn pads_to_widest_cell() {
        let mut t = Table::new(vec!["h".into()]);
        t.row(vec!["wide-cell".into()]);
        t.row(vec!["x".into()]);
        let s = t.to_string();
        for line in s.lines().filter(|l| !l.contains("---")) {
            assert_eq!(line.chars().count(), "| wide-cell |".chars().count());
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["a".into()]).row(vec!["x".into(), "y".into()]);
    }
}
