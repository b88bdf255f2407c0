use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-oriented results table, printable as aligned text and
/// writable as CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends every row (the flattened output of
    /// [`SweepCtx::try_run_rows`](crate::SweepCtx::try_run_rows)).
    ///
    /// # Panics
    ///
    /// Panics if any row's cell count does not match the header count.
    pub fn extend(&mut self, rows: Vec<Vec<String>>) {
        for row in rows {
            self.push(row);
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, for programmatic inspection in tests.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as an aligned plain-text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders as CSV (headers first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path` through
    /// [`crate::sweep::write_atomic`], creating parent directories: a run
    /// killed mid-write never leaves a truncated CSV behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        crate::sweep::write_atomic(path.as_ref(), self.to_csv().as_bytes())
    }
}

/// Formats a float with the precision the result tables use.
#[must_use]
pub fn fnum(v: f64) -> String {
    if v.is_nan() {
        "-".to_owned()
    } else if v == 0.0 {
        "0".to_owned()
    } else if v.abs() < 0.01 {
        format!("{v:.5}")
    } else if v.abs() < 10.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_csv_rendering() {
        let mut t = Table::new("demo", &["a", "rate"]);
        t.push(vec!["x".into(), "0.5".into()]);
        t.push(vec!["longer".into(), "1".into()]);
        let text = t.to_text();
        assert!(text.starts_with("# demo"));
        assert!(text.contains("longer"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next(), Some("a,rate"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("esc", &["v"]);
        t.push(vec!["a,b".into()]);
        t.push(vec!["q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(f64::NAN), "-");
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.00123), "0.00123");
        assert_eq!(fnum(0.25), "0.2500");
        assert_eq!(fnum(152.37), "152.4");
    }
}
