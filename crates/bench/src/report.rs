//! Small reporting utilities: fixed-width tables, paper-band checks, and
//! a geometric mean.

use std::fmt::Write as _;

/// An expected range from the paper (e.g. "1.73×–2.34×").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower end of the paper's reported range.
    pub lo: f64,
    /// Upper end of the paper's reported range.
    pub hi: f64,
}

impl Band {
    /// Creates a band.
    pub fn new(lo: f64, hi: f64) -> Band {
        Band { lo, hi }
    }

    /// `IN` if inside the band, `~` if within 50 % of an endpoint,
    /// `OFF` otherwise — the qualitative judgement used in EXPERIMENTS.md.
    pub fn verdict(&self, value: f64) -> &'static str {
        if value >= self.lo && value <= self.hi {
            "IN BAND"
        } else if value >= self.lo * 0.5 && value <= self.hi * 1.5 {
            "NEAR"
        } else {
            "OFF"
        }
    }

    /// `true` when the winner is on the right side (value > 1 iff the
    /// band is > 1).
    pub fn same_winner(&self, value: f64) -> bool {
        (self.lo >= 1.0) == (value >= 1.0)
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if (self.lo - self.hi).abs() < 1e-12 {
            write!(f, "{:.2}x", self.lo)
        } else {
            write!(f, "{:.2}x-{:.2}x", self.lo, self.hi)
        }
    }
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A fixed-width text table with a title, rendered by the figure and
/// study binaries.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are pre-formatted strings).
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                parts.push(format!("{:w$}", c, w = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (header row + data rows), for plotting.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_verdicts() {
        let b = Band::new(1.5, 2.5);
        assert_eq!(b.verdict(2.0), "IN BAND");
        assert_eq!(b.verdict(3.0), "NEAR");
        assert_eq!(b.verdict(10.0), "OFF");
        assert!(b.same_winner(1.2));
        assert!(!b.same_winner(0.8));
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("demo") && s.contains("333"));
        assert_eq!(s.lines().count(), 5);
    }
}
