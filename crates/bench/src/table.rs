//! Minimal fixed-width table rendering for the experiment tables.

use std::fmt::{Display, Write as _};

/// A right-aligned text table under a free-form preamble, rendered into a
/// string (the caller decides where it goes).
pub struct Table {
    out: String,
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table: `preamble` verbatim, then the header row and a
    /// dashed separator. `columns` is `name:width` pairs separated by `|`,
    /// e.g. `"model:18|waiters:10"`.
    #[must_use]
    pub fn new(preamble: &str, columns: &str) -> Table {
        let mut t = Table {
            out: preamble.to_string(),
            widths: Vec::new(),
        };
        let mut names = Vec::new();
        for col in columns.split('|') {
            let (name, width) = col.rsplit_once(':').expect("column is name:width");
            names.push(name);
            t.widths.push(width.parse().expect("column width"));
        }
        t.row(&names.iter().map(|n| n as &dyn Display).collect::<Vec<_>>());
        let rule = "-".repeat(t.out.len() - preamble.len() - 3);
        let _ = writeln!(t.out, "{rule}");
        t
    }

    /// Appends one row, each cell right-aligned to its column width.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        for (cell, width) in cells.iter().zip(&self.widths) {
            let _ = write!(self.out, "{cell:>width$}  ");
        }
        self.out.push('\n');
    }

    /// Appends `footer` verbatim and returns the rendered text.
    #[must_use]
    pub fn finish(mut self, footer: &str) -> String {
        self.out.push_str(footer);
        self.out
    }
}

/// Renders a float with two decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}
