//! What an experiment returns ([`Figure`]) and the one renderer that prints
//! it and writes its CSV ([`render`]).

use std::fs;
use std::io;
use std::path::Path;

/// One table cell: the number a claim reads and the exact text the CSV
/// holds.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The number (`None` for a label).
    pub value: Option<f64>,
    /// The CSV text.
    pub text: String,
}

impl Cell {
    /// A label: text, no value.
    pub fn label(text: impl Into<String>) -> Self {
        Self {
            value: None,
            text: text.into(),
        }
    }

    /// An integer, written in full.
    pub fn int(v: u64) -> Self {
        Self {
            value: Some(v as f64),
            text: v.to_string(),
        }
    }

    /// A float written with `decimals` places (`inf` for infinity); the
    /// value keeps full precision.
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Self {
            value: Some(v),
            text: format!("{v:.decimals$}"),
        }
    }
}

/// One experiment's result: a header row, rows of cells and the note lines
/// printed under the table (values found in no row, legends).
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// The `repro` id, also the CSV file stem.
    pub id: &'static str,
    /// Column names.
    pub header: Vec<String>,
    /// One entry per CSV row, as many cells as `header` has names.
    pub rows: Vec<Vec<Cell>>,
    /// Lines printed after the table.
    pub notes: Vec<String>,
}

impl Figure {
    /// An empty figure with these column names.
    pub fn new<S: Into<String>>(id: &'static str, header: impl IntoIterator<Item = S>) -> Self {
        Self {
            id,
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        debug_assert_eq!(cells.len(), self.header.len(), "{}: row width", self.id);
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The CSV text: the header, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// The values of `column` in every row whose `key` columns hold the
    /// given texts, in row order. Empty if a column name is unknown.
    pub fn values(&self, key: &[(&str, &str)], column: &str) -> Vec<f64> {
        let col = |name: &str| self.header.iter().position(|h| h == name);
        self.rows
            .iter()
            .filter(|row| {
                key.iter()
                    .all(|&(name, text)| col(name).is_some_and(|i| row[i].text == text))
            })
            .filter_map(|row| row[col(column)?].value)
            .collect()
    }

    /// The value of `column` in the one row whose `key` columns hold the
    /// given texts; `None` unless exactly one row matches.
    pub fn value(&self, key: &[(&str, &str)], column: &str) -> Option<f64> {
        match self.values(key, column)[..] {
            [v] => Some(v),
            _ => None,
        }
    }
}

/// Prints `figure` under its title as an aligned table followed by its
/// notes, and writes `<out_dir>/<id>.csv` (creating `out_dir`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(figure: &Figure, title: &str, out_dir: &Path) -> io::Result<()> {
    println!();
    println!("=== {}: {title} ===", figure.id);
    let mut widths: Vec<usize> = figure.header.iter().map(String::len).collect();
    for row in &figure.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.text.len());
        }
    }
    let line = |cells: Vec<(&str, bool)>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(&(text, number), &w)| {
                if number {
                    format!("{text:>w$}")
                } else {
                    format!("{text:<w$}")
                }
            })
            .collect();
        println!("{}", padded.join("  ").trim_end());
    };
    line(figure.header.iter().map(|h| (h.as_str(), false)).collect());
    for row in &figure.rows {
        line(
            row.iter()
                .map(|c| (c.text.as_str(), c.value.is_some()))
                .collect(),
        );
    }
    for note in &figure.notes {
        println!("{note}");
    }
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{}.csv", figure.id));
    fs::write(&path, figure.csv())?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSV keeps each cell's text; lookups read its value.
    #[test]
    fn csv_roundtrip() {
        let mut fig = Figure::new("unit", ["workload", "ratio", "x"]);
        fig.row(vec![
            Cell::label("CDN"),
            Cell::label("1:8"),
            Cell::fixed(2.5, 3),
        ]);
        fig.row(vec![
            Cell::label("CDN"),
            Cell::label("1:4"),
            Cell::fixed(f64::INFINITY, 2),
        ]);
        fig.row(vec![
            Cell::label("social"),
            Cell::label("1:8"),
            Cell::int(7),
        ]);
        assert_eq!(
            fig.csv(),
            "workload,ratio,x\nCDN,1:8,2.500\nCDN,1:4,inf\nsocial,1:8,7\n"
        );
        assert_eq!(
            fig.value(&[("workload", "CDN"), ("ratio", "1:8")], "x"),
            Some(2.5)
        );
        assert_eq!(fig.value(&[("ratio", "1:4")], "x"), Some(f64::INFINITY));
        assert_eq!(fig.values(&[("ratio", "1:8")], "x"), vec![2.5, 7.0]);
        // Ambiguous, absent, a label column and an unknown column.
        assert_eq!(fig.value(&[("ratio", "1:8")], "x"), None);
        assert_eq!(fig.value(&[("workload", "silo")], "x"), None);
        assert_eq!(fig.value(&[("ratio", "1:4")], "workload"), None);
        assert!(fig.values(&[("nope", "CDN")], "x").is_empty());
    }

    #[test]
    fn render_writes_the_csv_into_a_new_directory() {
        let dir = std::env::temp_dir().join(format!("ht-bench-render-{}", std::process::id()));
        let mut fig = Figure::new("unit", ["a", "b"]);
        fig.row(vec![Cell::label("x"), Cell::fixed(1.0, 3)]);
        fig.note("a note");
        render(&fig, "title", &dir).expect("render");
        let content = fs::read_to_string(dir.join("unit.csv")).expect("csv written");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(content, "a,b\nx,1.000\n");
    }
}
