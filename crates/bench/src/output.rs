//! CSV output and table formatting helpers.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Writes one experiment's CSV into the results directory.
#[derive(Debug)]
pub struct CsvWriter {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates `results/<name>.csv` under `out_dir`, creating the directory
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(out_dir: &Path, name: &str) -> io::Result<Self> {
        fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("{name}.csv"));
        Ok(Self {
            writer: BufWriter::new(File::create(&path)?),
            path,
        })
    }

    /// Writes one CSV row from string-ish cells.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn row<I, S>(&mut self, cells: I) -> io::Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let line: Vec<String> = cells.into_iter().map(|c| c.as_ref().to_string()).collect();
        writeln!(self.writer, "{}", line.join(","))
    }

    /// Flushes and reports the file path.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.writer.flush()?;
        Ok(self.path)
    }
}

/// Prints a section header for an experiment.
pub fn print_header(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ht-bench-test-{}", std::process::id()));
        let mut w = CsvWriter::create(&dir, "unit").unwrap();
        w.row(["a", "b"]).unwrap();
        w.row([f3(1.0), f3(2.5)]).unwrap();
        let path = w.finish().unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1.000,2.500\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
