//! Minimal CSV emission (no external serializer needed): the figures
//! and suites write their raw series next to the printed tables so
//! plots can be regenerated offline.

/// Builds CSV text in memory; [`CsvWriter::as_str`] is the file.
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    buf: String,
    columns: usize,
}

fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

impl CsvWriter {
    /// A writer with the given header row.
    pub fn new(headers: &[&str]) -> Self {
        let mut w = CsvWriter {
            buf: String::new(),
            columns: headers.len(),
        };
        w.push_row(headers.iter().map(|s| s.to_string()));
        w
    }

    fn push_row(&mut self, cells: impl IntoIterator<Item = String>) {
        let mut n = 0;
        for (i, c) in cells.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&escape(&c));
            n = i + 1;
        }
        assert_eq!(n, self.columns, "CSV row arity mismatch");
        self.buf.push('\n');
    }

    /// Appends a row of string cells.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the header.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.push_row(cells.iter().map(|s| s.to_string()));
        self
    }

    /// Appends a row of floats (formatted with up to 6 significant
    /// decimals, trailing zeros trimmed).
    pub fn row_f64(&mut self, cells: &[f64]) -> &mut Self {
        self.push_row(cells.iter().map(|x| {
            let mut s = format!("{x:.6}");
            if s.contains('.') {
                while s.ends_with('0') {
                    s.pop();
                }
                if s.ends_with('.') {
                    s.pop();
                }
            }
            s
        }));
        self
    }

    /// The CSV text accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let mut w = CsvWriter::new(&["t", "broken"]);
        w.row_f64(&[0.0, 3.0]);
        w.row_f64(&[250.0, 17.5]);
        let s = w.as_str();
        assert_eq!(s, "t,broken\n0,3\n250,17.5\n");
    }

    #[test]
    fn escaping_commas_and_quotes() {
        let mut w = CsvWriter::new(&["label", "v"]);
        w.row(&["a,b", "1"]);
        w.row(&["say \"hi\"", "2"]);
        let s = w.as_str();
        assert!(s.contains("\"a,b\",1"));
        assert!(s.contains("\"say \"\"hi\"\"\",2"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        CsvWriter::new(&["a", "b"]).row(&["only-one"]);
    }

    #[test]
    fn trailing_zero_trimming() {
        let mut w = CsvWriter::new(&["x"]);
        w.row_f64(&[1.500000]);
        assert_eq!(w.as_str().lines().last().unwrap(), "1.5");
    }
}
