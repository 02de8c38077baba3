//! Column lists: a published table declares each column once — its
//! aligned-text header, its CSV header and how a row's value is spelled
//! in each — and [`Columns`] renders both forms from that one list, so
//! the printed table and the saved file cannot drift apart.

use crate::{CsvWriter, Table};

/// One cell, spelled for the aligned text and for the CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    text: String,
    csv: String,
}

impl Cell {
    /// A value spelled the same way in both forms (labels, counts).
    pub fn same(v: impl ToString) -> Cell {
        let s = v.to_string();
        Cell::pair(s.clone(), s)
    }

    /// A value with its own spelling in each form.
    pub fn pair(text: impl Into<String>, csv: impl Into<String>) -> Cell {
        Cell {
            text: text.into(),
            csv: csv.into(),
        }
    }

    /// A real with `text_dp` decimals in the text and `csv_dp` in the
    /// CSV; `None` is `-` in the text and empty in the CSV.
    pub fn real(x: impl Into<Option<f64>>, text_dp: usize, csv_dp: usize) -> Cell {
        match x.into() {
            Some(x) => Cell::pair(format!("{x:.text_dp$}"), format!("{x:.csv_dp$}")),
            None => Cell::pair("-", ""),
        }
    }

    /// A share in `[0, 1]`: a percentage in the text, the fraction in
    /// the CSV.
    pub fn share(x: f64) -> Cell {
        Cell::pair(format!("{:.1}%", 100.0 * x), format!("{x:.4}"))
    }

    /// An oracle-violation count: the verdict word in the text, the
    /// count in the CSV.
    pub fn violations(n: usize) -> Cell {
        let text = if n == 0 {
            "ok".to_string()
        } else {
            format!("{n} VIOLATIONS")
        };
        Cell::pair(text, n.to_string())
    }
}

/// One column of a table whose rows are `R`s.
pub struct Column<R> {
    text: Option<&'static str>,
    csv: Option<&'static str>,
    text_slot: Option<usize>,
    cell: fn(&R) -> Cell,
}

impl<R> Column<R> {
    /// A column of both the text table and the CSV.
    pub fn both(text: &'static str, csv: &'static str, cell: fn(&R) -> Cell) -> Self {
        Column {
            text: Some(text),
            csv: Some(csv),
            text_slot: None,
            cell,
        }
    }

    /// A column only the text table shows.
    pub fn text(header: &'static str, cell: fn(&R) -> Cell) -> Self {
        Column {
            csv: None,
            ..Column::both(header, "", cell)
        }
    }

    /// A column only the CSV carries.
    pub fn csv(header: &'static str, cell: fn(&R) -> Cell) -> Self {
        Column {
            text: None,
            ..Column::both("", header, cell)
        }
    }

    /// Columns appear in declaration order in both forms; this moves
    /// the column to position `slot` of the text table, for a table
    /// already published with the two orders apart.
    pub fn text_slot(mut self, slot: usize) -> Self {
        self.text_slot = Some(slot);
        self
    }
}

/// The single declaration of a table: its columns, in CSV order.
pub struct Columns<R>(Vec<Column<R>>);

impl<R> Columns<R> {
    /// A table of these columns.
    pub fn new(columns: Vec<Column<R>>) -> Self {
        Columns(columns)
    }

    /// The aligned text table over `rows`.
    pub fn text<'a>(&self, rows: impl IntoIterator<Item = &'a R>) -> String
    where
        R: 'a,
    {
        let in_text = || self.0.iter().filter(|c| c.text.is_some());
        let mut shown: Vec<&Column<R>> = in_text().filter(|c| c.text_slot.is_none()).collect();
        for c in in_text() {
            if let Some(slot) = c.text_slot {
                shown.insert(slot, c);
            }
        }
        let mut table = Table::new(shown.iter().filter_map(|c| c.text));
        for row in rows {
            table.row(shown.iter().map(|c| (c.cell)(row).text));
        }
        table.render()
    }

    /// The CSV text over `rows`.
    pub fn csv<'a>(&self, rows: impl IntoIterator<Item = &'a R>) -> String
    where
        R: 'a,
    {
        let kept: Vec<&Column<R>> = self.0.iter().filter(|c| c.csv.is_some()).collect();
        let headers: Vec<&str> = kept.iter().filter_map(|c| c.csv).collect();
        let mut csv = CsvWriter::new(&headers);
        for row in rows {
            let cells: Vec<String> = kept.iter().map(|c| (c.cell)(row).csv).collect();
            csv.row(&cells.iter().map(String::as_str).collect::<Vec<_>>());
        }
        csv.as_str().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Columns<(&'static str, Option<f64>, f64, usize)> {
        Columns::new(vec![
            Column::both("name", "name", |r| Cell::same(r.0)),
            Column::csv("hidden", |r| Cell::same(r.3)),
            Column::both("lag(s)", "lag_s", |r| Cell::real(r.1, 1, 2)),
            Column::both("miss", "miss_rate", |r| Cell::share(r.2)),
            Column::both("verdict", "violations", |r| Cell::violations(r.3)),
            Column::text("twice", |r| Cell::same(2 * r.3)),
        ])
    }

    #[test]
    fn one_list_renders_both_forms() {
        let rows = [("a", Some(1.25), 0.5, 0), ("b", None, 0.0, 3)];
        let text = sample().text(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name  lag(s)   miss       verdict  twice");
        assert_eq!(lines[2], "   a     1.2  50.0%            ok      0");
        assert_eq!(lines[3], "   b       -   0.0%  3 VIOLATIONS      6");
        assert_eq!(
            sample().csv(&rows),
            "name,hidden,lag_s,miss_rate,violations\na,0,1.25,0.5000,0\nb,3,,0.0000,3\n"
        );
    }

    #[test]
    fn text_slot_moves_a_column_in_the_text_only() {
        let cols: Columns<u32> = Columns::new(vec![
            Column::both("a", "a", |r| Cell::same(r)),
            Column::both("b", "b", |r| Cell::same(r + 1)),
            Column::both("c", "c", |r| Cell::same(r + 2)).text_slot(0),
        ]);
        assert!(cols.text(&[1]).starts_with("c  a  b\n"));
        assert_eq!(cols.csv(&[1]), "a,b,c\n1,2,3\n");
    }
}
