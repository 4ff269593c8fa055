//! Report rendering helpers: markdown tables and percentage formatting.

/// A simple markdown table builder used by every experiment report.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    /// Sets the column headers.
    pub fn header<I, S>(&mut self, columns: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header length.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            self.header.is_empty() || row.len() == self.header.len(),
            "row has {} cells but the header has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        if !self.header.is_empty() {
            let widths: Vec<usize> = (0..self.header.len())
                .map(|col| {
                    self.rows
                        .iter()
                        .map(|row| row[col].len())
                        .chain(std::iter::once(self.header[col].len()))
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            let format_row = |cells: &[String]| {
                let padded: Vec<String> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                    .collect();
                format!("| {} |\n", padded.join(" | "))
            };
            out.push_str(&format_row(&self.header));
            let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&format!("| {} |\n", dashes.join(" | ")));
            for row in &self.rows {
                out.push_str(&format_row(row));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out.push('\n');
        out
    }
}

/// Formats a ratio as a percentage with one decimal (e.g. `0.184` → `18.4%`).
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

/// The mean of `values`, or 0 when there are none.
pub(crate) fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values.into_iter().fold((0.0, 0), |(sum, count), v| (sum + v, count + 1));
    sum / (count as f64).max(1.0)
}

/// Formats a byte count the way the paper writes storage sizes
/// (kilobytes with three decimals above 1 KB, bytes below).
pub fn bytes(value: u64) -> String {
    if value >= 1024 {
        format!("{:.3}KB", value as f64 / 1024.0)
    } else {
        format!("{value}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut table = Table::new("Demo");
        table.header(["a", "b"]);
        table.row(["1", "2"]);
        table.row(["longer", "4"]);
        table.note("a note");
        let rendered = table.render();
        assert!(rendered.contains("### Demo"));
        assert!(rendered.contains("| a "));
        assert!(rendered.contains("| longer | 4"));
        assert!(rendered.contains("> a note"));
    }

    #[test]
    fn pct_and_bytes_format() {
        assert_eq!(pct(0.1844), "18.4%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(mean([0.25, 0.5]), 0.375);
        assert_eq!(mean([]), 0.0);
        assert_eq!(bytes(889), "889B");
        assert_eq!(bytes(60_544), "59.125KB");
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut table = Table::new("Demo");
        table.header(["a", "b"]);
        table.row(["only one"]);
    }
}
