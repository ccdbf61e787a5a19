//! Human-readable report formatting.
//!
//! The benchmark harness prints paper-style tables (Table I, Table II, ...)
//! from structured results; [`Table`] is the small text-table builder they
//! all share.

use crate::profile::NetworkProfile;

/// A simple fixed-width text table.
///
/// ```
/// use fcad_profiler::Table;
///
/// let mut t = Table::new(vec!["Br.".into(), "GOP".into()]);
/// t.add_row(vec!["1".into(), "1.9".into()]);
/// let text = t.render();
/// assert!(text.contains("GOP"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, cell) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let format_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 != columns {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_owned()
        };
        let mut out = String::new();
        out.push_str(&format_row(&self.header));
        out.push('\n');
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total_width));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }
}

impl NetworkProfile {
    /// Formats the profile in the style of Table I of the paper: one row per
    /// branch with its structure summary, GOP and parameter count (and their
    /// share of the double-counted totals), plus a deduplicated total line.
    pub fn table(&self) -> String {
        let mut table = Table::new(vec![
            "Br.".to_owned(),
            "Input -> Output".to_owned(),
            "Layers".to_owned(),
            "GOP".to_owned(),
            "Params".to_owned(),
        ]);
        let ops_shares = self.ops_shares();
        let param_shares = self.param_shares();
        for (i, branch) in self.branches().iter().enumerate() {
            table.add_row(vec![
                format!("{} ({})", i + 1, branch.name),
                format!("{} -> {}", branch.input, branch.output),
                format!("{}", branch.layer_count()),
                format!(
                    "{:.1} ({:.1}%)",
                    branch.ops() as f64 / 1e9,
                    ops_shares[i] * 100.0
                ),
                format!(
                    "{:.1}M ({:.1}%)",
                    branch.params() as f64 / 1e6,
                    param_shares[i] * 100.0
                ),
            ]);
        }
        table.add_row(vec![
            "total".to_owned(),
            String::new(),
            String::new(),
            format!("{:.1}", self.total_ops() as f64 / 1e9),
            format!("{:.1}M", self.total_params() as f64 / 1e6),
        ]);
        format!(
            "{} ({})\n{}",
            "Network profile",
            self.network_name(),
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::targeted_decoder;

    #[test]
    fn table_renders_all_rows_and_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxxx".into(), "y".into()]);
        t.add_row(vec!["1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn decoder_table_mentions_every_branch_and_total() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let text = profile.table();
        assert!(text.contains("geometry"));
        assert!(text.contains("texture"));
        assert!(text.contains("warp"));
        assert!(text.contains("total"));
        assert!(text.contains('%'));
    }
}
